//! The performance smoke suite: emits `BENCH_coign.json`.
//!
//! Measures the costs the performance layer attacks — scenario
//! profiling (sequential vs `--jobs`-style parallel workers), marshal-size
//! memoization (cache hit rate across the profiling runs), the network
//! sweep (cold per-point min-cut solves vs warm-started chains), and the
//! serving harness (wall-clock session throughput with per-link batching
//! on vs off) — and writes them as one JSON object so CI records the perf
//! trajectory.
//!
//! Correctness is asserted, not just measured: the parallel profile must
//! be byte-identical to the sequential one, and the warm sweep must
//! reproduce the cold sweep's cut values and placements exactly. Either
//! failure aborts the run (and CI) with a non-zero exit.
//!
//! Usage: `perfsuite [out.json]` (default `BENCH_coign.json`).

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::multiway::{
    analyze_multiway_with_replication, anchor_unpinned_machines, derive_tier_constraints,
    replicate_for_distribution, ReplicaRouter, ReplicationPlan,
};
use coign::recovery::RecoveryConfig;
use coign::runtime::{
    choose_distribution, profile_scenario, profile_scenarios, profile_scenarios_crosschecked,
    run_distributed, run_distributed_recovering,
};
use coign::sweep::{sweep, SweepGrid, SweepMode};
use coign::Application;
use coign_apps::scenarios::app_by_name;
use coign_com::MachineId;
use coign_dcom::{CallPolicy, FaultPlan, NetworkModel, NetworkProfile, TimeWindow};
use coign_obs::metrics::quantile_from_buckets;
use coign_obs::Obs;
use std::sync::Arc;
use std::time::Instant;

/// Octarine scenarios replayed by every measurement.
const SCENARIOS: [&str; 3] = ["o_oldtb3", "o_newdoc", "o_oldwp7"];

/// Worker threads for the parallel profiling measurement.
const JOBS: usize = 4;

/// Timing repetitions; the minimum is reported to damp scheduler noise.
const REPS: usize = 3;

/// Off/on pairs timed for the serve telemetry overhead assertion. More
/// than [`REPS`]: the overhead compares two minima, so each side needs
/// enough samples to land at least one rep on the box's stable floor
/// between scheduler stalls.
const TELEMETRY_REPS: usize = 7;

/// Off/on pairs for the trace-emission overhead assertion. The profile
/// replay is an order of magnitude shorter than a serve run, so a single
/// millisecond-scale scheduler stall is a double-digit relative error —
/// and pairs are cheap enough to buy the minima more chances to land
/// clean.
const TRACE_REPS: usize = 15;

fn timed_min_ms<T>(mut body: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        result = Some(body());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (result.expect("REPS >= 1"), best)
}

/// Paired overhead estimate. Runs `off` and `on` back to back
/// [`TELEMETRY_REPS`] times, alternating which side goes first so slow
/// machine drift never systematically bills whichever side happens to
/// run second, and returns `(min_off_ms, min_on_ms, overhead)` with the
/// overhead taken between the two minima. The box's scheduler noise is
/// one-sided — occasional tens-of-ms stalls on top of a stable floor —
/// so per-side minima reject it, where a mean or a median of paired
/// deltas is dragged upward whenever stalls land on most pairs.
fn paired_overhead_ms(reps: usize, mut off: impl FnMut(), mut on: impl FnMut()) -> (f64, f64, f64) {
    let time = |body: &mut dyn FnMut()| {
        let start = Instant::now();
        body();
        start.elapsed().as_secs_f64() * 1e3
    };
    let mut off_min = f64::INFINITY;
    let mut on_min = f64::INFINITY;
    for rep in 0..reps {
        let (o, n) = if rep % 2 == 0 {
            let o = time(&mut off);
            let n = time(&mut on);
            (o, n)
        } else {
            let n = time(&mut on);
            let o = time(&mut off);
            (o, n)
        };
        off_min = off_min.min(o);
        on_min = on_min.min(n);
    }
    (off_min, on_min, (on_min - off_min) / off_min)
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_coign.json".to_string());
    let app = app_by_name("octarine").expect("octarine is registered");

    // 1. Profile replay: sequential vs parallel workers, byte-identical.
    let (sequential, sequential_ms) = timed_min_ms(|| {
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        profile_scenarios(app.as_ref(), &SCENARIOS, &classifier).expect("sequential profile")
    });
    let (parallel, parallel_ms) = timed_min_ms(|| {
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        profile_scenarios_crosschecked(app.as_ref(), &SCENARIOS, &classifier, JOBS, None)
            .expect("parallel profile")
            .0
    });
    assert_eq!(
        sequential.encode(),
        parallel.encode(),
        "parallel profile is not byte-identical to the sequential profile"
    );

    // 2. Marshal-size memoization: hit rate across the profiling runs
    // (the deep-copy size walk the cache short-circuits happens while
    // scenarios are profiled).
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let mut profile = coign::IccProfile::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for scenario in SCENARIOS {
        let run = profile_scenario(app.as_ref(), scenario, &classifier).expect("profiling pass");
        hits += run.report.marshal_cache_hits;
        misses += run.report.marshal_cache_misses;
        profile.merge(&run.profile);
    }
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };

    // 3. Network sweep: cold per-point solves vs warm-started chains.
    let grid = SweepGrid::paper_networks();
    let (cold, cold_ms) =
        timed_min_ms(|| sweep(app.as_ref(), &profile, &grid, SweepMode::Cold).expect("cold sweep"));
    let (warm, warm_ms) =
        timed_min_ms(|| sweep(app.as_ref(), &profile, &grid, SweepMode::Warm).expect("warm sweep"));
    assert_eq!(cold.points.len(), warm.points.len());
    assert!(
        warm_ms < cold_ms,
        "warm-started sweep ({warm_ms:.3} ms) must beat cold per-point solves ({cold_ms:.3} ms)"
    );
    for (c, w) in cold.points.iter().zip(&warm.points) {
        assert_eq!(
            (c.cut_value, &c.client, &c.server),
            (w.cut_value, &w.client, &w.server),
            "warm sweep diverged from cold at latency {} us / bandwidth {} B/s",
            c.latency_us,
            c.bandwidth_bps
        );
    }

    // 4. Trace-emission overhead: the same sequential profile replay with
    // a live tracer attached — every intercepted call emits an `icc_call`
    // instant plus a marshal-cache instant — must stay within 10% of the
    // untraced run, or tracing is too expensive to leave on in CI. The
    // untraced baseline is re-timed here in back-to-back pairs (not taken
    // from section 1): scheduler drift between sections dwarfs the
    // tracer's cost on a shared box.
    let mut traced_events = 0usize;
    let (untraced_ms, traced_ms, trace_overhead) = paired_overhead_ms(
        TRACE_REPS,
        || {
            let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
            profile_scenarios(app.as_ref(), &SCENARIOS, &classifier).expect("untraced profile");
        },
        || {
            let obs = Obs::enabled();
            obs.tracer.set_host_time(false);
            let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
            profile_scenarios_crosschecked(app.as_ref(), &SCENARIOS, &classifier, 1, Some(&obs))
                .expect("traced profile");
            traced_events = obs.tracer.len();
        },
    );
    assert!(
        traced_events > 0,
        "traced profile replay recorded no events"
    );
    assert!(
        trace_overhead < 0.10,
        "trace emission overhead {:.1}% exceeds the 10% budget \
         ({traced_ms:.3} ms traced vs {untraced_ms:.3} ms untraced)",
        trace_overhead * 100.0
    );

    // 5. Self-healing recovery: a machine-death run must finish via a
    // warm-started re-solve — exactly one cold solve however the run
    // goes — with the exactly-once ledger clean and the final placement
    // valid with the dead machine excluded.
    let scenario = SCENARIOS[0];
    let net_profile = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
    let dist = choose_distribution(app.as_ref(), &profile, &net_profile).expect("analysis");
    let plain = run_distributed(
        app.as_ref(),
        scenario,
        &classifier,
        &dist,
        NetworkModel::ethernet_10baset(),
        9,
    )
    .expect("plain distributed run");
    let plan = FaultPlan::none().with_machine_down(
        MachineId::SERVER,
        TimeWindow::new(plain.clock_us / 3, u64::MAX),
    );
    let (recovering, recovering_ms) = timed_min_ms(|| {
        run_distributed_recovering(
            app.as_ref(),
            scenario,
            &classifier,
            &dist,
            &profile,
            NetworkModel::ethernet_10baset(),
            9,
            plan.clone(),
            CallPolicy::default(),
            9,
            RecoveryConfig::default(),
        )
        .expect("recovering run")
    });
    recovering
        .outcome
        .as_ref()
        .expect("machine-death run must finish after recovery");
    let coord = &recovering.coordinator;
    let (recoveries, warm_solves, cold_solves) = (
        coord.recovery_count(),
        coord.warm_solves(),
        coord.cold_solves(),
    );
    let migrations = coord.migration_count();
    assert!(recoveries >= 1, "machine death must trigger a recovery");
    assert!(
        warm_solves >= 1,
        "recovery re-solves must warm-start from the previous flow"
    );
    assert_eq!(cold_solves, 1, "only the base solve may be cold");
    assert_eq!(coord.double_executions(), 0, "exactly-once ledger violated");
    coord
        .validate()
        .expect("post-recovery placement violates constraints");

    // 6. Multiway placement with replication: the 3-machine solve over the
    // accumulated profile, without and with the replication plan from the
    // stage-4/5 legality analysis. The home placement must be identical in
    // both solves (replicas are additional copies, never moves), and on
    // the annotated octarine image the plan must buy a strictly positive
    // traffic reduction.
    let machines = 3;
    let rt = coign_com::ComRuntime::single_machine();
    app.register(&rt);
    let registry = rt.registry();
    let mut constraints = derive_tier_constraints(
        &profile,
        registry,
        MachineId::CLIENT,
        MachineId((machines - 1) as u16),
    );
    let extra = anchor_unpinned_machines(&profile, &net_profile, &constraints, machines)
        .expect("anchor unpinned machines");
    constraints.extend(extra);
    let mut sink = coign::lint::DiagnosticSink::new();
    let report = coign::lint::analyze_replication(registry, &mut sink);
    let replication_plan = ReplicationPlan::from_report(&report, &profile, registry);
    let (plain, plain_place_ms) = timed_min_ms(|| {
        analyze_multiway_with_replication(
            &profile,
            &net_profile,
            &constraints,
            machines,
            &ReplicationPlan::empty(),
        )
        .expect("plain multiway placement")
    });
    let (replicated, replicated_place_ms) = timed_min_ms(|| {
        analyze_multiway_with_replication(
            &profile,
            &net_profile,
            &constraints,
            machines,
            &replication_plan,
        )
        .expect("replicated multiway placement")
    });
    assert!(
        plain.replicas.is_empty(),
        "empty plan must place no replicas"
    );
    assert_eq!(
        plain.distribution.placement, replicated.distribution.placement,
        "replication moved the home placement"
    );
    let (heuristic_cut_ms, refined_cut_ms) = (
        plain.heuristic_cut_us / 1e3,
        plain.distribution.predicted_comm_us / 1e3,
    );
    let replication_gain_ms = replicated.replication_gain_us() / 1e3;
    let replica_count = replicated.replicas.len();
    assert!(
        refined_cut_ms <= heuristic_cut_ms + 1e-9,
        "greedy refinement regressed the heuristic cut"
    );
    assert!(
        replica_count >= 1 && replication_gain_ms > 0.0,
        "annotated octarine must yield at least one strictly-profitable replica"
    );

    // 7. Schedule-space exploration throughput over a generated app: the
    // default grid (128·2 fault instants × 4 breaker thresholds = 1024
    // interleavings) must complete with zero invariant violations, and the
    // calibration fit of the generated traffic must sit inside the
    // documented envelope. Timed once — the schedule itself is the load.
    let explore_opts = coign_gen::explore::ExploreOptions {
        jobs: JOBS,
        ..Default::default()
    };
    let explore_start = Instant::now();
    let explored = coign_gen::explore::explore(
        coign_gen::GenSpec::new(7, coign_gen::GenSize::Small),
        "g_main",
        &explore_opts,
    )
    .expect("schedule-space exploration over gen:7");
    let explore_s = explore_start.elapsed().as_secs_f64();
    assert!(
        explored.interleavings >= 1000,
        "default schedule must cover at least 1000 interleavings"
    );
    assert_eq!(
        explored.violations, 0,
        "generated app violated a recovery invariant"
    );
    assert!(
        explored.calibration_fit <= coign_gen::calibration::KS_TOLERANCE,
        "generated traffic drifted out of the calibration envelope"
    );
    let interleavings = explored.interleavings;
    let interleavings_per_sec = interleavings as f64 / explore_s.max(1e-9);
    let calibration_fit = explored.calibration_fit;

    // 8. The serving harness: 100k sessions multiplexed over a generated
    // app's chosen distribution (gen:42, the documented `coign serve`
    // example — its profile carries a production-shaped mix of crossing
    // and co-located traffic), batching on vs off over identical
    // workloads. Batching must buy at least 1.5× wall-clock call
    // throughput — the PDES payoff of one network-arrival event per batch
    // instead of one per message.
    let gen_app =
        coign_gen::GeneratedApp::new(coign_gen::GenSpec::new(42, coign_gen::GenSize::Small));
    let gen_classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let gen_profile = profile_scenarios(&gen_app, &["g_main"], &gen_classifier)
        .expect("gen:42 profile for the serving harness");
    let gen_dist =
        choose_distribution(&gen_app, &gen_profile, &net_profile).expect("gen:42 analysis");
    let serve_opts = coign::ServeOptions {
        sessions: 100_000,
        jobs: JOBS,
        ..coign::ServeOptions::default()
    };
    let (served, serve_ms) = timed_min_ms(|| {
        coign::serve::serve(
            &gen_profile,
            &gen_dist,
            &NetworkModel::ethernet_10baset(),
            &serve_opts,
        )
        .expect("serving harness run")
    });
    let unbatched_opts = coign::ServeOptions {
        batching: false,
        ..serve_opts.clone()
    };
    let (unbatched, unbatched_ms) = timed_min_ms(|| {
        coign::serve::serve(
            &gen_profile,
            &gen_dist,
            &NetworkModel::ethernet_10baset(),
            &unbatched_opts,
        )
        .expect("unbatched serving run")
    });
    assert_eq!(
        served.sessions, serve_opts.sessions,
        "serve must drain every session"
    );
    assert_eq!(
        unbatched.calls, served.calls,
        "batching changed the scripted call count"
    );
    let serve_sessions_per_sec = served.sessions as f64 / (serve_ms / 1e3);
    let serve_calls_per_sec = served.calls as f64 / (serve_ms / 1e3);
    let unbatched_calls_per_sec = unbatched.calls as f64 / (unbatched_ms / 1e3);
    let batching_speedup = unbatched_ms / serve_ms;
    assert!(
        batching_speedup >= 1.5,
        "per-link batching must buy at least 1.5x wall-clock call throughput \
         (batched {serve_ms:.1} ms vs unbatched {unbatched_ms:.1} ms)"
    );
    let mean_batch = served.mean_batch_size();
    let (serve_p50, serve_p95, serve_p99) = (
        served.latency_quantile_us(0.50),
        served.latency_quantile_us(0.95),
        served.latency_quantile_us(0.99),
    );
    let (serve_sessions, serve_calls) = (served.sessions, served.calls);
    let (serve_pool_hits, serve_pool_misses) = (served.pool_hits, served.pool_misses);

    // 9. Serving telemetry: the same 100k-session run with the windowed
    // timeline recorder and sampled causal tracing on. Telemetry must be
    // observation-only — the simulated summary stays byte-identical to the
    // telemetry-off run of section 8 — and its wall-clock overhead is
    // recorded (always) and asserted under 10%.
    let telemetry_opts = coign::ServeOptions {
        // The CLI's default window: ~1.3k windows over this run's ~132s
        // simulated horizon, tens of completions per window.
        timeline_window_us: 100_000,
        trace_sample: 1_000,
        ..serve_opts.clone()
    };
    // Timed as back-to-back off/on pairs rather than against section 8's
    // number: on a shared CI box the scheduler drift between sections
    // dwarfs the recorder's cost, so the baseline is re-timed in the same
    // breath as the telemetry run and the overhead is the median paired
    // delta.
    let mut telemetry_result = None;
    let (telemetry_baseline_ms, telemetry_ms, telemetry_overhead) = paired_overhead_ms(
        TELEMETRY_REPS,
        || {
            coign::serve::serve(
                &gen_profile,
                &gen_dist,
                &NetworkModel::ethernet_10baset(),
                &serve_opts,
            )
            .expect("telemetry baseline run");
        },
        || {
            let tracer = coign_obs::trace::Tracer::enabled();
            tracer.set_host_time(false);
            let (report, timeline) = coign::serve::serve_traced(
                &gen_profile,
                &gen_dist,
                &NetworkModel::ethernet_10baset(),
                &telemetry_opts,
                Some(&tracer),
            )
            .expect("telemetry serving run");
            telemetry_result = Some((report, timeline, tracer.len()));
        },
    );
    let (telemetry_report, timeline, trace_spans) = telemetry_result.expect("TELEMETRY_REPS >= 1");
    assert_eq!(
        served.summary(false) + &served.summary(true),
        telemetry_report.summary(false) + &telemetry_report.summary(true),
        "serve telemetry perturbed the simulation: summary bytes changed"
    );
    let timeline = timeline.expect("timeline requested");
    let telemetry_windows = timeline.windows().len();
    let worst_window_p99 = timeline.slo(0).worst.map_or(0.0, |w| w.p99_us);
    assert!(trace_spans > 0, "sampled serve tracing recorded no spans");
    assert!(telemetry_windows > 0, "timeline recorded no windows");
    assert!(
        telemetry_overhead < 0.10,
        "serve telemetry overhead {:.1}% exceeds the 10% budget \
         ({telemetry_ms:.3} ms on vs {telemetry_baseline_ms:.3} ms off)",
        telemetry_overhead * 100.0
    );

    // 10. Degraded serving: a 100k-session run under a seeded fault plan
    // — a permanent machine death plus message loss and latency spikes —
    // with replica-aware failover installed. The image is gen:3 (the
    // degraded-serve CI smoke's image) rather than section 8's gen:42:
    // gen:3 is the small generated app whose replication-legality pass
    // yields profitable replicas, so a machine death exercises the O(1)
    // re-point path, not just degraded-mode shedding. The plan's horizon
    // comes from a fault-free probe run, the same idiom `coign serve
    // --fault-seed` uses. The windowed timeline splits the p99 into
    // before/during/after-recovery segments (split at the first and last
    // recovery epoch) so the degradation and the recovery are visible in
    // the record, not just the aggregate; availability must hold a 0.85
    // floor even while the machine is dead, and at least one call must be
    // served by a surviving replica.
    let deg_app =
        coign_gen::GeneratedApp::new(coign_gen::GenSpec::new(3, coign_gen::GenSize::Small));
    let deg_classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let deg_profile = profile_scenarios(&deg_app, &["g_main"], &deg_classifier)
        .expect("gen:3 profile for the degraded serving run");
    let deg_dist =
        choose_distribution(&deg_app, &deg_profile, &net_profile).expect("gen:3 analysis");
    let probe = coign::serve::serve(
        &deg_profile,
        &deg_dist,
        &NetworkModel::ethernet_10baset(),
        &serve_opts,
    )
    .expect("fault-free probe run");
    let mut victims: Vec<MachineId> = deg_dist
        .placement
        .values()
        .copied()
        .filter(|m| *m != MachineId::CLIENT)
        .collect();
    victims.sort();
    victims.dedup();
    let degraded_plan = FaultPlan::seeded(42, probe.horizon_us, &victims);
    assert!(
        !degraded_plan.is_empty(),
        "the seeded plan must schedule at least a machine death"
    );
    let degraded_replicas = {
        let deg_rt = coign_com::ComRuntime::single_machine();
        deg_app.register(&deg_rt);
        let deg_registry = deg_rt.registry();
        let mut deg_sink = coign::lint::DiagnosticSink::new();
        let deg_report = coign::lint::analyze_replication(deg_registry, &mut deg_sink);
        let deg_plan = ReplicationPlan::from_report(&deg_report, &deg_profile, deg_registry);
        let deg_machines = deg_dist
            .placement
            .values()
            .map(|m| m.0 as usize + 1)
            .max()
            .unwrap_or(2)
            .max(2);
        let replicas = replicate_for_distribution(
            &deg_profile,
            &net_profile,
            &deg_dist,
            deg_machines,
            &deg_plan,
            &[],
        );
        assert!(
            !replicas.is_empty(),
            "gen:3 must yield profitable replicas for the failover path"
        );
        Some(ReplicaRouter::new(&deg_dist, &replicas))
    };
    let degraded_opts = coign::ServeOptions {
        timeline_window_us: 100_000,
        faults: degraded_plan,
        replicas: degraded_replicas.clone(),
        ..serve_opts.clone()
    };
    let ((degraded, degraded_series), degraded_ms) = timed_min_ms(|| {
        coign::serve::serve_traced(
            &deg_profile,
            &deg_dist,
            &NetworkModel::ethernet_10baset(),
            &degraded_opts,
            None,
        )
        .expect("degraded serving run")
    });
    assert_eq!(
        degraded.sessions, serve_opts.sessions,
        "a faulted serve must still drain every session"
    );
    let dfaults = degraded
        .faults
        .as_ref()
        .expect("a non-empty plan must produce a fault report");
    let availability = dfaults.availability(degraded.calls);
    assert!(
        availability >= 0.85,
        "availability {availability:.4} fell through the 0.85 floor under \
         machine death with failover installed"
    );
    assert!(
        !dfaults.dead_machines.is_empty(),
        "the scheduled machine death was never declared"
    );
    let degraded_failovers = dfaults.failovers;
    let degraded_replica_served = dfaults.replica_served;
    assert!(
        degraded_failovers > 0,
        "the death must re-point at least one classification at a replica"
    );
    assert!(
        degraded_replica_served > 0,
        "no call was served by a surviving replica"
    );
    let recovery_epochs = dfaults.recovery_epochs.len();
    let first_epoch_us = *dfaults
        .recovery_epochs
        .first()
        .expect("machine death opens at least one recovery epoch");
    let last_epoch_us = *dfaults.recovery_epochs.last().expect("nonempty");
    let series = degraded_series.expect("timeline requested");
    let bounds = series.latency_bounds().to_vec();
    let windows = series.windows();
    let first_idx = (first_epoch_us / degraded_opts.timeline_window_us) as usize;
    let last_idx = (last_epoch_us / degraded_opts.timeline_window_us) as usize;
    let p99_over = |lo: usize, hi: usize| -> f64 {
        let mut merged = vec![0u64; bounds.len() + 1];
        for w in windows.get(lo..hi.min(windows.len())).unwrap_or(&[]) {
            for (m, c) in merged.iter_mut().zip(&w.latency_counts) {
                *m += *c;
            }
        }
        quantile_from_buckets(&bounds, &merged, 0.99).unwrap_or(0.0)
    };
    let p99_before_us = p99_over(0, first_idx);
    let p99_during_us = p99_over(first_idx, last_idx + 1);
    let p99_after_us = p99_over(last_idx + 1, windows.len());
    let degraded_dead = dfaults
        .dead_machines
        .iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let degraded_replicated = degraded_replicas.is_some();

    // `profile.speedup` can sit below 1.0 on a single-core host — the
    // parallel path then only adds thread setup over the sequential replay
    // — so the field records the trajectory instead of asserting a floor.
    let profile_speedup = sequential_ms / parallel_ms;

    let json = format!(
        "{{\"profile\":{{\"scenarios\":{},\"sequential_ms\":{sequential_ms:.3},\
         \"parallel_jobs\":{JOBS},\"parallel_ms\":{parallel_ms:.3},\
         \"speedup\":{profile_speedup:.3},\
         \"byte_identical\":true}},\
         \"marshal_cache\":{{\"hits\":{hits},\"misses\":{misses},\"hit_rate\":{hit_rate:.4}}},\
         \"sweep\":{{\"grid_points\":{},\"cold_ms\":{cold_ms:.3},\"warm_ms\":{warm_ms:.3},\
         \"speedup\":{:.3},\"cut_values_identical\":true}},\
         \"trace\":{{\"events\":{traced_events},\"traced_ms\":{traced_ms:.3},\
         \"overhead_frac\":{trace_overhead:.4}}},\
         \"recovery\":{{\"recoveries\":{recoveries},\"warm_solves\":{warm_solves},\
         \"cold_solves\":{cold_solves},\"migrations\":{migrations},\
         \"double_executions\":0,\"recovering_ms\":{recovering_ms:.3}}},\
         \"multiway\":{{\"machines\":{machines},\"heuristic_cut_ms\":{heuristic_cut_ms:.3},\
         \"refined_cut_ms\":{refined_cut_ms:.3},\"replicas\":{replica_count},\
         \"replication_gain_ms\":{replication_gain_ms:.3},\
         \"plain_place_ms\":{plain_place_ms:.3},\
         \"replicated_place_ms\":{replicated_place_ms:.3}}},\
         \"explore\":{{\"interleavings\":{interleavings},\"violations\":0,\
         \"interleavings_per_sec\":{interleavings_per_sec:.1},\
         \"calibration_fit\":{calibration_fit:.4},\
         \"calibration_tolerance\":{:.3}}},\
         \"serve\":{{\"sessions\":{serve_sessions},\"shards\":{},\
         \"calls\":{serve_calls},\"mean_batch_size\":{mean_batch:.2},\
         \"pool_hits\":{serve_pool_hits},\"pool_misses\":{serve_pool_misses},\
         \"serve_ms\":{serve_ms:.3},\"sessions_per_sec\":{serve_sessions_per_sec:.1},\
         \"calls_per_sec\":{serve_calls_per_sec:.1},\
         \"unbatched_ms\":{unbatched_ms:.3},\
         \"unbatched_calls_per_sec\":{unbatched_calls_per_sec:.1},\
         \"batching_speedup\":{batching_speedup:.3},\
         \"latency_us\":{{\"p50\":{serve_p50:.1},\"p95\":{serve_p95:.1},\
         \"p99\":{serve_p99:.1}}}}},\
         \"telemetry\":{{\"windows\":{telemetry_windows},\
         \"worst_window_p99_us\":{worst_window_p99:.1},\
         \"trace_spans\":{trace_spans},\"telemetry_ms\":{telemetry_ms:.3},\
         \"overhead_frac\":{telemetry_overhead:.4},\"summary_identical\":true}},\
         \"degraded_serve\":{{\"sessions\":{},\"calls\":{},\
         \"availability\":{availability:.4},\
         \"failed_calls\":{},\"timeouts\":{},\"retries\":{},\"drops\":{},\
         \"replicated\":{degraded_replicated},\
         \"failovers\":{degraded_failovers},\
         \"replica_served\":{degraded_replica_served},\
         \"recovery_epochs\":{recovery_epochs},\
         \"first_epoch_us\":{first_epoch_us},\
         \"dead_machines\":[{degraded_dead}],\
         \"p99_us\":{{\"before\":{p99_before_us:.1},\"during\":{p99_during_us:.1},\
         \"after\":{p99_after_us:.1}}},\
         \"degraded_ms\":{degraded_ms:.3}}}}}",
        SCENARIOS.len(),
        cold.points.len(),
        cold_ms / warm_ms,
        coign_gen::calibration::KS_TOLERANCE,
        serve_opts.shards,
        degraded.sessions,
        degraded.calls,
        dfaults.stats.failed_calls,
        dfaults.stats.timeouts,
        dfaults.stats.retries,
        dfaults.stats.drops,
    );
    std::fs::write(&out, format!("{json}\n")).expect("write benchmark output");
    println!("wrote {out}");
    println!(
        "profile {sequential_ms:.1} ms sequential / {parallel_ms:.1} ms with {JOBS} workers; \
         marshal cache hit rate {:.1}%; sweep {cold_ms:.1} ms cold / {warm_ms:.1} ms warm; \
         tracing {traced_events} events at {:.1}% overhead; \
         recovery {recoveries} recovery(ies), {warm_solves} warm / {cold_solves} cold solve(s), \
         {migrations} migration(s) in {recovering_ms:.1} ms; \
         multiway cut {heuristic_cut_ms:.1} ms heuristic / {refined_cut_ms:.1} ms refined, \
         {replica_count} replica(s) saving {replication_gain_ms:.1} ms; \
         explore {interleavings} interleaving(s) at {interleavings_per_sec:.0}/s, \
         0 violation(s), calibration K-S {calibration_fit:.3}; \
         serve {serve_sessions} session(s) in {serve_ms:.1} ms \
         ({serve_calls_per_sec:.0} calls/s wall, mean batch {mean_batch:.1}, \
         batching speedup {batching_speedup:.2}x); \
         telemetry {telemetry_windows} window(s), {trace_spans} span(s) at {:.1}% overhead; \
         degraded serve availability {availability:.4} through {recovery_epochs} recovery \
         epoch(s) ({degraded_failovers} failover(s), {degraded_replica_served} replica-served \
         call(s); p99 {p99_before_us:.0}/{p99_during_us:.0}/{p99_after_us:.0} us \
         before/during/after) in {degraded_ms:.1} ms",
        hit_rate * 100.0,
        trace_overhead * 100.0,
        telemetry_overhead * 100.0
    );
}
