//! Deterministic fault-scenario harness.
//!
//! The fault layer is only useful if its schedules are exactly
//! reproducible: the simulated clock and the seeded fault RNG make every
//! drop, timeout, and fallback a pure function of `(jitter seed, fault
//! seed, fault plan)`. These tests pin the three acceptance behaviors:
//!
//! 1. same fault seed ⇒ byte-identical run report, twice in a row;
//! 2. a machine-death scenario completes via local fallback, with the
//!    fallback recorded in the report;
//! 3. every "nothing enabled" configuration of the general distributed
//!    entry point — a zero-fault plan, drift counting, the self-healing
//!    runtime with and without observability — produces a report identical
//!    to a run without the fault layer at all, on every Table 1 scenario.

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::runtime::{
    choose_distribution, execute_distributed, profile_scenario, run_distributed, RunOptions,
};
use coign::{Application, Distribution, Obs, RecoveryConfig, RunReport};
use coign_apps::scenarios::{all_scenarios, app_by_name};
use coign_com::{ComError, ComResult, MachineId};
use coign_dcom::{CallPolicy, FaultPlan, NetworkModel, NetworkProfile, TimeWindow};
use std::sync::Arc;

const SEED: u64 = 7;

/// Runs `o_oldtb3` under `dist` over a client–server wire that misbehaves
/// per `plan`, retrying per `policy`.
fn run_faulty(
    app: &dyn Application,
    classifier: &Arc<InstanceClassifier>,
    dist: &Distribution,
    plan: FaultPlan,
    policy: CallPolicy,
    fault_seed: u64,
) -> ComResult<RunReport> {
    let opts = RunOptions {
        faults: plan,
        policy,
        fault_seed,
        ..RunOptions::default()
    };
    let network = NetworkModel::ethernet_10baset();
    execute_distributed(app, "o_oldtb3", classifier, dist, network, SEED, opts)
        .map(|run| run.report)
}

/// Profiles one octarine scenario and chooses its ethernet distribution.
fn prepared_octarine(
    scenario: &str,
) -> (
    Arc<dyn coign::Application>,
    Arc<InstanceClassifier>,
    Distribution,
) {
    let app = app_by_name("octarine").unwrap();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(app.as_ref(), scenario, &classifier).unwrap();
    let network = NetworkProfile::measure(&NetworkModel::ethernet_10baset(), 20, 99);
    let dist = choose_distribution(app.as_ref(), &run.profile, &network).unwrap();
    (app, classifier, dist)
}

/// A jitter-free policy so retry timings are exactly predictable.
fn strict_policy() -> CallPolicy {
    CallPolicy {
        timeout_us: 10_000,
        max_retries: 3,
        backoff_base_us: 10_000,
        backoff_multiplier: 2.0,
        backoff_jitter: 0.0,
    }
}

#[test]
fn same_fault_seed_reproduces_the_report_byte_for_byte() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    let plan = FaultPlan::none().with_loss(0.05);
    let run = |fault_seed| {
        run_faulty(
            app.as_ref(),
            &classifier,
            &dist,
            plan.clone(),
            CallPolicy::default(),
            fault_seed,
        )
        .unwrap()
    };
    let first = run(11);
    let second = run(11);
    assert_eq!(first, second, "same fault seed must reproduce the report");
    assert_eq!(
        first.summary(),
        second.summary(),
        "rendered summaries must be byte-identical"
    );
    // The plan actually perturbed the wire (the test would be vacuous
    // otherwise) ...
    assert!(first.faults.retries > 0, "lossy wire should force retries");
    // ... and a different fault seed schedules different faults.
    let other = run(12);
    assert_ne!(first.faults, other.faults);
}

#[test]
fn machine_death_completes_via_recorded_local_fallback() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    // The server never comes up at all.
    let plan = FaultPlan::none().with_machine_down(MachineId::SERVER, TimeWindow::ALWAYS);
    let report = run_faulty(app.as_ref(), &classifier, &dist, plan, strict_policy(), 1)
        .expect("scenario completes despite the dead server");
    // Every server-bound instantiation degraded to the client...
    assert!(report.faults.fallbacks > 0, "fallbacks must be recorded");
    assert!(report
        .instance_placements
        .iter()
        .all(|&(_, machine)| machine == MachineId::CLIENT));
    // ...so nothing ever crossed the wire.
    assert_eq!(report.stats.cross_machine_calls, 0);
    assert_eq!(report.stats.messages, 0);
    // The counters agree with the summary rendering CI diffs against.
    assert!(report
        .summary()
        .contains(&format!("fault_fallbacks={}", report.faults.fallbacks)));
}

#[test]
fn zero_fault_plan_is_identical_to_no_fault_layer() {
    let network = NetworkProfile::measure(&NetworkModel::ethernet_10baset(), 20, 99);
    for scenario in all_scenarios() {
        let app = app_by_name(scenario.app).unwrap();
        let app = app.as_ref();
        let name = scenario.name;
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenario(app, name, &classifier).unwrap().profile;
        let dist = choose_distribution(app, &profile, &network).unwrap();
        let execute = |opts: RunOptions<'_>| {
            let ethernet = NetworkModel::ethernet_10baset();
            execute_distributed(app, name, &classifier, &dist, ethernet, SEED, opts).unwrap()
        };
        let plain = run_distributed(
            app,
            name,
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            SEED,
        )
        .unwrap();
        let obs = Obs::enabled();
        // Every configuration that schedules no fault: none may perturb
        // the run by a single byte of its summary.
        let configurations = [
            (
                "empty fault plan",
                RunOptions {
                    // The fault seed must be irrelevant when no faults are
                    // scheduled.
                    fault_seed: 0xDEAD_BEEF,
                    ..RunOptions::default()
                },
            ),
            (
                "drift baseline",
                RunOptions {
                    drift_baseline: Some(&profile),
                    ..RunOptions::default()
                },
            ),
            (
                "recovery",
                RunOptions {
                    recovery: Some((&profile, RecoveryConfig::default())),
                    ..RunOptions::default()
                },
            ),
            (
                "recovery + obs",
                RunOptions {
                    recovery: Some((&profile, RecoveryConfig::default())),
                    obs: Some(&obs),
                    ..RunOptions::default()
                },
            ),
        ];
        for (label, opts) in configurations {
            let run = execute(opts);
            assert_eq!(run.outcome, Ok(()), "{name} under {label}: scenario failed");
            assert!(run.report.faults.is_clean(), "{name} under {label}");
            assert_eq!(run.report, plain, "{name} under {label}: report differs");
            assert_eq!(
                run.report.summary(),
                plain.summary(),
                "{name} under {label}: summary differs from run_distributed"
            );
        }
    }
}

#[test]
fn healed_partition_retries_then_succeeds_with_exact_timing() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    // The link is severed for the first 30 ms of the run. With a 10 ms
    // timeout and 10 ms base backoff, the first cross-machine call probes
    // at t, t+20ms, t+40ms — the third probe lands after the partition
    // heals, so the run completes with exactly 2 recorded retries... per
    // blocked call; later calls happen after healing and are clean.
    let plan = FaultPlan::none().with_partition(
        MachineId::CLIENT,
        MachineId::SERVER,
        TimeWindow::new(0, 30_000),
    );
    let report = run_faulty(app.as_ref(), &classifier, &dist, plan, strict_policy(), 1)
        .expect("partition heals inside the retry budget");
    assert!(report.faults.timeouts > 0);
    assert!(report.faults.retries > 0);
    assert_eq!(report.faults.failed_calls, 0);
    assert_eq!(report.faults.fallbacks, 0);
    // Timeouts and backoff waits burned wall-clock but were not charged
    // as communication: every timeout and retry contributed its wait.
    assert!(
        report.faults.wasted_us >= report.faults.timeouts * 10_000 + report.faults.retries * 10_000
    );
    assert!(report.clock_us > report.stats.comm_us + report.stats.compute_us);
}

#[test]
fn unhealed_partition_surfaces_a_typed_error() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    let plan =
        FaultPlan::none().with_partition(MachineId::CLIENT, MachineId::SERVER, TimeWindow::ALWAYS);
    let err = run_faulty(app.as_ref(), &classifier, &dist, plan, strict_policy(), 1)
        .expect_err("an unhealed partition must fail the scenario");
    assert!(
        matches!(err, ComError::Partitioned { .. }),
        "expected Partitioned, got {err:?}"
    );
}

#[test]
fn latency_spike_slows_the_run_without_changing_traffic() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    let run = |plan: FaultPlan| {
        run_faulty(
            app.as_ref(),
            &classifier,
            &dist,
            plan,
            CallPolicy::default(),
            1,
        )
        .unwrap()
    };
    // Compare a 1× "spike" (fault path active, wire unchanged) against a
    // genuine 10× congestion episode covering the whole run.
    let calm = run(FaultPlan::none().with_spike(1.0, TimeWindow::ALWAYS));
    let spiked = run(FaultPlan::none().with_spike(10.0, TimeWindow::ALWAYS));
    assert_eq!(calm.stats.messages, spiked.stats.messages);
    assert_eq!(calm.stats.bytes, spiked.stats.bytes);
    assert!(
        spiked.stats.comm_us > calm.stats.comm_us * 9,
        "10× spike: {} vs {}",
        spiked.stats.comm_us,
        calm.stats.comm_us
    );
}

#[test]
fn parsed_plan_behaves_like_the_built_plan() {
    let (app, classifier, dist) = prepared_octarine("o_oldtb3");
    let built = FaultPlan::none().with_machine_down(MachineId::SERVER, TimeWindow::from(0));
    let parsed = FaultPlan::parse("down 1 0..\n").unwrap();
    let run = |plan: FaultPlan| {
        run_faulty(
            app.as_ref(),
            &classifier,
            &dist,
            plan,
            CallPolicy::default(),
            1,
        )
        .unwrap()
    };
    assert_eq!(run(built), run(parsed));
}
