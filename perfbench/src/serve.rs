//! `serve` and `serve_faulted`: open-loop fleet serving below saturation.
//!
//! Set-up profiles a generated app, chooses its 10BaseT distribution and
//! measures the saturated session throughput with every session arriving
//! at once. The main point then offers [`LOAD`] of that throughput:
//! arrivals are scheduled on the simulated clock before the run starts, so
//! they are never late and latency counts from the scheduled arrival.
//! `serve` runs gen:42 with no faults and telemetry off; `serve_faulted`
//! runs gen:3 under a seeded fault plan with replica failover, the
//! timeline and sampled causal tracing on.

use crate::probe::Recorder;
use crate::{Pass, Values, Workload, PROFILE_SAMPLES, PROFILE_SEED};
use coign::analysis::Distribution;
use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::multiway::{replicate_for_distribution, ReplicaRouter, ReplicationPlan};
use coign::runtime::{choose_distribution, profile_scenarios};
use coign::serve::{serve, serve_traced, ServeReport};
use coign::{Application, IccProfile, ServeOptions};
use coign_com::{ComRuntime, MachineId};
use coign_dcom::{FaultPlan, NetworkModel, NetworkProfile};
use coign_gen::{GenSize, GenSpec, GeneratedApp};
use coign_obs::timeseries::TimeSeries;
use coign_obs::trace::Tracer;
use std::collections::BTreeMap;

/// Offered load of the main point, as a share of saturated throughput.
const LOAD: f64 = 0.8;

/// The load ladder behind `sim_capacity_per_s`, shares of saturation.
const LADDER: [f64; 5] = [0.5, 0.7, 0.8, 0.9, 0.95];

/// Simulated p99 session latency a ladder rate must meet to count as
/// capacity, ms.
const P99_LIMIT_MS: f64 = 250.0;

/// A run's backlog grows when its last completion trails its last arrival
/// by more than this share of the arrival span.
const BACKLOG_LIMIT: f64 = 0.02;

/// Sessions per main-point run.
const SESSIONS: u64 = 100_000;

/// Sessions in the saturation probe. They are all in flight at once, so
/// the probe sets the process's peak memory: with 40,000 sessions that
/// peak depended on how the two worker threads' shards overlapped, and
/// `peak_rss_mb` spread 7.5% across seeds; with 8,000 it spreads 2%.
const PROBE_SESSIONS: u64 = 8_000;

/// Independently clocked shards of the fleet.
const SHARDS: usize = 4;

/// Worker threads; the summary does not depend on it.
const MAX_JOBS: usize = 2;

/// Timeline window of `serve_faulted` (the CLI's default), simulated µs.
const TIMELINE_WINDOW_US: u64 = 100_000;

/// `serve_faulted` traces every this-many-th session.
const TRACE_SAMPLE: u64 = 1_000;

/// The seed of the set-up probes (saturation and fault-free) and of
/// `serve_faulted`'s fault plan, which fixes the operating point and the
/// fault schedule as parts of the workload; the workload seed varies the
/// measured runs' arrivals. A plan sized over a horizon that moved with the
/// workload seed put the server's death anywhere in `[h/8, h/2)`, and the
/// host work of a run varied 1.7-fold across seeds.
const SETUP_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// gen:42, no faults, telemetry off.
    Clean,
    /// gen:3 under a seeded fault plan with failover and telemetry.
    Faulted,
}

pub struct Serve {
    variant: Variant,
    profile: IccProfile,
    distribution: Distribution,
    network: NetworkModel,
    /// The main point's options.
    opts: ServeOptions,
    saturated_per_s: f64,
    /// Calls in one session's script.
    script_len: u64,
    /// The summary of the last main-point pass.
    summary: Option<String>,
    /// The timeline of the last main-point pass (`serve_faulted`).
    timeline: Option<TimeSeries>,
}

fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_JOBS))
}

/// Per-shard mean arrival spacing, in whole µs, offering `rate` sessions
/// per simulated second to the fleet. A shard draws each gap uniformly
/// from `1..=2·spacing`, so the mean gap is `spacing + 0.5`.
fn spacing_for(rate_per_s: f64) -> u64 {
    ((SHARDS as f64 * 1e6 / rate_per_s) - 0.5).round().max(1.0) as u64
}

/// Fleet arrival rate offered by a per-shard spacing, sessions per second.
fn offered_per_s(spacing_us: u64) -> f64 {
    SHARDS as f64 * 1e6 / (spacing_us as f64 + 0.5)
}

/// Last completion minus the expected last arrival, as a share of the
/// arrival span. Near zero below saturation; grows with the run above it.
fn backlog_share(report: &ServeReport, opts: &ServeOptions) -> f64 {
    let per_shard = opts.sessions.div_ceil(SHARDS as u64);
    let span_us = (per_shard - 1) as f64 * (opts.arrival_spacing_us as f64 + 0.5);
    (report.horizon_us as f64 - span_us) / span_us
}

fn replica_router(
    app: &dyn Application,
    profile: &IccProfile,
    network: &NetworkProfile,
    distribution: &Distribution,
) -> Option<ReplicaRouter> {
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let registry = rt.registry();
    let mut sink = coign::lint::DiagnosticSink::new();
    let report = coign::lint::analyze_replication(registry, &mut sink);
    let plan = ReplicationPlan::from_report(&report, profile, registry);
    let machines = distribution
        .placement
        .values()
        .map(|m| m.0 as usize + 1)
        .max()
        .unwrap_or(2)
        .max(2);
    let replicas = replicate_for_distribution(profile, network, distribution, machines, &plan, &[]);
    (!replicas.is_empty()).then(|| ReplicaRouter::new(distribution, &replicas))
}

impl Serve {
    pub fn setup(variant: Variant, seed: u64) -> Result<Self, String> {
        let gen_seed = match variant {
            Variant::Clean => 42,
            Variant::Faulted => 3,
        };
        let app = GeneratedApp::new(GenSpec::new(gen_seed, GenSize::Small));
        let classifier = std::sync::Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenarios(&app, &["g_main"], &classifier)
            .map_err(|e| format!("gen:{gen_seed}: profile: {e}"))?;
        let net_profile = NetworkProfile::measure(
            &NetworkModel::ethernet_10baset(),
            PROFILE_SAMPLES,
            PROFILE_SEED,
        );
        let distribution = choose_distribution(&app, &profile, &net_profile)
            .map_err(|e| format!("gen:{gen_seed}: analyze: {e}"))?;
        let network = NetworkModel::ethernet_10baset();
        let base = ServeOptions {
            sessions: PROBE_SESSIONS,
            shards: SHARDS,
            jobs: jobs(),
            seed: SETUP_SEED,
            arrival_spacing_us: 1,
            ..ServeOptions::default()
        };
        let probe = serve(&profile, &distribution, &network, &base)
            .map_err(|e| format!("saturation probe: {e}"))?;
        let saturated_per_s = probe.sessions_per_sim_sec();
        let mut opts = ServeOptions {
            sessions: SESSIONS,
            arrival_spacing_us: spacing_for(LOAD * saturated_per_s),
            ..base
        };
        if variant == Variant::Faulted {
            let clean = serve(&profile, &distribution, &network, &opts)
                .map_err(|e| format!("fault-free probe: {e}"))?;
            let mut victims: Vec<MachineId> = distribution
                .placement
                .values()
                .copied()
                .filter(|m| *m != MachineId::CLIENT)
                .collect();
            victims.sort();
            victims.dedup();
            opts.faults = FaultPlan::seeded(SETUP_SEED, clean.horizon_us, &victims);
            if opts.faults.is_empty() {
                return Err("the seeded fault plan scheduled nothing".to_string());
            }
            opts.replicas = replica_router(&app, &profile, &net_profile, &distribution);
            if opts.replicas.is_none() {
                return Err("gen:3 yields no profitable replica for failover".to_string());
            }
            opts.timeline_window_us = TIMELINE_WINDOW_US;
            opts.trace_sample = TRACE_SAMPLE;
        }
        opts.seed = seed;
        let script_len = profile.edges.len().min(opts.script_cap.max(1)) as u64;
        Ok(Serve {
            variant,
            profile,
            distribution,
            network,
            opts,
            saturated_per_s,
            script_len,
            summary: None,
            timeline: None,
        })
    }

    fn run(
        &self,
        opts: &ServeOptions,
        tracer: Option<&Tracer>,
    ) -> Result<(ServeReport, Option<TimeSeries>), String> {
        serve_traced(
            &self.profile,
            &self.distribution,
            &self.network,
            opts,
            tracer,
        )
        .map_err(|e| format!("serve: {e}"))
    }

    /// Checks that every session drained and ran its whole script. The
    /// latency histogram holds one observation per completed session.
    fn check_drained(&self, report: &ServeReport, opts: &ServeOptions) -> Result<(), String> {
        let completed = report.latency.count();
        if completed != opts.sessions {
            return Err(format!(
                "{completed} of {} sessions completed",
                opts.sessions
            ));
        }
        if report.calls != opts.sessions * self.script_len {
            return Err(format!(
                "{} calls, not {} sessions x {} scripted calls",
                report.calls, opts.sessions, self.script_len
            ));
        }
        Ok(())
    }

    /// The main point with the timeline and causal tracing off.
    fn telemetry_off(&self) -> Result<ServeReport, String> {
        let opts = ServeOptions {
            timeline_window_us: 0,
            trace_sample: 0,
            ..self.opts.clone()
        };
        let (report, _) = self.run(&opts, None)?;
        self.check_drained(&report, &opts)?;
        Ok(report)
    }

    /// Highest ladder rate whose simulated p99 meets [`P99_LIMIT_MS`] with
    /// no growing backlog, sessions per simulated second.
    fn capacity(&self) -> Result<f64, String> {
        let mut capacity = 0.0;
        for share in LADDER {
            let opts = ServeOptions {
                arrival_spacing_us: spacing_for(share * self.saturated_per_s),
                ..self.opts.clone()
            };
            let (report, _) = self.run(&opts, None)?;
            self.check_drained(&report, &opts)?;
            let p99_ms = report.latency_quantile_us(0.99) / 1e3;
            if p99_ms <= P99_LIMIT_MS && backlog_share(&report, &opts) <= BACKLOG_LIMIT {
                capacity = offered_per_s(opts.arrival_spacing_us);
            }
        }
        Ok(capacity)
    }

    /// Busiest link's share of the fleet's time spent transmitting.
    fn link_util_max(&self, timeline: &TimeSeries, horizon_us: u64) -> f64 {
        let mut busy: BTreeMap<(u16, u16), u64> = BTreeMap::new();
        for w in timeline.windows() {
            for (link, us) in &w.link_busy_us {
                *busy.entry(*link).or_default() += us;
            }
        }
        let max = busy.values().copied().max().unwrap_or(0);
        max as f64 / (SHARDS as f64 * horizon_us.max(1) as f64)
    }
}

impl Workload for Serve {
    fn throughput_name(&self) -> &'static str {
        "sessions_per_s"
    }

    fn pass(&mut self, rec: &mut Recorder) -> Result<Pass, String> {
        let tracer = (self.variant == Variant::Faulted).then(|| {
            let t = Tracer::enabled();
            t.set_host_time(false);
            t
        });
        let (report, timeline) = rec.layer("serve", || self.run(&self.opts, tracer.as_ref()))?;
        self.check_drained(&report, &self.opts)?;
        let backlog = backlog_share(&report, &self.opts);
        if backlog > BACKLOG_LIMIT {
            return Err(format!(
                "the main point's backlog grows: the last completion trails the last arrival \
                 by {:.1}% of the arrival span (limit {:.0}%), so {LOAD} x saturation is not \
                 below saturation",
                backlog * 100.0,
                BACKLOG_LIMIT * 100.0
            ));
        }
        let mut values: Values = vec![
            ("sim_cost_ms", report.latency_quantile_us(0.99) / 1e3),
            ("sim_p50_ms", report.latency_quantile_us(0.50) / 1e3),
            ("sim_p99_ms", report.latency_quantile_us(0.99) / 1e3),
            ("serve.calls", report.calls as f64),
            ("serve.remote_messages", report.remote_messages as f64),
            ("serve.batches", report.batches as f64),
            ("serve.mean_batch_size", report.mean_batch_size()),
            ("serve.window_flushes", report.window_flushes as f64),
            ("serve.link_free_flushes", report.link_free_flushes as f64),
            (
                "serve.pool_hit_rate",
                report.pool_hits as f64 / (report.pool_hits + report.pool_misses).max(1) as f64,
            ),
            (
                "serve.offered_per_s",
                offered_per_s(self.opts.arrival_spacing_us),
            ),
            ("serve.sim_horizon_s", report.horizon_us as f64 / 1e6),
        ];
        if let Some(faults) = &report.faults {
            let availability = faults.availability(report.calls);
            if availability < 0.85 {
                return Err(format!("availability {availability:.4} is below 0.85"));
            }
            if faults.failovers == 0 {
                return Err("the machine death re-pointed nothing at a replica".to_string());
            }
            let st = &faults.stats;
            values.extend([
                ("failed_frac", st.failed_calls as f64 / report.calls as f64),
                ("faults.failed_calls", st.failed_calls as f64),
                ("faults.timeouts", st.timeouts as f64),
                ("faults.retries", st.retries as f64),
                ("faults.drops", st.drops as f64),
                ("faults.failovers", faults.failovers as f64),
                ("faults.replica_served", faults.replica_served as f64),
                (
                    "faults.recovery_epochs",
                    faults.recovery_epochs.len() as f64,
                ),
            ]);
        }
        if let Some(t) = &timeline {
            values.push(("timeseries.windows", t.windows().len() as f64));
        }
        if let Some(t) = &tracer {
            values.push(("trace.spans", t.len() as f64));
        }
        self.summary = Some(report.summary(false) + &report.summary(true));
        self.timeline = timeline;
        Ok(Pass {
            ops: report.sessions,
            values,
        })
    }

    fn control_pass(&mut self) -> Option<Result<(), String>> {
        (self.variant == Variant::Faulted).then(|| self.telemetry_off().map(|_| ()))
    }

    fn finish(&mut self, traced: bool) -> Result<Values, String> {
        let mut values = Vec::new();
        match self.variant {
            Variant::Faulted => {
                let off = self.telemetry_off()?;
                if Some(off.summary(false) + &off.summary(true)) != self.summary {
                    return Err("telemetry changed the faulted summary bytes".to_string());
                }
                let timeline = self
                    .timeline
                    .as_ref()
                    .ok_or("the main point recorded no timeline")?;
                values.push((
                    "serve.link_util_max",
                    self.link_util_max(timeline, off.horizon_us),
                ));
            }
            Variant::Clean if traced => {
                let opts = ServeOptions {
                    timeline_window_us: TIMELINE_WINDOW_US,
                    ..self.opts.clone()
                };
                let (report, timeline) = self.run(&opts, None)?;
                let timeline = timeline.ok_or("a timeline was requested")?;
                values.push((
                    "serve.link_util_max",
                    self.link_util_max(&timeline, report.horizon_us),
                ));
                values.push(("sim_capacity_per_s", self.capacity()?));
                let other = ServeOptions {
                    jobs: if self.opts.jobs == 1 { 2 } else { 1 },
                    ..self.opts.clone()
                };
                let (other, _) = self.run(&other, None)?;
                if Some(other.summary(false) + &other.summary(true)) != self.summary {
                    return Err("the summary depends on the worker count".to_string());
                }
            }
            Variant::Clean => {}
        }
        Ok(values)
    }
}
