//! End-to-end Coign runs: profiling, default, and distributed executions.
//!
//! This module assembles the pieces into the workflows of the paper's
//! Figure 1. Each workflow has one body; its optional parts (worker
//! threads, observability, topology, faults, drift, self-healing) are
//! arguments, not twin functions:
//!
//! * [`profile_scenarios_crosschecked`] — run a scenario suite under the
//!   profiling runtime on `jobs` workers, with an optional [`Obs`], merging
//!   the logs and collecting COIGN045 state-effect violations.
//! * [`choose_distribution`] — the analysis step: constraints + profile +
//!   network profile → minimum-cut distribution.
//! * [`execute_distributed`] — execute a scenario with the lightweight
//!   runtime realizing a chosen distribution, measuring real (simulated)
//!   communication time; [`RunOptions`] picks the topology, fault plan,
//!   drift baseline, self-healing runtime and observability.
//! * [`run_default`] — execute a scenario in the application's as-shipped
//!   distribution (for the paper's Table 4 baseline).
//! * [`run_raw`] — execute without any instrumentation (overhead baseline).
//!
//! [`profile_scenario`], [`profile_scenarios`], [`run_distributed`] and
//! [`run_distributed_recovering`] keep their signatures for the benchmark
//! harness (`perfbench/`, a separate workspace); each is a thin call into
//! the bodies above.

use crate::analysis::{analyze, Distribution};
use crate::application::Application;
use crate::classifier::{ClassificationId, InstanceClassifier};
use crate::constraints::{derive_static_constraints, resolve_named_constraints, Constraint};
use crate::drift::DriftMonitor;
use crate::factory::ComponentFactory;
use crate::icc::IccGraph;
use crate::informer::{DistributionInvoker, EffectViolation, OverheadMeter};
use crate::logger::{PairTraffic, ProfilingLogger};
use crate::profile::IccProfile;
use crate::recovery::{RecoveryConfig, RecoveryCoordinator};
use crate::rte::CoignRte;
use coign_com::{
    ClassRegistry, Clsid, ComError, ComResult, ComRuntime, CreateRequest, FxHashMap, InstanceId,
    InterfacePtr, MachineId, MachineSpec, RtStats, RuntimeHook,
};
use coign_dcom::{
    CallPolicy, FaultPlan, FaultStats, HealthMonitor, NetworkModel, NetworkProfile, Transport,
};
use coign_flow::MaxFlowAlgorithm;
use coign_obs::{Obs, Registry, TraceArg};
use std::collections::HashMap;
use std::sync::Arc;

/// What the fault layer did during one execution: the transport's counters
/// plus the runtime's graceful-degradation events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Messages lost in flight.
    pub drops: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Re-send attempts made after a timeout.
    pub retries: u64,
    /// Calls that failed after exhausting the retry policy.
    pub failed_calls: u64,
    /// Calls refused because the target machine was down.
    pub machine_down_errors: u64,
    /// Clock time burned on timeouts and backoff waits, microseconds.
    pub wasted_us: u64,
    /// Instantiations re-routed to the requesting machine because their
    /// placement target was down.
    pub fallbacks: u64,
}

impl FaultReport {
    fn from_parts(stats: FaultStats, fallbacks: u64) -> Self {
        FaultReport {
            drops: stats.drops,
            timeouts: stats.timeouts,
            retries: stats.retries,
            failed_calls: stats.failed_calls,
            machine_down_errors: stats.machine_down_errors,
            wasted_us: stats.wasted_us,
            fallbacks,
        }
    }

    /// True when the fault layer never perturbed the run.
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Adds this report's counters to a metrics registry, under the same
    /// names the transport's own [`FaultStats::record_metrics`] uses, plus
    /// the runtime-level `coign_fault_fallbacks_total`.
    pub fn record_metrics(&self, registry: &Registry) {
        registry.counter("coign_fault_drops_total").add(self.drops);
        registry
            .counter("coign_fault_timeouts_total")
            .add(self.timeouts);
        registry
            .counter("coign_fault_retries_total")
            .add(self.retries);
        registry
            .counter("coign_fault_failed_calls_total")
            .add(self.failed_calls);
        registry
            .counter("coign_fault_machine_down_errors_total")
            .add(self.machine_down_errors);
        registry
            .counter("coign_fault_wasted_us")
            .add(self.wasted_us);
        registry
            .counter("coign_fault_fallbacks_total")
            .add(self.fallbacks);
    }
}

/// Measurements from one scenario execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Runtime statistics (compute, communication, messages, bytes).
    pub stats: RtStats,
    /// Total simulated wall-clock time, microseconds.
    pub clock_us: u64,
    /// Instrumentation overhead included in `clock_us`, microseconds.
    pub overhead_us: u64,
    /// Live instances per machine at scenario end.
    pub instances_per_machine: Vec<usize>,
    /// Per-instance `(class, machine)` placement at scenario end.
    pub instance_placements: Vec<(Clsid, MachineId)>,
    /// Fault-injection counters (all zero when no fault layer was active).
    pub faults: FaultReport,
    /// Marshal-size memo cache hits (profiling runs only; a hit skips the
    /// deep-copy walk and its per-KB overhead charge).
    pub marshal_cache_hits: u64,
    /// Marshal-size memo cache misses (full deep-copy walks performed).
    pub marshal_cache_misses: u64,
}

impl RunReport {
    /// Total live instances at scenario end.
    pub fn total_instances(&self) -> usize {
        self.instances_per_machine.iter().sum()
    }

    /// Instances on the server (machine 1) at scenario end.
    pub fn server_instances(&self) -> usize {
        self.instances_per_machine
            .get(MachineId::SERVER.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Communication time in seconds (Table 4's unit).
    pub fn comm_secs(&self) -> f64 {
        self.stats.comm_us as f64 / 1e6
    }

    /// Execution time in seconds (Table 5's unit).
    pub fn exec_secs(&self) -> f64 {
        self.clock_us as f64 / 1e6
    }

    /// Adds every scalar measurement of this report to a metrics registry.
    /// The names are the superset a `--metrics` snapshot exposes; they are
    /// also the single source [`RunReport::summary`] renders from.
    pub fn record_metrics(&self, registry: &Registry) {
        registry
            .counter("coign_compute_us")
            .add(self.stats.compute_us);
        registry.counter("coign_comm_us").add(self.stats.comm_us);
        registry
            .counter("coign_messages_total")
            .add(self.stats.messages);
        registry.counter("coign_bytes_total").add(self.stats.bytes);
        registry.counter("coign_calls_total").add(self.stats.calls);
        registry
            .counter("coign_cross_machine_calls_total")
            .add(self.stats.cross_machine_calls);
        registry.counter("coign_clock_us").add(self.clock_us);
        registry.counter("coign_overhead_us").add(self.overhead_us);
        self.faults.record_metrics(registry);
        registry
            .counter("coign_marshal_cache_hits_total")
            .add(self.marshal_cache_hits);
        registry
            .counter("coign_marshal_cache_misses_total")
            .add(self.marshal_cache_misses);
    }

    /// Renders the report as a deterministic key=value block, one field
    /// per line — the format CI diffs against committed expectations, so
    /// two runs with the same seeds must produce byte-identical text.
    ///
    /// Every numeric line is read back from a throwaway metrics registry
    /// populated by [`RunReport::record_metrics`], so this report and a
    /// `--metrics` snapshot can never disagree about a counter.
    pub fn summary(&self) -> String {
        let registry = Registry::new();
        self.record_metrics(&registry);
        let c = |name: &str| registry.counter_value(name).unwrap_or(0);
        let mut placements: Vec<String> = self
            .instance_placements
            .iter()
            .map(|(clsid, machine)| format!("{clsid}@{machine}"))
            .collect();
        placements.sort();
        format!(
            "compute_us={}\n\
             comm_us={}\n\
             messages={}\n\
             bytes={}\n\
             calls={}\n\
             cross_machine_calls={}\n\
             clock_us={}\n\
             overhead_us={}\n\
             instances_per_machine={:?}\n\
             placements=[{}]\n\
             fault_drops={}\n\
             fault_timeouts={}\n\
             fault_retries={}\n\
             fault_failed_calls={}\n\
             fault_machine_down_errors={}\n\
             fault_wasted_us={}\n\
             fault_fallbacks={}\n\
             marshal_cache_hits={}\n\
             marshal_cache_misses={}\n",
            c("coign_compute_us"),
            c("coign_comm_us"),
            c("coign_messages_total"),
            c("coign_bytes_total"),
            c("coign_calls_total"),
            c("coign_cross_machine_calls_total"),
            c("coign_clock_us"),
            c("coign_overhead_us"),
            self.instances_per_machine,
            placements.join(", "),
            c("coign_fault_drops_total"),
            c("coign_fault_timeouts_total"),
            c("coign_fault_retries_total"),
            c("coign_fault_failed_calls_total"),
            c("coign_fault_machine_down_errors_total"),
            c("coign_fault_wasted_us"),
            c("coign_fault_fallbacks_total"),
            c("coign_marshal_cache_hits_total"),
            c("coign_marshal_cache_misses_total"),
        )
    }
}

fn count_per_machine(rt: &ComRuntime) -> Vec<usize> {
    let mut counts = vec![0usize; rt.machines().len()];
    for instance in rt.instances_snapshot() {
        let m = instance.machine().0 as usize;
        if m < counts.len() {
            counts[m] += 1;
        }
    }
    counts
}

/// Static fallback pins: storage/database classes live on the data machine
/// (the topology's last machine) even when a classification was never
/// profiled — the data file does not move just because the profile is
/// stale.
fn storage_class_pins(rt: &ComRuntime) -> HashMap<Clsid, MachineId> {
    let data_machine = MachineId((rt.machines().len() - 1) as u16);
    rt.registry()
        .all()
        .into_iter()
        .filter(|desc| desc.imports.uses_storage())
        .map(|desc| (desc.clsid, data_machine))
        .collect()
}

fn placements(rt: &ComRuntime) -> Vec<(Clsid, MachineId)> {
    rt.instances_snapshot()
        .iter()
        .map(|i| (i.clsid, i.machine()))
        .collect()
}

/// The measurements every run reports, read from the runtime at scenario
/// end; the fault and marshal-cache counters start at zero.
fn base_report(rt: &ComRuntime, overhead_us: u64) -> RunReport {
    RunReport {
        stats: rt.stats(),
        clock_us: rt.clock().now_us(),
        overhead_us,
        instances_per_machine: count_per_machine(rt),
        instance_placements: placements(rt),
        faults: FaultReport::default(),
        marshal_cache_hits: 0,
        marshal_cache_misses: 0,
    }
}

/// The report of an RTE-backed run: the base measurements plus the RTE's
/// overhead and marshal-cache counters and the fault layer's `faults`.
fn rte_report(rt: &ComRuntime, rte: &CoignRte, faults: FaultReport) -> RunReport {
    RunReport {
        faults,
        marshal_cache_hits: rte.marshal_cache().hits(),
        marshal_cache_misses: rte.marshal_cache().misses(),
        ..base_report(rt, rte.overhead_us())
    }
}

/// Result of one profiling execution.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// The summarized communication profile of this run.
    pub profile: IccProfile,
    /// Per-instance-pair traffic (for communication vectors).
    pub instance_pairs: FxHashMap<(InstanceId, InstanceId), PairTraffic>,
    /// Instance → classification binding of this run.
    pub instance_classes: FxHashMap<InstanceId, ClassificationId>,
    /// Execution measurements.
    pub report: RunReport,
    /// COIGN045: declared-read-only methods whose instance state changed
    /// during this run (deterministically ordered, deduplicated).
    pub effect_violations: Vec<EffectViolation>,
}

/// Runs one scenario under the profiling runtime.
///
/// The classifier is shared across calls so that classifications accumulate
/// over the whole scenario suite (its per-execution state is reset here).
pub fn profile_scenario(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
) -> ComResult<ProfileRun> {
    profile_one(app, scenario, classifier, None)
}

/// The per-scenario profiling body. With an observability bundle the run
/// is wrapped in a `scenario:<name>` span, marshal-cache misses become
/// instants, and the cache's counters are added to the bundle's registry
/// when the scenario finishes.
fn profile_one(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
    obs: Option<&Obs>,
) -> ComResult<ProfileRun> {
    let _span = obs.map(|o| {
        o.tracer.phase_span_with(
            format!("scenario:{scenario}"),
            vec![("scenario", TraceArg::Str(scenario.to_string()))],
        )
    });
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    classifier.begin_execution();
    let logger = Arc::new(ProfilingLogger::new());
    logger.set_scenario(scenario);
    let mut rte = CoignRte::profiling(classifier.clone(), logger.clone());
    if let Some(o) = obs {
        rte = rte.with_obs(o.clone());
    }
    let rte = Arc::new(rte);
    rt.add_hook(rte.clone());

    app.run_scenario(&rt, scenario)?;

    if let Some(o) = obs {
        rte.marshal_cache().record_metrics(&o.registry);
    }
    let instance_pairs = logger.instance_pairs();
    let instance_classes = logger.instance_classes();
    let profile = logger.take_profile();
    Ok(ProfileRun {
        profile,
        instance_pairs,
        instance_classes,
        report: rte_report(&rt, &rte, FaultReport::default()),
        effect_violations: rte.effect_violations(),
    })
}

/// Profiles a suite of scenarios sequentially and merges their logs.
pub fn profile_scenarios(
    app: &dyn Application,
    scenarios: &[&str],
    classifier: &Arc<InstanceClassifier>,
) -> ComResult<IccProfile> {
    profile_scenarios_crosschecked(app, scenarios, classifier, 1, None).map(|(profile, _)| profile)
}

/// Sequential suite run returning the merged profile plus the deduplicated
/// COIGN045 violations observed across every scenario.
fn profile_scenarios_sequential(
    app: &dyn Application,
    scenarios: &[&str],
    classifier: &Arc<InstanceClassifier>,
    obs: Option<&Obs>,
) -> ComResult<(IccProfile, Vec<EffectViolation>)> {
    let mut merged = IccProfile::new();
    let mut violations = std::collections::BTreeSet::new();
    for scenario in scenarios {
        let run = profile_one(app, scenario, classifier, obs)?;
        merged.merge(&run.profile);
        violations.extend(run.effect_violations);
    }
    Ok((merged, violations.into_iter().collect()))
}

/// Profiles a suite of scenarios on up to `jobs` worker threads, merges
/// their logs in scenario order, and returns the COIGN045 state-effect
/// violations the profiling informer's dynamic cross-check observed:
/// declared `Pure`/`ReadsState` methods whose instance fingerprint changed
/// across a call, deduplicated and deterministically ordered.
///
/// With `jobs > 1` each scenario runs against a private classifier forked
/// from the shared one ([`InstanceClassifier::fork`]); afterwards the forks
/// are absorbed back — in scenario order — and each run's profile is
/// rewritten through the resulting id translation before merging.
/// Scenarios are therefore profiled in isolation and combined
/// deterministically: the merged profile and the shared classifier's table
/// come out byte-identical to a sequential pass, regardless of `jobs` or
/// thread scheduling.
///
/// With an observability bundle each scenario runs under a
/// `scenario:<name>` span. Parallel workers record into private child
/// tracers; the children are merged back — in scenario order — together
/// with a `classifier_fork` instant per fork (emitted up front) and a
/// `classifier_absorb` instant per merge, so the exported trace is
/// byte-identical across runs regardless of worker interleaving. Registry
/// counters are shared directly: counters commute, so worker order cannot
/// perturb them.
pub fn profile_scenarios_crosschecked(
    app: &dyn Application,
    scenarios: &[&str],
    classifier: &Arc<InstanceClassifier>,
    jobs: usize,
    obs: Option<&Obs>,
) -> ComResult<(IccProfile, Vec<EffectViolation>)> {
    if jobs <= 1 || scenarios.len() <= 1 {
        return profile_scenarios_sequential(app, scenarios, classifier, obs);
    }
    let forks: Vec<Arc<InstanceClassifier>> = scenarios
        .iter()
        .map(|_| Arc::new(classifier.fork()))
        .collect();
    if let Some(o) = obs {
        for scenario in scenarios {
            o.tracer.instant(
                "classifier_fork",
                vec![("scenario", TraceArg::Str((*scenario).to_string()))],
            );
        }
    }
    let children: Vec<Option<Obs>> = scenarios.iter().map(|_| obs.map(Obs::child)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<parking_lot::Mutex<Option<ComResult<ProfileRun>>>> = scenarios
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(scenarios.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= scenarios.len() {
                    break;
                }
                let run = profile_one(app, scenarios[i], &forks[i], children[i].as_ref());
                *results[i].lock() = Some(run);
            });
        }
    });
    let mut merged = IccProfile::new();
    let mut violations = std::collections::BTreeSet::new();
    for (i, slot) in results.into_iter().enumerate() {
        let run = slot
            .into_inner()
            .expect("profiling worker exited without reporting a result")?;
        let map = classifier.absorb(&forks[i]);
        if let Some(o) = obs {
            if let Some(child) = &children[i] {
                o.tracer.merge_from(&child.tracer);
            }
            o.tracer.instant(
                "classifier_absorb",
                vec![
                    ("scenario", TraceArg::Str(scenarios[i].to_string())),
                    ("translated", TraceArg::U64(map.len() as u64)),
                ],
            );
        }
        merged.merge(&run.profile.remap_classifications(&map));
        violations.extend(run.effect_violations);
    }
    Ok((merged, violations.into_iter().collect()))
}

/// Derives the full constraint set for an application whose classes are
/// registered in `registry`: static API analysis, colocations implied by
/// non-remotable interface metadata, plus the programmer's explicit
/// constraints. The set is not vetted; [`vetted_constraints`] is.
pub fn derive_constraints(
    app: &dyn Application,
    profile: &IccProfile,
    registry: &ClassRegistry,
) -> Vec<Constraint> {
    let mut constraints = derive_static_constraints(profile, registry);
    constraints.extend(static_non_remotable_colocations(profile, registry));
    constraints.extend(resolve_named_constraints(
        profile,
        &app.explicit_constraints(),
    ));
    constraints
}

/// Colocations derived *statically* from interface metadata: any profiled
/// edge carried by a non-remotable interface binds its endpoints to one
/// machine — the same fact the profiling informer records dynamically in
/// [`IccProfile::non_remotable`], recovered here from the registry alone so
/// that analysis does not depend on the informer having observed the call.
fn static_non_remotable_colocations(
    profile: &IccProfile,
    registry: &ClassRegistry,
) -> Vec<Constraint> {
    let mut pairs: Vec<(ClassificationId, ClassificationId)> = profile
        .edges
        .keys()
        .filter(|key| key.from != key.to)
        .filter(|key| {
            registry
                .interface_by_iid(key.iid)
                .is_some_and(|desc| !desc.remotable)
        })
        .map(|key| {
            if key.from <= key.to {
                (key.from, key.to)
            } else {
                (key.to, key.from)
            }
        })
        .collect();
    pairs.sort();
    pairs.dedup();
    pairs
        .into_iter()
        .map(|(a, b)| Constraint::Colocate(a, b))
        .collect()
}

/// Fast-fail guard of the pipeline: derives the application's full
/// constraint set over `registry` once, proves it satisfiable (the stage 2
/// `coign check` runs) and returns it. On failure the [`ComError::App`]
/// detail carries the same rendered `COIGN0xx` diagnostics `coign check`
/// prints.
pub fn vetted_constraints(
    app: &dyn Application,
    profile: &IccProfile,
    registry: &ClassRegistry,
) -> ComResult<Vec<Constraint>> {
    let constraints = derive_constraints(app, profile, registry);
    let mut sink = crate::lint::DiagnosticSink::new();
    let named = app.explicit_constraints();
    crate::lint::check_constraint_stage(profile, registry, &named, &constraints, &mut sink);
    if sink.has_errors() {
        return Err(ComError::App(format!(
            "location constraints rejected by static analysis\n{}",
            sink.render_human()
        )));
    }
    Ok(constraints)
}

/// The analysis step: chooses the minimum-communication-time distribution
/// for the given network using the lift-to-front algorithm.
///
/// The constraint set is vetted by [`vetted_constraints`] first, so an
/// unsatisfiable or unresolvable set fails fast with a diagnostic report —
/// the min-cut solver is never invoked on a contradiction.
pub fn choose_distribution(
    app: &dyn Application,
    profile: &IccProfile,
    network: &NetworkProfile,
) -> ComResult<Distribution> {
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let constraints = vetted_constraints(app, profile, rt.registry())?;
    analyze(
        profile,
        network,
        &constraints,
        MaxFlowAlgorithm::LiftToFront,
    )
}

/// The optional parts of a distributed execution, all off by default:
/// `RunOptions::default()` is the plain [`run_distributed`] configuration
/// (client–server topology, perfect wire, no drift counting, no
/// self-healing, no observability).
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Machine topology, machine 0 being the client; `None` is the paper's
    /// client–server pair. The ≥3-machine distributions of
    /// [`crate::multiway`] run here.
    pub topology: Option<Vec<MachineSpec>>,
    /// How the wire misbehaves; the empty plan is a perfect wire and
    /// produces a report identical to [`run_distributed`]'s.
    pub faults: FaultPlan,
    /// Retry policy at the proxy boundary.
    pub policy: CallPolicy,
    /// Seed of the fault RNG, independent of the jitter seed: the same
    /// `(seed, fault_seed, plan)` triple reproduces the report byte for
    /// byte.
    pub fault_seed: u64,
    /// Usage-drift baseline: the distribution informer counts messages
    /// (cheaply) and [`DistributedRun::drift`] reports how far observed
    /// usage drifted from this profile — the trigger for the paper's
    /// "silently enable profiling to re-optimize" loop (§6). Not combined
    /// with `recovery`, which counts drift against its own profile.
    pub drift_baseline: Option<&'a IccProfile>,
    /// The self-healing runtime over this profile: circuit breakers on the
    /// transport, online re-partitioning when a machine dies (warm-started
    /// from the base solve's flow snapshot), instance migration, and the
    /// exactly-once retry protocol at the proxy. A
    /// [`RecoveryConfig::drift_threshold`] counts drift against this
    /// profile.
    pub recovery: Option<(&'a IccProfile, RecoveryConfig)>,
    /// Observability: every cut-crossing call emits an `icc_call` instant
    /// and lands in the flight recorder, fault-layer events, breaker
    /// transitions, recovery events and migrations are traced at their
    /// simulated-clock time, and after the run the report's counters (plus
    /// the coordinator's and health monitor's) are added to the registry.
    pub obs: Option<&'a Obs>,
}

/// Result of [`execute_distributed`].
pub struct DistributedRun {
    /// Execution measurements.
    pub report: RunReport,
    /// The scenario's own result. Without recovery a failed scenario is the
    /// call's error, so this is `Ok`; with recovery the report is produced
    /// even when the scenario failed — under fault injection a typed
    /// transport failure is trial data (the chaos harness classifies it),
    /// not an abort.
    pub outcome: ComResult<()>,
    /// The drift monitor, when drift was counted.
    pub drift: Option<Arc<DriftMonitor>>,
    /// The recovery coordinator, when recovery was requested.
    pub coordinator: Option<Arc<RecoveryCoordinator>>,
}

/// Executes a scenario with the lightweight runtime realizing
/// `distribution`: the one distributed-execution body, its optional parts
/// chosen by `opts`. The classifier must be the one used during profiling
/// (its descriptor table maps new instantiations onto profiled
/// classifications).
///
/// The health monitor, recovery coordinator and drift monitor are built
/// only when asked for. With recovery on an empty plan the run is
/// bit-identical to the plain one: the health monitor is only fed on
/// faulty paths, drift polling is clock-free until a latched fire, and no
/// recovery ever triggers.
pub fn execute_distributed(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
    distribution: &Distribution,
    network: NetworkModel,
    seed: u64,
    opts: RunOptions<'_>,
) -> ComResult<DistributedRun> {
    let RunOptions {
        topology,
        faults,
        policy,
        fault_seed,
        drift_baseline,
        recovery,
        obs,
    } = opts;
    let rt = topology.map_or_else(ComRuntime::client_server, ComRuntime::new);
    app.register(&rt);
    classifier.begin_execution();
    let transport = Arc::new(Transport::with_faults(
        network, seed, faults, policy, fault_seed,
    ));
    debug_assert!(
        drift_baseline.is_none() || recovery.is_none(),
        "drift_baseline and recovery are exclusive: recovery counts drift against its profile"
    );
    let drift = match &recovery {
        Some((profile, config)) => config.drift_threshold.map(|_| *profile),
        None => drift_baseline,
    }
    .map(|baseline| Arc::new(DriftMonitor::from_profile(baseline)));
    let factory = ComponentFactory::with_class_pins(
        distribution.placement.clone(),
        storage_class_pins(&rt),
        MachineId::CLIENT,
        rt.machines().len(),
    );
    let mut rte = CoignRte::distributed(
        classifier.clone(),
        Arc::new(crate::logger::NullLogger),
        factory,
        transport.clone(),
        drift.clone(),
    );
    if let Some(o) = obs {
        rte = rte.with_obs(o.clone());
    }
    let rte = Arc::new(rte);
    let coordinator = match recovery {
        None => None,
        Some((profile, config)) => {
            let health = Arc::new(HealthMonitor::new(config.breaker));
            transport.set_health(health.clone());
            let graph = IccGraph::build(profile, &NetworkProfile::exact(transport.network()));
            let coordinator = RecoveryCoordinator::new(
                &graph,
                &derive_constraints(app, profile, rt.registry()),
                rte.factory().expect("distributed-mode RTE has a factory"),
                classifier.clone(),
                health,
                config
                    .drift_threshold
                    .zip(drift.clone())
                    .map(|(t, m)| (m, t)),
                obs.cloned(),
            )?;
            if let Some(router) = config.replicas {
                coordinator.install_replicas(router);
            }
            rte.set_recovery(coordinator.clone());
            Some(coordinator)
        }
    };
    rt.add_hook(rte.clone());

    let outcome = app.run_scenario(&rt, scenario);
    if coordinator.is_none() {
        outcome.clone()?;
    }

    let report = rte_report(
        &rt,
        &rte,
        FaultReport::from_parts(transport.fault_stats(), rte.fallback_count()),
    );
    if let Some(o) = obs {
        report.record_metrics(&o.registry);
        if let Some(coordinator) = &coordinator {
            coordinator.record_metrics(&o.registry);
            coordinator.health().record_metrics(&o.registry);
        }
    }
    Ok(DistributedRun {
        report,
        outcome,
        drift,
        coordinator,
    })
}

/// Executes a scenario on the client–server pair over a perfect wire:
/// [`execute_distributed`] with every option off.
pub fn run_distributed(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
    distribution: &Distribution,
    network: NetworkModel,
    seed: u64,
) -> ComResult<RunReport> {
    let opts = RunOptions::default();
    execute_distributed(app, scenario, classifier, distribution, network, seed, opts)
        .map(|run| run.report)
}

/// Outcome of a self-healing distributed execution.
///
/// Unlike the plain runners, the report is produced even when the scenario
/// itself failed: under fault injection a typed transport failure is trial
/// data (the chaos harness classifies it), not an abort.
pub struct RecoveryRun {
    /// Execution measurements (always present).
    pub report: RunReport,
    /// The coordinator: recovery events, placement epoch, solver and
    /// exactly-once counters, and the health monitor it drained.
    pub coordinator: Arc<RecoveryCoordinator>,
    /// The scenario's own result.
    pub outcome: ComResult<()>,
}

/// Executes a scenario under the full self-healing runtime on a faulty
/// client–server wire: [`execute_distributed`] with `plan`, `policy`,
/// `fault_seed` and recovery over `profile` per `config`.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_recovering(
    app: &dyn Application,
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
    distribution: &Distribution,
    profile: &IccProfile,
    network: NetworkModel,
    seed: u64,
    plan: FaultPlan,
    policy: CallPolicy,
    fault_seed: u64,
    config: RecoveryConfig,
) -> ComResult<RecoveryRun> {
    let opts = RunOptions {
        faults: plan,
        policy,
        fault_seed,
        recovery: Some((profile, config)),
        ..RunOptions::default()
    };
    let run = execute_distributed(app, scenario, classifier, distribution, network, seed, opts)?;
    Ok(RecoveryRun {
        report: run.report,
        coordinator: run.coordinator.expect("recovery was requested"),
        outcome: run.outcome,
    })
}

/// Places instances by *class* according to a fixed table — how an
/// application ships: the developer assigned classes (not instances) to
/// tiers. Interfaces are wrapped with the distribution informer so
/// cross-machine calls cost real time.
struct StaticPlacementRte {
    placement: HashMap<Clsid, MachineId>,
    transport: Arc<Transport>,
    overhead: Arc<OverheadMeter>,
}

impl RuntimeHook for StaticPlacementRte {
    fn fulfill_create(
        &self,
        rt: &ComRuntime,
        req: &CreateRequest,
    ) -> Option<ComResult<InterfacePtr>> {
        let machine = self
            .placement
            .get(&req.clsid)
            .copied()
            .unwrap_or(MachineId::CLIENT);
        Some(rt.create_direct(req.clsid, req.iid, Some(machine)))
    }

    fn wrap_interface(&self, _rt: &ComRuntime, ptr: InterfacePtr) -> InterfacePtr {
        DistributionInvoker::wrap(
            ptr,
            self.transport.clone(),
            self.overhead.clone(),
            None,
            None,
            None,
        )
    }
}

/// Executes a scenario in the application's default (as-shipped)
/// distribution: every class placed per [`Application::default_placement`].
pub fn run_default(
    app: &dyn Application,
    scenario: &str,
    network: NetworkModel,
    seed: u64,
) -> ComResult<RunReport> {
    let rt = ComRuntime::client_server();
    app.register(&rt);
    // Data files are placed on the server for both the default and the
    // Coign-chosen distributions (§4.5): storage/database classes override
    // the application's own placement.
    let placement: HashMap<Clsid, MachineId> = rt
        .registry()
        .all()
        .into_iter()
        .map(|desc| {
            let machine = if desc.imports.uses_storage() {
                MachineId::SERVER
            } else {
                app.default_placement(&desc.name)
            };
            (desc.clsid, machine)
        })
        .collect();
    let transport = Arc::new(Transport::new(network, seed));
    let overhead = Arc::new(OverheadMeter::new());
    rt.add_hook(Arc::new(StaticPlacementRte {
        placement,
        transport,
        overhead: overhead.clone(),
    }));

    app.run_scenario(&rt, scenario)?;

    Ok(base_report(&rt, overhead.total_us()))
}

/// Executes a scenario with no instrumentation at all (overhead baseline:
/// the original application on one machine).
pub fn run_raw(app: &dyn Application, scenario: &str) -> ComResult<RunReport> {
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    app.run_scenario(&rt, scenario)?;
    Ok(base_report(&rt, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierKind;
    use coign_com::idl::InterfaceBuilder;
    use coign_com::registry::ApiImports;
    use coign_com::{AppImage, CallCtx, ComObject, Iid, Message, PType, Value};

    /// A minimal two-component application: a GUI shell that repeatedly
    /// pulls a large document from a storage-backed reader.
    struct MiniApp;

    struct Shell {
        reader_clsid: Clsid,
        reader_iid: Iid,
    }
    impl ComObject for Shell {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            ctx.compute(200);
            let reader = ctx.create(self.reader_clsid, self.reader_iid)?;
            let mut total = 0u64;
            for _ in 0..20 {
                let mut inner = Message::outputs(1);
                reader.call(ctx.rt(), 0, &mut inner)?;
                total += inner.arg(0).and_then(Value::as_blob).unwrap_or(0);
            }
            msg.set(0, Value::I8(total as i64));
            Ok(())
        }
    }

    struct DocReader;
    impl ComObject for DocReader {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            ctx.compute(50);
            msg.set(0, Value::Blob(50_000));
            Ok(())
        }
    }

    impl Application for MiniApp {
        fn name(&self) -> &str {
            "miniapp"
        }
        fn register(&self, rt: &ComRuntime) {
            let ireader = InterfaceBuilder::new("IMiniReader")
                .method("Read", |m| m.output("data", PType::Blob))
                .build();
            let reader_iid = ireader.iid;
            let reader_clsid =
                rt.registry()
                    .register("MiniReader", vec![ireader], ApiImports::STORAGE, |_, _| {
                        Arc::new(DocReader)
                    });
            let ishell = InterfaceBuilder::new("IMiniShell")
                .method("Run", |m| m.output("total", PType::I8))
                .build();
            rt.registry()
                .register("MiniShell", vec![ishell], ApiImports::GUI, move |_, _| {
                    Arc::new(Shell {
                        reader_clsid,
                        reader_iid,
                    })
                });
        }
        fn scenarios(&self) -> Vec<&'static str> {
            vec!["m_run", "m_twice", "m_direct"]
        }
        fn run_scenario(&self, rt: &ComRuntime, scenario: &str) -> ComResult<()> {
            let ishell = Iid::from_name("IMiniShell");
            let shell = rt.create_instance(Clsid::from_name("MiniShell"), ishell)?;
            shell.call(rt, 0, &mut Message::outputs(1))?;
            if scenario == "m_twice" {
                // A second session: same classifications, more traffic.
                let again = rt.create_instance(Clsid::from_name("MiniShell"), ishell)?;
                again.call(rt, 0, &mut Message::outputs(1))?;
            }
            if scenario == "m_direct" {
                // The root reads the document directly: a reader
                // instantiated outside any shell gets a classification of
                // its own, so this scenario grows the descriptor table.
                let reader = rt.create_instance(
                    Clsid::from_name("MiniReader"),
                    Iid::from_name("IMiniReader"),
                )?;
                reader.call(rt, 0, &mut Message::outputs(1))?;
            }
            Ok(())
        }
        fn image(&self) -> AppImage {
            AppImage::new("miniapp.exe", vec![Clsid::from_name("MiniShell")])
        }
        fn default_placement(&self, _class: &str) -> MachineId {
            // Desktop app: everything on the client (data served remotely is
            // modeled inside the reader in this miniature).
            MachineId::CLIENT
        }
    }

    #[test]
    fn end_to_end_pipeline_reduces_communication() {
        let app = MiniApp;
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenarios(&app, &["m_run"], &classifier).unwrap();
        assert!(profile.total_messages() > 0);

        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let dist = choose_distribution(&app, &profile, &network).unwrap();
        // The storage-pinned reader lands on the server; the GUI shell
        // stays on the client; the heavy link is *inside* the call pattern,
        // so the cut severs the shell↔reader edge — the cheapest place.
        let report = run_distributed(
            &app,
            "m_run",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            42,
        )
        .unwrap();
        assert_eq!(report.total_instances(), 2);
        assert_eq!(report.server_instances(), 1);
        assert!(report.stats.comm_us > 0);
        assert!(report.stats.cross_machine_calls >= 20);
    }

    #[test]
    fn parallel_profiling_matches_sequential_byte_for_byte() {
        let app = MiniApp;
        let scenarios = app.scenarios();
        let seq_classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let seq = profile_scenarios(&app, &scenarios, &seq_classifier).unwrap();
        assert!(seq.total_messages() > 0);
        for jobs in [1, 2, 4, 8] {
            let par_classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
            let (par, _) =
                profile_scenarios_crosschecked(&app, &scenarios, &par_classifier, jobs, None)
                    .unwrap();
            assert_eq!(par.encode(), seq.encode(), "profile differs at jobs={jobs}");
            assert_eq!(
                par_classifier.encode(),
                seq_classifier.encode(),
                "classifier table differs at jobs={jobs}"
            );
        }
    }

    #[test]
    fn parallel_profiling_grows_the_shared_classifier() {
        // The root-instantiated reader of m_direct exists in no other
        // scenario, so the shared table must have absorbed a descriptor
        // interned by a worker's fork.
        let app = MiniApp;
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        profile_scenarios_crosschecked(&app, &["m_run"], &classifier, 4, None).unwrap();
        let before = classifier.classification_count();
        profile_scenarios_crosschecked(&app, &["m_run", "m_direct"], &classifier, 4, None).unwrap();
        assert!(classifier.classification_count() > before);
    }

    #[test]
    fn profiling_reports_overhead_and_instances() {
        let app = MiniApp;
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let run = profile_scenario(&app, "m_run", &classifier).unwrap();
        assert!(run.report.overhead_us > 0);
        assert_eq!(run.report.total_instances(), 2);
        assert_eq!(run.instance_classes.len(), 2);
        assert!(!run.instance_pairs.is_empty());
        // Profile captured the 20 × 50 KB replies.
        assert!(run.profile.total_bytes() > 1_000_000);
    }

    #[test]
    fn raw_run_has_zero_overhead() {
        let app = MiniApp;
        let report = run_raw(&app, "m_run").unwrap();
        assert_eq!(report.overhead_us, 0);
        assert_eq!(report.stats.comm_us, 0);
        assert!(report.stats.compute_us > 0);
    }

    #[test]
    fn profiling_overhead_is_bounded() {
        // The paper: profiling adds up to 85 % (typically ~45 %). Our model
        // charges per call + per KB; verify it lands in a sane band
        // relative to the raw run rather than dwarfing it.
        let app = MiniApp;
        let raw = run_raw(&app, "m_run").unwrap();
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let prof = profile_scenario(&app, "m_run", &classifier).unwrap();
        assert!(prof.report.clock_us > raw.clock_us);
        let overhead_frac = (prof.report.clock_us - raw.clock_us) as f64 / raw.clock_us as f64;
        assert!(overhead_frac < 2.0, "overhead {overhead_frac} too large");
    }

    #[test]
    fn default_run_places_data_files_on_server() {
        let app = MiniApp;
        let report = run_default(&app, "m_run", NetworkModel::ethernet_10baset(), 3).unwrap();
        // The shell stays on the client, but the storage-importing reader
        // (the "data file") is pinned to the server, so the 20 × 50 KB
        // document pulls cross the network.
        assert_eq!(report.server_instances(), 1);
        assert!(report.stats.comm_us > 0);
        assert!(report.stats.bytes > 1_000_000);
    }

    #[test]
    fn distributed_runs_are_deterministic_per_seed() {
        let app = MiniApp;
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenarios(&app, &["m_run"], &classifier).unwrap();
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let dist = choose_distribution(&app, &profile, &network).unwrap();
        let a = run_distributed(
            &app,
            "m_run",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            9,
        )
        .unwrap();
        let b = run_distributed(
            &app,
            "m_run",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            9,
        )
        .unwrap();
        assert_eq!(a.clock_us, b.clock_us);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn zero_fault_recovery_run_is_bit_identical_to_plain_distributed() {
        use coign_dcom::CallPolicy;
        let app = MiniApp;
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenarios(&app, &["m_run"], &classifier).unwrap();
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let dist = choose_distribution(&app, &profile, &network).unwrap();
        let plain = run_distributed(
            &app,
            "m_run",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            9,
        )
        .unwrap();
        let recovering = run_distributed_recovering(
            &app,
            "m_run",
            &classifier,
            &dist,
            &profile,
            NetworkModel::ethernet_10baset(),
            9,
            FaultPlan::none(),
            CallPolicy::default(),
            9,
            crate::recovery::RecoveryConfig::default(),
        )
        .unwrap();
        recovering.outcome.unwrap();
        // The self-healing machinery must be inert on a clean wire: same
        // clock, same stats, same placements as the plain runner.
        assert_eq!(recovering.report.clock_us, plain.clock_us);
        assert_eq!(recovering.report.stats, plain.stats);
        assert_eq!(
            recovering.report.instance_placements,
            plain.instance_placements
        );
        let coord = &recovering.coordinator;
        assert_eq!(coord.recovery_count(), 0);
        assert_eq!(coord.epoch(), 0);
        assert_eq!(coord.migration_count(), 0);
        assert_eq!(coord.cold_solves(), 1, "only the base solve ran");
        assert!(coord.dead_machines().is_empty());
    }

    #[test]
    fn machine_death_mid_run_recovers_with_a_warm_resolve() {
        use coign_dcom::{CallPolicy, TimeWindow};
        let app = MiniApp;
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenarios(&app, &["m_run"], &classifier).unwrap();
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let dist = choose_distribution(&app, &profile, &network).unwrap();
        let plain = run_distributed(
            &app,
            "m_run",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            9,
        )
        .unwrap();
        // Kill the server a third of the way through the run and never
        // bring it back.
        let plan = FaultPlan::none().with_machine_down(
            MachineId::SERVER,
            TimeWindow::new(plain.clock_us / 3, u64::MAX),
        );
        let run = run_distributed_recovering(
            &app,
            "m_run",
            &classifier,
            &dist,
            &profile,
            NetworkModel::ethernet_10baset(),
            9,
            plan,
            CallPolicy::default(),
            9,
            crate::recovery::RecoveryConfig::default(),
        )
        .unwrap();
        // The scenario survives: the breaker trips, the cut is re-solved
        // with the server pinned dead, and the reader migrates client-side.
        run.outcome.unwrap();
        let coord = &run.coordinator;
        assert_eq!(coord.recovery_count(), 1, "exactly one recovery");
        assert!(coord.dead_machines().contains(&MachineId::SERVER));
        assert_eq!(coord.epoch(), 1);
        assert!(
            coord.warm_solves() >= 1,
            "recovery re-solve is warm-started"
        );
        assert_eq!(coord.cold_solves(), 1, "only the base solve is cold");
        assert!(coord.migration_count() >= 1, "the reader moved");
        assert!(coord.migrated_state_bytes() > 0);
        assert_eq!(coord.double_executions(), 0);
        // The post-recovery placement satisfies every constraint with the
        // dead machine excluded.
        coord.validate().unwrap();
        // Everything now lives on the client.
        for (_, machine) in &run.report.instance_placements {
            assert_eq!(*machine, MachineId::CLIENT);
        }
        let event = &coord.events()[0];
        assert_eq!(
            event.trigger,
            crate::recovery::RecoveryTrigger::MachineDeath
        );
        assert_eq!(event.dead_machine, Some(MachineId::SERVER));
    }

    /// A shell driving a storage-pinned counter component: each logical
    /// call increments a shared ledger exactly once, so any re-execution
    /// under the recovery retry protocol is directly observable.
    struct CountingApp {
        executions: Arc<std::sync::atomic::AtomicU64>,
    }

    struct CountShell {
        counter_clsid: Clsid,
        counter_iid: Iid,
    }
    impl ComObject for CountShell {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            ctx.compute(100);
            let counter = ctx.create(self.counter_clsid, self.counter_iid)?;
            for _ in 0..12 {
                let mut inner = Message::outputs(1);
                counter.call(ctx.rt(), 0, &mut inner)?;
            }
            msg.set(0, Value::I8(12));
            Ok(())
        }
    }

    struct CountServer {
        executions: Arc<std::sync::atomic::AtomicU64>,
    }
    impl ComObject for CountServer {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            ctx.compute(50);
            self.executions
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            msg.set(0, Value::Blob(20_000));
            Ok(())
        }
    }

    impl Application for CountingApp {
        fn name(&self) -> &str {
            "countapp"
        }
        fn register(&self, rt: &ComRuntime) {
            let icounter = InterfaceBuilder::new("ICounter")
                .method("Bump", |m| m.output("data", PType::Blob))
                .build();
            let counter_iid = icounter.iid;
            let executions = self.executions.clone();
            let counter_clsid = rt.registry().register(
                "CountServer",
                vec![icounter],
                ApiImports::STORAGE,
                move |_, _| {
                    Arc::new(CountServer {
                        executions: executions.clone(),
                    })
                },
            );
            let ishell = InterfaceBuilder::new("ICountShell")
                .method("Run", |m| m.output("total", PType::I8))
                .build();
            rt.registry()
                .register("CountShell", vec![ishell], ApiImports::GUI, move |_, _| {
                    Arc::new(CountShell {
                        counter_clsid,
                        counter_iid,
                    })
                });
        }
        fn scenarios(&self) -> Vec<&'static str> {
            vec!["count"]
        }
        fn run_scenario(&self, rt: &ComRuntime, _scenario: &str) -> ComResult<()> {
            let ishell = Iid::from_name("ICountShell");
            let shell = rt.create_instance(Clsid::from_name("CountShell"), ishell)?;
            shell.call(rt, 0, &mut Message::outputs(1))?;
            Ok(())
        }
        fn image(&self) -> AppImage {
            AppImage::new("countapp.exe", vec![Clsid::from_name("CountShell")])
        }
        fn default_placement(&self, _class: &str) -> MachineId {
            MachineId::CLIENT
        }
    }

    #[test]
    fn recovered_calls_execute_exactly_once() {
        use coign_dcom::{CallPolicy, TimeWindow};
        let executions = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let app = CountingApp {
            executions: executions.clone(),
        };
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenarios(&app, &["count"], &classifier).unwrap();
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let dist = choose_distribution(&app, &profile, &network).unwrap();
        let plain = run_distributed(
            &app,
            "count",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            9,
        )
        .unwrap();
        let profiling_and_plain = executions.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            profiling_and_plain >= 24,
            "profiling + plain run both count"
        );
        // Kill the server mid-run at several different instants: whichever
        // side of the execute/charge boundary the death lands on, every
        // logical call must execute exactly once.
        for fraction in [4u64, 3, 2] {
            executions.store(0, std::sync::atomic::Ordering::SeqCst);
            let plan = FaultPlan::none().with_machine_down(
                MachineId::SERVER,
                TimeWindow::new(plain.clock_us / fraction, u64::MAX),
            );
            let run = run_distributed_recovering(
                &app,
                "count",
                &classifier,
                &dist,
                &profile,
                NetworkModel::ethernet_10baset(),
                9,
                plan,
                CallPolicy::default(),
                9,
                crate::recovery::RecoveryConfig::default(),
            )
            .unwrap();
            run.outcome.unwrap();
            assert_eq!(
                executions.load(std::sync::atomic::Ordering::SeqCst),
                12,
                "every logical call executes exactly once (death at 1/{fraction})"
            );
            assert_eq!(run.coordinator.double_executions(), 0);
            run.coordinator.validate().unwrap();
        }
    }
}
