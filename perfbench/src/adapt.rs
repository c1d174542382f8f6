//! `adapt`: re-partitioning of applications profiled during set-up — the
//! §4.4 claim that Coign re-partitions when the environment changes. Each
//! app gets the network sweep `coign sweep` runs, a 3-machine placement
//! with and without replication, and a run that loses its server a third
//! of the way through and recovers by re-solving.

use crate::probe::Recorder;
use crate::{Pass, Workload, PROFILE_SAMPLES};
use coign::analysis::Distribution;
use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::multiway::{
    analyze_multiway_with_replication, anchor_unpinned_machines, derive_tier_constraints,
    MultiwayConstraint, ReplicationPlan,
};
use coign::recovery::RecoveryConfig;
use coign::runtime::{
    choose_distribution, profile_scenarios, run_distributed, run_distributed_recovering,
};
use coign::sweep::{sweep, SweepGrid, SweepMode};
use coign::{Application, IccProfile};
use coign_apps::scenarios::{app_by_name, profiling_scenarios};
use coign_com::{ComRuntime, MachineId};
use coign_dcom::{CallPolicy, FaultPlan, NetworkModel, NetworkProfile, TimeWindow};
use coign_gen::{GenSize, GenSpec, GeneratedApp};
use std::sync::Arc;

/// Seeds of the generated `Large` apps added to the three paper apps.
/// They are fixed rather than drawn from the workload seed: app size
/// varies with the generator seed, and seeded apps spread host throughput
/// across workload seeds by 23% (quartile distance over median, 5 seeds,
/// 2-vCPU Intel Xeon VM), against 4% between runs of one seed.
const GENERATED_APPS: [u64; 3] = [1, 2, 3];

/// Machines in the multiway placement.
const MACHINES: usize = 3;

/// One application, profiled and prepared during set-up.
struct Subject {
    name: String,
    app: Arc<dyn Application>,
    /// The scenario the recovering run executes.
    scenario: &'static str,
    classifier: Arc<InstanceClassifier>,
    profile: IccProfile,
    constraints: Vec<MultiwayConstraint>,
    plan: ReplicationPlan,
    /// The 10BaseT distribution the recovering run starts from.
    distribution: Distribution,
    /// The server dies a third of the way through a fault-free run.
    death: FaultPlan,
}

pub struct Adapt {
    subjects: Vec<Subject>,
    network: NetworkProfile,
    grid: SweepGrid,
    seed: u64,
}

fn prepare(
    name: String,
    app: Arc<dyn Application>,
    scenarios: &[&'static str],
    network: &NetworkProfile,
    seed: u64,
) -> Result<Subject, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{name}: {what}: {e}");
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let profile =
        profile_scenarios(app.as_ref(), scenarios, &classifier).map_err(|e| fail("profile", &e))?;
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let registry = rt.registry();
    let mut constraints = derive_tier_constraints(
        &profile,
        registry,
        MachineId::CLIENT,
        MachineId((MACHINES - 1) as u16),
    );
    let anchors = anchor_unpinned_machines(&profile, network, &constraints, MACHINES)
        .map_err(|e| fail("anchor machines", &e))?;
    constraints.extend(anchors);
    let mut sink = coign::lint::DiagnosticSink::new();
    let report = coign::lint::analyze_replication(registry, &mut sink);
    let plan = ReplicationPlan::from_report(&report, &profile, registry);
    let distribution =
        choose_distribution(app.as_ref(), &profile, network).map_err(|e| fail("analyze", &e))?;
    let scenario = scenarios[0];
    let plain = run_distributed(
        app.as_ref(),
        scenario,
        &classifier,
        &distribution,
        NetworkModel::ethernet_10baset(),
        seed,
    )
    .map_err(|e| fail("fault-free run", &e))?;
    let death = FaultPlan::none().with_machine_down(
        MachineId::SERVER,
        TimeWindow::new(plain.clock_us / 3, u64::MAX),
    );
    Ok(Subject {
        name,
        app,
        scenario,
        classifier,
        profile,
        constraints,
        plan,
        distribution,
        death,
    })
}

impl Adapt {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let network =
            NetworkProfile::measure(&NetworkModel::ethernet_10baset(), PROFILE_SAMPLES, seed);
        let mut subjects = Vec::new();
        for name in ["octarine", "photodraw", "benefits"] {
            let app = app_by_name(name).ok_or(format!("no application `{name}`"))?;
            subjects.push(prepare(
                name.to_string(),
                app,
                &profiling_scenarios(name),
                &network,
                seed,
            )?);
        }
        for gen_seed in GENERATED_APPS {
            let spec = GenSpec::new(gen_seed, GenSize::Large);
            let app: Arc<dyn Application> = Arc::new(GeneratedApp::new(spec));
            subjects.push(prepare(spec.stem(), app, &["g_main"], &network, seed)?);
        }
        Ok(Adapt {
            subjects,
            network,
            grid: SweepGrid::paper_networks(),
            seed,
        })
    }
}

/// Counters summed over one pass.
#[derive(Default)]
struct Sums {
    distributions: u64,
    placement_cost_us: f64,
    points: u64,
    distinct: u64,
    replicas: u64,
    gain_us: f64,
    warm: u64,
    cold: u64,
    migrations: u64,
}

impl Workload for Adapt {
    fn throughput_name(&self) -> &'static str {
        "repartitions_per_s"
    }

    fn pass(&mut self, rec: &mut Recorder) -> Result<Pass, String> {
        let mut s = Sums::default();
        let min_cuts_before = coign_flow::min_cut_invocations();
        for (op, subject) in self.subjects.iter().enumerate() {
            rec.set_op(op as u64);
            let app = subject.app.as_ref();
            let fail =
                |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", subject.name);

            // `coign sweep`: warm chain, cross-checked against cold Dinic.
            let swept = rec
                .layer("sweep", || {
                    sweep(app, &subject.profile, &self.grid, SweepMode::WarmValidated)
                })
                .map_err(|e| fail("warm-validated sweep", &e))?;
            s.points += swept.points.len() as u64;
            s.distinct += swept.distinct_partitions() as u64;
            s.placement_cost_us += swept
                .points
                .iter()
                .map(|p| p.predicted_comm_us)
                .sum::<f64>();

            // Three machines, without and with replication.
            let (plain, replicated) = rec.layer("multiway", || {
                let solve = |plan: &ReplicationPlan| {
                    analyze_multiway_with_replication(
                        &subject.profile,
                        &self.network,
                        &subject.constraints,
                        MACHINES,
                        plan,
                    )
                };
                (solve(&ReplicationPlan::empty()), solve(&subject.plan))
            });
            let plain = plain.map_err(|e| fail("multiway placement", &e))?;
            let replicated = replicated.map_err(|e| fail("replicated placement", &e))?;
            if plain.distribution.predicted_comm_us > plain.heuristic_cut_us + 1e-9 {
                return Err(fail(
                    "multiway",
                    &format!(
                        "refined cut {} us exceeds the heuristic cut {} us",
                        plain.distribution.predicted_comm_us, plain.heuristic_cut_us
                    ),
                ));
            }
            if replicated.distribution.placement != plain.distribution.placement {
                return Err(fail("multiway", &"replication moved the home placement"));
            }
            s.placement_cost_us +=
                plain.distribution.predicted_comm_us + replicated.replicated_comm_us;
            s.replicas += replicated.replicas.len() as u64;
            s.gain_us += replicated.replication_gain_us();

            // The server dies a third of the way in; the run re-solves.
            let recovered = rec
                .layer("recovery", || {
                    run_distributed_recovering(
                        app,
                        subject.scenario,
                        &subject.classifier,
                        &subject.distribution,
                        &subject.profile,
                        NetworkModel::ethernet_10baset(),
                        self.seed,
                        subject.death.clone(),
                        CallPolicy::default(),
                        self.seed,
                        RecoveryConfig::default(),
                    )
                })
                .map_err(|e| fail("recovering run", &e))?;
            recovered
                .outcome
                .as_ref()
                .map_err(|e| fail("recovering run did not finish", e))?;
            let coord = &recovered.coordinator;
            if coord.cold_solves() != 1 {
                return Err(fail(
                    "recovery",
                    &format!("{} cold solves, not 1", coord.cold_solves()),
                ));
            }
            if coord.double_executions() != 0 {
                return Err(fail("recovery", &"a call executed twice"));
            }
            coord
                .validate()
                .map_err(|e| fail("post-recovery placement", &e))?;
            s.warm += coord.warm_solves();
            s.cold += coord.cold_solves();
            s.migrations += coord.migration_count();

            s.distributions += swept.points.len() as u64 + 2 + 1;
        }
        let min_cuts = coign_flow::min_cut_invocations() - min_cuts_before;
        let placement_cost_ms = s.placement_cost_us / 1e3;
        Ok(Pass {
            ops: s.distributions,
            values: vec![
                ("sim_cost_ms", placement_cost_ms),
                ("placement_cost_ms", placement_cost_ms),
                ("flow.min_cuts", min_cuts as f64),
                ("sweep.points", s.points as f64),
                ("sweep.distinct_partitions", s.distinct as f64),
                ("multiway.replicas", s.replicas as f64),
                ("multiway.replication_gain_ms", s.gain_us / 1e3),
                ("recovery.warm_solves", s.warm as f64),
                ("recovery.cold_solves", s.cold as f64),
                ("recovery.migrations", s.migrations as f64),
            ],
        })
    }
}
