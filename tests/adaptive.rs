//! The §6 "fully automatic" loop, end to end: drift detection during
//! distributed execution, re-profiling, and three-machine distributions.

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::multiway::{analyze_multiway, derive_tier_constraints, MultiwayConstraint};
use coign::runtime::{
    choose_distribution, execute_distributed, profile_scenario, DistributedRun, RunOptions,
};
use coign::{Distribution, IccProfile};
use coign_apps::{Benefits, Octarine};
use coign_com::{ComRuntime, MachineId, MachineSpec};
use coign_dcom::{NetworkModel, NetworkProfile};
use std::sync::Arc;

use coign::application::Application;

fn network() -> NetworkProfile {
    NetworkProfile::exact(&NetworkModel::ethernet_10baset())
}

/// Runs `scenario` under `dist` on 10BaseT, counting usage drift against
/// `baseline`.
fn run_monitored(
    scenario: &str,
    classifier: &Arc<InstanceClassifier>,
    dist: &Distribution,
    baseline: &IccProfile,
    seed: u64,
) -> DistributedRun {
    let opts = RunOptions {
        drift_baseline: Some(baseline),
        ..RunOptions::default()
    };
    let network = NetworkModel::ethernet_10baset();
    execute_distributed(&Octarine, scenario, classifier, dist, network, seed, opts).unwrap()
}

/// Running the profiled scenario again shows little drift; running a
/// different document mix under the same stale distribution shows a lot —
/// the trigger for silent re-profiling.
#[test]
fn drift_detects_changed_usage() {
    let app = Octarine;
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(&app, "o_oldwp0", &classifier).unwrap();
    let dist = choose_distribution(&app, &run.profile, &network()).unwrap();

    let same_monitor = run_monitored("o_oldwp0", &classifier, &dist, &run.profile, 3)
        .drift
        .unwrap();
    let same_drift = same_monitor.drift();

    let changed_monitor = run_monitored("o_oldtb3", &classifier, &dist, &run.profile, 3)
        .drift
        .unwrap();
    let changed_drift = changed_monitor.drift();

    assert!(
        same_drift < 0.15,
        "same scenario should barely drift, got {same_drift}"
    );
    assert!(
        changed_drift > same_drift * 2.0,
        "changed usage must stand out: same {same_drift}, changed {changed_drift}"
    );
    assert!(changed_monitor.should_reprofile(same_drift * 1.5 + 0.05));
}

/// The full adaptation loop: detect drift, re-profile for the new usage,
/// re-analyze, and verify the new distribution beats the stale one on the
/// new workload.
#[test]
fn drift_triggers_profitable_reoptimization() {
    let app = Octarine;
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    // Optimized for small text documents...
    let old_run = profile_scenario(&app, "o_oldwp0", &classifier).unwrap();
    let old_dist = choose_distribution(&app, &old_run.profile, &network()).unwrap();

    // ...but the user now works with the 150-page table.
    let stale = run_monitored("o_oldtb3", &classifier, &old_dist, &old_run.profile, 4);
    let stale_report = stale.report;
    let monitor = stale.drift.unwrap();
    assert!(monitor.should_reprofile(0.2), "drift {}", monitor.drift());

    // Re-profile and re-optimize for the observed usage.
    let new_run = profile_scenario(&app, "o_oldtb3", &classifier).unwrap();
    let new_dist = choose_distribution(&app, &new_run.profile, &network()).unwrap();
    let fresh_report =
        run_monitored("o_oldtb3", &classifier, &new_dist, &new_run.profile, 4).report;

    assert!(
        fresh_report.stats.comm_us * 5 < stale_report.stats.comm_us,
        "re-optimization should slash communication: stale {} us, fresh {} us",
        stale_report.stats.comm_us,
        fresh_report.stats.comm_us
    );
}

/// A real three-machine distributed execution of Benefits: forms on the
/// client, business logic on the middle tier, database on the server.
#[test]
fn benefits_runs_distributed_across_three_machines() {
    let app = Benefits::default();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(&app, "b_vueone", &classifier).unwrap();

    // Tier pins from static analysis: GUI → machine 0, database → machine 2.
    let rt_for_registry = ComRuntime::single_machine();
    app.register(&rt_for_registry);
    let mut constraints = derive_tier_constraints(
        &run.profile,
        rt_for_registry.registry(),
        MachineId(0),
        MachineId(2),
    );
    // Anchor the middle tier with the manager classifications.
    for name in [
        "BenEmployeeManager",
        "BenBenefitsManager",
        "BenDependentsManager",
    ] {
        let clsid = coign_com::Clsid::from_name(name);
        for (class, c) in &run.profile.class_of {
            if *c == clsid {
                constraints.push(MultiwayConstraint::Pin(*class, MachineId(1)));
            }
        }
    }

    let dist = analyze_multiway(&run.profile, &network(), &constraints, 3).unwrap();

    // Execute on a real three-machine topology.
    let topology = vec![
        MachineSpec::new("client", 1.0),
        MachineSpec::new("middle", 1.0),
        MachineSpec::new("dbserver", 1.0),
    ];
    let opts = RunOptions {
        topology: Some(topology),
        ..RunOptions::default()
    };
    let network = NetworkModel::ethernet_10baset();
    let report = execute_distributed(&app, "b_vueone", &classifier, &dist, network, 8, opts)
        .unwrap()
        .report;

    // All three machines host something, and communication was charged.
    assert_eq!(report.instances_per_machine.len(), 3);
    assert!(
        report.instances_per_machine[1] > 0,
        "middle tier is populated"
    );
    assert!(
        report.instances_per_machine[2] > 0,
        "db server is populated"
    );
    assert!(report.stats.comm_us > 0);
    assert!(report.stats.cross_machine_calls > 0);
}

/// The three-way cut never costs less than the unconstrained two-way cut
/// (more machines, more forced separations) but stays within a small factor
/// on this workload.
#[test]
fn three_way_cost_brackets_two_way() {
    let app = Benefits::default();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(&app, "b_vueone", &classifier).unwrap();
    let two_way = choose_distribution(&app, &run.profile, &network()).unwrap();

    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let mut constraints =
        derive_tier_constraints(&run.profile, rt.registry(), MachineId(0), MachineId(2));
    let manager = coign_com::Clsid::from_name("BenEmployeeManager");
    for (class, c) in &run.profile.class_of {
        if *c == manager {
            constraints.push(MultiwayConstraint::Pin(*class, MachineId(1)));
        }
    }
    let three_way = analyze_multiway(&run.profile, &network(), &constraints, 3).unwrap();

    assert!(
        three_way.predicted_comm_us >= two_way.predicted_comm_us - 1e-6,
        "a 3-way split cannot beat the optimal 2-way relaxation"
    );
    assert!(
        three_way.predicted_comm_us <= two_way.predicted_comm_us * 10.0,
        "3-way should stay within an order of magnitude here"
    );
}
