//! End-to-end pipeline tests spanning every crate: simCOM substrate, DCOM
//! simulation, flow algorithms, the Coign runtime, and the application
//! suite.

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::runtime::{choose_distribution, profile_scenario, run_default, run_distributed};
use coign_apps::scenarios::app_by_name;
use coign_dcom::{NetworkModel, NetworkProfile};
use std::sync::Arc;

fn network() -> NetworkProfile {
    NetworkProfile::measure(&NetworkModel::ethernet_10baset(), 20, 99)
}

/// For every application: profile one representative scenario, choose a
/// distribution, run it — and never do worse than the default.
#[test]
fn coign_never_chooses_a_worse_distribution() {
    for (app_name, scenario) in [
        ("octarine", "o_oldwp0"),
        ("octarine", "o_oldtb3"),
        ("photodraw", "p_oldcur"),
        ("benefits", "b_vueone"),
    ] {
        let app = app_by_name(app_name).unwrap();
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let run = profile_scenario(app.as_ref(), scenario, &classifier).unwrap();
        let dist = choose_distribution(app.as_ref(), &run.profile, &network()).unwrap();
        let default =
            run_default(app.as_ref(), scenario, NetworkModel::ethernet_10baset(), 7).unwrap();
        let coign = run_distributed(
            app.as_ref(),
            scenario,
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            7,
        )
        .unwrap();
        // Allow 7 % slack for transport jitter (the model chooses on means).
        assert!(
            coign.stats.comm_us as f64 <= default.stats.comm_us as f64 * 1.07 + 1000.0,
            "{scenario}: coign {} us > default {} us",
            coign.stats.comm_us,
            default.stats.comm_us
        );
    }
}

/// The distributed run must behave identically to the profiling run: same
/// instances, same call structure (location transparency).
#[test]
fn distribution_preserves_application_behavior() {
    let app = app_by_name("octarine").unwrap();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(app.as_ref(), "o_oldtb0", &classifier).unwrap();
    let dist = choose_distribution(app.as_ref(), &run.profile, &network()).unwrap();
    let coign = run_distributed(
        app.as_ref(),
        "o_oldtb0",
        &classifier,
        &dist,
        NetworkModel::ethernet_10baset(),
        1,
    )
    .unwrap();
    assert_eq!(
        run.report.total_instances(),
        coign.total_instances(),
        "the distributed execution must create the same component population"
    );
    // Application compute is placement-independent (equal CPUs).
    assert_eq!(run.report.stats.compute_us, coign.stats.compute_us);
}

/// Profiling and analysis are fully deterministic; distributed measurement
/// is deterministic per seed.
#[test]
fn pipeline_is_deterministic() {
    let once = || {
        let app = app_by_name("benefits").unwrap();
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let run = profile_scenario(app.as_ref(), "b_addone", &classifier).unwrap();
        let dist = choose_distribution(app.as_ref(), &run.profile, &network()).unwrap();
        let report = run_distributed(
            app.as_ref(),
            "b_addone",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            1234,
        )
        .unwrap();
        (
            run.profile.total_bytes(),
            dist.encode(),
            report.clock_us,
            report.stats.bytes,
        )
    };
    assert_eq!(once(), once());
}

/// The same profile concretized for faster networks never increases the
/// predicted communication time of the chosen cut.
#[test]
fn faster_networks_never_predict_slower_cuts() {
    let app = app_by_name("octarine").unwrap();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(app.as_ref(), "o_oldwp3", &classifier).unwrap();
    let mut last = f64::INFINITY;
    for model in [
        NetworkModel::isdn(),
        NetworkModel::ethernet_10baset(),
        NetworkModel::atm155(),
        NetworkModel::san(),
    ] {
        let profile = NetworkProfile::exact(&model);
        let dist = choose_distribution(app.as_ref(), &run.profile, &profile).unwrap();
        assert!(
            dist.predicted_comm_us <= last,
            "{}: {} > previous {}",
            model.name,
            dist.predicted_comm_us,
            last
        );
        last = dist.predicted_comm_us;
    }
}

/// All three max-flow algorithms agree on the real applications' graphs,
/// not just synthetic ones.
#[test]
fn algorithms_agree_on_real_application_graphs() {
    use coign::analysis::analyze;
    use coign::runtime::derive_constraints;
    use coign_flow::MaxFlowAlgorithm;

    let app = app_by_name("benefits").unwrap();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(app.as_ref(), "b_vueone", &classifier).unwrap();
    let rt = coign_com::ComRuntime::single_machine();
    app.register(&rt);
    let constraints = derive_constraints(app.as_ref(), &run.profile, rt.registry());
    let net = network();
    let costs: Vec<f64> = MaxFlowAlgorithm::ALL
        .iter()
        .map(|&alg| {
            analyze(&run.profile, &net, &constraints, alg)
                .unwrap()
                .predicted_comm_us
        })
        .collect();
    for pair in costs.windows(2) {
        assert!(
            (pair[0] - pair[1]).abs() < 1e-6,
            "algorithms disagree: {costs:?}"
        );
    }
}

/// §4.3: Benefits ships as either 2-tier or 3-tier. Coign improves both
/// shipped configurations — and converges on equal-cost distributions,
/// since the cut does not care where the programmer started.
#[test]
fn coign_improves_both_benefits_tierings() {
    use coign_apps::Benefits;
    for app in [Benefits::two_tier(), Benefits::three_tier()] {
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let run = profile_scenario(&app, "b_vueone", &classifier).unwrap();
        let dist = choose_distribution(&app, &run.profile, &network()).unwrap();
        let default = run_default(&app, "b_vueone", NetworkModel::ethernet_10baset(), 9).unwrap();
        let coign = run_distributed(
            &app,
            "b_vueone",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            9,
        )
        .unwrap();
        assert!(
            coign.stats.comm_us <= default.stats.comm_us,
            "coign must not lose to the shipped configuration"
        );
    }
    // The chosen distributions cost the same regardless of tiering: the
    // profile (and therefore the cut) is identical.
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let two = profile_scenario(&Benefits::two_tier(), "b_vueone", &classifier).unwrap();
    let classifier2 = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let three = profile_scenario(&Benefits::three_tier(), "b_vueone", &classifier2).unwrap();
    assert_eq!(two.profile, three.profile);
}
