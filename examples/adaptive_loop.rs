//! The fully automatic optimization loop of the paper's §6.
//!
//! "In the future, Coign could automatically decide when usage differs
//! significantly from profiled scenarios and silently enable profiling to
//! re-optimize the distribution. The Coign runtime already contains
//! sufficient infrastructure…"
//!
//! This example closes the loop: the application ships optimized for small
//! text documents; the user's workload shifts to giant tables; the
//! lightweight runtime's message counters notice; profiling silently
//! re-runs; the distribution is re-cut; communication collapses.
//!
//! Run with: `cargo run --release --example adaptive_loop`

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::runtime::{
    choose_distribution, execute_distributed, profile_scenario, run_distributed, RunOptions,
};
use coign_apps::Octarine;
use coign_dcom::{NetworkModel, NetworkProfile};
use std::sync::Arc;

const DRIFT_THRESHOLD: f64 = 0.15;

fn main() {
    let app = Octarine;
    let network = NetworkProfile::measure(&NetworkModel::ethernet_10baset(), 40, 7);
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));

    // Day 1: the application is profiled on the user's then-current work —
    // small text documents — and distributed accordingly.
    let mut baseline = profile_scenario(&app, "o_oldwp0", &classifier)
        .expect("initial profiling")
        .profile;
    let mut distribution =
        choose_distribution(&app, &baseline, &network).expect("initial analysis");
    println!("day 1: optimized for small text documents");

    // Days 2..: the user's workload shifts. Each execution runs under the
    // current distribution with cheap message counting.
    for (day, scenario) in [(2, "o_oldwp0"), (3, "o_oldtb3"), (4, "o_oldtb3")] {
        let opts = RunOptions {
            drift_baseline: Some(&baseline),
            ..RunOptions::default()
        };
        let run = execute_distributed(
            &app,
            scenario,
            &classifier,
            &distribution,
            NetworkModel::ethernet_10baset(),
            day,
            opts,
        )
        .expect("distributed run");
        let (report, monitor) = (run.report, run.drift.expect("drift is counted"));
        let drift = monitor.drift();
        println!(
            "day {day}: ran {scenario:>9}, communication {:.3} s, usage drift {:.2}",
            report.comm_secs(),
            drift
        );
        if monitor.should_reprofile(DRIFT_THRESHOLD) {
            // Silently re-profile on the observed workload and re-cut.
            println!("        drift over {DRIFT_THRESHOLD}: re-profiling silently…");
            baseline = profile_scenario(&app, scenario, &classifier)
                .expect("re-profiling")
                .profile;
            distribution = choose_distribution(&app, &baseline, &network).expect("re-analysis");
            let fresh = run_distributed(
                &app,
                scenario,
                &classifier,
                &distribution,
                NetworkModel::ethernet_10baset(),
                day + 100,
            )
            .expect("re-run");
            println!(
                "        re-optimized: communication now {:.3} s",
                fresh.comm_secs()
            );
        }
    }
    println!();
    println!("The user never saw a dialog: the runtime noticed the workload change,");
    println!("re-profiled, re-cut the graph, and rewrote its own configuration record.");
}
