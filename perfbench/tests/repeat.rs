//! The benchmark's own checks: same-seed runs repeat their counts and
//! simulated metrics exactly, some workload measures every per-layer metric
//! `BENCHMARK.json` names, and the held-out seed passes every output check.
//!
//! Run with `cargo test --release` from this directory; a debug build of
//! the simulations is too slow to be useful.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["table4", "adapt", "serve", "serve_faulted"];

/// The seed the benchmark was developed on.
const DEV_SEED: u64 = 1;

/// A seed never used while the benchmark was written.
const HELD_OUT_SEED: u64 = 20_261_017;

/// Runs one workload for one second; returns its metric values.
fn run(workload: &str, seed: u64, trace: bool) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_coign-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    parse_metrics(last)
}

/// Extracts `"name":{"value":v` pairs from the result line.
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let body = line
        .split_once("\"metrics\":{")
        .expect("a metrics object")
        .1;
    body.split("},")
        .map(|entry| {
            let (name, rest) = entry.split_once("\":{\"value\":").expect("a metric entry");
            let value = rest.split(',').next().expect("a value");
            (
                name.trim_start_matches('"').to_string(),
                value.parse().expect("a numeric value"),
            )
        })
        .collect()
}

/// Metrics measured on the host clock, which no two runs repeat.
fn is_host_timing(name: &str) -> bool {
    name.ends_with(".cpu_us")
        || name.ends_with("_per_s") && !name.starts_with("serve.") && !name.starts_with("sim_")
        || name.ends_with("overhead_frac")
        || name == "unattributed_frac"
}

/// Per-layer metrics that may read 0 on every workload at the
/// development seed: `table4`'s count of scenarios that transport jitter
/// made slightly worse than the default.
const MAY_READ_ZERO: [&str; 1] = ["run.coign_worse_scenarios"];

#[test]
fn same_seed_repeats_counts_and_simulated_metrics() {
    let mut measured = BTreeSet::new();
    for workload in WORKLOADS {
        let (a, b) = (run(workload, DEV_SEED, true), run(workload, DEV_SEED, true));
        for (name, value) in &a {
            if !is_host_timing(name) {
                assert_eq!(
                    Some(value),
                    b.get(name),
                    "{workload}: {name} did not repeat"
                );
            }
            if *value != 0.0 {
                measured.insert(name.clone());
            }
        }
    }
    // A declared name no workload measures reads 0 everywhere.
    for name in declared("per_layer") {
        assert!(
            measured.contains(&name) || MAY_READ_ZERO.contains(&name.as_str()),
            "no workload measures {name}"
        );
    }
}

#[test]
fn held_out_seed_passes_every_check() {
    for workload in WORKLOADS {
        run(workload, HELD_OUT_SEED, true);
        let e2e = run(workload, HELD_OUT_SEED, false);
        assert!(
            e2e.values().all(|v| *v > 0.0),
            "{workload}: an end-to-end metric reads 0: {e2e:?}"
        );
    }
}

/// Names listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let section = text
        .split_once(&format!("\"{key}\""))
        .expect("the key is present")
        .1;
    let section = &section[..section.find(']').expect("a closed list")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}
