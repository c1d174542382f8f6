//! Observability integration tests: trace validity, determinism under a
//! fixed seed, zero overhead when disabled, and the golden metrics
//! snapshot.
//!
//! Determinism is the load-bearing property: `--trace` and `--metrics`
//! exist so CI can diff two same-seed runs byte for byte, which only works
//! if nothing nondeterministic (host time, thread interleaving, map
//! ordering) leaks into the exports.
//!
//! Regenerate the golden metrics snapshot after an intentional change with:
//!
//! ```text
//! T=$(mktemp -d)
//! cargo run -rp coign-cli -- instrument octarine $T/o.cimg
//! cargo run -rp coign-cli -- profile $T/o.cimg o_oldtb3
//! cargo run -rp coign-cli -- analyze $T/o.cimg ethernet
//! cargo run -rp coign-cli -- run $T/o.cimg o_oldtb3 ethernet \
//!     --fault-plan examples/faults/demo.fplan --fault-seed 7 \
//!     --metrics crates/cli/tests/golden/octarine_run_metrics.json
//! ```

use coign_cli::{
    cmd_analyze, cmd_gen, cmd_instrument, cmd_profile, cmd_run, cmd_serve, cmd_sweep, RunFaults,
    ServeCliOptions,
};
use coign_gen::GenSize;
use coign_obs::{validate_chrome_trace, Obs};
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("coign_obs_{tag}_{}.cimg", std::process::id()));
    path
}

fn demo_plan() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/faults/demo.fplan")
        .canonicalize()
        .expect("examples/faults/demo.fplan exists")
}

/// Instrument → profile → analyze, exactly like the CI fault block.
fn realized_image(tag: &str) -> PathBuf {
    let path = temp(tag);
    cmd_instrument("octarine", &path).unwrap();
    cmd_profile(&path, &["o_oldtb3"], 1, None).unwrap();
    cmd_analyze(&path, "ethernet", None).unwrap();
    path
}

fn run_faults() -> RunFaults {
    RunFaults {
        plan_path: Some(demo_plan()),
        fault_seed: 7,
        summary: true,
    }
}

/// A fresh bundle with host-time export pinned off, so traces compare
/// byte-for-byte even if the ambient environment opts host time in.
fn fresh_obs() -> Obs {
    let obs = Obs::enabled();
    obs.tracer.set_host_time(false);
    obs
}

fn observed_run(path: &Path) -> (Obs, String) {
    let obs = fresh_obs();
    let out = cmd_run(path, "o_oldtb3", "ethernet", &run_faults(), Some(&obs)).unwrap();
    (obs, out)
}

#[test]
fn fault_run_trace_and_metrics_are_byte_identical_across_runs() {
    let path = realized_image("det");
    let (a_obs, a_out) = observed_run(&path);
    let (b_obs, b_out) = observed_run(&path);
    assert_eq!(a_out, b_out, "run summary must reproduce");
    assert_eq!(
        a_obs.tracer.export_chrome_json(),
        b_obs.tracer.export_chrome_json(),
        "same seed + fault plan must serialize a byte-identical trace"
    );
    assert_eq!(
        a_obs.registry.snapshot_json(),
        b_obs.registry.snapshot_json(),
        "same seed + fault plan must snapshot byte-identical metrics"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn parallel_profile_trace_is_byte_identical_across_runs() {
    // Two `--jobs 4` passes over the same suite must serialize the same
    // trace regardless of worker interleaving: scenario events buffer in
    // child tracers and merge back in scenario order.
    let scenarios = ["o_oldtb3", "o_newdoc", "o_oldwp7"];
    let mut exports = Vec::new();
    for tag in ["ptrace_a", "ptrace_b"] {
        let path = temp(tag);
        cmd_instrument("octarine", &path).unwrap();
        let obs = fresh_obs();
        cmd_profile(&path, &scenarios, 4, Some(&obs)).unwrap();
        exports.push((
            obs.tracer.export_chrome_json(),
            obs.registry.snapshot_json(),
        ));
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(exports[0].0, exports[1].0, "parallel profile trace differs");
    assert_eq!(
        exports[0].1, exports[1].1,
        "parallel profile metrics differ"
    );
    let summary = validate_chrome_trace(&exports[0].0).expect("parallel trace validates");
    assert_eq!(summary.instant_count("classifier_fork"), scenarios.len());
    assert_eq!(summary.instant_count("classifier_absorb"), scenarios.len());
    for scenario in scenarios {
        assert!(summary.has_span(&format!("scenario:{scenario}")));
    }
}

#[test]
fn disabled_observability_leaves_the_run_report_unchanged() {
    let path = realized_image("zero");
    let plain = cmd_run(&path, "o_oldtb3", "ethernet", &run_faults(), None).unwrap();

    // A disabled bundle records no trace and must not perturb the report.
    let disabled = Obs::disabled();
    let off = cmd_run(
        &path,
        "o_oldtb3",
        "ethernet",
        &run_faults(),
        Some(&disabled),
    )
    .unwrap();
    assert_eq!(plain, off, "disabled tracer changed the run report");
    assert!(disabled.tracer.is_empty());

    // An enabled bundle records plenty — and still must not perturb it:
    // tracing observes the simulation, it never charges simulated time.
    let (obs, on) = observed_run(&path);
    assert_eq!(plain, on, "enabled tracer changed the run report");
    assert!(!obs.tracer.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn chrome_trace_is_valid_and_covers_every_pipeline_phase() {
    let path = temp("schema");
    let obs = fresh_obs();
    cmd_instrument("octarine", &path).unwrap();
    cmd_profile(&path, &["o_oldtb3"], 1, Some(&obs)).unwrap();
    cmd_analyze(&path, "ethernet", Some(&obs)).unwrap();
    cmd_run(&path, "o_oldtb3", "ethernet", &run_faults(), Some(&obs)).unwrap();
    cmd_sweep(&path, true, Some(&obs)).unwrap();

    let trace = obs.tracer.export_chrome_json();
    let summary = validate_chrome_trace(&trace).expect("pipeline trace validates");
    for phase in ["profile", "analyze", "mincut", "rewrite", "run", "sweep"] {
        assert!(summary.has_span(phase), "missing phase span `{phase}`");
    }
    assert!(summary.has_span("scenario:o_oldtb3"));
    // The demo fault plan drops messages, so fault instants must appear.
    assert!(
        summary.instant_count("fault_drop") + summary.instant_count("fault_timeout") > 0,
        "fault plan left no fault events in the trace"
    );
    // Marshal-size memoization misses (the first walk of each new argument
    // shape) are traced during profiling; hits stay aggregate.
    assert!(summary.instant_count("marshal_cache_miss") > 0);
    assert_eq!(summary.instant_count("marshal_cache_hit"), 0);
    // Sweep solve counts landed in the registry.
    assert_eq!(
        obs.registry.counter_value("coign_sweep_warm_solves_total"),
        Some(16)
    );
    assert_eq!(
        obs.registry.counter_value("coign_sweep_cold_solves_total"),
        Some(16)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_trace_emits_one_instant_per_cut_crossing_call() {
    let path = realized_image("icc");
    let (obs, _) = observed_run(&path);
    let summary =
        validate_chrome_trace(&obs.tracer.export_chrome_json()).expect("run trace validates");
    let crossing = obs
        .registry
        .counter_value("coign_cross_machine_calls_total")
        .expect("run records the cross-machine call counter");
    assert!(crossing > 0);
    assert_eq!(
        summary.instant_count("icc_call") as u64,
        crossing,
        "every cut-crossing call must emit exactly one icc_call instant"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_metrics_snapshot_matches_golden_file() {
    let path = realized_image("goldenm");
    let (obs, summary_text) = observed_run(&path);
    let snapshot = obs.registry.snapshot_json();
    let golden = include_str!("golden/octarine_run_metrics.json");
    assert_eq!(
        snapshot.trim_end(),
        golden.trim_end(),
        "`coign run --metrics` drifted from the committed golden snapshot; \
         if the change is intentional, regenerate it (see module docs)"
    );
    // The snapshot supersets the machine-diffable summary: every numeric
    // `key=value` line of the report is backed by a registry counter with
    // the same value.
    let names = obs.registry.counter_names();
    for line in summary_text.lines() {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue; // scenario=, placements=, instances_per_machine=
        };
        let metric = names
            .iter()
            .find(|n| {
                let stem = n.trim_start_matches("coign_");
                stem == key || stem.trim_end_matches("_total") == key
            })
            .unwrap_or_else(|| panic!("summary key `{key}` has no backing metric"));
        assert_eq!(
            obs.registry.counter_value(metric),
            Some(value),
            "summary key `{key}` disagrees with metric `{metric}`"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_writes_trace_and_metrics_files() {
    let exe = env!("CARGO_BIN_EXE_coign");
    let image = temp("binflags");
    let trace_path = temp("binflags_trace").with_extension("json");
    let json_path = temp("binflags_metrics").with_extension("json");
    let prom_path = temp("binflags_metrics").with_extension("prom");
    let run = |args: &[&str]| {
        let output = Command::new(exe).args(args).output().expect("spawn coign");
        assert!(
            output.status.success(),
            "coign {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    let image_str = image.to_str().unwrap();
    run(&["instrument", "octarine", image_str]);
    run(&[
        "profile",
        image_str,
        "o_oldtb3",
        "--trace",
        trace_path.to_str().unwrap(),
        "--metrics",
        json_path.to_str().unwrap(),
    ]);
    let trace = std::fs::read_to_string(&trace_path).expect("--trace wrote a file");
    let summary = validate_chrome_trace(&trace).expect("binary trace validates");
    assert!(summary.has_span("cli:profile"));
    assert!(summary.has_span("profile"));
    let metrics = std::fs::read_to_string(&json_path).expect("--metrics wrote a file");
    assert!(metrics.starts_with("{\"counters\":"));
    assert!(metrics.contains("coign_marshal_cache_hits_total"));

    // A `.prom` extension selects the Prometheus text exposition.
    run(&[
        "analyze",
        image_str,
        "ethernet",
        "--metrics",
        prom_path.to_str().unwrap(),
    ]);
    let prom = std::fs::read_to_string(&prom_path).expect(".prom metrics written");
    assert!(prom.is_empty() || prom.contains("# TYPE"));

    // A missing flag argument is a clean CLI error.
    let output = Command::new(exe)
        .args(["show", image_str, "--trace"])
        .output()
        .expect("spawn coign");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--trace needs a file argument"));

    for p in [image, trace_path, json_path, prom_path] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn serve_session_trace_is_sampled_valid_and_jobs_independent() {
    // `--trace --trace-sample N`: sampled sessions emit causal spans
    // (session/call/batch_wait/link_transit plus batch spans tied by flow
    // ids), buffered per shard and merged in shard order — so the exported
    // trace must not depend on the worker-thread count.
    //
    // A private gen:42 image profiled over g_main, so the test does not
    // depend on what else has profiled the shared `gen:` cache.
    let dir = std::env::temp_dir().join(format!("coign_obs_serve_{}", std::process::id()));
    cmd_gen(42, GenSize::Small, Some(&dir), true).expect("gen:42 emits an image");
    let img = dir.join("gen-42-small.cimg");
    cmd_profile(&img, &["g_main"], 1, None).expect("gen:42 profiles g_main");
    let render = |jobs: usize| {
        let obs = fresh_obs();
        let opts = ServeCliOptions {
            sessions: 2_000,
            jobs,
            trace_sample: 100,
            ..ServeCliOptions::default()
        };
        let out = cmd_serve(&img, "g_main", "ethernet", &opts, Some(&obs)).expect("serve succeeds");
        (out, obs.tracer.export_chrome_json())
    };
    let (out_one, trace_one) = render(1);
    for jobs in [2, 4] {
        assert_eq!(
            (out_one.clone(), trace_one.clone()),
            render(jobs),
            "serve trace changed between --jobs 1 and --jobs {jobs}"
        );
    }
    let summary = validate_chrome_trace(&trace_one).expect("serve trace validates");
    assert!(summary.has_span("serve"), "pipeline phase span present");
    for span in ["call", "batch_wait", "link_transit", "batch"] {
        assert!(summary.has_span(span), "missing serve span `{span}`");
    }
    // Every 100th of 2000 global session ids: sessions 0, 100, ... 1900.
    let sampled: Vec<_> = summary
        .span_names
        .iter()
        .filter(|n| n.starts_with("session:"))
        .collect();
    assert_eq!(sampled.len(), 20, "sample rate must pick every Nth session");

    // Without --trace-sample the serve trace carries only the phase span.
    let obs = fresh_obs();
    let opts = ServeCliOptions {
        sessions: 2_000,
        ..ServeCliOptions::default()
    };
    cmd_serve(&img, "g_main", "ethernet", &opts, Some(&obs)).expect("serve succeeds");
    std::fs::remove_dir_all(&dir).ok();
    let summary = validate_chrome_trace(&obs.tracer.export_chrome_json())
        .expect("unsampled serve trace validates");
    assert!(
        !summary.has_span("call"),
        "no session spans without sampling"
    );
}
