//! Golden-output tests: the rendered diagnostics of `coign check` are an
//! interface (CI and editors parse the JSON), so their exact shape is
//! pinned against committed expectations. If a change to diagnostic codes
//! or renderers is intentional, regenerate the golden file with
//!
//! ```text
//! cargo run -p coign-cli --bin coign -- check examples/octarine.cimg --json \
//!     > crates/cli/tests/golden/octarine_check.json
//! ```
//!
//! The `coign sweep --json` output is pinned the same way. The example
//! image ships unprofiled, so the golden sequence profiles a scratch copy
//! first (profiling is deterministic, and the merged log is identical for
//! every `--jobs` count):
//!
//! ```text
//! cp examples/octarine.cimg /tmp/sweep.cimg
//! cargo run -p coign-cli --bin coign -- profile /tmp/sweep.cimg o_oldtb3 o_newdoc --jobs 2
//! cargo run -p coign-cli --bin coign -- sweep /tmp/sweep.cimg --json \
//!     > crates/cli/tests/golden/octarine_sweep.json
//! ```
//!
//! The benefits and photodraw `check --json` reports pin the replication-
//! legality stages (COIGN040–044) across the other two applications; their
//! images are freshly instrumented scratch copies (`coign instrument
//! benefits /tmp/b.cimg && coign check /tmp/b.cimg --json > ...`). The
//! `coign dot` overlay is pinned from a profiled + analyzed octarine
//! image (same profile recipe as the sweep golden, then `coign analyze
//! <img> ethernet && coign dot <img> .../octarine_dot.gv`). COIGN045 is
//! dynamic-only — it renders in `coign profile` output, never in `check`,
//! and stays absent from honest runs (asserted in the CLI unit tests).

//! The generator goldens pin the `coign gen --seed 42 --json` topology
//! summary and a violation-free `coign explore` report over the same
//! seed (explicit `--faults-at` schedule, so the run stays fast):
//!
//! ```text
//! cargo run -p coign-cli --bin coign -- gen --seed 42 --json \
//!     > crates/cli/tests/golden/gen_seed42.json
//! cargo run -p coign-cli --bin coign -- explore gen:42 g_main \
//!     --faults-at 4000,9000,14000,21000 --thresholds 1,3 \
//!     > crates/cli/tests/golden/explore_small.txt
//! ```

use coign_cli::{
    cmd_analyze, cmd_check, cmd_dot, cmd_explore, cmd_gen, cmd_instrument, cmd_profile, cmd_serve,
    cmd_sweep, resolve_image_spec, resolve_private_image_spec, ExploreCliOptions, ServeCliOptions,
};
use coign_gen::GenSize;
use std::path::{Path, PathBuf};

fn example_image() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/octarine.cimg")
        .canonicalize()
        .expect("examples/octarine.cimg exists")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("coign_golden_{tag}_{}.cimg", std::process::id()))
}

/// A private `gen:42` image, profiled once over `g_main` — the recipe the
/// serve goldens were generated with. Each test emits its own copy (the
/// bytes `gen:42` materializes to), so no test depends on what else has
/// profiled the shared `gen:` cache; the directory is removed on drop.
struct Gen42(PathBuf);

impl Gen42 {
    fn profiled(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("coign_golden_{tag}_{}", std::process::id()));
        let gen = Gen42(dir);
        cmd_gen(42, GenSize::Small, Some(&gen.0), true).expect("gen:42 emits an image");
        cmd_profile(&gen.image(), &["g_main"], 1, None).expect("gen:42 profiles g_main");
        gen
    }

    fn image(&self) -> PathBuf {
        self.0.join("gen-42-small.cimg")
    }
}

impl Drop for Gen42 {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn check_json_output_matches_golden_file() {
    let report = cmd_check(&example_image(), true).expect("check passes on the example image");
    let golden = include_str!("golden/octarine_check.json");
    assert_eq!(
        report.trim_end(),
        golden.trim_end(),
        "`coign check --json` drifted from the committed golden output; \
         if the change is intentional, regenerate the golden file (see module docs)"
    );
}

#[test]
fn check_json_golden_is_wellformed() {
    // Guard the golden file itself: it must stay one JSON object with the
    // summary counters first, so downstream `head -c`/jq pipelines keep
    // working.
    let golden = include_str!("golden/octarine_check.json");
    let trimmed = golden.trim_end();
    assert!(trimmed.starts_with("{\"errors\":"));
    assert!(trimmed.ends_with("]}"));
    assert_eq!(trimmed.matches("\"code\":").count(), 20);
    // The replication-legality stages contribute their share: partial
    // annotations, pure interfaces, mutable-shared warnings, and the
    // replicable flyweight verdicts.
    assert_eq!(trimmed.matches("\"code\":\"COIGN040\"").count(), 2);
    assert_eq!(trimmed.matches("\"code\":\"COIGN042\"").count(), 6);
    assert_eq!(trimmed.matches("\"code\":\"COIGN043\"").count(), 2);
    assert_eq!(trimmed.matches("\"code\":\"COIGN044\"").count(), 8);
}

#[test]
fn check_json_output_is_deterministic_across_runs() {
    // Byte-identity across two full passes over the same image: every
    // stage iterates name-sorted structures, so nothing may depend on
    // hash-map order or interleaving.
    let first = cmd_check(&example_image(), true).unwrap();
    let second = cmd_check(&example_image(), true).unwrap();
    assert_eq!(first, second, "`coign check --json` must be deterministic");
}

#[test]
fn benefits_check_json_matches_golden_file() {
    let img = scratch("bencheck");
    let report = cmd_instrument("benefits", &img)
        .map_err(|e| e.to_string())
        .and_then(|_| cmd_check(&img, true));
    std::fs::remove_file(&img).ok();
    let report = report.expect("instrument + check succeed on benefits");
    let golden = include_str!("golden/benefits_check.json");
    assert_eq!(
        report.trim_end(),
        golden.trim_end(),
        "`coign check --json` on benefits drifted from the committed golden \
         output; if the change is intentional, regenerate it (see module docs)"
    );
}

#[test]
fn photodraw_check_json_matches_golden_file() {
    let img = scratch("pdcheck");
    let report = cmd_instrument("photodraw", &img)
        .map_err(|e| e.to_string())
        .and_then(|_| cmd_check(&img, true));
    std::fs::remove_file(&img).ok();
    let report = report.expect("instrument + check succeed on photodraw");
    let golden = include_str!("golden/photodraw_check.json");
    assert_eq!(
        report.trim_end(),
        golden.trim_end(),
        "`coign check --json` on photodraw drifted from the committed golden \
         output; if the change is intentional, regenerate it (see module docs)"
    );
}

#[test]
fn dot_output_matches_golden_file() {
    // The full replication-legality overlay on a profiled + analyzed
    // octarine image: double-circled replicable flyweights, shaded
    // annotated mutable-shared classes, and effect-labelled edges.
    let img = scratch("dot");
    let out = std::env::temp_dir().join(format!("coign_golden_dot_{}.gv", std::process::id()));
    std::fs::copy(example_image(), &img).expect("copy example image to scratch path");
    let rendered = cmd_profile(&img, &["o_oldtb3", "o_newdoc"], 2, None)
        .and_then(|_| cmd_analyze(&img, "ethernet", None))
        .and_then(|_| cmd_dot(&img, &out))
        .and_then(|_| {
            std::fs::read_to_string(&out)
                .map_err(|e| coign_com::ComError::App(format!("read {}: {e}", out.display())))
        });
    std::fs::remove_file(&img).ok();
    std::fs::remove_file(&out).ok();
    let rendered = rendered.expect("profile + analyze + dot succeed");
    let golden = include_str!("golden/octarine_dot.gv");
    assert_eq!(
        rendered, golden,
        "`coign dot` drifted from the committed golden output; if the \
         change is intentional, regenerate it (see module docs)"
    );
    assert!(golden.contains("peripheries=2"));
    assert!(golden.contains("fillcolor=mistyrose"));
    assert!(golden.contains("(pure)") && golden.contains("(reads)"));
}

#[test]
fn sweep_json_output_matches_golden_file() {
    let scratch =
        std::env::temp_dir().join(format!("coign_golden_sweep_{}.cimg", std::process::id()));
    std::fs::copy(example_image(), &scratch).expect("copy example image to scratch path");
    let swept = cmd_profile(&scratch, &["o_oldtb3", "o_newdoc"], 2, None)
        .and_then(|_| cmd_sweep(&scratch, true, None));
    std::fs::remove_file(&scratch).ok();
    let report = swept.expect("profile + sweep succeed on the example image");
    let golden = include_str!("golden/octarine_sweep.json");
    assert_eq!(
        report.trim_end(),
        golden.trim_end(),
        "`coign sweep --json` drifted from the committed golden output; \
         if the change is intentional, regenerate the golden file (see module docs)"
    );
}

#[test]
fn sweep_json_golden_is_wellformed() {
    // Guard the golden file itself: one JSON object, grid first, then the
    // full 4x4 paper-network grid of points.
    let golden = include_str!("golden/octarine_sweep.json");
    let trimmed = golden.trim_end();
    assert!(trimmed.starts_with("{\"grid\":"));
    assert!(trimmed.ends_with("]}"));
    assert_eq!(trimmed.matches("\"cut_value\":").count(), 16);
}

#[test]
fn gen_topology_summary_matches_golden_file() {
    let report = cmd_gen(42, GenSize::Small, None, true).expect("gen succeeds");
    let golden = include_str!("golden/gen_seed42.json");
    assert_eq!(
        report.trim_end(),
        golden.trim_end(),
        "`coign gen --seed 42 --json` drifted from the committed golden \
         output; if the change is intentional, regenerate it (see module docs)"
    );
}

#[test]
fn gen_golden_is_wellformed() {
    // Guard the golden file: one JSON object whose identity keys come
    // first, so downstream jq pipelines keep working.
    let golden = include_str!("golden/gen_seed42.json");
    let trimmed = golden.trim_end();
    assert!(trimmed.starts_with("{\n  \"app\": \"gen-42-small\""));
    assert!(trimmed.ends_with("}"));
    for key in [
        "\"seed\": 42",
        "\"size\": \"small\"",
        "\"classes\":",
        "\"non_remotable_interfaces\":",
        "\"explicit_constraints\":",
        "\"scenarios\": [\"g_main\",\"g_doc\",\"g_idle\"]",
    ] {
        assert!(trimmed.contains(key), "golden summary lost `{key}`");
    }
}

#[test]
fn explore_report_matches_golden_file() {
    // A violation-free schedule-space sweep over the golden seed: the
    // explicit fault schedule keeps the run to 8 interleavings, and the
    // summary is byte-stable (it never includes host time or job count).
    let opts = ExploreCliOptions {
        faults_at: Some(vec![4000, 9000, 14000, 21000]),
        thresholds: vec![1, 3],
        ..ExploreCliOptions::default()
    };
    let report = cmd_explore("gen:42", "g_main", "ethernet", &opts).expect("explore succeeds");
    let golden = include_str!("golden/explore_small.txt");
    assert_eq!(
        report.trim_end(),
        golden.trim_end(),
        "`coign explore` drifted from the committed golden output; if the \
         change is intentional, regenerate it (see module docs)"
    );
    assert!(golden.contains("invariants: ok (0 violation(s)"));
    assert!(golden.contains("calibration: ks="));
}

#[test]
fn check_human_output_is_stable_in_shape() {
    let report = cmd_check(&example_image(), false).unwrap();
    assert!(report.contains("COIGN010"));
    assert!(report.contains("COIGN012"));
    assert!(report.contains("0 error(s)"));
}

#[test]
fn serve_json_output_matches_golden_file() {
    // The serving-harness summary is fully simulated (no wall-clock
    // numbers), so its exact JSON shape is pinned. Regenerate with
    //
    //   cargo run -p coign-cli --bin coign -- gen --seed 42 --emit /tmp/g
    //   cargo run -p coign-cli --bin coign -- profile /tmp/g/gen-42-small.cimg g_main
    //   cargo run -p coign-cli --bin coign -- serve /tmp/g/gen-42-small.cimg g_main \
    //       --sessions 2000 --json > crates/cli/tests/golden/serve_gen42.json
    let gen = Gen42::profiled("serve_json");
    let img = gen.image();
    let opts = ServeCliOptions {
        sessions: 2_000,
        json: true,
        ..ServeCliOptions::default()
    };
    let report = cmd_serve(&img, "g_main", "ethernet", &opts, None).expect("serve succeeds");
    let golden = include_str!("golden/serve_gen42.json");
    assert_eq!(
        report.trim_end(),
        golden.trim_end(),
        "`coign serve --json` drifted from the committed golden output; if \
         the change is intentional, regenerate it (see the test body)"
    );
    assert!(golden.contains("\"batching\":true"));
    assert!(golden.contains("\"latency_us\""));
}

#[test]
fn serve_timeline_json_matches_golden_file() {
    // The timeline is pure simulated time (windows, busy-µs, per-window
    // quantiles), so its bytes are pinned too. Regenerate with
    //
    //   cargo run -p coign-cli --bin coign -- gen --seed 42 --emit /tmp/g
    //   cargo run -p coign-cli --bin coign -- profile /tmp/g/gen-42-small.cimg g_main
    //   cargo run -p coign-cli --bin coign -- serve /tmp/g/gen-42-small.cimg g_main \
    //       --sessions 2000 --timeline crates/cli/tests/golden/serve_gen42_timeline.json
    let gen = Gen42::profiled("serve_timeline");
    let img = gen.image();
    let sink =
        std::env::temp_dir().join(format!("coign_golden_timeline_{}.json", std::process::id()));
    let opts = ServeCliOptions {
        sessions: 2_000,
        timeline: Some(sink.display().to_string()),
        ..ServeCliOptions::default()
    };
    let run = cmd_serve(&img, "g_main", "ethernet", &opts, None);
    let written = std::fs::read_to_string(&sink);
    std::fs::remove_file(&sink).ok();
    run.expect("serve succeeds");
    let written = written.expect("serve wrote the timeline file");
    let golden = include_str!("golden/serve_gen42_timeline.json");
    assert_eq!(
        written, golden,
        "`coign serve --timeline` drifted from the committed golden output; \
         if the change is intentional, regenerate it (see the test body)"
    );
    assert!(golden.starts_with("{\"window_us\":100000,\"windows\":["));
    assert!(golden.contains("\"latency_us\""));
    assert!(golden.contains("\"links\":[{\"link\":\"0->1\""));
}

#[test]
fn serve_timeline_is_byte_identical_across_jobs() {
    // Per-shard series merge in shard order, so the exported timeline —
    // like the summary — must not depend on the worker-thread count.
    let gen = Gen42::profiled("serve_timeline_jobs");
    let img = gen.image();
    let render = |jobs: usize| {
        let sink = std::env::temp_dir().join(format!(
            "coign_golden_timeline_j{jobs}_{}.csv",
            std::process::id()
        ));
        let opts = ServeCliOptions {
            sessions: 2_000,
            jobs,
            timeline: Some(sink.display().to_string()),
            slo_p99_us: Some(4_000),
            ..ServeCliOptions::default()
        };
        let out = cmd_serve(&img, "g_main", "ethernet", &opts, None).expect("serve succeeds");
        let written = std::fs::read_to_string(&sink).expect("timeline file written");
        std::fs::remove_file(&sink).ok();
        out + &written
    };
    let base = render(1);
    assert!(base.contains("slo: target p99<=4000us"));
    for jobs in [2, 4, 8] {
        assert_eq!(
            base,
            render(jobs),
            "serve timeline changed between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn serve_summary_is_byte_identical_across_jobs() {
    // `--jobs` picks the worker-thread count, never the schedule: the
    // rendered summary must not change with it (mirrors chaos/explore).
    let gen = Gen42::profiled("serve_summary_jobs");
    let img = gen.image();
    let opts = |jobs| ServeCliOptions {
        sessions: 2_000,
        jobs,
        json: true,
        ..ServeCliOptions::default()
    };
    let base =
        cmd_serve(&img, "g_main", "ethernet", &opts(1), None).expect("serve with one worker");
    for jobs in [2, 4, 8] {
        let out = cmd_serve(&img, "g_main", "ethernet", &opts(jobs), None)
            .expect("serve with parallel workers");
        assert_eq!(
            base, out,
            "serve summary changed between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn gen_image_materialization_is_cached() {
    // A seed no other test uses, so nothing regenerates it concurrently:
    // the second resolve must memo-hit and leave the artifact untouched.
    let first = resolve_image_spec("gen:97").expect("gen:97 materializes");
    let stamp = std::fs::metadata(&first)
        .expect("materialized image exists")
        .modified()
        .expect("filesystem records mtime");
    let second = resolve_image_spec("gen:97").expect("cached resolve succeeds");
    assert_eq!(first, second, "cache returned a different artifact path");
    let stamp_again = std::fs::metadata(&second)
        .expect("materialized image still exists")
        .modified()
        .expect("filesystem records mtime");
    assert_eq!(
        stamp, stamp_again,
        "second resolve regenerated the image instead of hitting the cache"
    );
}

#[test]
fn commands_that_need_a_profile_refuse_gen_addresses() {
    // `gen:` names the materialized image every process shares, so no
    // command may rewrite it or read profile state an earlier run left in
    // it; the error names the command that emits a private copy instead.
    let err = resolve_private_image_spec("gen:42").expect_err("gen:42 is refused");
    assert_eq!(
        err.to_string(),
        "application error: `gen:42` is the shared generated image, which is never \
         profiled or rewritten — emit a private copy with `coign gen --seed 42 --emit DIR` \
         and use DIR/gen-42-small.cimg"
    );
    let err = resolve_private_image_spec("gen:7:medium").expect_err("gen:7:medium is refused");
    assert!(err
        .to_string()
        .contains("`coign gen --seed 7 --size medium --emit DIR` and use DIR/gen-7-medium.cimg"));
    // Plain paths pass through untouched.
    let plain = resolve_private_image_spec("app.cimg").expect("plain path");
    assert_eq!(plain, PathBuf::from("app.cimg"));

    // The binary routes every command that reads or rewrites the profile
    // through the refusal.
    for args in [
        &["profile", "gen:42", "g_main"][..],
        &["analyze", "gen:42"],
        &["sweep", "gen:42"],
        &["place", "gen:42", "g_main"],
        &["run", "gen:42", "g_main"],
        &["chaos", "gen:42", "g_main"],
        &["serve", "gen:42", "g_main"],
        &["hotspots", "gen:42"],
        &["script", "gen:42", "steps.txt"],
        &["strip", "gen:42"],
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_coign"))
            .args(args)
            .output()
            .expect("spawn coign");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "`coign {}` succeeded", args[0]);
        assert!(
            stderr.contains("coign gen --seed 42 --emit DIR"),
            "`coign {}` error does not name the emit command: {stderr}",
            args[0]
        );
    }
}
