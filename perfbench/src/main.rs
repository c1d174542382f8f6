//! The repository benchmark.
//!
//! `coign-perfbench --workload <table4|adapt|serve|serve_faulted> --seed N
//! --seconds S --trace 0|1` sets the workload up from the seed, repeats its
//! pass for `S` seconds, checks every pass's outputs, and prints one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. See `NOTES.md` for the workloads, the metric map and
//! how to read a traced run.

mod adapt;
mod probe;
mod serve;
mod table4;

use probe::{median, Recorder};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Set-ups timed per untraced run at the least; `setup_s` is their median.
const MIN_SETUPS: usize = 5;

/// Share of an untraced run's wall time that repeated set-ups may take.
/// They run between passes, so they see the same host drift as the passes.
const SETUP_SHARE: f64 = 0.2;

/// Samples per message size when measuring the network profile, and the
/// measurement's seed: the CLI's values, fixed by `coign analyze` and
/// `coign serve`.
pub const PROFILE_SAMPLES: usize = 40;
pub const PROFILE_SEED: u64 = 0x000C_0161;

/// `BENCHMARK.json`: the one list of the metrics' names and units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Result<Vec<(&'static str, &'static str)>, String> {
    let field = |entry: &'static str, name: &str| {
        entry
            .split_once(&format!("\"{name}\""))
            .and_then(|(_, rest)| rest.split('"').nth(1))
            .ok_or(format!("a `{key}` entry of BENCHMARK.json has no {name}"))
    };
    let list = BENCHMARK_JSON
        .split_once(&format!("\"{key}\""))
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
        .1;
    let list = &list[..list.find(']').ok_or(format!("`{key}` is not closed"))?];
    list.split('{')
        .skip(1)
        .map(|entry| Ok((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

/// Layers the benchmark times through spans around calls into them.
const LAYERS: [&str; 10] = [
    "rewriter", "codec", "lint", "profile", "analysis", "run", "sweep", "multiway", "recovery",
    "serve",
];

/// Named values a workload reports; exact per seed unless stated.
pub type Values = Vec<(&'static str, f64)>;

/// What one pass of a workload produced.
pub struct Pass {
    /// Operations completed: scenario pipelines (`table4`), distributions
    /// produced (`adapt`) or sessions served (`serve*`).
    pub ops: u64,
    /// Counts and simulated quantities, identical on every pass of a seed.
    /// `sim_cost_ms` is the workload's end-to-end simulated cost.
    pub values: Values,
}

/// One benchmark workload, already set up.
pub trait Workload {
    /// Per-layer name of the workload's throughput (`ops_per_s`).
    fn throughput_name(&self) -> &'static str;

    /// One pass over the workload's inputs, with every output checked.
    fn pass(&mut self, rec: &mut Recorder) -> Result<Pass, String>;

    /// A control pass timed beside the main pass in traced runs: the same
    /// call with one mechanism off. Returns `None` when there is none.
    fn control_pass(&mut self) -> Option<Result<(), String>> {
        None
    }

    /// Runs once after the timed passes: checks that need more than one
    /// run, and simulated metrics measured once per seed (those only the
    /// traced run reports are skipped when `traced` is false).
    fn finish(&mut self, _traced: bool) -> Result<Values, String> {
        Ok(Vec::new())
    }
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "table4" => Box::new(table4::Table4::setup(seed)?),
        "adapt" => Box::new(adapt::Adapt::setup(seed)?),
        "serve" => Box::new(serve::Serve::setup(serve::Variant::Clean, seed)?),
        "serve_faulted" => Box::new(serve::Serve::setup(serve::Variant::Faulted, seed)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (use table4, adapt, serve or serve_faulted)"
            ))
        }
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    Ok(args)
}

/// Wall-clock timings of a sequence of passes.
#[derive(Default)]
struct Timed {
    /// Seconds per pass.
    wall: Vec<f64>,
    /// Operations per second of each pass.
    rate: Vec<f64>,
    ops: u64,
}

impl Timed {
    fn push(&mut self, pass: &Pass, secs: f64) {
        self.wall.push(secs);
        self.rate.push(pass.ops as f64 / secs);
        self.ops += pass.ops;
    }
}

/// What one run measured.
struct Run {
    ops_attempted: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Times one pass, inside a root span named `pass` when tracing.
fn timed_pass(w: &mut dyn Workload, rec: &mut Recorder) -> Result<(Pass, f64), String> {
    let start = Instant::now();
    let pass = rec.span("pass", |rec| w.pass(rec))?;
    Ok((pass, start.elapsed().as_secs_f64()))
}

/// Checks that a pass repeated the first pass's exact values.
fn same_values(first: &Values, pass: &Values) -> Result<(), String> {
    if first == pass {
        Ok(())
    } else {
        Err(format!(
            "a pass of the same inputs produced different values:\n  first {first:?}\n  now   {pass:?}"
        ))
    }
}

/// Sets the workload up once; returns it with the seconds that took.
fn timed_setup(args: &Args) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let w = setup(&args.workload, args.seed)?;
    Ok((w, start.elapsed().as_secs_f64()))
}

fn run(args: &Args) -> Result<Run, String> {
    let e2e_declared = declared("end_to_end")?;
    let layer_declared = declared("per_layer")?;
    let (mut w, secs) = timed_setup(args)?;
    let mut setup_secs = vec![secs];
    let run_start = Instant::now();
    let deadline = run_start + Duration::from_secs_f64(args.seconds);

    let mut untraced = Timed::default();
    let mut traced = Timed::default();
    let mut control: Vec<f64> = Vec::new();
    let mut first: Option<Values> = None;
    // Read after set-up and the first pass, so it measures a fixed amount
    // of work: the program's heap grows with every scenario it runs, and a
    // run's pass count depends on the machine's speed.
    let mut peak_rss_mb = 0.0;
    let mut rec = Recorder::new(args.trace);
    let mut plain = Recorder::new(false);
    let mut roots = Vec::new();
    let mut setup_total = 0.0;
    while first.is_none() || Instant::now() < deadline {
        let (pass, secs) = timed_pass(w.as_mut(), &mut plain)?;
        match &first {
            None => {
                first = Some(pass.values.clone());
                peak_rss_mb = probe::peak_rss_mb()?;
            }
            Some(f) => same_values(f, &pass.values)?,
        }
        untraced.push(&pass, secs);
        if args.trace {
            let root = rec.spans().len();
            let (pass, secs) = timed_pass(w.as_mut(), &mut rec)?;
            same_values(first.as_ref().expect("set above"), &pass.values)?;
            traced.push(&pass, secs);
            roots.push(root);
            let start = Instant::now();
            if let Some(result) = w.control_pass() {
                result?;
                control.push(start.elapsed().as_secs_f64());
            }
        } else if setup_total < SETUP_SHARE * run_start.elapsed().as_secs_f64() {
            // An untraced run sets up again between passes, within a share
            // of its time, so that `setup_s` samples the whole run. The
            // new workload is dropped outside the timed set-up.
            let start = Instant::now();
            let (_, secs) = timed_setup(args)?;
            setup_secs.push(secs);
            setup_total += start.elapsed().as_secs_f64();
        }
    }
    while !args.trace && setup_secs.len() < MIN_SETUPS {
        let (_, secs) = timed_setup(args)?;
        setup_secs.push(secs);
    }
    let finish = w.finish(args.trace)?;
    let values: BTreeMap<&str, f64> = first
        .expect("at least one pass")
        .into_iter()
        .chain(finish)
        .collect();
    let ops_per_s = median(&untraced.rate);

    let (declared, measured) = if !args.trace {
        let sim_cost_ms = *values
            .get("sim_cost_ms")
            .ok_or("the workload reported no sim_cost_ms")?;
        let measured = BTreeMap::from([
            ("setup_s".to_string(), median(&setup_secs)),
            ("peak_rss_mb".to_string(), peak_rss_mb),
            ("ops_per_s".to_string(), ops_per_s),
            ("sim_cost_ms".to_string(), sim_cost_ms),
        ]);
        if let Some((name, _)) = e2e_declared
            .iter()
            .find(|(n, _)| !measured.contains_key(*n))
        {
            return Err(format!(
                "BENCHMARK.json declares {name}, which no run measures"
            ));
        }
        (e2e_declared, measured)
    } else {
        let mut layer = layer_metrics(&rec, &roots);
        layer.extend(values.iter().map(|(k, v)| (k.to_string(), *v)));
        layer.insert(w.throughput_name().to_string(), ops_per_s);
        layer.insert(
            "trace_overhead_frac".to_string(),
            median(&traced.wall) / median(&untraced.wall) - 1.0,
        );
        if !control.is_empty() {
            layer.insert(
                "telemetry.overhead_frac".to_string(),
                median(&untraced.wall) / median(&control) - 1.0,
            );
        }
        let known = |name: &str| {
            layer_declared
                .iter()
                .chain(&e2e_declared)
                .any(|(n, _)| *n == name)
        };
        if let Some(name) = layer.keys().find(|n| !known(n)) {
            return Err(format!(
                "{name} is measured but BENCHMARK.json does not declare it"
            ));
        }
        let trace_path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        rec.write_chrome_trace(&trace_path)?;
        eprint!("{}", self_time_table(&rec, &roots));
        eprintln!("spans written to {}", trace_path.display());
        (layer_declared, layer)
    };
    // A layer a workload bypasses reads 0.
    let metrics: Vec<(&str, f64, &str)> = declared
        .iter()
        .map(|&(name, unit)| (name, measured.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    Ok(Run {
        ops_attempted: untraced.ops + traced.ops,
        metrics,
    })
}

/// Per-layer CPU time (median over traced passes), allocations (first
/// traced pass) and the unattributed share of each pass.
fn layer_metrics(rec: &Recorder, roots: &[usize]) -> BTreeMap<String, f64> {
    let spans = rec.spans();
    let costs = probe::self_costs(spans);
    let mut cpu: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut allocs: BTreeMap<&str, f64> = BTreeMap::new();
    let mut unattributed = Vec::new();
    for (k, &root) in roots.iter().enumerate() {
        let end = roots.get(k + 1).copied().unwrap_or(spans.len());
        let mut pass_cpu: BTreeMap<&str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for i in root..end {
            // Span names outside `LAYERS` are the benchmark's own glue.
            if LAYERS.contains(&spans[i].name) {
                *pass_cpu.entry(spans[i].name).or_default() += costs[i].cpu_ns as f64 / 1e3;
                if k == 0 {
                    *allocs.entry(spans[i].name).or_default() += costs[i].allocs as f64;
                }
            }
        }
        for (l, v) in pass_cpu {
            cpu.entry(l).or_default().push(v);
        }
        let root_wall = (spans[root].end_ns - spans[root].start_ns) as f64;
        unattributed.push(costs[root].wall_ns as f64 / root_wall);
    }
    let mut out = BTreeMap::new();
    for &l in &LAYERS {
        out.insert(format!("{l}.cpu_us"), median(&cpu[l]));
        out.insert(format!("{l}.allocs"), allocs.get(l).copied().unwrap_or(0.0));
    }
    out.insert("unattributed_frac".to_string(), median(&unattributed));
    out
}

/// Human-readable self times of the traced passes, summed per span name.
fn self_time_table(rec: &Recorder, roots: &[usize]) -> String {
    let spans = rec.spans();
    let costs = probe::self_costs(spans);
    let mut rows: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&costs) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += c.wall_ns;
        row.2 += c.cpu_ns;
        row.3 += c.allocs;
    }
    let total: u64 = roots
        .iter()
        .map(|&r| spans[r].end_ns - spans[r].start_ns)
        .sum();
    let mut out = format!(
        "self time over {} traced pass(es), {:.1} ms wall in total\n{:<10} {:>7} {:>11} {:>11} {:>7} {:>12}\n",
        roots.len(),
        total as f64 / 1e6,
        "span",
        "count",
        "wall_ms",
        "cpu_ms",
        "share",
        "allocs"
    );
    for (name, (n, wall, cpu, allocs)) in rows {
        out.push_str(&format!(
            "{name:<10} {n:>7} {:>11.3} {:>11.3} {:>6.1}% {allocs:>12}\n",
            wall as f64 / 1e6,
            cpu as f64 / 1e6,
            100.0 * wall as f64 / total.max(1) as f64
        ));
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: coign-perfbench --workload <table4|adapt|serve|serve_faulted> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let (correct, attempted, failed, metrics) = match run(&args) {
        Ok(r) => (true, r.ops_attempted, 0, r.metrics),
        Err(e) => {
            eprintln!("check failed: {e}");
            (false, 1, 1, Vec::new())
        }
    };
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    );
    if !correct {
        std::process::exit(1);
    }
}
