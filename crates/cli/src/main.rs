//! `coign` — the tool-chain CLI. See the crate docs for the workflow.

use coign_cli::{
    cmd_analyze, cmd_chaos, cmd_check, cmd_dot, cmd_explore, cmd_gen, cmd_hotspots, cmd_instrument,
    cmd_place, cmd_profile, cmd_run, cmd_script, cmd_serve, cmd_show, cmd_strip, cmd_sweep,
    resolve_image_spec, resolve_private_image_spec, ChaosOptions, ExploreCliOptions, PlaceOptions,
    RunFaults, ServeCliOptions,
};
use coign_gen::GenSize;
use coign_obs::Obs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
coign — automatic distributed partitioning (OSDI '99 reproduction)

USAGE:
  coign instrument <app> <image>        instrument an application (octarine|photodraw|benefits)
  coign check      <image> [--json]     static analysis: remotability, constraints, image lints
  coign profile    <image> <scenario>... [--jobs N]   run profiling scenarios, accumulate logs
                                        (--jobs N profiles scenarios on N worker threads;
                                         the merged log is identical for every N)
  coign analyze    <image> [network]    choose & realize a distribution (ethernet|isdn|atm|san)
  coign sweep      <image> [--json]     partition across a latency/bandwidth grid (warm-started)
  coign place      <image> <scenario> [network]   multiway placement across N machines
        [--machines N]                  topology size (default 3)
        [--replicate]                   copy classes the stage-4/5 lints prove immutable
        [--json]                        emit the machine-readable placement record
  coign run        <image> <scenario> [network]   execute distributed
        [--fault-plan FILE]             inject faults per FILE (loss/spike/partition/down lines)
        [--fault-seed N]                seed the fault schedule (default 0)
        [--summary]                     print the machine-diffable run report
  coign chaos      <image> <scenario> [network]   chaos harness: seeded random fault
        [--seed N]                      plans over N trials with the self-healing
        [--trials N]                    runtime, invariants checked per trial; the
        [--jobs N]                      summary is byte-identical per seed and jobs
        [--replicate]                   install lint-derived replicas: covered machine
                                        deaths must fail over with zero solves
  coign serve      <image> <scenario> [network]   fleet-scale serving harness:
        [--sessions N]                  simulated sessions (default 10000) multiplexed
        [--shards K]                    over K independently-clocked event shards
        [--jobs N]                      executed by N worker threads (summary is
        [--seed N]                      byte-identical per seed across --jobs)
        [--window US]                   per-link batch coalescing window (simulated us)
        [--no-batch]                    send every cut-crossing message alone
        [--json]                        emit the machine-readable serving record
        [--timeline <out|->]            write the simulated-time series (.csv for CSV,
                                        else JSON; - appends a sparkline dashboard)
        [--timeline-window US]          telemetry window width (default 100000 us)
        [--slo-p99-us N]                report per-window p99 SLO violations and the
                                        worst window's dominant link/class
        [--trace-sample N]              with --trace: emit causal spans for every Nth
                                        session (session/call/batch_wait/link_transit)
        [--fault-plan FILE]             inject faults per FILE on the simulated wire
                                        (loss/spike/partition/down lines)
        [--fault-seed N]                synthesize a seeded chaos plan over the run's
                                        fault-free horizon (0 = perfect wire)
        [--replicate]                   serve immutable classes from replica copies:
                                        machine death fails over without a re-solve
  coign gen        --seed N              generate a seeded synthetic application
        [--size small|medium|large]     topology size class (default small)
        [--emit <dir>]                  write the instrumented image into <dir>
        [--json]                        emit the machine-readable topology summary
                                        (check, show and dot also accept the address
                                         gen:<seed>[:<size>] — generated on demand —
                                         in place of <image>; commands that need a
                                         profile take an emitted private copy)
  coign explore    gen:<seed>[:<size>] <scenario> [network]   schedule-space
        [--faults-at T,T,...]           exploration: run every (fault instant x
        [--enumerate-depth D]           breaker threshold x drift mode) interleaving
        [--thresholds F,F,...]          around recovery epochs, checking exactly-once,
        [--drift]                       placement-validity, and replication-legality
        [--seed N] [--jobs N]           invariants; violations minimize to a replay line
        [--replicate]                   install lint-derived replicas: covered deaths
                                        must fail over with zero solves
  coign show       <image>              inspect the configuration record
  coign hotspots   <image> [top]        communication hot spots & caching candidates
  coign script     <image> <script>     profile a scripted scenario (octarine)
  coign dot        <image> <out.dot>    export the ICC graph in Graphviz form
  coign strip      <image>              restore the original binary

GLOBAL FLAGS (any subcommand):
  --trace <out.json>                    write a Chrome trace-event file (open in
                                        chrome://tracing or https://ui.perfetto.dev)
  --metrics <out.json|out.prom>         write a metrics snapshot (JSON, or Prometheus
                                        text exposition when the path ends in .prom)
";

/// Parses `coign profile`'s trailing arguments: one or more scenario
/// names plus an optional `--jobs N` anywhere among them.
fn parse_profile_args(rest: &[String]) -> Result<(Vec<String>, usize), String> {
    let mut scenarios = Vec::new();
    let mut jobs = 1usize;
    let mut it = rest.iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a number argument")?;
                jobs = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad job count `{value}`"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `coign profile`"));
            }
            scenario => scenarios.push(scenario.to_string()),
        }
    }
    if scenarios.is_empty() {
        return Err("`coign profile` needs at least one scenario".to_string());
    }
    Ok((scenarios, jobs))
}

/// Parses `coign run`'s trailing arguments: an optional positional network
/// name followed by the fault flags in any order.
fn parse_run_args(rest: &[String]) -> Result<(String, RunFaults), String> {
    let mut network = None;
    let mut faults = RunFaults::default();
    let mut it = rest.iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--fault-plan" => {
                let value = it.next().ok_or("--fault-plan needs a file argument")?;
                faults.plan_path = Some(PathBuf::from(value));
            }
            "--fault-seed" => {
                let value = it.next().ok_or("--fault-seed needs a number argument")?;
                faults.fault_seed = value
                    .parse()
                    .map_err(|_| format!("bad fault seed `{value}`"))?;
            }
            "--summary" => faults.summary = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `coign run`"));
            }
            positional => {
                if network.replace(positional.to_string()).is_some() {
                    return Err(format!("unexpected argument `{positional}`"));
                }
            }
        }
    }
    Ok((network.unwrap_or_else(|| "ethernet".to_string()), faults))
}

/// Parses `coign place`'s trailing arguments: an optional positional
/// network name plus `--machines/--replicate/--json` in any order.
fn parse_place_args(rest: &[String]) -> Result<(String, PlaceOptions), String> {
    let mut network = None;
    let mut opts = PlaceOptions::default();
    let mut it = rest.iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--machines" => {
                let value = it.next().ok_or("--machines needs a number argument")?;
                opts.machines = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .ok_or_else(|| format!("bad machine count `{value}` (need ≥ 2)"))?;
            }
            "--replicate" => opts.replicate = true,
            "--json" => opts.json = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `coign place`"));
            }
            positional => {
                if network.replace(positional.to_string()).is_some() {
                    return Err(format!("unexpected argument `{positional}`"));
                }
            }
        }
    }
    Ok((network.unwrap_or_else(|| "ethernet".to_string()), opts))
}

/// Parses `coign chaos`'s trailing arguments: an optional positional
/// network name plus `--seed/--trials/--jobs` in any order.
fn parse_chaos_args(rest: &[String]) -> Result<(String, ChaosOptions), String> {
    let mut network = None;
    let mut opts = ChaosOptions::default();
    let mut it = rest.iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--seed" => {
                let value = it.next().ok_or("--seed needs a number argument")?;
                opts.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--trials" => {
                let value = it.next().ok_or("--trials needs a number argument")?;
                opts.trials = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad trial count `{value}`"))?;
            }
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a number argument")?;
                opts.jobs = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad job count `{value}`"))?;
            }
            "--replicate" => opts.replicate = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `coign chaos`"));
            }
            positional => {
                if network.replace(positional.to_string()).is_some() {
                    return Err(format!("unexpected argument `{positional}`"));
                }
            }
        }
    }
    Ok((network.unwrap_or_else(|| "ethernet".to_string()), opts))
}

/// Parses `coign serve`'s trailing arguments: an optional positional
/// network name plus the serving flags in any order.
fn parse_serve_args(rest: &[String]) -> Result<(String, ServeCliOptions), String> {
    let mut network = None;
    let mut opts = ServeCliOptions::default();
    let mut it = rest.iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--sessions" => {
                let value = it.next().ok_or("--sessions needs a number argument")?;
                opts.sessions = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad session count `{value}`"))?;
            }
            "--shards" => {
                let value = it.next().ok_or("--shards needs a number argument")?;
                opts.shards = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad shard count `{value}`"))?;
            }
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a number argument")?;
                opts.jobs = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad job count `{value}`"))?;
            }
            "--seed" => {
                let value = it.next().ok_or("--seed needs a number argument")?;
                opts.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--window" => {
                let value = it.next().ok_or("--window needs a number argument (us)")?;
                opts.window_us = value.parse().map_err(|_| format!("bad window `{value}`"))?;
            }
            "--no-batch" => opts.batching = false,
            "--json" => opts.json = true,
            "--timeline" => {
                let value = it.next().ok_or("--timeline needs a path argument (or -)")?;
                opts.timeline = Some(value.to_string());
            }
            "--timeline-window" => {
                let value = it
                    .next()
                    .ok_or("--timeline-window needs a number argument (us)")?;
                opts.timeline_window_us = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad timeline window `{value}`"))?;
            }
            "--slo-p99-us" => {
                let value = it.next().ok_or("--slo-p99-us needs a number argument")?;
                opts.slo_p99_us = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad slo target `{value}`"))?,
                );
            }
            "--trace-sample" => {
                let value = it.next().ok_or("--trace-sample needs a number argument")?;
                opts.trace_sample = value
                    .parse()
                    .map_err(|_| format!("bad trace sample rate `{value}`"))?;
            }
            "--fault-plan" => {
                let value = it.next().ok_or("--fault-plan needs a file argument")?;
                opts.fault_plan = Some(PathBuf::from(value));
            }
            "--fault-seed" => {
                let value = it.next().ok_or("--fault-seed needs a number argument")?;
                opts.fault_seed = value
                    .parse()
                    .map_err(|_| format!("bad fault seed `{value}`"))?;
            }
            "--replicate" => opts.replicate = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `coign serve`"));
            }
            positional => {
                if network.replace(positional.to_string()).is_some() {
                    return Err(format!("unexpected argument `{positional}`"));
                }
            }
        }
    }
    Ok((network.unwrap_or_else(|| "ethernet".to_string()), opts))
}

/// Parses `coign gen`'s arguments: `--seed N` (required) plus
/// `--size/--emit/--json` in any order.
fn parse_gen_args(rest: &[String]) -> Result<(u64, GenSize, Option<PathBuf>, bool), String> {
    let mut seed = None;
    let mut size = GenSize::Small;
    let mut emit = None;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--seed" => {
                let value = it.next().ok_or("--seed needs a number argument")?;
                seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?);
            }
            "--size" => {
                let value = it.next().ok_or("--size needs small|medium|large")?;
                size = GenSize::parse(value).ok_or_else(|| {
                    format!("bad size `{value}` (expected small, medium, or large)")
                })?;
            }
            "--emit" => {
                let value = it.next().ok_or("--emit needs a directory argument")?;
                emit = Some(PathBuf::from(value));
            }
            "--json" => json = true,
            other => return Err(format!("unknown argument `{other}` for `coign gen`")),
        }
    }
    let seed = seed.ok_or("`coign gen` needs --seed N")?;
    Ok((seed, size, emit, json))
}

/// Parses a comma-separated list of numbers for `--faults-at`/`--thresholds`.
fn parse_number_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("bad {flag} entry `{part}`"))
        })
        .collect()
}

/// Parses `coign explore`'s trailing arguments: an optional positional
/// network name plus the schedule flags in any order.
fn parse_explore_args(rest: &[String]) -> Result<(String, ExploreCliOptions), String> {
    let mut network = None;
    let mut opts = ExploreCliOptions::default();
    let mut it = rest.iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--faults-at" => {
                let value = it
                    .next()
                    .ok_or("--faults-at needs a comma-separated list")?;
                let instants: Vec<u64> = parse_number_list("--faults-at", value)?;
                if instants.is_empty() {
                    return Err("--faults-at needs at least one instant".to_string());
                }
                opts.faults_at = Some(instants);
            }
            "--enumerate-depth" => {
                let value = it
                    .next()
                    .ok_or("--enumerate-depth needs a number argument")?;
                opts.depth = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad depth `{value}`"))?;
            }
            "--thresholds" => {
                let value = it
                    .next()
                    .ok_or("--thresholds needs a comma-separated list")?;
                let thresholds: Vec<u32> = parse_number_list("--thresholds", value)?;
                if thresholds.is_empty() || thresholds.contains(&0) {
                    return Err("--thresholds needs one or more values ≥ 1".to_string());
                }
                opts.thresholds = thresholds;
            }
            "--drift" => opts.with_drift = true,
            "--replicate" => opts.with_replicas = true,
            "--seed" => {
                let value = it.next().ok_or("--seed needs a number argument")?;
                opts.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a number argument")?;
                opts.jobs = value
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad job count `{value}`"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `coign explore`"));
            }
            positional => {
                if network.replace(positional.to_string()).is_some() {
                    return Err(format!("unexpected argument `{positional}`"));
                }
            }
        }
    }
    Ok((network.unwrap_or_else(|| "ethernet".to_string()), opts))
}

/// The global `--trace` / `--metrics` flags plus the remaining arguments.
struct GlobalFlags {
    rest: Vec<String>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

/// Extracts the global `--trace <path>` / `--metrics <path>` flags from
/// anywhere on the command line, returning the remaining arguments.
fn parse_global_flags(args: &[String]) -> Result<GlobalFlags, String> {
    let mut rest = Vec::new();
    let mut trace = None;
    let mut metrics = None;
    let mut it = args.iter();
    while let Some(token) = it.next() {
        match token.as_str() {
            "--trace" => {
                let value = it.next().ok_or("--trace needs a file argument")?;
                trace = Some(PathBuf::from(value));
            }
            "--metrics" => {
                let value = it.next().ok_or("--metrics needs a file argument")?;
                metrics = Some(PathBuf::from(value));
            }
            other => rest.push(other.to_string()),
        }
    }
    Ok(GlobalFlags {
        rest,
        trace,
        metrics,
    })
}

fn dispatch(args: &[String], obs: Option<&Obs>) -> Result<String, String> {
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| USAGE.to_string())
    };
    // Image-positional arguments accept `gen:<seed>[:<size>]` addresses;
    // those materialize an instrumented image on demand. Commands that
    // read or rewrite the image's profile refuse them: the materialized
    // image is shared, so its record must not depend on earlier runs.
    let image = |i: usize| -> Result<PathBuf, String> {
        resolve_image_spec(arg(i)?).map_err(|e| format!("error: {e}"))
    };
    let private_image = |i: usize| -> Result<PathBuf, String> {
        resolve_private_image_spec(arg(i)?).map_err(|e| format!("error: {e}"))
    };
    let result = match arg(0)? {
        "instrument" => cmd_instrument(arg(1)?, Path::new(arg(2)?)),
        "profile" => {
            let (scenarios, jobs) = parse_profile_args(&args[2.min(args.len())..])?;
            let refs: Vec<&str> = scenarios.iter().map(String::as_str).collect();
            cmd_profile(&private_image(1)?, &refs, jobs, obs)
        }
        "analyze" => cmd_analyze(&private_image(1)?, arg(2).unwrap_or("ethernet"), obs),
        "sweep" => cmd_sweep(
            &private_image(1)?,
            args.get(2).map(String::as_str) == Some("--json"),
            obs,
        ),
        "run" => {
            let (network, faults) = parse_run_args(&args[3.min(args.len())..])?;
            cmd_run(&private_image(1)?, arg(2)?, &network, &faults, obs)
        }
        "place" => {
            let (network, opts) = parse_place_args(&args[3.min(args.len())..])?;
            cmd_place(&private_image(1)?, arg(2)?, &network, &opts, obs)
        }
        "chaos" => {
            let (network, opts) = parse_chaos_args(&args[3.min(args.len())..])?;
            cmd_chaos(&private_image(1)?, arg(2)?, &network, &opts, obs)
        }
        "serve" => {
            let (network, opts) = parse_serve_args(&args[3.min(args.len())..])?;
            cmd_serve(&private_image(1)?, arg(2)?, &network, &opts, obs)
        }
        "gen" => {
            let (seed, size, emit, json) = parse_gen_args(&args[1.min(args.len())..])?;
            cmd_gen(seed, size, emit.as_deref(), json)
        }
        "explore" => {
            let (network, opts) = parse_explore_args(&args[3.min(args.len())..])?;
            cmd_explore(arg(1)?, arg(2)?, &network, &opts)
        }
        "show" => cmd_show(&image(1)?),
        "hotspots" => {
            let top = arg(2).ok().and_then(|s| s.parse().ok()).unwrap_or(10);
            cmd_hotspots(&private_image(1)?, top)
        }
        "script" => cmd_script(&private_image(1)?, Path::new(arg(2)?)),
        "dot" => cmd_dot(&image(1)?, Path::new(arg(2)?)),
        "strip" => cmd_strip(&private_image(1)?),
        _ => return Err(USAGE.to_string()),
    };
    result.map_err(|e| format!("error: {e}"))
}

fn run(args: &[String], obs: Option<&Obs>) -> ExitCode {
    let _span = obs.map(|o| {
        o.tracer.phase_span_with(
            format!("cli:{}", args.first().map(String::as_str).unwrap_or("?")),
            Vec::new(),
        )
    });
    // `check` owns its exit semantics: the report is the output either way
    // and always goes to stdout; the exit status alone signals whether an
    // error-level diagnostic fired.
    if args.first().map(String::as_str) == Some("check") {
        let Some(path) = args.get(1) else {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        };
        let json = args.get(2).map(String::as_str) == Some("--json");
        let path = match resolve_image_spec(path) {
            Ok(resolved) => resolved,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match cmd_check(&path, json) {
            Ok(report) => {
                println!("{}", report.trim_end());
                ExitCode::SUCCESS
            }
            Err(report) => {
                println!("{}", report.trim_end());
                ExitCode::FAILURE
            }
        };
    }
    match dispatch(args, obs) {
        Ok(message) => {
            println!("{message}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the collected trace and metrics to their requested files. A
/// `--metrics` path ending in `.prom` selects the Prometheus text
/// exposition; anything else gets the JSON snapshot.
fn write_observability(
    obs: &Obs,
    trace: Option<&Path>,
    metrics: Option<&Path>,
) -> Result<(), String> {
    if let Some(path) = trace {
        std::fs::write(path, obs.tracer.export_chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = metrics {
        let text = if path.extension().is_some_and(|e| e == "prom") {
            obs.registry.render_prometheus()
        } else {
            obs.registry.snapshot_json()
        };
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let GlobalFlags {
        rest: args,
        trace: trace_path,
        metrics: metrics_path,
    } = match parse_global_flags(&raw) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let obs = (trace_path.is_some() || metrics_path.is_some()).then(Obs::enabled);
    // The `cli:<subcommand>` span must close before export, so the trace
    // is written only after `run` returns.
    let code = run(&args, obs.as_ref());
    if let Some(o) = &obs {
        if let Err(message) = write_observability(o, trace_path.as_deref(), metrics_path.as_deref())
        {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    }
    code
}
