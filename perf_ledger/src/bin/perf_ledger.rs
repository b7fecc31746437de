//! The performance-ledger benchmark.
//!
//! ```text
//! perf_ledger --workload W --seed N [--seconds S] [--trace 0|1] [--smoke] [--out F]
//! perf_ledger --seed N [--seconds S] [--trace 0|1] [--smoke] [--out F]
//! perf_ledger --compare A.json B.json… [--spec BENCHMARK.json]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints the
//! result line — `{"correct", "attempted", "failed", "metrics"}` — as
//! the last line of standard output: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics. Without it, runs every workload,
//! each in a child process of its own (so peak RSS and the process-wide
//! metrics registry stay per workload), and prints one combined line.
//! `--out F` appends each run's full record (context, failures,
//! per-instance counts, trace tree) to the ledger file `F`.
//!
//! `--compare` reads ledger files — one set of runs each, the first the
//! base — and checks each workload × end-to-end metric against the
//! bounds in `BENCHMARK.json`.

use mapzero_obs::json::{self, Json};
use mapzero_perf_ledger::spec::{self, load_runs, load_spec};
use mapzero_perf_ledger::{
    run_workload, RunCtx, RunResult, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Vec<PathBuf>,
    spec: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        compare: Vec::new(),
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = raw.iter().peekable();
    let value = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value(arg, &mut it)?),
            "--seed" => {
                args.seed = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value(arg, &mut it)?)),
            "--spec" => args.spec = PathBuf::from(value(arg, &mut it)?),
            "--compare" => {
                while let Some(next) = it.peek() {
                    if next.starts_with("--") {
                        break;
                    }
                    args.compare.push(PathBuf::from(it.next().expect("peeked")));
                }
                if args.compare.is_empty() {
                    return Err("--compare needs ledger files".to_owned());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (expected one of {WORKLOADS:?})"
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.compare.is_empty() {
        return compare(&args);
    }
    match &args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    }
}

fn run_one(args: &Args, workload: &str) -> ExitCode {
    let ctx = RunCtx {
        workload: workload.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let result = match run_workload(&ctx) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let defs: &[_] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    summarize(&ctx, &result, defs);
    if let Some(out) = &args.out {
        if let Err(e) = spec::append_run(out, result.ledger_record(&ctx)) {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", result.result_line(defs).to_string_compact());
    ExitCode::SUCCESS
}

/// A readable account of the run on standard error.
fn summarize(ctx: &RunCtx, result: &RunResult, defs: &[mapzero_perf_ledger::MetricDef]) {
    eprintln!(
        "{} seed {} ({}): {} operations, {} failed, counts stable {}, tree violations {}",
        ctx.workload,
        ctx.seed,
        if ctx.trace { "traced" } else { "untraced" },
        result.attempted,
        result.failures.len(),
        result.unstable.is_empty(),
        result.tree_violations.len()
    );
    for d in defs {
        let value = result.metrics.get(d.name).copied().unwrap_or(f64::NAN);
        eprintln!("  {:<30} {value:>14.6} {}", d.name, d.unit);
    }
    for line in result
        .failures
        .iter()
        .chain(&result.unstable)
        .chain(&result.tree_violations)
        .take(20)
    {
        eprintln!("  ! {line}");
    }
}

/// Every workload, each in a child process running this binary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf_ledger: cannot locate this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("perf_ledger: cannot run {workload}: {e}");
                return ExitCode::from(1);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let (true, Some(line)) = (output.status.success(), line) else {
            eprintln!(
                "perf_ledger: {workload} exited with {} and no result line",
                output.status
            );
            return ExitCode::from(1);
        };
        correct &= line.get("correct") == Some(&Json::Bool(true));
        attempted += line.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += line.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(fields)) = line.get("metrics") {
            metrics.extend(
                fields
                    .iter()
                    .map(|(k, v)| (format!("{workload}.{k}"), v.clone())),
            );
        }
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_string_compact());
    ExitCode::SUCCESS
}

fn compare(args: &Args) -> ExitCode {
    let spec = match load_spec(&args.spec) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sets = Vec::new();
    for path in &args.compare {
        match load_runs(path) {
            Ok(runs) => sets.push(runs),
            Err(e) => {
                eprintln!("perf_ledger: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let names: Vec<String> = args
        .compare
        .iter()
        .map(|p| p.display().to_string())
        .collect();
    let (text, ok) = spec::render(&spec, &names, &sets);
    print!("{text}");
    println!(
        "{}",
        if ok {
            "all metrics within bounds"
        } else {
            "some metrics outside their bounds"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
