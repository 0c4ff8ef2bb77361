//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <campaign|serve|live> --seed N --seconds S --trace 0|1
//!           [--threads T] [--smoke]
//! perfbench --workload all [--seed N --seconds S --threads T --smoke]
//! perfbench --selftest
//! ```
//!
//! One workload per process, so its peak memory is its own. The last line
//! of standard output is the result object; the lines before it record the
//! seed and thread count and every phase's operation counts. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones.
//! `--workload all` runs every workload in its own process and prints each
//! end-to-end metric with its unit; `--selftest` runs every workload at
//! smoke size in both modes and checks the metric names against
//! `BENCHMARK.json`.

mod campaign;
mod live;
mod openloop;
mod report;
mod serve;

use daakg_bench::JsonValue;
use report::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

const WORKLOADS: &[&str] = &["campaign", "serve", "live"];

#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: 2,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--selftest" => args.workload = "selftest".into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.threads == 0 || args.seconds <= 0.0 {
        return Err("--threads and --seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "all" => return run_all(&args),
        "selftest" => return selftest(),
        w if WORKLOADS.contains(&w) => {}
        other => {
            eprintln!("perfbench: unknown workload {other:?} (one of {WORKLOADS:?}, all)");
            return ExitCode::from(2);
        }
    }
    // Pin the worker pool before anything resolves it.
    std::env::set_var("DAAKG_THREADS", args.threads.to_string());
    println!(
        "perfbench workload={} seed={} threads={} seconds={} trace={} size={}",
        args.workload,
        args.seed,
        args.threads,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { "smoke" } else { "full" }
    );
    let report = match args.workload.as_str() {
        "campaign" => campaign::run(&args),
        "serve" => serve::run(&args),
        _ => live::run(&args),
    };
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

/// Run one workload in a child process and parse its result line.
fn child(args: &Args, workload: &str, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &args.threads.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    JsonValue::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric_names(result: &JsonValue) -> Vec<(String, String)> {
    match result.get("metrics") {
        Some(JsonValue::Obj(m)) => m
            .iter()
            .map(|(k, v)| {
                let unit = v.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                (k.clone(), unit.to_string())
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        match child(args, w, false) {
            Ok(result) => {
                let correct = result.get("correct").and_then(JsonValue::as_bool) == Some(true);
                ok &= correct;
                println!("{w}: correct={correct}");
                if let Some(JsonValue::Obj(m)) = result.get("metrics") {
                    for (name, v) in m {
                        println!(
                            "  {name:<14} {:>14.4} {}",
                            v.get("value").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
                            v.get("unit").and_then(JsonValue::as_str).unwrap_or("")
                        );
                    }
                }
            }
            Err(e) => {
                ok = false;
                println!("{w}: FAILED: {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn same_set(mut a: Vec<(String, String)>, mut b: Vec<(String, String)>) -> bool {
    a.sort();
    b.sort();
    a == b
}

/// Smoke-sized run of every workload in both modes: each must pass its
/// checks and emit exactly the metric names and units `BENCHMARK.json`
/// declares; the code's metric tables and the per-layer map must agree
/// with it too.
fn selftest() -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| JsonValue::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (doc, map) = match (read("BENCHMARK.json"), read("perfbench/layers.json")) {
        (Ok(d), Ok(m)) => (d, m),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("selftest: {e} (run from the repository root)");
            return ExitCode::FAILURE;
        }
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    let e2e = declared(&doc, "end_to_end");
    let layers = declared(&doc, "per_layer");
    let mut failures = Vec::new();
    if !same_set(e2e.clone(), owned(END_TO_END)) {
        failures.push("end_to_end in BENCHMARK.json differs from the code's table".to_string());
    }
    if !same_set(layers.clone(), owned(PER_LAYER)) {
        failures.push("per_layer in BENCHMARK.json differs from the code's table".to_string());
    }
    let mapped: Vec<(String, String)> = match &map {
        JsonValue::Obj(m) => m
            .iter()
            .filter(|(_, v)| v.get("moves").is_some() && v.get("workload").is_some())
            .map(|(k, _)| {
                let unit = layers.iter().find(|l| &l.0 == k).map_or("", |l| l.1.as_str());
                (k.clone(), unit.to_string())
            })
            .collect(),
        _ => Vec::new(),
    };
    if !same_set(mapped, layers.clone()) {
        failures.push("perfbench/layers.json does not map every per-layer metric".to_string());
    }
    let args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        threads: 2,
        smoke: true,
    };
    for w in WORKLOADS {
        for trace in [false, true] {
            let label = format!("{w} --trace {}", u8::from(trace));
            match child(&args, w, trace) {
                Ok(result) => {
                    if result.get("correct").and_then(JsonValue::as_bool) != Some(true) {
                        failures.push(format!("{label}: checks failed"));
                    }
                    let want = if trace { &layers } else { &e2e };
                    if !same_set(metric_names(&result), want.clone()) {
                        failures.push(format!("{label}: metric names differ from BENCHMARK.json"));
                    }
                    println!("selftest {label}: ran");
                }
                Err(e) => failures.push(format!("{label}: {e}")),
            }
        }
    }
    for f in &failures {
        println!("selftest FAILED: {f}");
    }
    if failures.is_empty() {
        println!("selftest passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
