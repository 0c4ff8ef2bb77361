//! The `daakg-bench` binary: run the core scenarios and write
//! `BENCH_core.json`, or gate two existing result files against each other.
//!
//! ```text
//! cargo run --release -p daakg-bench            # full sizes
//! cargo run --release -p daakg-bench -- --quick # smoke sizes
//! cargo run --release -p daakg-bench -- --threads 2   # force worker count
//! cargo run --release -p daakg-bench -- --out results/BENCH_core.json
//! cargo run --release -p daakg-bench -- --compare BENCH_core.json BENCH_smoke.json --tolerance 0.30
//! ```
//!
//! Exit status is non-zero when any scenario fails its oracle
//! verification, or — in `--compare` mode — when any verified scenario
//! regresses beyond the tolerance, so CI can gate on both correctness and
//! performance of the fast paths.

#![forbid(unsafe_code)]

use daakg_bench::compare::compare_docs;
use daakg_bench::json::JsonValue;
use daakg_bench::scenarios::{results_to_json, run_all, BenchConfig};
use daakg_eval::report::{fmt_duration, TextTable};

fn main() {
    let mut cfg = BenchConfig::default();
    let mut out_path = String::from("BENCH_core.json");
    let mut compare_paths: Option<(String, String)> = None;
    let mut tolerance = 0.30f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg = BenchConfig::quick(),
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                })
            }
            "--compare" => {
                let base = args.next();
                let new = args.next();
                match (base, new) {
                    (Some(b), Some(n)) => compare_paths = Some((b, n)),
                    _ => {
                        eprintln!("--compare requires BASELINE and CANDIDATE paths");
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => {
                let raw = args.next().unwrap_or_else(|| {
                    eprintln!("--threads requires a count");
                    std::process::exit(2);
                });
                let n: usize = raw.parse().unwrap_or_else(|e| {
                    eprintln!("invalid thread count {raw:?}: {e}");
                    std::process::exit(2);
                });
                // `daakg_parallel::num_threads` resolves the env var once,
                // on first use; nothing has touched it this early in main,
                // so the override reliably takes effect (and the JSON
                // records the *resolved* count, not the request).
                std::env::set_var("DAAKG_THREADS", n.to_string());
            }
            "--tolerance" => {
                let raw = args.next().unwrap_or_else(|| {
                    eprintln!("--tolerance requires a value");
                    std::process::exit(2);
                });
                tolerance = raw.parse().unwrap_or_else(|e| {
                    eprintln!("invalid tolerance {raw:?}: {e}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: daakg-bench [--quick] [--threads N] [--out PATH]\n       \
                     daakg-bench --compare BASELINE CANDIDATE [--tolerance T]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some((base_path, new_path)) = compare_paths {
        run_compare(&base_path, &new_path, tolerance);
        return;
    }

    eprintln!(
        "daakg-bench: {} worker thread(s), dim {}",
        daakg_parallel::num_threads(),
        cfg.dim
    );
    let results = run_all(&cfg);

    let mut table = TextTable::new(&["scenario", "time", "baseline", "speedup", "verified"]);
    let mut all_verified = true;
    for r in &results {
        let time = r
            .get_metric("batched_ms")
            .or_else(|| r.get_metric("approx_ms"))
            .or_else(|| r.get_metric("blocked_ms"))
            .or_else(|| r.get_metric("build_ms"))
            .or_else(|| r.get_metric("epoch_ms"))
            .or_else(|| r.get_metric("round_ms"))
            .or_else(|| r.get_metric("serve_ms"))
            .or_else(|| r.get_metric("overload_ms"))
            .or_else(|| r.get_metric("load_ms"))
            .map(|ms| fmt_duration(ms / 1e3))
            .unwrap_or_default();
        let baseline = r
            .get_metric("naive_ms")
            .map(|ms| fmt_duration(ms / 1e3))
            .unwrap_or_else(|| "-".into());
        let speedup = r
            .get_metric("speedup")
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "-".into());
        let verified = match r.get_flag("verified") {
            Some(true) => "yes",
            Some(false) => {
                all_verified = false;
                "NO"
            }
            None => "-",
        };
        table.row(&[
            r.name.clone(),
            time,
            baseline,
            speedup,
            verified.to_string(),
        ]);
    }
    println!("{}", table.render());

    let doc = results_to_json(&cfg, &results);
    if let Err(e) = std::fs::write(&out_path, doc.to_pretty_string()) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if !all_verified {
        eprintln!("ERROR: at least one scenario failed oracle verification");
        std::process::exit(1);
    }
}

/// Load two bench documents, run the regression gate, and exit non-zero on
/// any regression.
fn run_compare(base_path: &str, new_path: &str, tolerance: f64) {
    let load = |path: &str| -> JsonValue {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(2);
        });
        JsonValue::parse(&text).unwrap_or_else(|e| {
            eprintln!("failed to parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let base = load(base_path);
    let new = load(new_path);
    let regressions = compare_docs(&base, &new, tolerance).unwrap_or_else(|e| {
        eprintln!("comparison failed: {e}");
        std::process::exit(2);
    });
    println!(
        "bench gate: {base_path} (baseline) vs {new_path} (candidate), tolerance {:.0}%",
        tolerance * 100.0
    );
    if regressions.is_empty() {
        println!("OK: no scenario regressed");
        return;
    }
    let mut table = TextTable::new(&["scenario", "regression"]);
    for r in &regressions {
        table.row(&[r.scenario.clone(), r.reason.clone()]);
    }
    println!("{}", table.render());
    eprintln!("ERROR: {} regression(s) detected", regressions.len());
    std::process::exit(1);
}
