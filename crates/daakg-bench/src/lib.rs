//! # daakg-bench
//!
//! Reproducible benchmark harness for the DAAKG workspace.
//!
//! The paper's pipeline is dominated by dense embedding math — snapshot
//! construction, entity ranking, trainer steps — so this crate times those
//! exact hot paths on synthetic KGs of controlled size and writes the
//! results as machine-readable JSON (`BENCH_core.json`), so the perf
//! trajectory of the repository is tracked PR over PR.
//!
//! * [`synth`] — deterministic synthetic KG generation at any scale,
//! * [`json`] — a tiny dependency-free JSON value writer and parser,
//! * [`scenarios`] — the timed scenarios: dense matmul, snapshot build,
//!   full entity ranking at 1k / 10k entities (naive oracle vs batched
//!   engine, with equivalence verification), one training epoch, one
//!   active-learning round (selection + oracle + inference closure,
//!   verified against the dense reference propagation), the ANN pair
//!   (`ann_build`: IVF construction with quantizer-invariant checks;
//!   `ann_top_k`: sublinear IVF search vs the exact scan, recording
//!   recall@k and QPS, with full-probe results verified bitwise against
//!   the exact oracle), and the serve-while-train scenario (reader
//!   threads alternate exact and full-probe approximate queries against a
//!   Pipeline-built `AlignmentService` with index-carrying snapshots
//!   during `align_rounds`; answers are replayed against the naive ranker
//!   on the exact snapshot version observed),
//! * [`compare`] — the regression gate: `daakg-bench -- --compare BASE NEW
//!   --tolerance 0.30` exits non-zero when any verified scenario regresses
//!   beyond tolerance — on speedup *or* on measured recall@k — which is
//!   what CI runs instead of archiving results nobody reads.
//!
//! Run the binary with `cargo run --release -p daakg-bench`; see the
//! top-level README for how to interpret the output.

#![forbid(unsafe_code)]

pub mod compare;
pub mod json;
pub mod scenarios;
pub mod synth;

pub use compare::{compare_docs, Regression};
pub use json::JsonValue;
pub use scenarios::{run_all, BenchConfig, ScenarioResult};

use std::time::Instant;

/// Time one closure invocation in milliseconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Best-of-`reps` timing (milliseconds) after one untimed warm-up run.
///
/// Minimum — not mean — is the right statistic for a throughput kernel on
/// a shared machine: noise is strictly additive.
pub fn time_best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (o, ms) = time_once(&mut f);
        out = o;
        best = best.min(ms);
    }
    (out, best)
}

/// Median-of-`reps` timing (milliseconds) after one untimed warm-up run.
///
/// The training scenarios compare *two* timed paths against each other
/// (dense oracle vs sparse engine), where best-of favours whichever path
/// got the single luckiest run; the median is robust to one-sided outliers
/// in both directions, so the speedup ratio jitters far less between runs
/// — which keeps the `--compare` regression gate stable.
pub fn time_median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = f(); // warm-up
    let mut times = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let (o, ms) = time_once(&mut f);
        out = o;
        times.push(ms);
    }
    times.sort_by(f64::total_cmp);
    (out, times[times.len() / 2])
}
