//! `serve`: read-only open-loop traffic on a sharded, IVF-indexed service
//! behind the default micro-batching ingress. Half the queries are Exact,
//! half Approx, all top-10 over uniform random left ids. A phase at the
//! nominal rate gives the latency figures; over-capacity bursts give the
//! highest rate the service sustains.

use crate::campaign::bitwise_eq;
use crate::openloop::{self, OpKind, Outcome};
use crate::report::{median, millis, secs, tail, windowed, EndToEnd, Layers, Report};
use crate::Args;
use daakg::{
    IngressConfig, KnowledgeGraph, Pipeline, QueryMode, QueryOptions, ShardedService,
    TelemetryConfig,
};
use daakg_bench::synth::{synthetic_pair, SynthSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

struct Sizes {
    entities: usize,
    shards: usize,
    nlist: usize,
    nprobe: usize,
    /// Offered rate of the nominal phase, queries per second.
    nominal_qps: f64,
    /// Queries per saturation burst (below the ingress queue bound).
    burst: usize,
    /// Floor on the Approx answers' recall@10 against the exact oracle.
    recall_floor: f64,
}

impl Sizes {
    fn of(args: &Args) -> Self {
        if args.smoke {
            Self {
                entities: 5000,
                shards: 2,
                nlist: 32,
                nprobe: 8,
                nominal_qps: 500.0,
                burst: 500,
                recall_floor: 0.2,
            }
        } else {
            Self {
                entities: 100_000,
                shards: 2,
                nlist: 256,
                nprobe: 8,
                nominal_qps: 2000.0,
                burst: 6000,
                recall_floor: 0.2,
            }
        }
    }
}

pub const TOP_K: usize = 10;
/// Share of the run spent at the nominal rate (the bursts get the rest).
const NOMINAL_SHARE: f64 = 0.75;
/// The query p50 is read per window of this length (see `windowed`):
/// short enough that host noise spoils few windows.
const WINDOW_S: f64 = 0.25;
pub const BURSTS: usize = 3;
pub const SETUPS: usize = 5;
const ORACLE_SAMPLE: usize = 2000;

pub struct Inputs {
    pub kg1: Arc<KnowledgeGraph>,
    pub kg2: Arc<KnowledgeGraph>,
}

pub fn inputs(entities: usize, seed: u64) -> Inputs {
    let (kg1, kg2, _) = synthetic_pair(SynthSpec::with_entities(entities, seed), 0.15);
    Inputs {
        kg1: Arc::new(kg1),
        kg2: Arc::new(kg2),
    }
}

/// Hand the KGs to `Pipeline` until the service is ready (anything still
/// lazy is built by one query of each mode); timed.
fn setup(inp: &Inputs, sizes: &Sizes, args: &Args, telemetry: TelemetryConfig) -> (ShardedService, f64) {
    let t = Instant::now();
    let svc = Pipeline::builder()
        .kg1(Arc::clone(&inp.kg1))
        .kg2(Arc::clone(&inp.kg2))
        .seed(args.seed)
        .threads(args.threads)
        .index(sizes.nlist)
        .shards(sizes.shards)
        .ingress(IngressConfig::default())
        .telemetry(telemetry)
        .build_sharded()
        .expect("valid serving pipeline");
    warm(&svc, sizes.nprobe);
    (svc, secs(t))
}

pub fn warm(svc: &ShardedService, nprobe: usize) {
    svc.query(0, QueryOptions::top_k(TOP_K)).expect("warm exact");
    svc.query(0, QueryOptions::top_k(TOP_K).approx(nprobe))
        .expect("warm approx");
}

/// `count` queries at `rate`: uniform random left ids, Exact or
/// Approx(nprobe) with equal odds.
fn queries(rng: &mut StdRng, n1: u32, nprobe: usize, rate: f64, count: usize) -> Vec<openloop::Op> {
    openloop::even(rate, count, |_| {
        let e1 = rng.gen_range(0..n1);
        let opts = if rng.gen_bool(0.5) {
            QueryOptions::top_k(TOP_K)
        } else {
            QueryOptions::top_k(TOP_K).approx(nprobe)
        };
        OpKind::Query { e1, opts }
    })
}

/// Output checks on one phase's answers: every answer is on the one
/// published version, sampled Exact answers equal the snapshot oracle bit
/// for bit. Returns the Approx answers' recall@10 on a sample.
fn check_answers(svc: &ShardedService, out: &Outcome, report: &mut Report) -> f64 {
    let snap = svc.service().current();
    let answered: Vec<_> = out
        .queries
        .iter()
        .filter_map(|q| q.answer.as_ref().ok().map(|a| (q, a)))
        .collect();
    report.check(
        answered.iter().all(|(_, a)| a.version == snap.version),
        "every answer is stamped with the one published version",
    );
    let sample = |exact: bool| -> Vec<_> {
        answered
            .iter()
            .filter(|(q, _)| (q.opts.mode == QueryMode::Exact) == exact)
            .take(ORACLE_SAMPLE)
            .collect()
    };
    let exact = sample(true);
    let ids: Vec<u32> = exact.iter().map(|(q, _)| q.e1).collect();
    let want = snap.snapshot.top_k_entities_block(&ids, TOP_K);
    report.check(
        exact
            .iter()
            .zip(&want)
            .all(|((_, got), want)| bitwise_eq(want, &got.value)),
        "sampled Exact answers equal the snapshot oracle bitwise",
    );
    let approx = sample(false);
    let ids: Vec<u32> = approx.iter().map(|(q, _)| q.e1).collect();
    let want = snap.snapshot.top_k_entities_block(&ids, TOP_K);
    recall_at_k(approx.iter().map(|(_, a)| a.value.as_slice()), &want)
}

/// Mean share of each exact top-k list found in the matching approximate
/// answer.
pub fn recall_at_k<'a>(
    approx: impl Iterator<Item = &'a [(u32, f32)]>,
    exact: &[Vec<(u32, f32)>],
) -> f64 {
    let (mut hit, mut total) = (0usize, 0usize);
    for (got, want) in approx.zip(exact) {
        total += want.len();
        hit += want
            .iter()
            .filter(|(id, _)| got.iter().any(|(g, _)| g == id))
            .count();
    }
    if total == 0 {
        0.0
    } else {
        hit as f64 / total as f64
    }
}

/// Median of [`BURSTS`] saturation bursts of `count` mixed queries.
pub fn saturation_qps(
    svc: &ShardedService,
    mut ops: impl FnMut(usize) -> Vec<openloop::Op>,
    report: &mut Report,
) -> f64 {
    let rates: Vec<f64> = (0..BURSTS)
        .map(|i| {
            let (out, qps) = openloop::burst_qps(svc, &ops(i));
            report.phase("burst", out.queries.len() as u64, out.failed_queries());
            qps
        })
        .collect();
    median(&rates)
}

/// The nominal phase: `seconds` at the nominal rate.
fn nominal(svc: &ShardedService, inp: &Inputs, sizes: &Sizes, rng: &mut StdRng, seconds: f64) -> Outcome {
    let count = (sizes.nominal_qps * seconds) as usize;
    let ops = queries(rng, inp.kg1.num_entities() as u32, sizes.nprobe, sizes.nominal_qps, count);
    openloop::run(svc, &ops)
}

pub fn run(args: &Args) -> Report {
    let sizes = Sizes::of(args);
    let inp = inputs(sizes.entities, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E_12FE);
    let mut report = Report::default();
    if args.trace {
        traced(args, &sizes, &inp, &mut rng, &mut report);
        return report;
    }

    let mut setups: Vec<f64> = (1..SETUPS)
        .map(|_| setup(&inp, &sizes, args, TelemetryConfig::disabled()).1)
        .collect();
    let (svc, setup_s) = setup(&inp, &sizes, args, TelemetryConfig::disabled());
    setups.push(setup_s);
    report.phase("setup", setups.len() as u64, 0);

    let out = nominal(&svc, &inp, &sizes, &mut rng, args.seconds * NOMINAL_SHARE);
    report.phase("nominal", out.queries.len() as u64, out.failed_queries());
    let lat = out.query_latencies();
    let recall = check_answers(&svc, &out, &mut report);
    report.check(
        recall >= sizes.recall_floor,
        format!("Approx recall@10 {recall:.3} above the {} floor", sizes.recall_floor),
    );
    let n1 = inp.kg1.num_entities() as u32;
    let max_qps = saturation_qps(
        &svc,
        |_| queries(&mut rng, n1, sizes.nprobe, f64::INFINITY, sizes.burst),
        &mut report,
    );
    let p50 = windowed(&lat, WINDOW_S, 100, median);
    EndToEnd {
        setup_s: median(&setups),
        op_p50_ms: p50,
        read_p50_ms: p50,
        max_qps,
        quality: recall,
    }
    .emit(&mut report);
    report
}

/// Stage accounting of one open-loop phase read from the registry right
/// after it: the attributed share of the summed request latency is queue
/// wait plus batch execution (each query charged its batch's execution,
/// approximated by the mean batch size).
pub fn attributed_ms(reg: &daakg::MetricsRegistry) -> f64 {
    use crate::report::stage_sum_ms;
    let queries = reg.counter("ingress_queries_total").get() as f64;
    let batches = reg.counter("ingress_batches_total").get().max(1) as f64;
    stage_sum_ms(reg, "stage_ingress_queue_wait_ns")
        + stage_sum_ms(reg, "stage_ingress_execute_ns") * queries / batches
}

/// Per-call exact-scan time of the index kernel over the whole corpus,
/// timed from here on a sample of left ids.
pub fn exact_scan_p50_us(svc: &ShardedService, ids: impl Iterator<Item = u32>) -> f64 {
    let snap = svc.service().current().snapshot;
    let times: Vec<f64> = ids
        .map(|e| {
            let t = Instant::now();
            std::hint::black_box(snap.top_k_entities(e, TOP_K));
            millis(t) * 1e3
        })
        .collect();
    median(&times)
}

/// Generator health of one open-loop phase.
pub fn generator_lateness(layers: &mut Layers, out: &Outcome) {
    let late = crate::report::sorted(&out.late_ms);
    layers.set("gen.late_p99_ms", crate::report::quantile(&late, 0.99));
    layers.set("gen.late_max_ms", late.last().copied().unwrap_or(0.0));
}

fn traced(args: &Args, sizes: &Sizes, inp: &Inputs, rng: &mut StdRng, report: &mut Report) {
    let seconds = args.seconds * NOMINAL_SHARE / 2.0;
    // Untraced reference at the nominal rate, telemetry off.
    let (svc, _) = setup(inp, sizes, args, TelemetryConfig::disabled());
    let reference = nominal(&svc, inp, sizes, rng, seconds);
    report.phase("nominal.untraced", reference.queries.len() as u64, reference.failed_queries());
    drop(svc);

    let (svc, _) = setup(inp, sizes, args, TelemetryConfig::default());
    let reg = svc.telemetry().registry().clone();
    // The warm-up queries of `setup` are not part of the phase.
    let before = attributed_ms(&reg);
    let out = nominal(&svc, inp, sizes, rng, seconds);
    let attributed = attributed_ms(&reg) - before;
    report.phase("nominal.traced", out.queries.len() as u64, out.failed_queries());
    let recall = check_answers(&svc, &out, report);
    report.check(
        recall >= sizes.recall_floor,
        format!("Approx recall@10 {recall:.3} above the {} floor", sizes.recall_floor),
    );
    let lat_ms: Vec<f64> = out.query_latencies().iter().map(|l| l.1).collect();
    let ref_ms: Vec<f64> = reference.query_latencies().iter().map(|l| l.1).collect();

    let mut layers = Layers::default();
    layers.read_registry(&reg);
    layers.set(
        "index.exact_scan_p50_us",
        exact_scan_p50_us(&svc, out.queries.iter().take(200).map(|q| q.e1)),
    );
    layers.set("index.recall_at_10", recall);
    layers.set("tail.read_ms", tail(&lat_ms));
    layers.set("trace.unattributed_frac", 1.0 - attributed / lat_ms.iter().sum::<f64>());
    layers.set("trace.overhead_frac", median(&lat_ms) / median(&ref_ms) - 1.0);
    generator_lateness(&mut layers, &out);
    layers.emit(report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_counts_exact_ids_found() {
        let exact = vec![vec![(1, 0.9), (2, 0.8)], vec![(3, 0.5), (4, 0.4)]];
        let approx: [&[(u32, f32)]; 2] = [&[(1, 0.9), (5, 0.1)], &[(4, 0.4), (3, 0.5)]];
        assert_eq!(recall_at_k(approx.into_iter(), &exact), 0.75);
    }
}
