//! `live`: writes beside reads on a durable sharded service with live
//! updates. One open-loop generator issues Exact top-10 queries and
//! `upsert_entity` calls (three random triples each) at fixed rates; the
//! delta-depth threshold drives background folds, each of which persists a
//! snapshot. The store lives in a fresh directory under the working
//! directory and is deleted when the run ends.

use crate::campaign::bitwise_eq;
use crate::openloop::{self, OpKind, Outcome};
use crate::report::{median, secs, tail, windowed, EndToEnd, Layers, Report};
use crate::serve::{self, recall_at_k, TOP_K};
use crate::Args;
use daakg::{
    DeltaTriple, IngressConfig, LiveConfig, Pipeline, QueryOptions, ShardedService,
    TelemetryConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Sizes {
    entities: usize,
    shards: usize,
    nlist: usize,
    nprobe: usize,
    compact_after: usize,
    query_qps: f64,
    upsert_qps: f64,
    recall_sample: usize,
    /// Queries per saturation burst (below the ingress queue bound).
    burst: usize,
}

impl Sizes {
    fn of(args: &Args) -> Self {
        if args.smoke {
            Self {
                entities: 5000,
                shards: 2,
                nlist: 32,
                nprobe: 8,
                compact_after: 8,
                query_qps: 200.0,
                upsert_qps: 40.0,
                recall_sample: 200,
                burst: 500,
            }
        } else {
            Self {
                entities: 50_000,
                shards: 2,
                nlist: 64,
                nprobe: 8,
                compact_after: 64,
                query_qps: 400.0,
                upsert_qps: 20.0,
                recall_sample: 1000,
                burst: 6000,
            }
        }
    }
}

/// The upsert p50 is read per window of this length (40 acks; see
/// `windowed`).
const UPSERT_WINDOW_S: f64 = 2.0;

/// Where stores go: a scratch directory inside the working directory.
const SCRATCH: &str = ".perfbench-tmp";

/// A fresh store directory, removed on drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn fresh(tag: usize) -> Self {
        let dir = Path::new(SCRATCH).join(format!("live-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store directory");
        Self(dir)
    }

    /// Total size in MB and file count.
    fn usage(&self) -> (f64, usize) {
        let mut bytes = 0u64;
        let mut files = 0usize;
        for entry in std::fs::read_dir(&self.0).into_iter().flatten().flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    bytes += meta.len();
                    files += 1;
                }
            }
        }
        (bytes as f64 / 1e6, files)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty scratch directory behind either.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

fn setup(
    inp: &serve::Inputs,
    sizes: &Sizes,
    args: &Args,
    telemetry: TelemetryConfig,
    tag: usize,
) -> (ShardedService, StoreDir, f64) {
    let dir = StoreDir::fresh(tag);
    let t = Instant::now();
    let svc = Pipeline::builder()
        .kg1(Arc::clone(&inp.kg1))
        .kg2(Arc::clone(&inp.kg2))
        .seed(args.seed)
        .threads(args.threads)
        .index(sizes.nlist)
        .shards(sizes.shards)
        .ingress(IngressConfig::default())
        .store(&dir.0)
        .live(LiveConfig {
            compact_after: sizes.compact_after,
            // Folds are driven by the depth threshold alone.
            tick: Duration::from_secs(3600),
            ..LiveConfig::default()
        })
        .telemetry(telemetry)
        .build_sharded()
        .expect("valid live pipeline");
    serve::warm(&svc, sizes.nprobe);
    (svc, dir, secs(t))
}

/// The window's schedule: Exact top-10 queries and upserts, each at its
/// fixed rate, for `seconds`.
fn window_ops(inp: &serve::Inputs, sizes: &Sizes, rng: &mut StdRng, seconds: f64) -> Vec<openloop::Op> {
    let n1 = inp.kg1.num_entities() as u32;
    let n2 = inp.kg2.num_entities() as u32;
    let rels = inp.kg2.num_relations().max(1) as u32;
    let queries = openloop::even(sizes.query_qps, (sizes.query_qps * seconds) as usize, |_| {
        OpKind::Query {
            e1: rng.gen_range(0..n1),
            opts: QueryOptions::top_k(TOP_K),
        }
    });
    let mut upserts = openloop::even(sizes.upsert_qps, (sizes.upsert_qps * seconds) as usize, |_| {
        OpKind::Upsert(
            (0..3)
                .map(|_| DeltaTriple {
                    rel: rng.gen_range(0..rels),
                    neighbor: rng.gen_range(0..n2),
                    outgoing: rng.gen_bool(0.5),
                })
                .collect(),
        )
    });
    // Offset the upserts by half a query gap so the two streams interleave.
    let offset = Duration::from_secs_f64(0.5 / sizes.query_qps);
    for op in &mut upserts {
        op.due += offset;
    }
    openloop::merge(queries, upserts)
}

/// Latency of the first answer stamped with each version newer than the
/// first one seen: the query that meets a fresh publication.
fn first_after_publish(out: &Outcome) -> Vec<f64> {
    let mut answered: Vec<_> = out
        .queries
        .iter()
        .filter_map(|q| q.answer.as_ref().ok().map(|a| (q.due_s, a.version, q.latency_ms)))
        .collect();
    answered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = answered.first().map(|a| a.1);
    let mut firsts = Vec::new();
    for (_, version, lat) in answered {
        if Some(version) > seen {
            seen = Some(version);
            firsts.push(lat);
        }
    }
    firsts
}

/// Every acknowledged upsert is queryable: one full ranking over the
/// union corpus holds every base entity and every acknowledged id. A fold
/// publishing at that instant can hide the newest entry for a moment, so
/// the probe retries briefly.
fn all_queryable(svc: &ShardedService, base: usize, acked: &[u32]) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let ranking = svc.rank(0).expect("full ranking").value;
        let ok = ranking.len() == base + acked.len() && {
            let mut present = vec![false; ranking.len()];
            for &(id, _) in &ranking {
                if let Some(p) = present.get_mut(id as usize) {
                    *p = true;
                }
            }
            acked.iter().all(|&id| present.get(id as usize) == Some(&true))
        };
        if ok || Instant::now() >= deadline {
            return ok;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Merged base ∪ delta answers equal the answers after folding the same
/// entities, bit for bit. Returns the extra upserts it made.
fn merge_equals_fold(svc: &ShardedService, n1: u32, report: &mut Report) -> Vec<u32> {
    let service = svc.service();
    let sample: Vec<u32> = (0..n1).step_by((n1 as usize / 32).max(1)).collect();
    let mut extra = Vec::new();
    // A background fold can land between the upserts and the sample;
    // retry until the sample really merged pending deltas.
    for attempt in 0..3u32 {
        if service.live_health().map_or(0, |h| h.delta_depth) == 0 {
            for i in 0..3u32 {
                let id = service
                    .upsert_entity(&[DeltaTriple {
                        rel: 0,
                        neighbor: (attempt * 3 + i) * 7,
                        outgoing: true,
                    }])
                    .expect("check upsert");
                extra.push(id);
            }
        }
        let merged: Vec<_> = sample
            .iter()
            .map(|&q| svc.query(q, QueryOptions::top_k(TOP_K)).expect("merged query"))
            .collect();
        service.compact_now().expect("fold");
        svc.prewarm();
        let folded_ok = sample.iter().zip(&merged).all(|(&q, pre)| {
            let post = svc.query(q, QueryOptions::top_k(TOP_K)).expect("folded query");
            post.deltas_merged == 0 && bitwise_eq(&pre.value, &post.value)
        });
        if merged.iter().all(|a| a.deltas_merged > 0) {
            report.check(folded_ok, "merged delta answers equal the folded union bitwise");
            return extra;
        }
    }
    report.check(false, "no sample query merged pending deltas");
    extra
}

/// Saturation throughput of the folded service: bursts of Exact top-10
/// queries, all due at once.
fn burst_qps(svc: &ShardedService, sizes: &Sizes, n1: u32, rng: &mut StdRng, report: &mut Report) -> f64 {
    serve::saturation_qps(
        svc,
        |_| {
            openloop::even(f64::INFINITY, sizes.burst, |_| OpKind::Query {
                e1: rng.gen_range(0..n1),
                opts: QueryOptions::top_k(TOP_K),
            })
        },
        report,
    )
}

/// Approx recall@10 on the folded corpus, against the exact scatter
/// (which equals the exact snapshot scan bitwise).
fn folded_recall(svc: &ShardedService, sizes: &Sizes, n1: u32) -> f64 {
    let ids: Vec<u32> = (0..n1)
        .step_by((n1 as usize / sizes.recall_sample).max(1))
        .collect();
    let exact = svc
        .query_batch(&ids, QueryOptions::top_k(TOP_K))
        .expect("exact batch")
        .value;
    let approx = svc
        .query_batch(&ids, QueryOptions::top_k(TOP_K).approx(sizes.nprobe))
        .expect("approx batch")
        .value;
    recall_at_k(approx.iter().map(Vec::as_slice), &exact)
}

/// One measured window plus its checks.
struct Window {
    out: Outcome,
    /// Registry-attributed query and upsert time during the window, ms.
    attributed_ms: f64,
}

fn window(
    svc: &ShardedService,
    inp: &serve::Inputs,
    sizes: &Sizes,
    rng: &mut StdRng,
    seconds: f64,
    name: &str,
    report: &mut Report,
) -> Window {
    let reg = svc.telemetry().registry().clone();
    let attributed = |reg: &daakg::MetricsRegistry| {
        serve::attributed_ms(reg) + crate::report::stage_sum_ms(reg, "stage_warm_start_ns")
    };
    let before = attributed(&reg);
    let ops = window_ops(inp, sizes, rng, seconds);
    let out = openloop::run(svc, &ops);
    let attributed_ms = attributed(&reg) - before;
    report.phase(
        &format!("{name}.queries"),
        out.queries.len() as u64,
        out.failed_queries(),
    );
    report.phase(
        &format!("{name}.upserts"),
        out.upserts.len() as u64,
        out.failed_upserts(),
    );

    let n1 = inp.kg1.num_entities() as u32;
    let n2 = inp.kg2.num_entities();
    let mut acked: Vec<u32> = out.upserts.iter().filter_map(|u| u.id.clone().ok()).collect();
    report.check(
        all_queryable(svc, n2, &acked),
        "every acknowledged upsert is queryable",
    );
    acked.extend(merge_equals_fold(svc, n1, report));
    let health = svc.service().live_health().expect("live enabled");
    report.check(
        health.delta_depth == 0,
        format!("delta depth {} after the drain", health.delta_depth),
    );
    report.check(health.compactor_panics == 0, "compactor never panicked");
    report.check(
        all_queryable(svc, n2, &acked),
        "every acknowledged upsert is queryable after the drain",
    );
    Window { out, attributed_ms }
}

pub fn run(args: &Args) -> Report {
    let sizes = Sizes::of(args);
    let inp = serve::inputs(sizes.entities, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x11_7E);
    let mut report = Report::default();
    if args.trace {
        traced(args, &sizes, &inp, &mut rng, &mut report);
        return report;
    }

    let mut setups: Vec<f64> = (1..serve::SETUPS)
        .map(|tag| setup(&inp, &sizes, args, TelemetryConfig::disabled(), tag).2)
        .collect();
    let (svc, dir, setup_s) = setup(&inp, &sizes, args, TelemetryConfig::disabled(), 0);
    setups.push(setup_s);
    report.phase("setup", setups.len() as u64, 0);

    let w = window(&svc, &inp, &sizes, &mut rng, args.seconds, "window", &mut report);
    let folds = svc.service().live_health().map_or(0, |h| h.compactions);
    let n1 = inp.kg1.num_entities() as u32;
    let recall = folded_recall(&svc, &sizes, n1);
    let qps = burst_qps(&svc, &sizes, n1, &mut rng, &mut report);
    let firsts: Vec<String> = first_after_publish(&w.out)
        .iter()
        .map(|ms| format!("{ms:.0}"))
        .collect();
    println!(
        "live: {folds} folds, first query after each publish [{}] ms, folded recall@10 {recall:.4}",
        firsts.join(", ")
    );
    let upserts: Vec<(f64, f64)> = w
        .out
        .upserts
        .iter()
        .filter(|u| u.id.is_ok())
        .map(|u| (u.due_s, u.latency_ms))
        .collect();
    let reads = w.out.query_latencies();
    EndToEnd {
        setup_s: median(&setups),
        op_p50_ms: windowed(&upserts, UPSERT_WINDOW_S, 10, median),
        read_p50_ms: windowed(&reads, 1.0, 100, median),
        max_qps: qps,
        quality: recall,
    }
    .emit(&mut report);
    // The service goes before its store directory.
    drop(svc);
    drop(dir);
    report
}

fn traced(args: &Args, sizes: &Sizes, inp: &serve::Inputs, rng: &mut StdRng, report: &mut Report) {
    // Untraced reference window, telemetry off.
    let reference = {
        let (svc, dir, _) = setup(inp, sizes, args, TelemetryConfig::disabled(), 0);
        let out = window(&svc, inp, sizes, rng, args.seconds, "untraced", report).out;
        // The service goes before its store directory.
        drop(svc);
        drop(dir);
        out
    };

    let (svc, dir, _) = setup(inp, sizes, args, TelemetryConfig::default(), 1);
    let reg = svc.telemetry().registry().clone();
    let w = window(&svc, inp, sizes, rng, args.seconds, "traced", report);
    let n1 = inp.kg1.num_entities() as u32;
    let recall = folded_recall(&svc, sizes, n1);

    let mut layers = Layers::default();
    layers.read_registry(&reg);
    layers.set(
        "index.exact_scan_p50_us",
        serve::exact_scan_p50_us(&svc, w.out.queries.iter().take(200).map(|q| q.e1)),
    );
    layers.set("index.recall_at_10", recall);
    let (mb, files) = dir.usage();
    layers.set("store.dir_mb_end", mb);
    layers.set("store.files_end", files as f64);
    let health = svc.service().live_health().expect("live enabled");
    layers.set("compact.folds", health.compactions as f64);
    layers.set(
        "compact.delta_depth_max",
        w.out.upserts.iter().map(|u| u.depth).max().unwrap_or(0) as f64,
    );
    layers.set(
        "registry.retained_versions_end",
        svc.service().retained_versions() as f64,
    );
    let firsts = first_after_publish(&w.out);
    layers.set("live.first_query_after_publish_p50_ms", median(&firsts));
    layers.set(
        "live.first_query_after_publish_max_ms",
        firsts.iter().copied().fold(0.0, f64::max),
    );
    let read_ms: Vec<f64> = w.out.query_latencies().iter().map(|l| l.1).collect();
    layers.set("tail.op_ms", tail(&w.out.upsert_latencies()));
    layers.set("tail.read_ms", tail(&read_ms));
    let total_ms = read_ms.iter().sum::<f64>() + w.out.upsert_latencies().iter().sum::<f64>();
    layers.set("trace.unattributed_frac", 1.0 - w.attributed_ms / total_ms);
    layers.set(
        "trace.overhead_frac",
        median(&w.out.upsert_latencies()) / median(&reference.upsert_latencies()) - 1.0,
    );
    serve::generator_lateness(&mut layers, &w.out);
    layers.emit(report);
    drop(svc);
    drop(dir);
}
