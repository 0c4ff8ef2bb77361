//! The partitioned serving core and its sharded front-end,
//! [`ShardedService`].
//!
//! Every query of an [`AlignmentService`] — Exact or Approx, top-k or full
//! rank, single or batch — runs through one mechanism with one parameter,
//! the shard count: the version's `ServingSet` splits the right-KG
//! corpus into partitions, and a batch is answered as partitions × query
//! ranges on [`daakg_parallel::par_map_ranges`] workers. A partition is a
//! column range `base..base + len` of the snapshot engine's own
//! transposed candidate slab, scanned in place (the slab's row stride is
//! the scan kernel's `ld`), plus that range's IVF index. An
//! [`AlignmentService`] serves from one partition, whose index is the
//! snapshot's own [`AlignmentSnapshot::ivf_index`];
//! [`ShardedService::new`] gives it `n`, each with a per-partition IVF
//! index built from the partition's rows in place. With one partition
//! the query ranges' lists are the answers; with more, each query's
//! per-partition lists merge through one more bounded
//! [`TopKSelector`].
//!
//! # Bitwise-identical exact answers
//!
//! Answers reproduce the one-partition scan **bitwise, ties included**,
//! at every shard count, by construction:
//!
//! * every partition scans the engine's normalized rows themselves — no
//!   copy, so no chance of a differently rounded one;
//! * the scan kernel computes each (query, candidate) dot product by the
//!   same sequential accumulation over the depth dimension regardless of
//!   the candidate's column position or the slab's stride, so per-partition
//!   scores equal whole-slab scores bitwise;
//! * each partition scans with the candidates' **global** ids, and
//!   [`TopKSelector`] selection is push-order-independent under *(score
//!   desc, id asc)* — so merging the per-partition top-k lists yields
//!   exactly the one-partition top-k (every globally retained candidate
//!   is necessarily in its own partition's top-k).
//!
//! # One coherent version per request
//!
//! Each publish builds its version's serving set before any reader can
//! see the version, and the registry hands a reader the version and its
//! set in one lock acquisition ([`crate::SnapshotRegistry`]) — so no query
//! builds a set, and none mixes partitions of different versions.
//!
//! With a [`crate::IngressConfig`], a micro-batching ingress sits in
//! front of the single-query path: see [`crate::ingress`].

use crate::batched::BatchedSimilarity;
use crate::ingress::{Ingress, IngressConfig, IngressStats, PendingAnswer};
use crate::service::{AlignmentService, Ranking, Served, ServiceHealth, Versioned};
use crate::snapshot::AlignmentSnapshot;
use crate::telem::ServiceTelemetry;
use daakg_graph::DaakgError;
use daakg_index::{IvfIndex, QueryMode, QueryOptions, SearchSpans, TopKSelector};
use daakg_telemetry::HistogramHandle;
use std::ops::Range;
use std::sync::Arc;

/// One partition of a serving set: the candidate columns `cols` of the
/// snapshot's transposed slab, and — for sets of two or more partitions
/// over an indexed snapshot — the IVF index over those rows, whose local
/// ids are offset by `cols.start` into the global id space.
struct Partition {
    cols: Range<usize>,
    index: Option<Arc<IvfIndex>>,
}

impl Partition {
    /// The best `opts.k` (all when `None`) of this partition's candidates
    /// for each query, with global ids: an in-place scan of the columns,
    /// or a probe of `index`.
    fn answer(
        &self,
        engine: &BatchedSimilarity,
        index: Option<&IvfIndex>,
        queries: &[u32],
        opts: QueryOptions,
        spans: &SearchSpans,
    ) -> Vec<Ranking> {
        let k = opts.k.map_or(self.cols.len(), |k| k.min(self.cols.len()));
        let QueryMode::Approx { nprobe } = opts.mode else {
            return engine.top_k_cols(queries, self.cols.clone(), k);
        };
        let index = index.expect("validated: index configured before Approx dispatch");
        let base = self.cols.start as u32;
        queries
            .iter()
            .map(|&q| {
                let found = index.search_observed(engine.normalized_query(q), k, nprobe, spans);
                found.into_iter().map(|(id, s)| (base + id, s)).collect()
            })
            .collect()
    }
}

/// The serving structures of one published version: its corpus
/// partitions. Built once per publish ([`ServingSet::build`]).
pub(crate) struct ServingSet {
    /// The partition count asked for; more than `parts.len()` when the
    /// corpus has fewer candidates.
    shards: usize,
    parts: Vec<Partition>,
}

impl ServingSet {
    /// Partition `snap`'s corpus into `shards` contiguous column ranges,
    /// timed into `span`. With two or more partitions and an index
    /// configuration, each partition's IVF index is built here,
    /// concurrently, from its rows in place; one partition serves the
    /// snapshot's own index.
    pub(crate) fn build(
        snap: &AlignmentSnapshot,
        shards: usize,
        span: &HistogramHandle,
    ) -> Arc<Self> {
        let _span = span.span();
        let rows = snap.entity_engine().normalized_candidates();
        let mut ranges = daakg_parallel::split_ranges(rows.rows(), shards);
        if ranges.is_empty() {
            ranges.push(0..0);
        }
        let cfg = snap.index_config().filter(|_| ranges.len() > 1);
        let parts = daakg_parallel::par_map_ranges(ranges.len(), ranges.len(), |r| {
            let cols = ranges[r.start].clone();
            let index = cfg.map(|cfg| Arc::new(IvfIndex::build_range(rows, cols.clone(), cfg)));
            Partition { cols, index }
        });
        Arc::new(Self { shards, parts })
    }

    /// The partition count this set was built for.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Answer `queries` under `opts` (mode already validated) against
    /// `snap`, the version this set was built from.
    ///
    /// The work is partitions × query ranges, where the number of query
    /// ranges is `max(1, num_threads / partitions)`. One partition
    /// records each range's exact scan in `stage_exact_scan_ns`; two or
    /// more record each (partition, range) scan in `stage_shard_scan_ns`
    /// and the merge in `stage_shard_merge_ns`.
    pub(crate) fn answer(
        &self,
        snap: &AlignmentSnapshot,
        queries: &[u32],
        opts: QueryOptions,
        telem: &ServiceTelemetry,
    ) -> Vec<Ranking> {
        let engine = snap.entity_engine();
        let parts = self.parts.len();
        let ranges = daakg_parallel::split_ranges(
            queries.len(),
            (daakg_parallel::num_threads() / parts).max(1),
        );
        let (one, exact) = (parts == 1, opts.mode == QueryMode::Exact);
        // One partition probes the snapshot's own index (built on first
        // use, before the fan-out); more probe their own.
        let whole = if one && !exact {
            snap.ivf_index()
        } else {
            None
        };
        let noop = HistogramHandle::default();
        let span = match (one, exact) {
            (true, true) => &telem.exact_scan,
            (true, false) => &noop,
            (false, _) => &telem.shard_scan,
        };
        let work = parts * ranges.len();
        let lists = daakg_parallel::par_map_ranges(work, work, |w| {
            let (part, qr) = (
                &self.parts[w.start / ranges.len()],
                &ranges[w.start % ranges.len()],
            );
            let index = part.index.as_ref().or(whole).map(|i| &**i);
            let _span = span.span();
            part.answer(engine, index, &queries[qr.clone()], opts, &telem.search)
        });
        if one {
            return lists.into_iter().flatten().collect();
        }
        // Merge each query's per-partition lists, partition by partition.
        let _span = telem.shard_merge.span();
        let total = engine.num_candidates();
        let bound = opts.k.map_or(total, |k| k.min(total));
        let mut merged: Vec<TopKSelector> =
            queries.iter().map(|_| TopKSelector::new(bound)).collect();
        for (w, part_lists) in lists.into_iter().enumerate() {
            let qr = ranges[w % ranges.len()].clone();
            for (sel, list) in merged[qr].iter_mut().zip(part_lists) {
                for (id, s) in list {
                    sel.push(id, s);
                }
            }
        }
        merged.into_iter().map(TopKSelector::into_sorted).collect()
    }
}

/// A sharded serving front-end over an [`AlignmentService`]: the same
/// service, serving from `n` corpus partitions, optionally behind the
/// micro-batching ingress.
///
/// [`ShardedService::new`] re-stamps the current version with an
/// `n`-partition serving set, and from then on every publish — training
/// through [`ShardedService::service`], a compactor fold, or
/// [`AlignmentService::compact_now`] — builds the new version's set before
/// readers can see it, so no query pays the partitioning cost.
///
/// `Exact` answers are bitwise-identical to the unsharded service's
/// (ties included); see the [module docs](self) for why. With an
/// [`IngressConfig`], single queries additionally coalesce through the
/// micro-batching ingress ([`crate::ingress`]) into batched kernel
/// dispatches — which also brings admission control, deadlines, and the
/// opt-in [`crate::DegradePolicy`] (see the ingress docs).
pub struct ShardedService {
    /// Declared first so it shuts down (joining its worker, which holds
    /// the service too) before the service is released.
    ingress: Option<Ingress>,
    service: Arc<AlignmentService>,
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.shards())
            .field("ingress", &self.ingress.as_ref().map(Ingress::config))
            .field("service", &self.service)
            .finish()
    }
}

impl ShardedService {
    /// Shard `service`'s corpus across `shards` partitions
    /// (`1..=4096`; counts above the corpus size degrade gracefully to
    /// one candidate per shard).
    pub fn new(service: AlignmentService, shards: usize) -> Result<Self, DaakgError> {
        if shards == 0 {
            return Err(DaakgError::invalid(
                "ShardedService",
                "shard count must be at least 1",
            ));
        }
        if shards > 4096 {
            return Err(DaakgError::invalid(
                "ShardedService",
                format!("shard count {shards} exceeds the 4096 maximum"),
            ));
        }
        service.set_shards(shards);
        Ok(Self {
            ingress: None,
            service: Arc::new(service),
        })
    }

    /// [`ShardedService::new`] with a micro-batching ingress in front of
    /// the single-query path: concurrent [`ShardedService::query`] calls
    /// coalesce under the ingress's derived window into one batched
    /// kernel dispatch (see [`IngressConfig`]).
    pub fn with_ingress(
        service: AlignmentService,
        shards: usize,
        ingress: IngressConfig,
    ) -> Result<Self, DaakgError> {
        ingress.validate()?;
        let mut svc = Self::new(service, shards)?;
        svc.ingress = Some(Ingress::start(
            ingress,
            Arc::clone(&svc.service),
            svc.service.telemetry(),
        ));
        Ok(svc)
    }

    /// The telemetry surface of the whole front-end: the wrapped
    /// service's registry and journal, which the partition scan/merge
    /// stages and the ingress also record into — one registry covers the
    /// full stack (see [`AlignmentService::telemetry`]).
    pub fn telemetry(&self) -> &daakg_telemetry::Telemetry {
        self.service.telemetry()
    }

    /// The wrapped service — train and publish through this handle; it
    /// serves from the same partitions, and queries on the front-end
    /// observe each publish on their next version grab.
    pub fn service(&self) -> &AlignmentService {
        &self.service
    }

    /// Number of corpus partitions.
    pub fn shards(&self) -> usize {
        self.service.shards()
    }

    /// The ingress configuration, when one is running.
    pub fn ingress_config(&self) -> Option<IngressConfig> {
        self.ingress.as_ref().map(Ingress::config)
    }

    /// Dispatch and resilience counters of the running ingress (queries
    /// admitted, batched dispatches, shed/expired/degraded/panicked
    /// queries, queue high-water mark) — `None` without an ingress.
    pub fn ingress_stats(&self) -> Option<IngressStats> {
        self.ingress.as_ref().map(Ingress::stats)
    }

    /// Liveness and durability health of the serving stack: the wrapped
    /// service's persist health and live-update health, the ingress
    /// counters, and whether the ingress [`crate::DegradePolicy`] is
    /// currently engaged — one coherent view of the whole front-end.
    pub fn health(&self) -> ServiceHealth {
        let mut health = self.service.health();
        health.ingress = self.ingress_stats();
        if let Some(ingress) = &self.ingress {
            health.degrade_engaged = ingress.degrade_engaged();
        }
        health
    }

    /// A no-op, kept for callers written against releases that built a
    /// version's shard set lazily: every publish now builds its serving
    /// set before readers can see the version.
    pub fn prewarm(&self) {}

    /// Answer one left entity under `opts`. With an ingress configured,
    /// the call enqueues and blocks until its coalesced batch is
    /// answered — subject to admission control
    /// ([`DaakgError::Overloaded`]), the query's deadline, and the
    /// opt-in [`crate::DegradePolicy`]; without one, it runs immediately
    /// (no queue, so deadlines are inert and nothing sheds).
    pub fn query(&self, e1: u32, opts: QueryOptions) -> Result<Versioned<Ranking>, DaakgError> {
        self.submit(e1, opts)?.wait()
    }

    /// [`ShardedService::query`], with the answer stamped by the
    /// [`QueryMode`] it was actually served under — the mode can differ
    /// from the requested one only while an explicitly configured
    /// [`crate::DegradePolicy`] is engaged.
    pub fn query_served(&self, e1: u32, opts: QueryOptions) -> Result<Served<Ranking>, DaakgError> {
        self.submit(e1, opts)?.wait_served()
    }

    /// Admit one query without blocking for its answer: the open-loop
    /// submission path. Admission outcomes ([`DaakgError::Overloaded`],
    /// an already-elapsed deadline, shutdown) surface here synchronously;
    /// the returned [`PendingAnswer`] then blocks only for the answer
    /// itself. Without an ingress the query executes inline and the
    /// returned handle is already resolved.
    pub fn submit(&self, e1: u32, opts: QueryOptions) -> Result<PendingAnswer, DaakgError> {
        match &self.ingress {
            Some(ingress) => {
                // Fail fast (and keep the worker infallible): bounds and
                // mode are validated before the queue ever sees the query.
                self.service.check_query(e1)?;
                self.service.check_mode(opts.mode)?;
                ingress.submit_ticket(e1, opts)
            }
            None => Ok(PendingAnswer::filled(
                self.service
                    .query(e1, opts)
                    .map(|answer| (answer, opts.mode)),
            )),
        }
    }

    /// Answer every query under `opts` on **one** coherent snapshot
    /// version ([`AlignmentService::query_batch`]). Already batched, so
    /// the ingress is bypassed.
    pub fn query_batch(
        &self,
        queries: &[u32],
        opts: QueryOptions,
    ) -> Result<Versioned<Vec<Ranking>>, DaakgError> {
        self.service.query_batch(queries, opts)
    }

    /// Rank all right entities for `e1` in the wrapped service's default
    /// [`QueryMode`].
    pub fn rank(&self, e1: u32) -> Result<Versioned<Ranking>, DaakgError> {
        self.query(e1, QueryOptions::rank().with_mode(self.default_mode()))
    }

    /// Best `k` right entities for `e1` in the default [`QueryMode`].
    pub fn top_k(&self, e1: u32, k: usize) -> Result<Versioned<Ranking>, DaakgError> {
        self.query(e1, QueryOptions::top_k(k).with_mode(self.default_mode()))
    }

    /// Best `k` right entities for each query, one coherent version, in
    /// the default [`QueryMode`].
    pub fn batch_top_k(
        &self,
        queries: &[u32],
        k: usize,
    ) -> Result<Versioned<Vec<Ranking>>, DaakgError> {
        self.query_batch(
            queries,
            QueryOptions::top_k(k).with_mode(self.default_mode()),
        )
    }

    fn default_mode(&self) -> QueryMode {
        self.service.serving().mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JointConfig;
    use crate::service::ServingConfig;
    use daakg_embed::EmbedConfig;
    use daakg_graph::kg::{example_dbpedia, example_wikidata};

    fn tiny_cfg() -> JointConfig {
        JointConfig {
            embed: EmbedConfig {
                dim: 8,
                class_dim: 4,
                epochs: 2,
                batch_size: 16,
                ..EmbedConfig::default()
            },
            align_epochs: 3,
            ..JointConfig::default()
        }
    }

    fn example_service(serving: ServingConfig) -> AlignmentService {
        AlignmentService::with_serving(
            tiny_cfg(),
            serving,
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
        )
        .expect("example service")
    }

    #[test]
    fn shard_count_is_validated() {
        let svc = example_service(ServingConfig::default());
        assert!(matches!(
            ShardedService::new(svc, 0),
            Err(DaakgError::InvalidConfig { .. })
        ));
        let svc = example_service(ServingConfig::default());
        assert!(matches!(
            ShardedService::new(svc, 5000),
            Err(DaakgError::InvalidConfig { .. })
        ));
    }

    /// Every shard count — one, several, and more than the corpus has
    /// candidates — answers Exact top-k, full rank and full-probe Approx
    /// (single and batch) exactly as the one-partition service's exact
    /// scan does.
    #[test]
    fn sharded_exact_matches_unsharded_bitwise() {
        const NLIST: usize = 3;
        let svc = example_service(ServingConfig::with_index(NLIST));
        let n1 = svc.kg1().num_entities();
        let n2 = svc.kg2().num_entities();
        let queries: Vec<u32> = (0..n1 as u32).collect();
        for opts in [QueryOptions::top_k(3), QueryOptions::rank()] {
            let reference = svc.query_batch(&queries, opts).expect("unsharded");
            for shards in [1usize, 2, 3, 7, n2 + 1] {
                let sharded =
                    ShardedService::new(example_service(ServingConfig::with_index(NLIST)), shards)
                        .expect("sharded");
                for mode in [QueryMode::Exact, QueryMode::Approx { nprobe: NLIST }] {
                    let opts = opts.with_mode(mode);
                    let got = sharded.query_batch(&queries, opts).expect("sharded batch");
                    assert_eq!(got.value, reference.value, "shards={shards} {opts:?}");
                    for &q in &queries {
                        let one = sharded.query(q, opts).expect("sharded single");
                        let exact = svc.query(q, opts.with_mode(QueryMode::Exact));
                        let exact = exact.expect("unsharded single");
                        assert_eq!(one.value, exact.value, "shards={shards} q={q} {opts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_rank_matches_unsharded() {
        let svc = example_service(ServingConfig::default());
        let sharded =
            ShardedService::new(example_service(ServingConfig::default()), 3).expect("sharded");
        for q in 0..svc.kg1().num_entities() as u32 {
            assert_eq!(
                sharded.rank(q).expect("sharded").value,
                svc.rank(q).expect("unsharded").value,
                "q={q}"
            );
        }
    }

    #[test]
    fn sharded_answers_carry_one_version_across_publishes() {
        let svc = example_service(ServingConfig::default());
        let sharded = ShardedService::new(svc, 2).expect("sharded");
        let before = sharded.top_k(0, 2).expect("v1 answer");
        assert_eq!(before.version.get(), 1);
        let labels = crate::joint::LabeledMatches::new();
        sharded.service().train(&labels).expect("train");
        let after = sharded.top_k(0, 2).expect("v2 answer");
        assert_eq!(after.version.get(), 2);
        // The new version's answer matches the unsharded scan of the new
        // snapshot — the shard set was rebuilt, not served stale.
        assert_eq!(
            after.value,
            sharded.service().top_k(0, 2).expect("unsharded").value
        );
    }

    #[test]
    fn sharded_service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedService>();
    }

    fn live_service() -> AlignmentService {
        live_service_with(ServingConfig::default())
    }

    fn live_service_with(serving: ServingConfig) -> AlignmentService {
        let mut svc = example_service(serving);
        svc.enable_live(crate::LiveConfig {
            compact_after: 10_000,
            tick: std::time::Duration::from_secs(3600),
            ..crate::LiveConfig::default()
        })
        .expect("enable live");
        svc
    }

    fn triple(rel: u32, neighbor: u32) -> crate::DeltaTriple {
        crate::DeltaTriple {
            rel,
            neighbor,
            outgoing: true,
        }
    }

    /// Sharded scatter-gather over base ∪ delta stays bitwise-identical
    /// to the unsharded merged answer, at every shard count, k shape and
    /// mode (full-probe Approx against Exact; the delta slab is one more
    /// scatter target, merged through the same bounded selector).
    #[test]
    fn sharded_live_answers_match_unsharded_bitwise() {
        const NLIST: usize = 3;
        let upserted = |svc: &AlignmentService| {
            let a = svc.upsert_entity(&[triple(0, 0)]).expect("upsert");
            svc.upsert_entity(&[triple(1, a)]).expect("upsert");
        };
        let reference = live_service_with(ServingConfig::with_index(NLIST));
        upserted(&reference);
        let n2 = reference.kg2().num_entities();
        for shards in [1usize, 2, 3, 7, n2 + 1] {
            let sharded =
                ShardedService::new(live_service_with(ServingConfig::with_index(NLIST)), shards)
                    .expect("sharded");
            upserted(sharded.service());
            let svc = &reference;
            let union_n = n2 + 2;
            let queries: Vec<u32> = (0..svc.kg1().num_entities() as u32).collect();
            for k in [Some(0), Some(5), Some(union_n), Some(union_n + 3), None] {
                for mode in [QueryMode::Exact, QueryMode::Approx { nprobe: NLIST }] {
                    let exact = match k {
                        Some(k) => QueryOptions::top_k(k),
                        None => QueryOptions::rank(),
                    };
                    let opts = exact.with_mode(mode);
                    let got = sharded.query(0, opts).expect("sharded single");
                    let want = svc.query(0, exact).expect("unsharded single");
                    assert_eq!(got.deltas_merged, 2, "shards={shards} k={k:?}");
                    assert_eq!(got.value.len(), want.value.len());
                    for (g, w) in got.value.iter().zip(&want.value) {
                        assert_eq!(g.0, w.0, "shards={shards} k={k:?}");
                        assert_eq!(g.1.to_bits(), w.1.to_bits(), "shards={shards} k={k:?}");
                    }
                    let got = sharded.query_batch(&queries, opts).expect("sharded batch");
                    let want = svc.query_batch(&queries, exact).expect("unsharded batch");
                    assert_eq!(got.deltas_merged, 2);
                    for (q, (gr, wr)) in got.value.iter().zip(&want.value).enumerate() {
                        assert_eq!(gr.len(), wr.len());
                        for (g, w) in gr.iter().zip(wr) {
                            assert_eq!(g.0, w.0, "shards={shards} k={k:?} q={q}");
                            assert_eq!(
                                g.1.to_bits(),
                                w.1.to_bits(),
                                "shards={shards} k={k:?} q={q}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Readers racing a background compactor fold, with no `prewarm`,
    /// never build a serving set: every build belongs to a publish, and
    /// every answer equals its version's exact scan.
    #[test]
    fn sharded_readers_racing_a_background_fold_never_build_a_serving_set() {
        let mut svc = example_service(ServingConfig::with_index(3));
        svc.enable_live(crate::LiveConfig {
            compact_after: 2,
            tick: std::time::Duration::from_secs(3600),
            ..crate::LiveConfig::default()
        })
        .expect("enable live");
        let sharded = ShardedService::new(svc, 2).expect("sharded");
        let reg = sharded.telemetry().registry().clone();
        let builds = || {
            reg.histograms()
                .into_iter()
                .find(|(n, _)| n == "stage_serving_build_ns")
                .map_or(0, |(_, h)| h.count())
        };
        let publishes = || reg.counter("snapshot_publish_total").get();
        let (builds0, publishes0) = (builds(), publishes());
        let n1 = sharded.service().kg1().num_entities() as u32;
        let folded = std::sync::atomic::AtomicBool::new(false);
        let answers = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4u32)
                .map(|r| {
                    let (sharded, folded) = (&sharded, &folded);
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        let mut after = 0;
                        while after < 50 {
                            let q = (r + seen.len() as u32) % n1;
                            let opts = QueryOptions::top_k(3);
                            let opts = match seen.len() % 2 {
                                0 => opts,
                                _ => opts.approx(3),
                            };
                            let post = folded.load(std::sync::atomic::Ordering::Acquire);
                            let answer = sharded.query(q, opts).expect("query");
                            after += usize::from(post);
                            seen.push((q, opts, answer));
                        }
                        seen
                    })
                })
                .collect();
            let service = sharded.service();
            let a = service.upsert_entity(&[triple(0, 0)]).expect("upsert");
            service.upsert_entity(&[triple(1, a)]).expect("upsert");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while service.version().get() < 2 {
                assert!(std::time::Instant::now() < deadline, "no background fold");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            folded.store(true, std::sync::atomic::Ordering::Release);
            readers
                .into_iter()
                .flat_map(|r| r.join().expect("reader"))
                .collect::<Vec<_>>()
        });
        assert_eq!(publishes() - publishes0, 1, "one fold published");
        assert_eq!(builds() - builds0, publishes() - publishes0);
        let mut on_fold = 0;
        for (q, opts, answer) in answers {
            if answer.version.get() < 2 || answer.deltas_merged > 0 {
                continue;
            }
            on_fold += 1;
            let snap = sharded
                .service()
                .snapshot_at(answer.version)
                .expect("retained");
            let exact = snap.snapshot.top_k_entities(q, 3);
            if opts.mode == QueryMode::Exact {
                assert_eq!(answer.value, exact, "q={q}");
            } else {
                assert_eq!(answer.value.len(), exact.len(), "q={q}");
            }
        }
        assert!(on_fold >= 4 * 50, "{on_fold} answers on the folded version");
    }

    /// Queries through the micro-batching ingress carry the delta merge
    /// too, and `health()` assembles persist + live + ingress counters
    /// into one coherent view.
    #[test]
    fn sharded_health_unifies_ingress_and_live_counters() {
        let sharded = ShardedService::with_ingress(live_service(), 2, IngressConfig::default())
            .expect("sharded with ingress");
        sharded
            .service()
            .upsert_entity(&[triple(0, 0)])
            .expect("upsert");
        let answer = sharded
            .query_served(0, QueryOptions::top_k(3))
            .expect("ingress query");
        assert_eq!(answer.deltas_merged, 1, "ingress path merges deltas");
        let health = sharded.health();
        let ingress = health.ingress.expect("ingress stats surfaced");
        assert!(ingress.queries >= 1, "{ingress:?}");
        assert!(ingress.batches >= 1, "{ingress:?}");
        let live = health.live.expect("live health surfaced");
        assert_eq!(live.delta_depth, 1);
        assert_eq!(live.upserts, 1);
        // Without an ingress, the same view reports its absence.
        let plain = ShardedService::new(live_service(), 2).expect("sharded");
        let health = plain.health();
        assert!(health.ingress.is_none());
        assert!(health.live.is_some());
    }

    /// A freshly built sharded service reports the same all-clear health
    /// as a fresh unsharded one: the default view exactly. Attaching an
    /// ingress only adds a zeroed counter block, and a no-op compaction
    /// on a live-enabled build leaves the default-live view untouched.
    #[test]
    fn fresh_sharded_health_is_default() {
        let sharded =
            ShardedService::new(example_service(ServingConfig::default()), 3).expect("sharded");
        assert_eq!(sharded.health(), crate::service::ServiceHealth::default());

        let with_ingress = ShardedService::with_ingress(
            example_service(ServingConfig::default()),
            2,
            IngressConfig::default(),
        )
        .expect("sharded with ingress");
        let expected_ingress = IngressStats {
            queries: 0,
            batches: 0,
            shed: 0,
            expired: 0,
            degraded: 0,
            panics: 0,
            max_depth: 0,
        };
        assert_eq!(
            with_ingress.health(),
            crate::service::ServiceHealth {
                ingress: Some(expected_ingress),
                ..Default::default()
            }
        );

        let live = ShardedService::new(live_service(), 2).expect("sharded live");
        live.service().compact_now().expect("no-op compact");
        assert_eq!(
            live.health(),
            crate::service::ServiceHealth {
                live: Some(crate::delta::LiveHealth::default()),
                ..Default::default()
            }
        );
    }

    /// Sharded scatter/merge stages record into the service's shared
    /// registry, and `ShardedService::telemetry()` exposes the same
    /// handle the underlying [`AlignmentService`] owns.
    #[test]
    fn sharded_query_records_scan_and_merge_stages() {
        let sharded =
            ShardedService::new(example_service(ServingConfig::default()), 3).expect("sharded");
        assert!(sharded.telemetry().is_enabled());
        sharded.query(0, QueryOptions::top_k(3)).expect("query");
        let hists = sharded.telemetry().registry().histograms();
        let count_of = |name: &str| {
            hists
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.count())
                .unwrap_or(0)
        };
        assert_eq!(count_of("stage_shard_scan_ns"), 3, "one scan per shard");
        assert_eq!(count_of("stage_shard_merge_ns"), 1, "one merge per query");
    }
}
