//! # daakg
//!
//! Facade crate for the DAAKG reproduction workspace: one `use daakg::...`
//! away from the whole pipeline. The crate graph underneath:
//!
//! ```text
//!            daakg-graph          (KGs, ids, gold alignments, IO,
//!                 │                the workspace-wide DaakgError)
//!        ┌────────┴────────┐
//!   daakg-embed       daakg-align (models / joint alignment + batched
//!        │                 │       top-k engine + AlignmentService)
//!        │            daakg-index (IVF approximate search: shared scan
//!        │                 │       kernel, spherical k-means, IvfIndex)
//!        └───────┬─────────┘
//!           daakg-autograd        (tensors, blocked parallel matmul, tape)
//!                 │
//!          daakg-parallel         (fork-join on std::thread::scope under a
//!                                  per-thread worker budget)
//!
//!   daakg-infer   (functionality-weighted match propagation, inference power)
//!        │
//!   daakg-active  (question selection, simulated oracle, the active loop)
//!
//!   daakg-eval  (H@k / MRR / F1, cost curves)
//!   daakg-bench (perf harness — consumes this facade, so it is no longer
//!                re-exported here; depend on `daakg-bench` directly)
//! ```
//!
//! ## The service API
//!
//! The primary entry point is the [`Pipeline`] builder, which validates
//! the composed configuration and returns a concurrent
//! [`AlignmentService`]:
//!
//! ```no_run
//! use daakg::graph::kg::{example_dbpedia, example_wikidata};
//! use daakg::{ModelKind, Pipeline, TrainMode};
//!
//! let service = Pipeline::builder()
//!     .kg1(example_dbpedia())
//!     .kg2(example_wikidata())
//!     .model(ModelKind::TransE)
//!     .train_mode(TrainMode::Sparse)
//!     .threads(0) // auto
//!     .build()?;
//!
//! // Training publishes immutable, versioned snapshots...
//! service.train(&daakg::LabeledMatches::new())?;
//! // ...while queries run on whatever version they grab —
//! // even while the next training round is in flight on another thread.
//! let answer = service.top_k(0, 5)?;
//! println!("top-5 computed on snapshot {}", answer.version);
//! # Ok::<(), daakg::DaakgError>(())
//! ```
//!
//! For sublinear serving at scale, give the builder an IVF index
//! (`.index(nlist)`) — every published snapshot then carries a
//! lazily-built [`IvfIndex`] — and query in
//! [`QueryMode::Approx { nprobe }`](QueryMode), either per call
//! (`service.query(e, QueryOptions::top_k(k).approx(nprobe))?`) or as
//! the session default (`.query_mode(..)`). `Exact` remains the default
//! everywhere.
//!
//! ## Serving topology
//!
//! Both serving front-ends implement the unified [`QueryExecutor`]
//! trait over [`QueryOptions`]:
//!
//! * [`AlignmentService`] (from `.build()`) — one corpus, one slab, the
//!   batched scan kernel: the one-partition case of the serving core;
//! * [`ShardedService`] (from `.shards(n)` + `.build_sharded()`) — the
//!   same core over `n` partitions: column ranges of the one slab,
//!   scanned in place, each with its own IVF index, built at each
//!   publish. Exact answers are **bitwise-identical** to the unsharded
//!   service, ties included.
//!   Adding `.ingress(IngressConfig { .. })` puts a micro-batching
//!   window in front: concurrent single queries coalesce into batched
//!   kernel dispatches (see the README's serving-topology section for
//!   tuning guidance). The ingress is also the overload-resilience
//!   layer: a bounded queue that rejects over-capacity admissions with
//!   [`DaakgError::Overloaded`], per-query deadlines
//!   ([`QueryOptions::with_deadline`]) shed with
//!   [`DaakgError::DeadlineExceeded`], panic isolation (a poisonous
//!   query becomes a typed error to its own caller; the worker and its
//!   batch peers survive), and opt-in degradation ([`DegradePolicy`])
//!   that answers `Exact` requests approximately under pressure,
//!   stamping every answer with the mode actually served
//!   ([`ShardedService::query_served`], [`ServiceHealth`]).
//!
//! ## Observability
//!
//! Every service carries a [`Telemetry`] bundle (enabled by default;
//! `.telemetry(TelemetryConfig::disabled())` on the builder turns every
//! handle into a branch-only no-op): a lock-free [`MetricsRegistry`] of
//! counters, gauges, and mergeable log-scale latency [`Histogram`]s; hot-
//! path [`Span`] timers over every serving and maintenance stage (ingress
//! queue-wait/execute, per-shard scatter and merge, IVF probe/scan, delta
//! merge, warm-start, fold/republish/persist, store write/fsync); and a
//! bounded [`EventJournal`] of structured lifecycle events
//! ([`EventKind`]: snapshot publishes, fold start/done, retrain
//! supersession, shed/expired/degrade transitions, persist retries and
//! failures, compactor panics). Read it via
//! [`AlignmentService::telemetry`] / [`ShardedService::telemetry`] and
//! render with `telemetry().render_prometheus()` (Prometheus text
//! exposition) or `telemetry().render_json()` (raw nanoseconds plus the
//! journal). [`ServiceHealth`] is a view over the same registry. The full
//! metric/event taxonomy is tabulated in the README's Observability
//! section.
//!
//! Every fallible entry point of the service API returns the typed
//! [`DaakgError`] — no `Result<_, String>`s, and construction/validation
//! never panics. (The retained free-standing snapshot path keeps its
//! original index-out-of-bounds panic semantics; the service's `rank` /
//! `top_k` / `batch_top_k` wrappers bounds-check and return
//! [`DaakgError::UnknownEntity`] instead.)
//!
//! ## Migrating from the free-standing API
//!
//! The hand-wired batch path still exists (the service is built on it),
//! but new code should go through the service:
//!
//! | old call | new call |
//! |----------|----------|
//! | `JointModel::new(cfg, &kg1, &kg2)` (panicked on bad cfg) | `Pipeline::builder().kg1(kg1).kg2(kg2).joint(cfg).build()?` |
//! | `model.train(&kg1, &kg2, &labels)` → snapshot | `service.train(&labels)?` → [`SnapshotVersion`] |
//! | `model.align_rounds(&kg1, &kg2, &labels, n)` | `service.align_rounds(&labels, n)?` |
//! | `model.fine_tune_with_inferred(..)` | `service.fine_tune_with_inferred(..)?` |
//! | `snapshot.rank_entities(e)` | `service.rank(e)?` (versioned, bounds-checked) |
//! | `snapshot.top_k_entities(e, k)` | `service.top_k(e, k)?` |
//! | `snapshot.top_k_entities_block(&qs, k)` | `service.batch_top_k(&qs, k)?` (sharded across workers) |
//! | `service.rank_with(e, mode)` (shim, **removed**) | `service.query(e, QueryOptions::rank().with_mode(mode))?` |
//! | `service.top_k_with(e, k, mode)` (shim, **removed**) | `service.query(e, QueryOptions::top_k(k).with_mode(mode))?` |
//! | `service.batch_top_k_with(&qs, k, mode)` (shim, **removed**) | `service.query_batch(&qs, QueryOptions::top_k(k).with_mode(mode))?` |
//! | `ActiveLoop::new(cfg, strategy)` (panicked) + `.run(&mut model, ..)` | `Pipeline::builder()...build_active()?` + `.run_service(&service, ..)?` |
//! | `ActiveLoop::run(&mut model, ..)` (shim, **removed**) | `ActiveLoop::run_service(&service, ..)?` |
//! | `cfg.validate() -> Result<(), String>` | `cfg.validate() -> Result<(), DaakgError>` |
//! | `daakg_graph::io::IoError` (alias, **removed**) | [`DaakgError`] (same variants) |
//! | `daakg::bench::...` | depend on `daakg-bench` directly |
//! | `EntityWeights::from_engine(&engine)` (**removed**) | `engine.round_scan().weights` (one fused pass that also yields each query's best match; `EntityWeights::compute` stays the naive reference) |
//! | `BatchedSimilarity::score_block(&qs)` (**removed**) | `engine.round_scan()` for Eq. 6 maxima, `engine.top_k_block(&qs, k)` for rankings |
//! | `EntityWeights::compute_over_pairs(..)` (**removed**, no callers) | `EntityWeights::compute` over the pool's rows |
//! | hand-rolled latency percentiles over `Vec<u64>` | [`Histogram`] (`record` / `merge` / `quantile`) |
//! | `service.health()` polling for persist faults | still works — now a view over [`MetricsRegistry`]; rich detail via [`AlignmentService::telemetry`] |
//! | scraping logs for lifecycle events | [`EventJournal`] ([`Telemetry::journal`], [`EventKind`]) |
//! | `snapshot.ents1` / `snapshot.mapped_ents1` as `Tensor` | `Arc<Tensor>` (shared across compaction folds; reads deref unchanged, `Tensor::clone(&snapshot.ents1)` for an owned copy) |
//! | per-upsert `d0000000042.dseg` segment files in a live store | one delta log (`l<lineage>-<first id>.dlog`); a store still holding a `.dseg` is refused at `enable_live` with a typed `Corrupt` naming it |
//! | `service.prune_shared(k)` (**removed**) | `service.prune(k)` (`&self`, exact, returns the count freed; `prune_with_store(k)` also takes `&self` now) |
//! | `sharded.train(&labels)` / `sharded.align_rounds(&labels, n)` (**removed**) | `sharded.service().train(&labels)?` / `sharded.service().align_rounds(&labels, n)?` (every publish now builds its version's partitions, so there is nothing to pre-warm; `sharded.prewarm()` is a no-op) |
//! | `IngressConfig { max_wait, .. }` (**removed**) | `IngressConfig { max_batch, max_queue, degrade }` — the coalescing wait is derived from the previous dispatch (its callers plus what queued meanwhile, for at most its execute time), so there is nothing to tune |
//!
//! Holding an `Arc<AlignmentSnapshot>` from [`AlignmentService::current`]
//! pins that version for as long as needed — retraining never invalidates
//! it; [`AlignmentService::snapshot_at`] retrieves any retained version,
//! e.g. to verify an answer against the exact snapshot that produced it.
//!
//! The `quickstart` example (repo `examples/quickstart.rs`) walks the whole
//! path: build two KGs → `Pipeline` → train → versioned ranking → score
//! with `daakg-eval` → run the active loop against a simulated oracle.

#![forbid(unsafe_code)]

pub mod pipeline;

pub use daakg_active as active;
pub use daakg_align as align;
pub use daakg_autograd as autograd;
pub use daakg_embed as embed;
pub use daakg_eval as eval;
pub use daakg_graph as graph;
pub use daakg_index as index;
pub use daakg_infer as infer;
pub use daakg_parallel as parallel;
pub use daakg_store as store;
pub use daakg_telemetry as telemetry;

// The most commonly used types, re-exported flat.
pub use daakg_active::{ActiveConfig, ActiveLoop, GoldOracle, Strategy};
pub use daakg_align::{
    AlignmentService, AlignmentSnapshot, BatchedSimilarity, DegradePolicy, DeltaRecovery,
    DeltaTriple, DurableRegistry, IngressConfig, IngressStats, JointConfig, JointModel,
    LabeledMatches, LiveConfig, LiveHealth, PendingAnswer, QueryExecutor, RecoveryReport, Served,
    ServiceHealth, ServingConfig, ShardedService, SnapshotVersion, Versioned, VersionedSnapshot,
};
pub use daakg_autograd::{Graph, ParamStore, TapeSession, Tensor};
pub use daakg_embed::{EmbedConfig, KgEmbedding, ModelKind, TrainMode};
pub use daakg_graph::{DaakgError, GoldAlignment, KgBuilder, KnowledgeGraph};
pub use daakg_index::{IvfConfig, IvfIndex, QueryMode, QueryOptions};
pub use daakg_infer::{InferConfig, InferenceEngine, RelationMatches};
pub use daakg_telemetry::{
    Counter, Event, EventJournal, EventKind, Gauge, Histogram, HistogramHandle, MetricsRegistry,
    Span, Telemetry, TelemetryConfig,
};
pub use pipeline::{Pipeline, PipelineBuilder};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        let kg = crate::KgBuilder::new("t").build();
        assert_eq!(kg.num_entities(), 0);
        let t = crate::Tensor::identity(2);
        assert_eq!(t.shape(), (2, 2));
        // The service-era types are one flat import away.
        let err = crate::Pipeline::builder().build().unwrap_err();
        assert!(matches!(err, crate::DaakgError::MissingInput { .. }));
    }
}
