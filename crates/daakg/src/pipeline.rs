//! The fluent, validated entry point to the whole system: [`Pipeline`].
//!
//! A pipeline composes the per-subsystem configurations ([`EmbedConfig`] /
//! [`JointConfig`] / [`InferConfig`] / [`ActiveConfig`]) behind one
//! builder, validates everything up front with typed [`DaakgError`]s, and
//! produces a ready [`AlignmentService`] — the concurrent serve-while-train
//! handle that replaces hand-wiring `KgBuilder → JointModel::train →
//! snapshot() → rank_entities`. With [`PipelineBuilder::shards`] (and
//! optionally [`PipelineBuilder::ingress`]) the same builder produces a
//! scatter-gather [`ShardedService`] instead, via
//! [`PipelineBuilder::build_sharded`].
//!
//! ```no_run
//! use daakg::graph::kg::{example_dbpedia, example_wikidata};
//! use daakg::{ModelKind, Pipeline, QueryOptions, TrainMode};
//!
//! let service = Pipeline::builder()
//!     .kg1(example_dbpedia())
//!     .kg2(example_wikidata())
//!     .model(ModelKind::TransE)
//!     .train_mode(TrainMode::Sparse)
//!     .threads(2)
//!     .dim(16)
//!     .index(32) // IVF index on every published snapshot
//!     .build()?;
//! let labels = daakg::LabeledMatches::new();
//! service.train(&labels)?;
//! let top = service.top_k(0, 5)?; // versioned, exact
//! let fast = service.query(0, QueryOptions::top_k(5).approx(4))?;
//! println!("answered on snapshots {} / {}", top.version, fast.version);
//! # Ok::<(), daakg::DaakgError>(())
//! ```

use daakg_active::{ActiveConfig, ActiveLoop, Strategy};
use daakg_align::{
    AlignmentService, IngressConfig, JointConfig, LiveConfig, ServingConfig, ShardedService,
};
use daakg_embed::{EmbedConfig, ModelKind, TrainMode};
use daakg_graph::{DaakgError, KnowledgeGraph};
use daakg_index::{IvfConfig, QueryMode};
use daakg_infer::InferConfig;
use daakg_telemetry::TelemetryConfig;
use std::path::PathBuf;
use std::sync::Arc;

/// Entry point: [`Pipeline::builder`] starts a [`PipelineBuilder`].
pub struct Pipeline;

impl Pipeline {
    /// Start building a pipeline with default configurations.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }
}

/// Fluent builder for an [`AlignmentService`] (and optionally an
/// [`ActiveLoop`] sharing its configuration).
///
/// All setters are infallible; [`PipelineBuilder::build`] validates the
/// composed configuration in one place and reports the first violation as
/// a typed [`DaakgError`].
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    kg1: Option<Arc<KnowledgeGraph>>,
    kg2: Option<Arc<KnowledgeGraph>>,
    joint: JointConfig,
    active: ActiveConfig,
    strategy: Strategy,
    serving: ServingConfig,
    store: Option<PathBuf>,
    shards: Option<usize>,
    ingress: Option<IngressConfig>,
    live: Option<LiveConfig>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self {
            kg1: None,
            kg2: None,
            joint: JointConfig::default(),
            active: ActiveConfig::default(),
            strategy: Strategy::InferencePower,
            serving: ServingConfig::default(),
            store: None,
            shards: None,
            ingress: None,
            live: None,
        }
    }
}

impl PipelineBuilder {
    /// The left knowledge graph (required). Accepts an owned graph or an
    /// `Arc` when the caller wants to keep sharing it.
    pub fn kg1(mut self, kg: impl Into<Arc<KnowledgeGraph>>) -> Self {
        self.kg1 = Some(kg.into());
        self
    }

    /// The right knowledge graph (required).
    pub fn kg2(mut self, kg: impl Into<Arc<KnowledgeGraph>>) -> Self {
        self.kg2 = Some(kg.into());
        self
    }

    /// Replace the whole joint-alignment configuration.
    pub fn joint(mut self, cfg: JointConfig) -> Self {
        self.joint = cfg;
        self
    }

    /// Replace the embedding configuration inside the joint config.
    pub fn embed(mut self, cfg: EmbedConfig) -> Self {
        self.joint.embed = cfg;
        self
    }

    /// The entity–relation scoring model.
    pub fn model(mut self, model: ModelKind) -> Self {
        self.joint.embed.model = model;
        self
    }

    /// The embedding dimension `d_e`.
    pub fn dim(mut self, dim: usize) -> Self {
        self.joint.embed.dim = dim;
        self
    }

    /// Embedding warm-up epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.joint.embed.epochs = epochs;
        self
    }

    /// Alignment epochs per training round.
    pub fn align_epochs(mut self, epochs: usize) -> Self {
        self.joint.align_epochs = epochs;
        self
    }

    /// The RNG seed controlling init and sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.joint.embed.seed = seed;
        self
    }

    /// Mini-batch execution mode (sparse/parallel fast path vs the dense
    /// verification oracle).
    pub fn train_mode(mut self, mode: TrainMode) -> Self {
        self.joint.embed.mode = mode;
        self
    }

    /// Shard count for sharded training (0 = auto, i.e.
    /// [`daakg_parallel::num_threads`]). The shard count fixes the bits of
    /// the trained model; execution width follows the `daakg-parallel`
    /// worker budget, so the same count trains the same model whether its
    /// shards run in parallel or in line (as they do inside the two KGs'
    /// concurrent warm-ups at two workers).
    pub fn threads(mut self, threads: usize) -> Self {
        self.joint.embed.threads = threads;
        self
    }

    /// Inference-closure configuration (consumed by the active loop).
    pub fn infer(mut self, cfg: InferConfig) -> Self {
        self.active.infer = cfg;
        self
    }

    /// Active-learning configuration (the `infer` field is kept in sync
    /// with [`PipelineBuilder::infer`], last call wins).
    pub fn active(mut self, cfg: ActiveConfig) -> Self {
        self.active = cfg;
        self
    }

    /// Question-selection strategy for [`PipelineBuilder::build_active`].
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Build an IVF approximate-search index with `nlist` inverted lists
    /// into every snapshot the service publishes. Validation (`nlist ≥ 1`)
    /// happens in [`PipelineBuilder::build`]; use
    /// [`PipelineBuilder::index_config`] for non-default k-means settings.
    pub fn index(mut self, nlist: usize) -> Self {
        self.serving.index = Some(IvfConfig::new(nlist));
        self
    }

    /// Replace the whole IVF index configuration (last call wins against
    /// [`PipelineBuilder::index`]).
    pub fn index_config(mut self, cfg: IvfConfig) -> Self {
        self.serving.index = Some(cfg);
        self
    }

    /// Make the service **durable**: persist every published snapshot
    /// crash-safely to `dir` and warm-restart from whatever intact
    /// versions the directory already holds (corrupt or torn files are
    /// skipped with typed diagnostics — inspect
    /// [`AlignmentService::recovery`] after building). The directory is
    /// created if missing; a fresh directory persists the initial
    /// publication immediately.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// Configure telemetry on the built service: metric registry, stage
    /// latency histograms, and the structured event journal (see
    /// [`daakg_telemetry`]). Telemetry is **enabled by default**; pass
    /// [`TelemetryConfig::disabled`] to turn every handle into a no-op —
    /// the disabled hot path costs one predictable branch per record.
    /// Inspect the built service through
    /// [`AlignmentService::telemetry`] (or
    /// [`ShardedService::telemetry`]) and render with
    /// [`Telemetry::render_prometheus`] / [`Telemetry::render_json`].
    ///
    /// [`Telemetry::render_prometheus`]: daakg_telemetry::Telemetry::render_prometheus
    /// [`Telemetry::render_json`]: daakg_telemetry::Telemetry::render_json
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.serving.telemetry = cfg;
        self
    }

    /// The default [`QueryMode`] of the service's plain query methods
    /// (`rank` / `top_k` / `batch_top_k`). Defaults to [`QueryMode::Exact`];
    /// `Approx` requires an index ([`PipelineBuilder::index`]) and
    /// `nprobe ≥ 1` — both checked at build time.
    pub fn query_mode(mut self, mode: QueryMode) -> Self {
        self.serving.mode = mode;
        self
    }

    /// Partition the right-KG corpus across `shards` scatter-gather
    /// partitions: column ranges of the snapshot's one candidate slab,
    /// scanned in place, each with its own IVF index when
    /// [`PipelineBuilder::index`] is set (one partition is the unsharded
    /// service). Every publish builds its version's partitions before
    /// readers see it. Switches the build target to
    /// [`PipelineBuilder::build_sharded`]; `1..=4096` is enforced there.
    /// Exact sharded answers are bitwise-identical to the unsharded
    /// service's.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Enable **live KG updates** on the built service: an append-only
    /// delta layer accepting [`AlignmentService::upsert_entity`] while
    /// serving, warm-start fine-tuned embeddings for the new rows, and a
    /// background compactor that folds pending deltas into the next
    /// published snapshot. With [`PipelineBuilder::store`], every upsert
    /// is acknowledged only after its checksummed record is appended to
    /// a preallocated delta log beside the snapshots and `fdatasync`ed
    /// (no file create or rename per upsert), so warm restarts recover
    /// base + uncompacted deltas; folds retire the log files they
    /// supersede once the folded snapshot has persisted. A store still
    /// holding an older release's per-upsert `.dseg` segment is refused
    /// at build time with a typed error naming the file. Validation
    /// (`compact_after ≥ 1`, warm-start hyper-parameters) happens at
    /// build time.
    pub fn live(mut self, cfg: LiveConfig) -> Self {
        self.live = Some(cfg);
        self
    }

    /// Put a micro-batching ingress in front of the sharded service:
    /// concurrent single queries are coalesced into batched kernel
    /// dispatches of at most `max_batch`. Implies
    /// [`PipelineBuilder::build_sharded`]; with no explicit
    /// [`PipelineBuilder::shards`] the shard count defaults to the worker
    /// thread count.
    pub fn ingress(mut self, cfg: IngressConfig) -> Self {
        self.ingress = Some(cfg);
        self
    }

    /// Validate the composed configuration and build the service.
    ///
    /// Fails with [`DaakgError::InvalidConfig`] if sharding options are
    /// set — [`PipelineBuilder::shards`] / [`PipelineBuilder::ingress`]
    /// describe a [`ShardedService`], which only
    /// [`PipelineBuilder::build_sharded`] produces; silently dropping
    /// them here would build a topology the caller didn't ask for.
    pub fn build(self) -> Result<AlignmentService, DaakgError> {
        self.reject_sharding("build")?;
        let (service, _) = self.build_parts()?;
        Ok(service)
    }

    /// Validate and build the service *plus* an [`ActiveLoop`] configured
    /// from the same builder, for active-alignment campaigns. Like
    /// [`PipelineBuilder::build`], rejects sharding options.
    pub fn build_active(self) -> Result<(AlignmentService, ActiveLoop), DaakgError> {
        self.reject_sharding("build_active")?;
        let (service, active) = self.build_parts()?;
        Ok((service, active))
    }

    /// Validate the composed configuration and build a scatter-gather
    /// [`ShardedService`]: the wrapped [`AlignmentService`] plus the
    /// shard partitioning from [`PipelineBuilder::shards`] (defaulting to
    /// the worker thread count) and, when configured, the micro-batching
    /// ingress from [`PipelineBuilder::ingress`].
    pub fn build_sharded(mut self) -> Result<ShardedService, DaakgError> {
        let shards = self
            .shards
            .take()
            .unwrap_or_else(daakg_parallel::num_threads);
        let ingress = self.ingress.take();
        let (service, _) = self.build_parts()?;
        match ingress {
            Some(cfg) => ShardedService::with_ingress(service, shards, cfg),
            None => ShardedService::new(service, shards),
        }
    }

    fn reject_sharding(&self, target: &str) -> Result<(), DaakgError> {
        if self.shards.is_some() || self.ingress.is_some() {
            return Err(DaakgError::invalid(
                "Pipeline",
                format!("shards/ingress configure a ShardedService — use build_sharded(), not {target}()"),
            ));
        }
        Ok(())
    }

    fn build_parts(self) -> Result<(AlignmentService, ActiveLoop), DaakgError> {
        let kg1 = self.kg1.ok_or(DaakgError::MissingInput { what: "kg1" })?;
        let kg2 = self.kg2.ok_or(DaakgError::MissingInput { what: "kg2" })?;
        self.joint.validate()?;
        let active = ActiveLoop::new(self.active, self.strategy)?;
        let mut service = match self.store {
            Some(dir) => AlignmentService::open(self.joint, self.serving, kg1, kg2, dir)?,
            None => AlignmentService::with_serving(self.joint, self.serving, kg1, kg2)?,
        };
        if let Some(cfg) = self.live {
            service.enable_live(cfg)?;
        }
        Ok((service, active))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daakg_align::LabeledMatches;
    use daakg_graph::kg::{example_dbpedia, example_wikidata};

    fn fast_builder() -> PipelineBuilder {
        Pipeline::builder()
            .kg1(example_dbpedia())
            .kg2(example_wikidata())
            .dim(8)
            .epochs(2)
            .align_epochs(2)
    }

    #[test]
    fn builder_composes_and_builds_a_live_service() {
        let service = fast_builder()
            .model(ModelKind::TransE)
            .train_mode(TrainMode::Sparse)
            .threads(2)
            .seed(11)
            .build()
            .unwrap();
        assert_eq!(service.version().get(), 1);
        let labels = LabeledMatches::new();
        let v = service.train(&labels).unwrap();
        assert_eq!(v.version.get(), 2);
        let top = service.top_k(0, 3).unwrap();
        assert_eq!(top.version, v.version);
        assert_eq!(top.value.len(), 3);
    }

    #[test]
    fn missing_inputs_are_typed_errors() {
        let err = Pipeline::builder().kg2(example_wikidata()).build();
        assert!(matches!(err, Err(DaakgError::MissingInput { what: "kg1" })));
        let err = Pipeline::builder().kg1(example_dbpedia()).build();
        assert!(matches!(err, Err(DaakgError::MissingInput { what: "kg2" })));
    }

    #[test]
    fn invalid_configs_are_rejected_at_build_time() {
        // RotatE needs an even dim: caught by the one-stop validation.
        let err = fast_builder().model(ModelKind::RotatE).dim(9).build();
        match err {
            Err(DaakgError::InvalidConfig { context, reason }) => {
                assert_eq!(context, "EmbedConfig");
                assert!(reason.contains("even"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Invalid active config is caught even when only building the
        // service (one pipeline, one validation story).
        let err = fast_builder()
            .active(ActiveConfig {
                batch_size: 0,
                ..ActiveConfig::default()
            })
            .build();
        assert!(matches!(err, Err(DaakgError::InvalidConfig { .. })));
    }

    #[test]
    fn index_and_query_mode_compose_and_validate() {
        // nlist = 0 is caught by the one-stop validation.
        let err = fast_builder().index(0).build();
        match err {
            Err(DaakgError::InvalidConfig { context, .. }) => assert_eq!(context, "IvfConfig"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Approx default mode without an index is rejected.
        let err = fast_builder()
            .query_mode(QueryMode::Approx { nprobe: 2 })
            .build();
        assert!(matches!(err, Err(DaakgError::InvalidConfig { .. })));
        // A valid composition serves approximate queries out of the box.
        let service = fast_builder()
            .index(3)
            .query_mode(QueryMode::Approx { nprobe: 3 })
            .build()
            .unwrap();
        let labels = LabeledMatches::new();
        service.train(&labels).unwrap();
        let plain = service.top_k(0, 3).unwrap();
        let exact = service
            .query(0, daakg_align::QueryOptions::top_k(3))
            .unwrap();
        // nprobe == nlist: the approximate default answers exactly.
        assert_eq!(plain.value, exact.value);
        // index_config overrides index (last call wins).
        let cfg = IvfConfig {
            max_iters: 3,
            seed: 7,
            ..IvfConfig::new(2)
        };
        let service = fast_builder()
            .index(9)
            .index_config(cfg.clone())
            .build()
            .unwrap();
        assert_eq!(service.serving().index.as_ref(), Some(&cfg));
    }

    #[test]
    fn store_builds_a_durable_service_that_warm_restarts() {
        let td = daakg_store::TestDir::new("pipeline-store");
        let build = || fast_builder().seed(5).store(td.path()).build().unwrap();
        let answers = {
            let service = build();
            assert!(service.is_durable());
            let labels = LabeledMatches::new();
            service.train(&labels).unwrap();
            service.top_k(0, 3).unwrap()
        };
        let service = build();
        // Restarted from disk: same latest version, bitwise-same answers.
        assert_eq!(service.version().get(), 2);
        assert_eq!(service.recovery().unwrap().loaded, vec![1, 2]);
        let restored = service.top_k(0, 3).unwrap();
        assert_eq!(restored.version, answers.version);
        for (a, b) in answers.value.iter().zip(&restored.value) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn build_sharded_composes_shards_and_ingress() {
        // Explicit shard count, no ingress.
        let sharded = fast_builder().shards(3).build_sharded().unwrap();
        assert_eq!(sharded.shards(), 3);
        assert!(sharded.ingress_config().is_none());
        // Sharded exact answers are bitwise-identical to unsharded ones.
        let unsharded = fast_builder().build().unwrap();
        let a = sharded.top_k(0, 3).unwrap();
        let b = unsharded.top_k(0, 3).unwrap();
        assert_eq!(a.version, b.version);
        for ((ia, sa), (ib, sb)) in a.value.iter().zip(&b.value) {
            assert_eq!(ia, ib);
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
        // Ingress without shards: shard count defaults to the thread
        // count, and the window is running.
        let window = daakg_align::IngressConfig::default();
        let sharded = fast_builder().ingress(window).build_sharded().unwrap();
        assert_eq!(sharded.shards(), daakg_parallel::num_threads());
        assert_eq!(sharded.ingress_config(), Some(window));
        assert_eq!(sharded.top_k(0, 3).unwrap().value.len(), 3);

        // Shard count is validated with a typed error.
        let err = fast_builder().shards(0).build_sharded();
        assert!(matches!(err, Err(DaakgError::InvalidConfig { .. })));
    }

    #[test]
    fn sharding_options_reject_the_unsharded_builds() {
        let err = fast_builder().shards(2).build();
        match err {
            Err(DaakgError::InvalidConfig { context, reason }) => {
                assert_eq!(context, "Pipeline");
                assert!(reason.contains("build_sharded"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let err = fast_builder()
            .ingress(daakg_align::IngressConfig::default())
            .build_active();
        assert!(matches!(err, Err(DaakgError::InvalidConfig { .. })));
    }

    #[test]
    fn telemetry_hook_configures_the_built_service() {
        // Default build: telemetry enabled, stages record.
        let service = fast_builder().build().unwrap();
        assert!(service.telemetry().is_enabled());
        service.top_k(0, 3).unwrap();
        let text = service.telemetry().render_prometheus();
        assert!(
            text.contains("daakg_stage_exact_scan_seconds_count 1"),
            "{text}"
        );
        // Disabled build: every handle is a no-op, answers identical.
        let dark = fast_builder()
            .telemetry(TelemetryConfig::disabled())
            .build()
            .unwrap();
        assert!(!dark.telemetry().is_enabled());
        let a = service.top_k(0, 3).unwrap();
        let b = dark.top_k(0, 3).unwrap();
        for ((ia, sa), (ib, sb)) in a.value.iter().zip(&b.value) {
            assert_eq!(ia, ib);
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
        assert!(dark.telemetry().render_prometheus().is_empty());
        // The hook flows through the sharded build too.
        let sharded = fast_builder()
            .telemetry(TelemetryConfig {
                journal_capacity: 8,
                ..TelemetryConfig::default()
            })
            .shards(2)
            .build_sharded()
            .unwrap();
        assert_eq!(sharded.telemetry().config().journal_capacity, 8);
    }

    #[test]
    fn build_active_returns_a_configured_loop() {
        let (service, active) = fast_builder()
            .active(ActiveConfig {
                rounds: 1,
                batch_size: 1,
                ..ActiveConfig::default()
            })
            .strategy(Strategy::Margin)
            .build_active()
            .unwrap();
        assert_eq!(active.config().rounds, 1);
        assert_eq!(service.kg1().name(), "DBpedia");
    }
}
