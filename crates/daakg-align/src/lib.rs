//! # daakg-align
//!
//! The embedding-based joint alignment module of DAAKG (Sect. 4.2).
//!
//! Given two KGs with entity–relation embedding models (from `daakg-embed`),
//! this crate aligns entities, relations and classes simultaneously:
//!
//! * [`mapping`] — the learnable mapping matrices `A_ent`, `A_rel`, `A_cls`
//!   transporting embeddings of `G` into the space of `G'` (Eq. 4),
//! * [`weights`] — dangling-entity weights `w_e = max_{e'} S(e, e')`
//!   (Eq. 6),
//! * [`mean_embed`] — weighted mean embeddings for relations (Eq. 7) and
//!   classes (Eq. 9) that transport entity-level evidence to the schema
//!   level,
//! * [`batched`] — the batched similarity engine: pre-normalized
//!   matrices, block matmul scoring, bounded-heap top-k selection,
//! * [`snapshot`] — a tape-free [`AlignmentSnapshot`] with all similarity
//!   functions `S(·,·)`, ranking served by the batched engine,
//! * [`losses`] — the softmax alignment losses `O_ea`, `O_ra`, `O_ca`
//!   (Eq. 5, 8), the focal fine-tuning variant, and the semi-supervised loss
//!   `O_semi` (Eq. 10),
//! * [`semi`] — potential-match mining with conflict resolution,
//! * [`calibrate`] — temperature-scaled alignment probabilities
//!   (Eq. 11–12),
//! * [`joint`] — [`JointModel`], the orchestrating type whose
//!   `train`/`fine_tune` drive the whole module,
//! * [`service`] — [`AlignmentService`], the concurrent serve-while-train
//!   layer: a registry of immutable, versioned snapshots behind one
//!   short-held lock; queries run on whatever version they grab while
//!   training publishes new versions. With a [`ServingConfig`] index, each
//!   publication carries a lazily-built `daakg_index::IvfIndex` and
//!   queries can run in sublinear [`QueryMode::Approx`],
//! * [`persist`] — crash-safe durability: the checksummed snapshot codec
//!   on the `daakg-store` section format and [`DurableRegistry`], the
//!   on-disk version registry that `AlignmentService::open` warm-restarts
//!   from, skipping corrupt or torn files with typed diagnostics,
//! * [`query`] — [`QueryExecutor`], the unified options-based query
//!   surface both serving front-ends implement,
//! * [`shard`] — the partitioned serving core every query runs through
//!   (one partition for an [`AlignmentService`], column ranges of the
//!   snapshot's one slab with per-partition IVF indexes, built at each
//!   publish) and [`ShardedService`], its `n`-partition front-end, merged
//!   bitwise-identically to the unsharded scan,
//! * [`ingress`] — the micro-batching ingress coalescing concurrent
//!   single queries into batched kernel dispatches under a window
//!   derived from the previous dispatch ([`IngressConfig`]) — with
//!   overload resilience: bounded-queue admission control, per-query
//!   deadlines, panic isolation at the dispatch boundary, typed
//!   shutdown, and opt-in graceful degradation ([`DegradePolicy`]),
//! * [`delta`] — **live KG updates**: an append-only delta layer
//!   ([`AlignmentService::upsert_entity`]) accepting new right-KG
//!   entities while serving, warm-start fine-tuned embeddings
//!   (`daakg_embed::warm_start_row`), a background compactor folding
//!   deltas into the next published snapshot, and crash-safe delta
//!   segments so durable services warm-restart with base + uncompacted
//!   deltas. Delta-merged answers are bitwise-equal to an exact scan
//!   over the union corpus.

#![forbid(unsafe_code)]

pub mod batched;
pub mod calibrate;
pub mod config;
pub mod delta;
pub mod ingress;
pub mod joint;
pub mod losses;
pub mod mapping;
pub mod mean_embed;
pub mod persist;
pub mod query;
pub mod semi;
pub mod service;
pub mod shard;
pub mod snapshot;
pub(crate) mod telem;
pub mod weights;

pub use batched::BatchedSimilarity;
pub use config::JointConfig;
pub use delta::{DeltaEntry, DeltaRecovery, DeltaTriple, LiveConfig, LiveHealth};
// Serving-mode types live in `daakg-index`; re-exported here because the
// service API consumes them.
pub use daakg_index::{IvfConfig, IvfIndex, QueryMode, QueryOptions};
pub use ingress::{DegradePolicy, IngressConfig, IngressStats, PendingAnswer};
pub use joint::{JointModel, LabeledMatches, TrainSpans};
pub use persist::{DurableRegistry, RecoveryReport};
pub use query::QueryExecutor;
pub use service::{
    AlignmentService, Served, ServiceHealth, ServingConfig, SnapshotRegistry, SnapshotVersion,
    Versioned, VersionedSnapshot,
};
pub use shard::ShardedService;
pub use snapshot::AlignmentSnapshot;
// Telemetry types surface through the service API
// (`AlignmentService::telemetry`), so re-export the crate here too.
pub use daakg_telemetry::{Event, EventJournal, EventKind, Telemetry, TelemetryConfig};
