//! The concurrent serve-while-train service: [`AlignmentService`].
//!
//! The free-standing path (`JointModel::train` → [`AlignmentSnapshot`] →
//! `rank_entities`) is batch-shaped: every retrain invalidates the
//! snapshot the caller holds, and nothing coordinates queries with
//! training. This module wraps that engine in a service with a **versioned
//! snapshot registry**:
//!
//! * training methods ([`AlignmentService::train`],
//!   [`AlignmentService::align_rounds`],
//!   [`AlignmentService::fine_tune_with_inferred`]) serialize on an
//!   internal model lock and *publish* each finished snapshot as an
//!   immutable [`Arc<AlignmentSnapshot>`] stamped with a monotonically
//!   increasing [`SnapshotVersion`];
//! * query methods ([`AlignmentService::rank`], [`AlignmentService::top_k`],
//!   [`AlignmentService::batch_top_k`]) grab the current publication —
//!   one short registry lock and one `Arc` clone — and run on that
//!   version for their whole duration without holding any lock. Every
//!   answer carries the version it was computed on ([`Versioned`]), so
//!   callers can reason about staleness and verify results against the
//!   exact snapshot that produced them ([`AlignmentService::snapshot_at`]).
//!
//! Readers never wait on training: the registry lock guards only the
//! list of publications, and a reader that grabbed version `v` keeps
//! using it while version `v+1` is being trained and published — even
//! after `v` is pruned from the history, since the reader's `Arc` keeps
//! it alive.
//!
//! With a [`ServingConfig`] carrying an IVF configuration, every
//! publication is additionally stamped with it, so each version owns a
//! lazily-built, never-rebuilt [`daakg_index::IvfIndex`] and queries can
//! run in [`QueryMode::Approx`] — sublinear scans over the probed
//! inverted lists — either as the service default or per call through
//! [`AlignmentService::query`] / [`AlignmentService::query_batch`] with
//! explicit [`QueryOptions`]. The default remains [`QueryMode::Exact`].
//!
//! A service built with [`AlignmentService::open`] is additionally
//! **durable**: every publication is persisted crash-safely through
//! [`crate::persist::DurableRegistry`], and reopening the same directory
//! warm-restarts from the newest intact versions — skipping corrupt or
//! torn files with typed diagnostics, resuming version numbering
//! monotonically, and serving bitwise-identical answers from the
//! restored snapshots.

use crate::config::JointConfig;
use crate::delta::{
    self, Compactor, DeltaBuffer, DeltaEntry, DeltaLog, DeltaRecovery, DeltaSlab, DeltaTriple,
    LiveConfig, LiveHealth, LiveStats,
};
use crate::ingress::{lock_recover, IngressStats};
use crate::joint::{JointModel, LabeledMatches};
use crate::persist::{DurableRegistry, RecoveryReport};
use crate::shard::ServingSet;
use crate::snapshot::{AlignmentSnapshot, SnapshotParts};
use crate::telem::ServiceTelemetry;
use daakg_autograd::Tensor;
use daakg_embed::warm_start_row_observed;
use daakg_graph::{DaakgError, KnowledgeGraph};
use daakg_index::scan::normalize_rows_cosine;
use daakg_index::{IvfConfig, QueryMode, QueryOptions};
use daakg_telemetry::{EventKind, HistogramHandle, Telemetry, TelemetryConfig};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serving-side configuration of an [`AlignmentService`]: whether
/// published snapshots carry an IVF index, and which [`QueryMode`] the
/// plain query methods default to.
///
/// The default is index-less exact serving — precisely the pre-index
/// behavior. With an index configured, every published snapshot carries
/// the configuration and builds its index lazily (at most once per
/// version, shared by all readers of that version); `mode` then selects
/// what [`AlignmentService::rank`] / [`AlignmentService::top_k`] /
/// [`AlignmentService::batch_top_k`] do, with
/// [`AlignmentService::query`] / [`AlignmentService::query_batch`] and
/// explicit [`QueryOptions`] overriding per call.
#[derive(Debug, Clone, Default)]
pub struct ServingConfig {
    /// Build an IVF index into every published snapshot.
    pub index: Option<IvfConfig>,
    /// Default execution mode of the plain query methods.
    pub mode: QueryMode,
    /// Telemetry wiring: metrics registry, stage histograms, and the
    /// event journal surfaced through [`AlignmentService::telemetry`].
    /// Enabled by default; [`TelemetryConfig::disabled`] makes every
    /// record a no-op (durability health stays live either way — see
    /// [`AlignmentService::health`]).
    pub telemetry: TelemetryConfig,
}

impl ServingConfig {
    /// Exact serving with an IVF index available for `Approx` queries.
    pub fn with_index(nlist: usize) -> Self {
        Self {
            index: Some(IvfConfig::new(nlist)),
            mode: QueryMode::Exact,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Validate the composed serving configuration.
    pub fn validate(&self) -> Result<(), DaakgError> {
        if let Some(cfg) = &self.index {
            cfg.validate()?;
        }
        self.mode.validate(self.index.is_some())
    }
}

/// Monotonically increasing identifier of one published snapshot.
///
/// Versions start at 1 (the service's initial publication) and increase by
/// exactly 1 per publish, with no gaps — concurrent publishers are
/// serialized by the registry, so observing version `v` implies versions
/// `1..=v` were all published, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotVersion(u64);

impl SnapshotVersion {
    /// The raw version counter.
    pub fn get(self) -> u64 {
        self.0
    }

    /// A handle for a raw counter value — e.g. to sweep
    /// [`AlignmentService::snapshot_at`] over a recorded range. A value
    /// that was never published simply resolves to `None` there.
    pub fn of(version: u64) -> Self {
        Self(version)
    }
}

impl fmt::Display for SnapshotVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A published snapshot together with its version stamp.
#[derive(Debug, Clone)]
pub struct VersionedSnapshot {
    /// The version this snapshot was published as.
    pub version: SnapshotVersion,
    /// The immutable snapshot itself.
    pub snapshot: Arc<AlignmentSnapshot>,
}

/// One ranked answer: `(right entity, score)` pairs, best first.
pub type Ranking = Vec<(u32, f32)>;

/// A query answer stamped with the snapshot version it was computed on.
#[derive(Debug, Clone, PartialEq)]
pub struct Versioned<T> {
    /// The snapshot version the query ran against.
    pub version: SnapshotVersion,
    /// The query result.
    pub value: T,
    /// How many live delta entries ([`AlignmentService::upsert_entity`])
    /// were merged into this answer beyond the snapshot's own corpus.
    /// `0` means the answer came from the published snapshot alone.
    pub deltas_merged: u32,
}

/// A query answer stamped with the snapshot version it was computed on
/// **and** the [`QueryMode`] it was actually served under.
///
/// The serving layer may answer an `Exact` request approximately when an
/// opt-in [`crate::DegradePolicy`] is engaged under overload; this stamp
/// makes that substitution observable per answer, so callers relying on
/// the bitwise-exactness guarantee can check `served == QueryMode::Exact`
/// rather than trusting the request mode they asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct Served<T> {
    /// The snapshot version the query ran against.
    pub version: SnapshotVersion,
    /// The query result.
    pub value: T,
    /// How many live delta entries were merged into this answer (see
    /// [`Versioned::deltas_merged`]).
    pub deltas_merged: u32,
    /// The execution mode actually used (may differ from the requested
    /// mode only under an engaged [`crate::DegradePolicy`]).
    pub served: QueryMode,
}

/// Liveness and durability health of a serving stack, surfaced so a
/// failing disk (or engaged degradation) is observable without parsing
/// logs — in-memory serving keeps answering either way.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceHealth {
    /// `true` while the most recent persist attempt failed: publications
    /// are serving from memory without durability. Cleared by the next
    /// successful persist.
    pub durability_degraded: bool,
    /// The most recent persist error, rendered; `None` when the last
    /// persist succeeded (or none was attempted).
    pub last_persist_error: Option<String>,
    /// Publications whose persist failed even after retries.
    pub persist_failures: u64,
    /// Persist attempts that were backoff retries of a transient IO
    /// failure (successful recoveries included).
    pub persist_retries: u64,
    /// Whether an ingress [`crate::DegradePolicy`] is currently engaged
    /// (always `false` for a bare [`AlignmentService`] — degradation is
    /// an ingress-level mechanism).
    pub degrade_engaged: bool,
    /// Ingress admission/dispatch counters — `Some` only for a
    /// [`crate::ShardedService`] with an ingress attached, so overload
    /// state and durability state read as one coherent view.
    pub ingress: Option<IngressStats>,
    /// Live-update counters (delta depth, compaction lag) — `Some` only
    /// when the live subsystem is enabled
    /// ([`AlignmentService::enable_live`]).
    pub live: Option<LiveHealth>,
}

/// The durable store together with the service's telemetry bundle — one
/// shareable unit, because the background compactor persists folded
/// publications through exactly the same retry/degradation path as
/// training publications, and records into the same stage histograms and
/// journal.
///
/// Durability health lives in the bundle's always-live cells
/// ([`ServiceTelemetry`]); only the most recent persist *error string*
/// needs interior mutability here.
#[derive(Debug)]
struct PersistState {
    store: Option<DurableRegistry>,
    telem: ServiceTelemetry,
    last_persist_error: Mutex<Option<String>>,
}

impl PersistState {
    fn new(store: Option<DurableRegistry>, telem: ServiceTelemetry) -> Self {
        Self {
            store,
            telem,
            last_persist_error: Mutex::new(None),
        }
    }

    /// Persist one publication to the durable store, if configured.
    /// Transient IO failures are retried with bounded exponential backoff
    /// ([`daakg_store::store::retry_with_backoff`]); the final error
    /// still propagates to the caller, but the in-memory publish stands —
    /// readers already serve the new version; only its durability failed,
    /// which the health cells and the event journal record so a failing
    /// disk is observable without taking down serving.
    fn persist(&self, published: &VersionedSnapshot) -> Result<(), DaakgError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let version = published.version.get();
        let _span = self.telem.persist.span();
        let result = daakg_store::store::retry_with_backoff(
            3,
            std::time::Duration::from_millis(1),
            |attempt| {
                if attempt > 0 {
                    self.telem.persist_retries.incr();
                    self.telem.event(EventKind::PersistRetry {
                        version,
                        attempt: attempt as u32,
                    });
                }
                store.save(version, &published.snapshot)
            },
        );
        let mut last_error = lock_recover(&self.last_persist_error);
        match &result {
            Ok(()) => {
                self.telem.durability_degraded.set(0);
                *last_error = None;
            }
            Err(e) => {
                self.telem.persist_failures.incr();
                self.telem.durability_degraded.set(1);
                self.telem.event(EventKind::PersistFailure {
                    version,
                    error: e.to_string(),
                });
                *last_error = Some(e.to_string());
            }
        }
        result
    }
}

/// The live-update subsystem attached to a service by
/// [`AlignmentService::enable_live`].
struct LiveState {
    cfg: LiveConfig,
    /// The append-only delta corpus, shared with the compactor.
    buffer: Arc<DeltaBuffer>,
    /// The durable delta log of a durable service, shared with the
    /// compactor (which rolls and retires its files).
    log: Option<Arc<DeltaLog>>,
    /// Compaction counters, shared with the compactor.
    stats: Arc<LiveStats>,
    /// Serializes upserts, so the id a warm start was computed for is
    /// still the next id when its record is logged. The log's own lock
    /// (not this one) makes the validate → `fdatasync` → buffer-append
    /// step atomic against re-anchors.
    upsert_lock: Mutex<()>,
    /// Serializes folds between the compactor thread and `compact_now`.
    fold_lock: Arc<Mutex<()>>,
    /// The background compaction thread; dropped (stop + join) with the
    /// service.
    compactor: Option<Compactor>,
    /// What delta-log replay found on a warm restart.
    recovery: Option<DeltaRecovery>,
}

/// The versioned snapshot registry: serialized publication, retained
/// history, exact pruning, and the newest version's serving set.
///
/// One mutex guards the ordered history of publications; its newest
/// entry is the current version. Every operation holds the lock only to
/// read or edit that short list: [`SnapshotRegistry::current`] clones one
/// `Arc` and unlocks, so readers never wait on training or on a
/// snapshot's destruction. Each entry is an `Arc`, so a reader that still
/// holds a pruned version keeps it alive until it lets go, and pruning is
/// exact — it never waits on readers.
///
/// Publishers assign versions under the same lock, so versions are dense
/// and monotone even under concurrent publishes, and the current entry
/// always carries the highest one.
///
/// Every publish first builds the new version's serving set (its corpus
/// partitions, see [`crate::shard`]) on the publishing thread, outside
/// the lock, and installs it with the version in one step; readers take
/// both in one lock acquisition, so no query ever builds one. Only the
/// newest version has a set here: a reader still on an older version
/// holds that version's set through its own `Arc`.
///
/// # Reclamation
///
/// Publications are retained so [`SnapshotRegistry::get`] (and thus
/// per-version oracle verification of live query traffic) works. Two
/// calls bound the memory, both through `&self`:
///
/// * [`SnapshotRegistry::set_retention`] — an at-publish policy: each
///   publish keeps only the newest `keep` versions;
/// * [`SnapshotRegistry::prune`] — the same cut on demand.
///
/// Pruned entries are dropped after the lock is released, so freeing a
/// snapshot's tensors never stalls a reader.
pub struct SnapshotRegistry {
    /// Each update leaves the state valid, so a poisoned lock is recovered.
    state: Mutex<Published>,
    /// Publications to keep at publish time; `usize::MAX` = all of them.
    retention: AtomicUsize,
    /// Corpus partitions every serving set is built with. Stored before
    /// [`SnapshotRegistry::set_shards`] takes the lock and re-checked by
    /// publishers under it, so a set built for a stale count is never
    /// installed.
    shards: AtomicUsize,
    /// `stage_serving_build_ns`: one sample per serving-set build.
    build_span: HistogramHandle,
}

/// The registry's locked state.
struct Published {
    /// Every retained publication, ascending by version; never empty.
    history: Vec<VersionedSnapshot>,
    /// The serving set of the newest entry of `history`.
    serving: Arc<ServingSet>,
}

impl Published {
    fn latest(&self) -> &VersionedSnapshot {
        self.history.last().expect("history is never empty")
    }
}

/// Detach all entries of `history` except the newest `keep` (at least one).
fn cut(history: &mut Vec<VersionedSnapshot>, keep: usize) -> Vec<VersionedSnapshot> {
    let keep = keep.max(1).min(history.len());
    history.drain(..history.len() - keep).collect()
}

impl SnapshotRegistry {
    /// A registry whose first publication (version 1) is `initial`.
    pub fn new(initial: AlignmentSnapshot) -> Self {
        Self::from_entries(vec![(1, initial)])
    }

    /// A registry re-seeded from recovered `(version, snapshot)` pairs
    /// (ascending, non-empty) — the warm-restart counterpart of
    /// [`SnapshotRegistry::new`]. The newest recovered version becomes
    /// `current`, and the next publish continues from it (`latest + 1`),
    /// so version numbering resumes monotonically across restarts even
    /// when corrupt intermediate versions were skipped.
    pub fn from_entries(entries: Vec<(u64, AlignmentSnapshot)>) -> Self {
        Self::observed(entries, HistogramHandle::default())
    }

    /// [`SnapshotRegistry::from_entries`], timing serving-set builds into
    /// `build_span`.
    pub(crate) fn observed(
        entries: Vec<(u64, AlignmentSnapshot)>,
        build_span: HistogramHandle,
    ) -> Self {
        assert!(
            !entries.is_empty() && entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_entries needs a non-empty history, ascending by version"
        );
        let history: Vec<_> = entries
            .into_iter()
            .map(|(v, s)| VersionedSnapshot {
                version: SnapshotVersion(v),
                snapshot: Arc::new(s),
            })
            .collect();
        let serving = ServingSet::build(&history[history.len() - 1].snapshot, 1, &build_span);
        Self {
            state: Mutex::new(Published { history, serving }),
            retention: AtomicUsize::new(usize::MAX),
            shards: AtomicUsize::new(1),
            build_span,
        }
    }

    /// Publish `snapshot` as the new current version and return its stamp.
    ///
    /// Publishers serialize on the registry lock; readers observe the new
    /// version atomically. When a retention policy is set
    /// ([`SnapshotRegistry::set_retention`]), older publications are
    /// pruned in the same step.
    pub fn publish(&self, snapshot: AlignmentSnapshot) -> SnapshotVersion {
        self.publish_pinned(snapshot).version
    }

    /// [`SnapshotRegistry::publish`], but hand back the published entry
    /// itself. Publishers that need the exact snapshot they published
    /// (e.g. to keep training on it) use this instead of re-reading
    /// `current`, which a concurrent publisher may already have advanced.
    pub fn publish_pinned(&self, snapshot: AlignmentSnapshot) -> VersionedSnapshot {
        self.push(snapshot, None).expect("unconditional publish")
    }

    /// Publish `snapshot` only if the latest version is still `expected`
    /// — the compare-and-publish the background compactor uses, so a fold
    /// derived from version `v` can never overwrite a training publish
    /// that landed concurrently. Returns `None` (dropping the snapshot)
    /// when the registry has moved past `expected`.
    pub fn publish_if_current(
        &self,
        snapshot: AlignmentSnapshot,
        expected: SnapshotVersion,
    ) -> Option<VersionedSnapshot> {
        self.push(snapshot, Some(expected))
    }

    /// The one publish path: build the serving set, then under the lock
    /// check `expected`, assign the next version, append it with its set,
    /// and apply retention; drop the pruned entries after unlocking. A set
    /// built while [`SnapshotRegistry::set_shards`] changed the partition
    /// count is rebuilt.
    fn push(
        &self,
        snapshot: AlignmentSnapshot,
        expected: Option<SnapshotVersion>,
    ) -> Option<VersionedSnapshot> {
        let snapshot = Arc::new(snapshot);
        loop {
            if expected.is_some_and(|v| v != self.version()) {
                return None;
            }
            let shards = self.shards.load(Ordering::Acquire);
            let serving = ServingSet::build(&snapshot, shards, &self.build_span);
            let mut state = lock_recover(&self.state);
            let latest = state.latest().version;
            if expected.is_some_and(|v| v != latest) {
                return None;
            }
            if self.shards.load(Ordering::Acquire) != shards {
                continue;
            }
            let published = VersionedSnapshot {
                version: SnapshotVersion(latest.0 + 1),
                snapshot: Arc::clone(&snapshot),
            };
            state.history.push(published.clone());
            state.serving = serving;
            let pruned = cut(&mut state.history, self.retention.load(Ordering::Relaxed));
            drop(state);
            drop(pruned);
            return Some(published);
        }
    }

    /// Build every later serving set with `shards` corpus partitions, and
    /// re-stamp the current version with one.
    pub(crate) fn set_shards(&self, shards: usize) {
        self.shards.store(shards, Ordering::Release);
        loop {
            let (cur, serving) = self.serving();
            if serving.shards() == shards {
                return;
            }
            let rebuilt = ServingSet::build(&cur.snapshot, shards, &self.build_span);
            let mut state = lock_recover(&self.state);
            if state.latest().version == cur.version {
                state.serving = rebuilt;
                return;
            }
        }
    }

    /// The corpus partition count of the serving sets.
    pub(crate) fn shards(&self) -> usize {
        self.shards.load(Ordering::Acquire)
    }

    /// The latest publication and its serving set, in one lock
    /// acquisition.
    pub(crate) fn serving(&self) -> (VersionedSnapshot, Arc<ServingSet>) {
        let state = lock_recover(&self.state);
        (state.latest().clone(), Arc::clone(&state.serving))
    }

    /// The latest publication — one short lock and one `Arc` clone.
    pub fn current(&self) -> VersionedSnapshot {
        lock_recover(&self.state).latest().clone()
    }

    /// The latest published version.
    pub fn version(&self) -> SnapshotVersion {
        self.current().version
    }

    /// A specific retained publication, if it has not been pruned.
    pub fn get(&self, version: SnapshotVersion) -> Option<VersionedSnapshot> {
        let state = lock_recover(&self.state);
        let idx = state
            .history
            .binary_search_by_key(&version, |e| e.version)
            .ok()?;
        Some(state.history[idx].clone())
    }

    /// [`SnapshotRegistry::get`] with a typed diagnosis instead of
    /// `None`: a missing version at or below the latest was published but
    /// pruned out of retention (or skipped as corrupt during recovery),
    /// while a version above the latest (or 0) was never published.
    pub fn get_checked(&self, version: SnapshotVersion) -> Result<VersionedSnapshot, DaakgError> {
        self.get(version).ok_or_else(|| {
            let latest = self.version().0;
            DaakgError::UnknownVersion {
                requested: version.0,
                latest,
                pruned: (1..=latest).contains(&version.0),
            }
        })
    }

    /// Number of retained publications.
    pub fn retained(&self) -> usize {
        lock_recover(&self.state).history.len()
    }

    /// Set the at-publish retention policy: after each publish, keep only
    /// the newest `keep` publications (0 restores unbounded retention).
    pub fn set_retention(&self, keep: usize) {
        let keep = if keep == 0 { usize::MAX } else { keep };
        self.retention.store(keep, Ordering::Relaxed);
    }

    /// Drop all retained publications except the newest `keep` (at least
    /// the current one is always kept) and return how many were dropped.
    /// Readers holding a dropped version keep it alive through its `Arc`.
    pub fn prune(&self, keep: usize) -> usize {
        let pruned = cut(&mut lock_recover(&self.state).history, keep);
        pruned.len()
    }
}

/// The concurrent alignment service: owns the KG pair and the
/// [`JointModel`], serves versioned queries while training.
///
/// The service is `Send + Sync`; share it across threads as
/// `Arc<AlignmentService>` (or plain `&` borrows under
/// `std::thread::scope`) and call query and training methods concurrently
/// — queries see the latest *published* snapshot and are never blocked by
/// an in-flight training call.
///
/// Construct directly with [`AlignmentService::new`] or through the
/// `daakg::Pipeline` builder.
pub struct AlignmentService {
    kg1: Arc<KnowledgeGraph>,
    kg2: Arc<KnowledgeGraph>,
    /// The training side. One training call at a time; queries never take
    /// this lock.
    model: Mutex<JointModel>,
    /// Shared with the background compactor thread (when live updates are
    /// enabled), which publishes folded snapshots through it.
    registry: Arc<SnapshotRegistry>,
    /// Index + default-mode configuration, fixed at construction; every
    /// published snapshot is stamped with `serving.index` before it is
    /// published, so a version and its index travel together.
    serving: ServingConfig,
    /// Durable store + durability-health counters, shared with the
    /// compactor so folded publications persist with the same retry /
    /// degradation discipline as training publications.
    durable: Arc<PersistState>,
    /// What [`AlignmentService::open`] found on disk; `None` for
    /// non-durable or fresh-directory services.
    recovery: Option<RecoveryReport>,
    /// The live-update subsystem (delta buffer + compactor), when enabled.
    live: Option<LiveState>,
}

impl fmt::Debug for AlignmentService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignmentService")
            .field("kg1", &self.kg1.name())
            .field("kg2", &self.kg2.name())
            .field("version", &self.version())
            .field("retained_versions", &self.retained_versions())
            .field("store", &self.durable.store.as_ref().map(|s| s.dir()))
            .field("live", &self.live.is_some())
            .finish_non_exhaustive()
    }
}

impl AlignmentService {
    /// Build the joint model for the KG pair and publish version 1 (the
    /// untrained init), so queries are answerable immediately. Serves
    /// exact queries with no index — see
    /// [`AlignmentService::with_serving`] for approximate serving.
    pub fn new(
        cfg: JointConfig,
        kg1: Arc<KnowledgeGraph>,
        kg2: Arc<KnowledgeGraph>,
    ) -> Result<Self, DaakgError> {
        Self::with_serving(cfg, ServingConfig::default(), kg1, kg2)
    }

    /// [`AlignmentService::new`] with an explicit [`ServingConfig`]: an
    /// optional per-snapshot IVF index and the default [`QueryMode`] of
    /// the plain query methods. The configuration is validated up front.
    pub fn with_serving(
        cfg: JointConfig,
        serving: ServingConfig,
        kg1: Arc<KnowledgeGraph>,
        kg2: Arc<KnowledgeGraph>,
    ) -> Result<Self, DaakgError> {
        serving.validate()?;
        let telem = ServiceTelemetry::new(serving.telemetry.clone());
        let mut model = JointModel::new(cfg, &kg1, &kg2)?;
        model.set_spans(telem.training.clone());
        let mut initial = model.snapshot(&kg1, &kg2);
        initial.set_index_config(serving.index.clone());
        let registry = SnapshotRegistry::observed(vec![(1, initial)], telem.serving_build.clone());
        let svc = Self {
            registry: Arc::new(registry),
            model: Mutex::new(model),
            kg1,
            kg2,
            serving,
            durable: Arc::new(PersistState::new(None, telem)),
            recovery: None,
            live: None,
        };
        svc.note_publish(svc.registry.current().version.get());
        Ok(svc)
    }

    /// A **durable** service: persist every publication crash-safely to
    /// `dir` and warm-restart from whatever intact versions the directory
    /// already holds.
    ///
    /// * Fresh (or fully corrupt) directory: behaves like
    ///   [`AlignmentService::with_serving`] and immediately persists the
    ///   initial publication as version 1.
    /// * Populated directory: every intact version is validated
    ///   (checksums, structure, semantic consistency) and re-seeded into
    ///   the registry; corrupt or torn files are skipped with typed
    ///   diagnostics in [`AlignmentService::recovery`], recovery degrades
    ///   to the newest intact version, and the next publication resumes
    ///   numbering at `latest_intact + 1`. Restored snapshots answer
    ///   queries bitwise-identically to the services that saved them.
    ///
    /// Snapshots restored with an index configuration matching
    /// `serving.index` serve the *persisted* index without re-clustering;
    /// on a configuration change the index is lazily rebuilt under the
    /// new configuration instead. Only serving state is durable — the
    /// training model restarts from its seeded initialization, so
    /// continued training explores anew while queries keep answering from
    /// the restored versions.
    pub fn open(
        cfg: JointConfig,
        serving: ServingConfig,
        kg1: Arc<KnowledgeGraph>,
        kg2: Arc<KnowledgeGraph>,
        dir: impl Into<PathBuf>,
    ) -> Result<Self, DaakgError> {
        serving.validate()?;
        let telem = ServiceTelemetry::new(serving.telemetry.clone());
        let mut store = DurableRegistry::open(dir)?;
        store.set_spans(telem.store.clone());
        let (mut entries, report) = store.recover()?;
        let mut model = JointModel::new(cfg, &kg1, &kg2)?;
        model.set_spans(telem.training.clone());
        let fresh = entries.is_empty();
        let entries = if fresh {
            let mut initial = model.snapshot(&kg1, &kg2);
            initial.set_index_config(serving.index.clone());
            vec![(1, initial)]
        } else {
            for (_, snap) in &mut entries {
                // Reconcile a serving-config change across the restart:
                // re-stamping resets the lazy index cell, so queries
                // rebuild under the new configuration instead of serving
                // a stale persisted index (or panicking on a missing
                // one).
                if snap.index_config() != serving.index.as_ref() {
                    snap.set_index_config(serving.index.clone());
                }
            }
            entries
        };
        let registry = SnapshotRegistry::observed(entries, telem.serving_build.clone());
        let svc = Self {
            registry: Arc::new(registry),
            model: Mutex::new(model),
            kg1,
            kg2,
            serving,
            durable: Arc::new(PersistState::new(Some(store), telem)),
            recovery: Some(report),
            live: None,
        };
        if fresh {
            let cur = svc.registry.current();
            svc.note_publish(cur.version.get());
            svc.persist(&cur)?;
        }
        Ok(svc)
    }

    /// The telemetry surface of this service: the metrics registry
    /// (counters, gauges, stage histograms), the structured event
    /// journal, and the Prometheus/JSON exposition built over them. When
    /// constructed with [`TelemetryConfig::disabled`] every recording is
    /// a no-op and exposition renders empty.
    pub fn telemetry(&self) -> &Telemetry {
        &self.durable.telem.telemetry
    }

    /// The full handle bundle (crate-internal: the sharded front-end and
    /// its ingress record into the same cells).
    pub(crate) fn telem(&self) -> &ServiceTelemetry {
        &self.durable.telem
    }

    /// Count + journal one snapshot publication.
    fn note_publish(&self, version: u64) {
        let t = self.telem();
        t.snapshot_publish.incr();
        t.event(EventKind::SnapshotPublish { version });
    }

    /// Persist one publication through the shared [`PersistState`] (see
    /// there for the retry/degradation discipline).
    fn persist(&self, published: &VersionedSnapshot) -> Result<(), DaakgError> {
        self.durable.persist(published)
    }

    /// The service's health: whether the latest persist failed (and with
    /// what error), how many publications lost durability, how many
    /// transient-IO retries the store absorbed — plus, when live updates
    /// are enabled, the delta depth and compaction counters. In-memory
    /// serving is unaffected by any of it — this surface exists so
    /// operators notice a failing disk (or a lagging compactor) *before*
    /// it matters.
    pub fn health(&self) -> ServiceHealth {
        let t = self.telem();
        ServiceHealth {
            durability_degraded: t.durability_degraded.get() != 0,
            last_persist_error: lock_recover(&self.durable.last_persist_error).clone(),
            persist_failures: t.persist_failures.get(),
            persist_retries: t.persist_retries.get(),
            degrade_engaged: false,
            ingress: None,
            live: self.live_health(),
        }
    }

    /// The snapshot directory of a durable service.
    pub fn store_dir(&self) -> Option<&Path> {
        self.durable.store.as_ref().map(|s| s.dir())
    }

    /// Whether publications are persisted to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.store.is_some()
    }

    /// What [`AlignmentService::open`] found on disk: versions loaded,
    /// versions skipped as corrupt (with their typed errors), torn
    /// temp files removed, manifest staleness.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The serving configuration (index + default query mode).
    pub fn serving(&self) -> &ServingConfig {
        &self.serving
    }

    /// Stamp a freshly trained snapshot with the serving index
    /// configuration so the publication carries it atomically.
    fn prepare(&self, mut snap: AlignmentSnapshot) -> AlignmentSnapshot {
        snap.set_index_config(self.serving.index.clone());
        snap
    }

    /// The left knowledge graph.
    pub fn kg1(&self) -> &KnowledgeGraph {
        &self.kg1
    }

    /// The right knowledge graph.
    pub fn kg2(&self) -> &KnowledgeGraph {
        &self.kg2
    }

    /// The latest published version.
    pub fn version(&self) -> SnapshotVersion {
        self.registry.version()
    }

    /// The latest published snapshot with its version — the grab every
    /// query method starts from. Hold the returned `Arc` to pin that
    /// version for as long as needed.
    pub fn current(&self) -> VersionedSnapshot {
        self.registry.current()
    }

    /// A specific retained version (for staleness handling and per-version
    /// result verification).
    pub fn snapshot_at(&self, version: SnapshotVersion) -> Option<VersionedSnapshot> {
        self.registry.get(version)
    }

    /// [`AlignmentService::snapshot_at`] with a typed diagnosis instead
    /// of `None`: [`DaakgError::UnknownVersion`] distinguishes a version
    /// pruned out of retention (or skipped as corrupt at recovery) from
    /// one that was never published.
    pub fn snapshot_at_checked(
        &self,
        version: SnapshotVersion,
    ) -> Result<VersionedSnapshot, DaakgError> {
        self.registry.get_checked(version)
    }

    /// Number of retained publications (see [`AlignmentService::prune`]).
    pub fn retained_versions(&self) -> usize {
        self.registry.retained()
    }

    /// Drop all but the newest `keep` retained versions (at least the
    /// current one is always kept) and return how many were dropped.
    /// Works through a shared `Arc<AlignmentService>`, also while a
    /// live compactor holds the registry; in-flight readers keep the
    /// versions they grabbed.
    pub fn prune(&self, keep: usize) -> usize {
        self.registry.prune(keep)
    }

    /// [`AlignmentService::prune`] plus on-disk garbage collection: drop
    /// all but the newest `keep` retained versions *and* delete their
    /// persisted files (each removed crash-safely; at least the newest
    /// on-disk version is always kept). Returns the versions whose files
    /// were deleted — empty for a non-durable service.
    pub fn prune_with_store(&self, keep: usize) -> Result<Vec<u64>, DaakgError> {
        self.prune(keep);
        match &self.durable.store {
            Some(store) => store.gc(keep),
            None => Ok(Vec::new()),
        }
    }

    /// Bound retained history for a long-running shared service: after
    /// each publish, only the newest `keep` versions are kept (0 restores
    /// unbounded retention, the default — full history is what enables
    /// per-version verification of live traffic).
    pub fn set_retention(&self, keep: usize) {
        self.registry.set_retention(keep);
    }

    /// Serve from `shards` corpus partitions from now on (see
    /// [`crate::ShardedService::new`]).
    pub(crate) fn set_shards(&self, shards: usize) {
        self.registry.set_shards(shards);
    }

    /// The corpus partition count of the serving sets.
    pub(crate) fn shards(&self) -> usize {
        self.registry.shards()
    }

    pub(crate) fn check_query(&self, e1: u32) -> Result<(), DaakgError> {
        let bound = self.kg1.num_entities();
        if (e1 as usize) < bound {
            Ok(())
        } else {
            Err(DaakgError::unknown_entity(self.kg1.name(), e1, bound))
        }
    }

    /// Validate a per-call mode against this service's index presence.
    pub(crate) fn check_mode(&self, mode: QueryMode) -> Result<(), DaakgError> {
        mode.validate(self.serving.index.is_some())
    }

    /// The unified single-query entry point: answer `e1` under `opts` on
    /// the current version. `opts.k` selects a bounded top-k
    /// (`Some(k)`) or a full ranking (`None`); `opts.mode` selects the
    /// exhaustive scan or an IVF probe (in `Approx` mode the ranking
    /// covers the candidates of the `nprobe` probed inverted lists — the
    /// unscanned tail is absent, not approximated, and `nprobe == nlist`
    /// reproduces the exact answer). Runs on the version it grabs,
    /// holding no lock. The batch of one query
    /// ([`AlignmentService::query_batch`]).
    pub fn query(&self, e1: u32, opts: QueryOptions) -> Result<Versioned<Ranking>, DaakgError> {
        let answer = self.query_batch(std::slice::from_ref(&e1), opts)?;
        Ok(Versioned {
            version: answer.version,
            value: answer
                .value
                .into_iter()
                .next()
                .expect("one query in, one ranking out"),
            deltas_merged: answer.deltas_merged,
        })
    }

    /// The unified batch entry point: answer every query under `opts`,
    /// all on **one** version (a single grab covers the whole batch).
    /// The version's serving set splits the work into corpus partitions
    /// × query ranges across `daakg-parallel` workers (see
    /// [`crate::shard`]); the live delta slab, when one is pending against
    /// the version, is merged into the answers here.
    pub fn query_batch(
        &self,
        queries: &[u32],
        opts: QueryOptions,
    ) -> Result<Versioned<Vec<Ranking>>, DaakgError> {
        for &q in queries {
            self.check_query(q)?;
        }
        self.check_mode(opts.mode)?;
        let telem = self.telem();
        let (cur, set) = self.registry.serving();
        let snap = &cur.snapshot;
        let mut value = set.answer(snap, queries, opts, telem);
        // Keyed by the pinned version, so a just-published retrain never
        // picks up the superseded slab.
        let mut deltas_merged = 0u32;
        if let Some(slab) = self.live_slab_for(cur.version.get()) {
            let _span = telem.delta_merge.span();
            let panel = snap.entity_engine().normalized_queries();
            let panel = panel.gather_rows(queries);
            let n2 = snap.entity_counts().1;
            value = slab.merge_into(panel.as_slice(), queries.len(), opts.k, n2, value);
            deltas_merged = slab.len() as u32;
        }
        Ok(Versioned {
            version: cur.version,
            value,
            deltas_merged,
        })
    }

    /// Rank all right entities for `e1`, descending, on the current
    /// version, in the service's default [`QueryMode`]. Runs on the
    /// version it grabs, holding no lock.
    pub fn rank(&self, e1: u32) -> Result<Versioned<Vec<(u32, f32)>>, DaakgError> {
        self.query(e1, QueryOptions::rank().with_mode(self.serving.mode))
    }

    /// Best `k` right entities for `e1`, descending, on the current
    /// version, in the service's default [`QueryMode`].
    pub fn top_k(&self, e1: u32, k: usize) -> Result<Versioned<Vec<(u32, f32)>>, DaakgError> {
        self.query(e1, QueryOptions::top_k(k).with_mode(self.serving.mode))
    }

    /// Best `k` right entities for *each* query, all answered on **one**
    /// version, sharded across worker threads via `daakg-parallel`, in
    /// the service's default [`QueryMode`].
    pub fn batch_top_k(
        &self,
        queries: &[u32],
        k: usize,
    ) -> Result<Versioned<Vec<Ranking>>, DaakgError> {
        self.query_batch(queries, QueryOptions::top_k(k).with_mode(self.serving.mode))
    }

    /// Full training (embedding warm-up plus alignment rounds) over
    /// `labels`; publishes the resulting snapshot and returns the exact
    /// publication (version + pinned snapshot — re-reading `current()`
    /// could already observe a concurrent publisher's newer version).
    /// Queries keep running on the previous version until the publish.
    pub fn train(&self, labels: &LabeledMatches) -> Result<VersionedSnapshot, DaakgError> {
        let mut model = self.training_model(labels, &[])?;
        let trained = {
            let _span = self.telem().train.span();
            model.train(&self.kg1, &self.kg2, labels)
        };
        self.publish_trained(self.prepare(trained))
    }

    /// Validate a training call's ids, then take the model lock. An
    /// out-of-range id would panic inside training with the lock held and
    /// poison it for every later call, so ids are typed errors here
    /// (entities [`DaakgError::UnknownEntity`], relations and classes
    /// [`DaakgError::InvalidConfig`]). A lock an earlier training call
    /// poisoned anyway is [`DaakgError::Panicked`], not a panic.
    fn training_model(
        &self,
        labels: &LabeledMatches,
        inferred: &[(u32, u32, f32)],
    ) -> Result<MutexGuard<'_, JointModel>, DaakgError> {
        labels.validate(&self.kg1, &self.kg2)?;
        for &(l, r, _) in inferred {
            crate::joint::check_entity_pair(&self.kg1, &self.kg2, l, r)?;
        }
        self.model.lock().map_err(|_| DaakgError::Panicked {
            context: "training",
            message: "an earlier training call panicked while holding the model lock".into(),
        })
    }

    /// Publish a training result: supersede the pending live delta (if
    /// enabled) by starting a new log lineage, persist, and retire the
    /// superseded lineage's log files only once the superseding snapshot
    /// is durably on disk. If the persist fails, the files stay — they
    /// are the only durable copies of the acknowledged upserts, and a
    /// restart then recovers the pre-retrain snapshot and replays them
    /// intact, while records logged under the never-persisted lineage are
    /// reported as skipped.
    ///
    /// The new lineage's log file must exist before the snapshot
    /// persists — a restart picks the replayed lineage by the files on
    /// disk — so if it cannot be created, this returns that error and
    /// does not persist (the publish still serves, as after a failed
    /// persist).
    fn publish_trained(&self, snap: AlignmentSnapshot) -> Result<VersionedSnapshot, DaakgError> {
        let published = self.registry.publish_pinned(snap);
        self.note_publish(published.version.get());
        let dropped = self.reanchor_live(&published);
        if !dropped.is_empty() {
            self.telem().event(EventKind::RetrainSupersede {
                version: published.version.get(),
                dropped: dropped.len(),
            });
        }
        let log = self.live.as_ref().and_then(|l| l.log.as_ref());
        if let Some(log) = log {
            log.ensure_active()?;
        }
        self.persist(&published)?;
        if let Some(log) = log {
            let n2 = published.snapshot.entity_counts().1;
            log.after_persist(published.version.get(), n2);
        }
        Ok(published)
    }

    /// Run `epochs` alignment epochs over `labels` and publish the result.
    /// Returns the new version and the loss per epoch. Call repeatedly to
    /// stream fresh versions to readers mid-campaign.
    pub fn align_rounds(
        &self,
        labels: &LabeledMatches,
        epochs: usize,
    ) -> Result<Versioned<Vec<f32>>, DaakgError> {
        let mut model = self.training_model(labels, &[])?;
        let losses = model.align_rounds(&self.kg1, &self.kg2, labels, epochs);
        let snap = self.prepare(model.snapshot(&self.kg1, &self.kg2));
        let published = self.publish_trained(snap)?;
        Ok(Versioned {
            version: published.version,
            value: losses,
            deltas_merged: 0,
        })
    }

    /// Focal fine-tuning on (newly) labeled matches; publishes the result
    /// and returns the exact publication.
    pub fn fine_tune(&self, labels: &LabeledMatches) -> Result<VersionedSnapshot, DaakgError> {
        self.fine_tune_with_inferred(labels, &[], 1.0)
    }

    /// Active-learning update with inferred `(left, right, confidence)`
    /// matches injected alongside the labels (see
    /// [`JointModel::fine_tune_with_inferred`]); publishes the result and
    /// returns the exact publication.
    pub fn fine_tune_with_inferred(
        &self,
        labels: &LabeledMatches,
        inferred: &[(u32, u32, f32)],
        accept: f32,
    ) -> Result<VersionedSnapshot, DaakgError> {
        let mut model = self.training_model(labels, inferred)?;
        let tuned = {
            let _span = self.telem().fine_tune.span();
            model.fine_tune_with_inferred(&self.kg1, &self.kg2, labels, inferred, accept)
        };
        self.publish_trained(self.prepare(tuned))
    }

    // -----------------------------------------------------------------
    // Live updates: upsert → delta buffer → background compaction
    // -----------------------------------------------------------------

    /// Enable the live-update subsystem: an append-only `DeltaBuffer`
    /// that [`AlignmentService::upsert_entity`] feeds while serving, and
    /// a background compactor thread that periodically folds pending
    /// entries into a newly published snapshot (rebuilt IVF included).
    ///
    /// On a durable service, pending deltas are also logged as
    /// checksummed records in an append-only delta log next to the
    /// snapshots, and this call first replays whatever intact records a
    /// previous process left behind (the returned [`DeltaRecovery`] says
    /// what was replayed, skipped, or dropped), rewrites them into a
    /// fresh preallocated log file, and retires the old files. A torn or
    /// flipped record ends the replay at the last intact prefix with a
    /// typed [`DaakgError::Corrupt`] diagnostic. The logs extend the
    /// snapshot the store recovered at open: if a training publish came
    /// in between, it supersedes them and nothing replays. A store that
    /// still holds an older release's per-upsert `.dseg` segment file is
    /// a typed [`DaakgError::Corrupt`] naming that file.
    ///
    /// Call once, before sharing the service; a second call is a typed
    /// error. What log replay found is kept in
    /// [`AlignmentService::live_recovery`].
    pub fn enable_live(&mut self, cfg: LiveConfig) -> Result<(), DaakgError> {
        cfg.validate()?;
        if self.live.is_some() {
            return Err(DaakgError::InvalidConfig {
                context: "LiveConfig",
                reason: "live updates are already enabled on this service".into(),
            });
        }
        let cur = self.registry.current();
        let base_n = cur.snapshot.entity_counts().1;
        let dim = cur.snapshot.ents2.cols();
        let buffer = Arc::new(DeltaBuffer::new(cur.version.get(), base_n, dim));
        let mut recovery = None;
        let mut log = None;
        if let Some(dir) = self.store_dir() {
            let recovered = self.recovery().and_then(RecoveryReport::latest_intact);
            let (opened, entries, report) = DeltaLog::open(
                dir,
                recovered,
                cur.version.get(),
                base_n,
                delta::log_file_bytes(dim, cfg.compact_after),
                self.telem().clone(),
            )?;
            buffer.restore(entries)?;
            recovery = Some(report);
            log = Some(Arc::new(opened));
        }
        let stats = Arc::new(LiveStats::default());
        let fold_lock = Arc::new(Mutex::new(()));
        let task = {
            let registry = Arc::clone(&self.registry);
            let durable = Arc::clone(&self.durable);
            let buffer = Arc::clone(&buffer);
            let log = log.clone();
            let stats = Arc::clone(&stats);
            let fold_lock = Arc::clone(&fold_lock);
            let index = self.serving.index.clone();
            let compact_after = cfg.compact_after;
            Box::new(move |nudged: bool| {
                let _guard = lock_recover(&fold_lock);
                // A tick folds whatever is pending; a nudge folds only
                // past the threshold: upserts that land while a fold runs
                // still count the entries it folds, and their nudges must
                // not start a second fold of the few that arrived
                // meanwhile. A nudge for a filling log file needs only
                // the roll below.
                // Persist failures are already recorded in the shared
                // health counters; the tick has no caller to surface the
                // error to, so it is dropped here after recording. A
                // failed log roll is retried on the next tick.
                if !nudged || buffer.depth() >= compact_after {
                    let _ = fold_once(
                        &registry,
                        &durable,
                        &buffer,
                        log.as_deref(),
                        &stats,
                        index.as_ref(),
                    );
                }
                if let Some(log) = &log {
                    let _ = log.maintain();
                }
            })
        };
        let compactor = Compactor::spawn(
            cfg.tick,
            Arc::clone(&stats),
            self.telemetry().journal().clone(),
            task,
        );
        if buffer.depth() >= cfg.compact_after {
            // Replay alone may already warrant a fold.
            compactor.nudge();
        }
        self.live = Some(LiveState {
            cfg,
            buffer,
            log,
            stats,
            upsert_lock: Mutex::new(()),
            fold_lock,
            compactor: Some(compactor),
            recovery,
        });
        Ok(())
    }

    /// Whether the live-update subsystem is enabled.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// The live configuration, when enabled.
    pub fn live_config(&self) -> Option<&LiveConfig> {
        self.live.as_ref().map(|l| &l.cfg)
    }

    /// What delta-log replay found when [`AlignmentService::enable_live`]
    /// warm-restarted a durable service; `None` when live updates are off
    /// or nothing was on disk to replay.
    pub fn live_recovery(&self) -> Option<&DeltaRecovery> {
        self.live.as_ref().and_then(|l| l.recovery.as_ref())
    }

    /// Live-update health counters, when enabled (also folded into
    /// [`AlignmentService::health`]).
    pub fn live_health(&self) -> Option<LiveHealth> {
        use std::sync::atomic::Ordering::Relaxed;
        self.live.as_ref().map(|l| {
            let delta_depth = l.buffer.depth();
            LiveHealth {
                delta_depth,
                upserts: l.buffer.upserts(),
                compactions: l.stats.compactions.load(Relaxed),
                compactor_panics: l.stats.panics.load(Relaxed),
                compaction_lag: (delta_depth / l.cfg.compact_after) as u64,
                last_compacted_version: l.stats.last_compacted(),
            }
        })
    }

    /// The slab to merge into a query answered on snapshot `version`, if
    /// live updates are enabled and deltas are pending against exactly
    /// that anchor. Version (not entity-count) keyed: a just-published
    /// retrain — which typically keeps the right-entity count unchanged —
    /// must never merge delta rows warm-started against its superseded
    /// tables.
    pub(crate) fn live_slab_for(&self, version: u64) -> Option<Arc<DeltaSlab>> {
        self.live.as_ref().and_then(|l| l.buffer.slab_for(version))
    }

    /// Insert one new right-KG entity while serving. `triples` anchor it
    /// to existing right entities (or earlier pending delta entities) —
    /// its embedding is warm-start fine-tuned against the frozen
    /// published tables ([`daakg_embed::warm_start_row`]: deterministic
    /// at any thread count), and appended to the delta buffer — on a
    /// durable service only after its delta-log record is written and
    /// `fdatasync`ed, so it is durable *before* it becomes queryable.
    /// Returns the new global right-entity id: every subsequent query
    /// merges the entity exactly (bitwise-equal to a scan over the union
    /// corpus) until a compaction folds it into the published snapshot —
    /// or a full retrain supersedes it.
    pub fn upsert_entity(&self, triples: &[DeltaTriple]) -> Result<u32, DaakgError> {
        let live = self.live_required()?;
        if triples.is_empty() {
            return Err(DaakgError::InvalidConfig {
                context: "upsert_entity",
                reason: "at least one anchoring triple is required".into(),
            });
        }
        let _serial = lock_recover(&live.upsert_lock);
        let cur = self.registry.current();
        let (base_n, pending) = live.buffer.pending();
        let id = (base_n + pending.len()) as u32;
        let raw = self.warm_start(&cur, base_n, &pending, id, triples, &live.cfg)?;
        let entry = DeltaEntry {
            global_id: id,
            raw,
            triples: triples.to_vec(),
        };
        let roll = live.commit(entry, false)?;
        if roll || live.buffer.depth() >= live.cfg.compact_after {
            if let Some(c) = &live.compactor {
                c.nudge();
            }
        }
        Ok(id)
    }

    /// Attach additional triples to a *pending* delta entity and re-run
    /// its warm-start fine-tune over the extended positive set (same
    /// deterministic seed — the result depends only on the final triple
    /// set, not on how it arrived). Entities already folded into the
    /// published corpus are a retrain's business and yield a typed
    /// [`DaakgError::UnknownEntity`].
    pub fn upsert_triples(
        &self,
        global_id: u32,
        triples: &[DeltaTriple],
    ) -> Result<(), DaakgError> {
        let live = self.live_required()?;
        if triples.is_empty() {
            return Err(DaakgError::InvalidConfig {
                context: "upsert_triples",
                reason: "at least one triple is required".into(),
            });
        }
        let _serial = lock_recover(&live.upsert_lock);
        // Exclude a concurrent fold for the whole read → re-finetune →
        // replace unit (lock order: upsert_lock before fold_lock; no path
        // takes them in the reverse order). Without this, a fold could
        // clone the entry, publish the folded snapshot with the OLD
        // embedding, and then drain the replacement and retire its freshly
        // logged record — silently losing an acknowledged update.
        let _fold = lock_recover(&live.fold_lock);
        let cur = self.registry.current();
        let (base_n, pending) = live.buffer.pending();
        let pos = (global_id as usize)
            .checked_sub(base_n)
            .filter(|&p| p < pending.len())
            .ok_or_else(|| DaakgError::UnknownEntity {
                kg: "delta".into(),
                id: global_id,
                bound: base_n + pending.len(),
            })?;
        let mut merged = pending[pos].triples.clone();
        merged.extend_from_slice(triples);
        let raw = self.warm_start(&cur, base_n, &pending, global_id, &merged, &live.cfg)?;
        let entry = DeltaEntry {
            global_id,
            raw,
            triples: merged,
        };
        if live.commit(entry, true)? {
            if let Some(c) = &live.compactor {
                c.nudge();
            }
        }
        Ok(())
    }

    /// Synchronously fold all pending delta entries into a new published
    /// snapshot (what the background compactor does on its tick).
    /// Returns the publication, or `None` when nothing was pending.
    pub fn compact_now(&self) -> Result<Option<VersionedSnapshot>, DaakgError> {
        let live = self.live_required()?;
        let _guard = lock_recover(&live.fold_lock);
        fold_once(
            &self.registry,
            &self.durable,
            &live.buffer,
            live.log.as_deref(),
            &live.stats,
            self.serving.index.as_ref(),
        )
    }

    fn live_required(&self) -> Result<&LiveState, DaakgError> {
        self.live.as_ref().ok_or(DaakgError::InvalidConfig {
            context: "live",
            reason: "live updates are not enabled (call enable_live / Pipeline::live first)".into(),
        })
    }

    /// Resolve each triple's neighbor to its raw embedding row (base
    /// corpus or an earlier pending delta row) and warm-start the new
    /// row's embedding against the frozen published tables.
    fn warm_start(
        &self,
        cur: &VersionedSnapshot,
        base_n: usize,
        pending: &[DeltaEntry],
        global_id: u32,
        triples: &[DeltaTriple],
        cfg: &LiveConfig,
    ) -> Result<Vec<f32>, DaakgError> {
        let rows: Vec<&[f32]> = triples
            .iter()
            .map(|t| {
                let nb = t.neighbor as usize;
                if nb < base_n {
                    Ok(cur.snapshot.ents2.row(nb))
                } else if nb < base_n + pending.len() && (nb as u32) < global_id {
                    Ok(pending[nb - base_n].raw.as_slice())
                } else {
                    Err(DaakgError::UnknownEntity {
                        kg: "delta".into(),
                        id: t.neighbor,
                        bound: base_n + pending.len(),
                    })
                }
            })
            .collect::<Result<_, _>>()?;
        let positives = Tensor::from_rows(&rows);
        warm_start_row_observed(
            &cur.snapshot.ents2,
            &positives,
            global_id as u64,
            &cfg.warm,
            &self.telem().warm_start,
        )
    }

    /// A training publish supersedes the pending delta: the retrained
    /// snapshot re-derives every row from the KGs, so delta rows trained
    /// against the *previous* tables no longer extend it coherently.
    /// Re-anchor the buffer at the fresh publication — under the fold
    /// lock, so an in-flight fold can never commit (and drain the buffer)
    /// against an anchor this supersession just invalidated — and return
    /// the dropped entries. Superseded entities re-enter through the KGs
    /// at the next retrain, or through fresh upserts; on a durable service
    /// fresh upserts go to a new log lineage, and the superseded lineage's
    /// files are retired only after the superseding snapshot has durably
    /// persisted ([`DeltaLog::after_persist`]).
    fn reanchor_live(&self, published: &VersionedSnapshot) -> Vec<DeltaEntry> {
        let Some(live) = &self.live else {
            return Vec::new();
        };
        let _guard = lock_recover(&live.fold_lock);
        let n2 = published.snapshot.entity_counts().1;
        delta::reanchor_delta(
            &live.buffer,
            live.log.as_deref(),
            published.version.get(),
            n2,
        )
    }
}

impl LiveState {
    /// Apply one warm-started entry — the next append, or the replacement
    /// of a pending id — through the delta log on a durable service (the
    /// entry is queryable only once its record is synced), or straight
    /// into the buffer otherwise. Returns whether the log wants a roll.
    fn commit(&self, entry: DeltaEntry, replace: bool) -> Result<bool, DaakgError> {
        match &self.log {
            Some(log) => log.commit(entry, &self.buffer, replace),
            None if replace => self.buffer.replace(entry).map(|()| false),
            None => self.buffer.append(entry).map(|()| false),
        }
    }
}

/// One compaction pass: fold every pending delta entry into a newly
/// published snapshot (serialized by the caller's fold lock).
///
/// The folded snapshot appends the **raw** delta rows to `ents2` —
/// snapshot construction then normalizes per-row, which is bitwise the
/// normalization the delta slab applied — so [`QueryMode::Exact`] answers
/// before and after the fold are bit-for-bit identical. `Approx` answers
/// may legitimately differ across a fold: pre-fold the delta is an
/// *exact* side scan merged into the IVF answer over the base corpus,
/// while post-fold the rebuilt IVF probes the union corpus
/// approximately, so a delta entity that was always merged pre-fold can
/// land in an unprobed list afterwards. Dangling-entity weights (Eq. 6)
/// are extended for the new rows; schema-level mean embeddings refresh at
/// the next full retrain (they aggregate entity evidence that did not
/// change for existing rows).
fn fold_once(
    registry: &SnapshotRegistry,
    durable: &PersistState,
    buffer: &DeltaBuffer,
    log: Option<&DeltaLog>,
    stats: &LiveStats,
    index: Option<&IvfConfig>,
) -> Result<Option<VersionedSnapshot>, DaakgError> {
    let cur = registry.current();
    let n2 = cur.snapshot.entity_counts().1;
    let anchor = cur.version.get();
    if buffer.anchor() != anchor {
        // A publish moved the registry under the pending delta without a
        // service-level reanchor (registry handles are shareable):
        // re-anchor onto a new log lineage and skip this pass. The old
        // lineage's files are deliberately left in place — whether the
        // superseding snapshot is durable is unknowable here, and until
        // it is, those files are the only durable copies of the
        // acknowledged upserts. The next persisted fold retires them.
        let _ = delta::reanchor_delta(buffer, log, anchor, n2);
        return Ok(None);
    }
    let Some(entries) = buffer.fold_candidates(anchor) else {
        return Ok(None);
    };
    let telem = &durable.telem;
    let count = entries.len();
    telem.event(EventKind::FoldStart {
        anchor,
        pending: count,
    });
    let mut snap = {
        let _span = telem.fold.span();
        fold_snapshot(&cur.snapshot, &entries)?
    };
    snap.set_index_config(index.cloned());
    // Compare-and-publish: if training published while the fold was being
    // built, the fold is based on a superseded corpus — drop it and let
    // the next pass re-anchor. Entries stay pending either way.
    let published = {
        let _span = telem.republish.span();
        registry.publish_if_current(snap, cur.version)
    };
    let Some(published) = published else {
        return Ok(None);
    };
    telem.snapshot_publish.incr();
    telem.event(EventKind::SnapshotPublish {
        version: published.version.get(),
    });
    let persisted = durable.persist(&published);
    // Commit before surfacing any persist failure: the publish stands
    // (readers already serve the folded corpus), so the buffer must
    // advance either way.
    buffer.fold_committed(count, published.version.get());
    telem.compactions.incr();
    telem.event(EventKind::FoldDone {
        version: published.version.get(),
        folded: count,
    });
    if let (Ok(()), Some(log)) = (&persisted, log) {
        // Retire log files only behind a successful persist: until the
        // folded snapshot is durably on disk, the logged records are the
        // only durable copies of the acknowledged upserts. On a persist
        // failure they stay — a restart then recovers the pre-fold
        // snapshot and replays them intact, and once a later snapshot
        // persists, it retires them. Retirement itself is best-effort for
        // the same reason: recovery drops whatever a persisted snapshot
        // already folded.
        log.after_persist(log.lineage(), n2 + count);
    }
    stats.record(published.version.get());
    persisted?;
    Ok(Some(published))
}

/// Build the folded snapshot: `base` with the delta rows appended. The
/// left-side matrices (`ents1`, `mapped_ents1`) and the entity engine's
/// normalized query rows are shared with `base`, not copied, so each
/// retained fold version costs only its right-side rows.
fn fold_snapshot(
    base: &AlignmentSnapshot,
    entries: &[DeltaEntry],
) -> Result<AlignmentSnapshot, DaakgError> {
    let dim = base.ents2.cols();
    let n2 = base.ents2.rows();
    let mut data = base.ents2.as_slice().to_vec();
    for e in entries {
        data.extend_from_slice(&e.raw);
    }
    let ents2 = Tensor::from_vec(n2 + entries.len(), dim, data);

    // Eq. 6 for the appended rows: w_e' = max_e clamp(S(e, e'), 0), with
    // S the cosine the engine serves — normalize the new rows exactly as
    // the slab/engine does and take the best clamped dot against every
    // (already normalized) mapped left query row.
    let mut stacked = Tensor::zeros(entries.len(), dim);
    for (i, e) in entries.iter().enumerate() {
        stacked.row_mut(i).copy_from_slice(&e.raw);
    }
    normalize_rows_cosine(&mut stacked);
    let queries = base.entity_engine().normalized_queries();
    let mut weights = base.weights.clone();
    for i in 0..entries.len() {
        let row = stacked.row(i);
        let mut best = 0.0f32;
        for q in 0..queries.rows() {
            let s: f32 = queries.row(q).iter().zip(row).map(|(a, b)| a * b).sum();
            if s > best {
                best = s;
            }
        }
        weights.right.push(best);
    }

    let parts = SnapshotParts {
        ents1: Arc::clone(&base.ents1),
        ents2,
        mapped_ents1: Arc::clone(&base.mapped_ents1),
        rels1: base.rels1.clone(),
        rels2: base.rels2.clone(),
        mapped_rels1: base.mapped_rels1.clone(),
        cls1: base.cls1.clone(),
        cls2: base.cls2.clone(),
        mapped_cls1: base.mapped_cls1.clone(),
        mean_rels1: base.mean_rels1.clone(),
        mean_rels2: base.mean_rels2.clone(),
        mapped_mean_rels1: base.mapped_mean_rels1.clone(),
        mean_cls1: base.mean_cls1.clone(),
        mean_cls2: base.mean_cls2.clone(),
        mapped_mean_cls1: base.mapped_mean_cls1.clone(),
        weights,
        use_mean_embeddings: base.use_mean_embeddings,
        use_class_embeddings: base.use_class_embeddings,
    };
    AlignmentSnapshot::from_parts(parts, |p| base.entity_engine().with_candidates(&p.ents2))
        .map_err(|reason| DaakgError::InvalidConfig {
            context: "delta fold",
            reason,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JointConfig;
    use daakg_embed::EmbedConfig;
    use daakg_graph::kg::{example_dbpedia, example_wikidata};
    use daakg_graph::ElementPair;

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
            fine_tune_epochs: 1,
            ..JointConfig::default()
        }
    }

    fn example_service() -> AlignmentService {
        AlignmentService::new(
            tiny_cfg(),
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
        )
        .unwrap()
    }

    fn example_labels(svc: &AlignmentService) -> LabeledMatches {
        let mut labels = LabeledMatches::new();
        for (a, b) in [("Michael Jackson", "Q2831"), ("UnitedStates", "USA")] {
            labels.push(ElementPair::Entity(
                svc.kg1().entity_by_name(a).unwrap(),
                svc.kg2().entity_by_name(b).unwrap(),
            ));
        }
        labels
    }

    /// Compile-time satellite: the service types must be shareable across
    /// threads (`&AlignmentService` is what reader threads hold).
    #[test]
    fn service_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AlignmentService>();
        assert_send_sync::<SnapshotRegistry>();
        assert_send_sync::<AlignmentSnapshot>();
        assert_send_sync::<VersionedSnapshot>();
        assert_send_sync::<Versioned<Vec<(u32, f32)>>>();
        assert_send_sync::<SnapshotVersion>();
    }

    #[test]
    fn initial_version_is_one_and_queries_answer() {
        let svc = example_service();
        assert_eq!(svc.version().get(), 1);
        let r = svc.rank(0).unwrap();
        assert_eq!(r.version.get(), 1);
        assert_eq!(r.value.len(), svc.kg2().num_entities());
        let t = svc.top_k(0, 3).unwrap();
        assert_eq!(t.value.len(), 3);
    }

    #[test]
    fn unknown_entities_are_typed_errors_not_panics() {
        let svc = example_service();
        let n = svc.kg1().num_entities() as u32;
        for res in [svc.rank(n), svc.top_k(n + 7, 3)] {
            match res {
                Err(DaakgError::UnknownEntity { id, bound, .. }) => {
                    assert!(id >= n);
                    assert_eq!(bound, n as usize);
                }
                other => panic!("expected UnknownEntity, got {other:?}"),
            }
        }
        let err = svc.batch_top_k(&[0, n], 2).unwrap_err();
        assert!(matches!(err, DaakgError::UnknownEntity { .. }));
    }

    #[test]
    fn out_of_range_training_ids_are_typed_errors_and_training_survives() {
        let svc = example_service();
        let (n1, n2) = (
            svc.kg1().num_entities() as u32,
            svc.kg2().num_entities() as u32,
        );
        let mut bad = example_labels(&svc);
        bad.entities.push((n1, 0));
        match svc.train(&bad) {
            Err(DaakgError::UnknownEntity { id, bound, .. }) => {
                assert_eq!((id, bound), (n1, n1 as usize));
            }
            other => panic!("expected UnknownEntity, got {other:?}"),
        }
        let mut bad = example_labels(&svc);
        bad.relations.push((0, svc.kg2().num_relations() as u32));
        let err = svc.align_rounds(&bad, 1).unwrap_err();
        assert!(matches!(err, DaakgError::InvalidConfig { .. }), "{err}");
        let mut bad = example_labels(&svc);
        bad.classes.push((svc.kg1().num_classes() as u32, 0));
        let err = svc.fine_tune(&bad).unwrap_err();
        assert!(matches!(err, DaakgError::InvalidConfig { .. }), "{err}");
        let labels = example_labels(&svc);
        let err = svc
            .fine_tune_with_inferred(&labels, &[(0, n2 + 3, 0.9)], 0.5)
            .unwrap_err();
        assert!(matches!(err, DaakgError::UnknownEntity { .. }), "{err}");
        // Nothing was published and the model lock is healthy.
        assert_eq!(svc.version().get(), 1);
        assert_eq!(svc.train(&labels).unwrap().version.get(), 2);
    }

    #[test]
    fn poisoned_model_lock_is_a_typed_training_error() {
        let svc = example_service();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = svc.model.lock().expect("fresh lock");
                panic!("simulated panic inside training");
            });
            assert!(poisoner.join().is_err());
        });
        match svc.train(&example_labels(&svc)) {
            Err(DaakgError::Panicked { context, .. }) => assert_eq!(context, "training"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Serving is unaffected.
        assert!(svc.top_k(0, 3).is_ok());
    }

    #[test]
    fn training_publishes_monotone_versions_and_retains_history() {
        let svc = example_service();
        let labels = example_labels(&svc);
        let v2 = svc.train(&labels).unwrap();
        assert_eq!(v2.version.get(), 2);
        // The returned publication is pinned: usable even after later
        // publishes, and identical to what the registry retained.
        assert_eq!(v2.snapshot.entity_counts().0, svc.kg1().num_entities());
        let out = svc.align_rounds(&labels, 2).unwrap();
        assert_eq!(out.version.get(), 3);
        assert_eq!(out.value.len(), 2);
        let v4 = svc.fine_tune(&labels).unwrap();
        assert_eq!(v4.version.get(), 4);
        assert_eq!(svc.retained_versions(), 4);
        // Every retained version is still queryable.
        for v in 1..=4u64 {
            let pinned = svc.snapshot_at(SnapshotVersion(v)).unwrap();
            assert_eq!(pinned.version.get(), v);
            assert_eq!(pinned.snapshot.entity_counts().0, svc.kg1().num_entities());
        }
        assert!(svc.snapshot_at(SnapshotVersion(5)).is_none());
    }

    #[test]
    fn batch_top_k_matches_per_query_answers() {
        let svc = example_service();
        let labels = example_labels(&svc);
        svc.train(&labels).unwrap();
        let queries: Vec<u32> = (0..svc.kg1().num_entities() as u32).collect();
        let batch = svc.batch_top_k(&queries, 3).unwrap();
        assert_eq!(batch.value.len(), queries.len());
        for (&q, got) in queries.iter().zip(&batch.value) {
            let single = svc
                .snapshot_at(batch.version)
                .unwrap()
                .snapshot
                .top_k_entities(q, 3);
            assert_eq!(got, &single);
        }
    }

    #[test]
    fn prune_keeps_newest_versions_only() {
        let svc = example_service();
        let labels = example_labels(&svc);
        for _ in 0..3 {
            svc.align_rounds(&labels, 1).unwrap();
        }
        assert_eq!(svc.retained_versions(), 4);
        svc.prune(2);
        assert_eq!(svc.retained_versions(), 2);
        assert!(svc.snapshot_at(SnapshotVersion(1)).is_none());
        assert!(svc.snapshot_at(SnapshotVersion(4)).is_some());
        // Current still answers after pruning.
        assert_eq!(svc.version().get(), 4);
        svc.rank(0).unwrap();
        // Prune below 1 still keeps the current version.
        svc.prune(0);
        assert_eq!(svc.retained_versions(), 1);
        assert_eq!(svc.current().version.get(), 4);
    }

    /// Readers running concurrently with publishers must only ever observe
    /// complete snapshots (self-consistent matrices) at monotonically
    /// non-decreasing versions.
    #[test]
    fn concurrent_readers_observe_complete_monotone_snapshots() {
        let svc = example_service();
        let labels = example_labels(&svc);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..3 {
                readers.push(scope.spawn(|| {
                    let mut last = 0u64;
                    let mut observed = 0usize;
                    loop {
                        // Check `stop` only after at least one query: on a
                        // single-core box the writer can finish before this
                        // thread is first scheduled.
                        let done = stop.load(Ordering::Relaxed);
                        let cur = svc.current();
                        let v = cur.version.get();
                        assert!(v >= last, "version went backwards: {last} -> {v}");
                        last = v;
                        // Completeness: the grabbed snapshot must be fully
                        // built — consistent shapes and a working engine.
                        let (n1, n2) = cur.snapshot.entity_counts();
                        assert_eq!(n1, svc.kg1().num_entities());
                        assert_eq!(n2, svc.kg2().num_entities());
                        let top = cur.snapshot.top_k_entities(0, 2);
                        assert_eq!(top.len(), 2);
                        observed += 1;
                        if done {
                            break;
                        }
                    }
                    observed
                }));
            }
            for _ in 0..4 {
                svc.align_rounds(&labels, 1).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                assert!(r.join().unwrap() > 0, "reader never ran a query");
            }
        });
        assert_eq!(svc.version().get(), 5);
    }

    /// Shared reclamation works through `&self` (the `Arc`-sharing
    /// deployment): an at-publish retention policy bounds history, and the
    /// service keeps answering afterwards.
    #[test]
    fn shared_retention_bounds_history_on_a_shared_service() {
        let svc = example_service();
        let labels = example_labels(&svc);
        svc.set_retention(2);
        for _ in 0..4 {
            svc.align_rounds(&labels, 1).unwrap();
        }
        // No readers in flight: each publish reclaims down to 2.
        assert_eq!(svc.retained_versions(), 2);
        assert_eq!(svc.version().get(), 5);
        assert!(svc.snapshot_at(SnapshotVersion(5)).is_some());
        assert!(svc.snapshot_at(SnapshotVersion(1)).is_none());
        svc.rank(0).unwrap();
        // Explicit on-demand prune.
        assert_eq!(svc.prune(1), 1);
        assert_eq!(svc.retained_versions(), 1);
    }

    /// Readers hammer `current()` while a writer publishes with a tight
    /// retention policy; every grabbed snapshot must stay fully usable
    /// and history stays exactly at the retention bound.
    #[test]
    fn shared_pruning_never_invalidates_in_flight_readers() {
        let svc = example_service();
        let labels = example_labels(&svc);
        svc.set_retention(2);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..3 {
                readers.push(scope.spawn(|| {
                    let mut grabs = 0usize;
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let cur = svc.current();
                        // Use the grabbed snapshot after more publishes may
                        // have pruned its version from history: the held
                        // Arc must keep it alive and consistent.
                        let top = cur.snapshot.top_k_entities(0, 2);
                        assert_eq!(top.len(), 2);
                        assert!(top[0].1 >= top[1].1);
                        grabs += 1;
                        if done {
                            break;
                        }
                    }
                    grabs
                }));
            }
            for _ in 0..6 {
                svc.align_rounds(&labels, 1).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                assert!(r.join().unwrap() > 0);
            }
        });
        assert_eq!(svc.version().get(), 7);
        // Exact: retention never waits on readers.
        assert_eq!(svc.retained_versions(), 2);
        let before = svc.retained_versions();
        assert_eq!(svc.prune(1), before - 1);
        assert_eq!(svc.retained_versions(), 1);
    }

    /// A live durable service shares its registry with the compactor
    /// thread, so no caller has exclusive access to it. Under concurrent
    /// readers, `prune(k)` and `prune_with_store(k)` still leave exactly
    /// `k` versions in memory (and `k` files on disk), and every grabbed
    /// snapshot stays usable.
    #[test]
    fn shared_prune_is_exact_on_a_live_durable_service_under_readers() {
        let td = daakg_store::TestDir::new("svc-shared-prune");
        let mut svc = AlignmentService::open(
            tiny_cfg(),
            ServingConfig::default(),
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
            td.path(),
        )
        .unwrap();
        svc.enable_live(manual_live()).unwrap();
        assert!(
            Arc::strong_count(&svc.registry) > 1,
            "the compactor must share the registry"
        );
        let svc = &svc;
        let labels = example_labels(svc);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..3 {
                readers.push(scope.spawn(|| {
                    let mut grabs = 0usize;
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let cur = svc.current();
                        let top = cur.snapshot.top_k_entities(0, 2);
                        assert_eq!(top.len(), 2);
                        assert!(top[0].1 >= top[1].1);
                        grabs += 1;
                        if done {
                            break;
                        }
                    }
                    grabs
                }));
            }
            for keep in [3, 2, 1] {
                for _ in 0..2 {
                    svc.align_rounds(&labels, 1).unwrap();
                }
                let before = svc.retained_versions();
                assert_eq!(svc.prune(keep), before - keep);
                assert_eq!(svc.retained_versions(), keep);
                for _ in 0..2 {
                    svc.align_rounds(&labels, 1).unwrap();
                }
                let latest = svc.version();
                svc.prune_with_store(keep).unwrap();
                assert_eq!(svc.retained_versions(), keep);
                assert_eq!(svc.current().version, latest);
                let on_disk = DurableRegistry::open(td.path())
                    .unwrap()
                    .versions()
                    .unwrap();
                assert_eq!(on_disk.len(), keep);
                assert_eq!(*on_disk.last().unwrap(), latest.get());
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                assert!(r.join().unwrap() > 0);
            }
        });
        assert_eq!(svc.version().get(), 13);
    }

    fn example_indexed_service() -> AlignmentService {
        AlignmentService::with_serving(
            tiny_cfg(),
            ServingConfig::with_index(3),
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
        )
        .unwrap()
    }

    #[test]
    fn serving_config_validation_rejects_bad_compositions() {
        assert!(ServingConfig::default().validate().is_ok());
        assert!(ServingConfig::with_index(4).validate().is_ok());
        let bad_nlist = ServingConfig::with_index(0);
        assert!(matches!(
            bad_nlist.validate(),
            Err(DaakgError::InvalidConfig { .. })
        ));
        let approx_without_index = ServingConfig {
            index: None,
            mode: daakg_index::QueryMode::Approx { nprobe: 2 },
            ..ServingConfig::default()
        };
        assert!(approx_without_index.validate().is_err());
        let zero_probe = ServingConfig {
            mode: daakg_index::QueryMode::Approx { nprobe: 0 },
            ..ServingConfig::with_index(4)
        };
        assert!(zero_probe.validate().is_err());
        // The same violations surface at service construction.
        assert!(AlignmentService::with_serving(
            tiny_cfg(),
            approx_without_index,
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
        )
        .is_err());
    }

    #[test]
    fn approx_queries_without_an_index_are_typed_errors() {
        let svc = example_service();
        for res in [
            svc.query(0, QueryOptions::top_k(3).approx(2))
                .map(|v| v.value),
            svc.query(0, QueryOptions::rank().approx(2))
                .map(|v| v.value),
        ] {
            assert!(matches!(res, Err(DaakgError::InvalidConfig { .. })));
        }
        let err = svc
            .query_batch(&[0, 1], QueryOptions::top_k(2).approx(2))
            .unwrap_err();
        assert!(matches!(err, DaakgError::InvalidConfig { .. }));
        // And nprobe = 0 is rejected even with an index present.
        let svc = example_indexed_service();
        assert!(svc.query(0, QueryOptions::top_k(3).approx(0)).is_err());
    }

    #[test]
    fn full_probe_approx_reproduces_exact_answers_across_versions() {
        use daakg_index::QueryMode;
        let svc = example_indexed_service();
        let labels = example_labels(&svc);
        svc.train(&labels).unwrap();
        let nlist = svc
            .current()
            .snapshot
            .ivf_index()
            .expect("index configured")
            .nlist();
        let full = QueryMode::Approx { nprobe: nlist };
        let n1 = svc.kg1().num_entities();
        let n2 = svc.kg2().num_entities();
        for e1 in 0..n1 as u32 {
            for k in [0usize, 1, 3, n2, n2 + 5] {
                let exact = svc.top_k(e1, k).unwrap();
                let approx = svc
                    .query(e1, QueryOptions::top_k(k).with_mode(full))
                    .unwrap();
                assert_eq!(exact.version, approx.version);
                assert_eq!(exact.value, approx.value, "e1={e1} k={k}");
            }
        }
        let queries: Vec<u32> = (0..n1 as u32).collect();
        let exact = svc.batch_top_k(&queries, 4).unwrap();
        let approx = svc
            .query_batch(&queries, QueryOptions::top_k(4).with_mode(full))
            .unwrap();
        assert_eq!(exact.value, approx.value);
        // Partial probes stay within the exact candidate universe and
        // carry exact scores for everything they return.
        let partial = svc.query(0, QueryOptions::top_k(n2).approx(1)).unwrap();
        let exact_all = svc.rank(0).unwrap();
        for (id, s) in &partial.value {
            let (_, es) = exact_all.value.iter().find(|(e, _)| e == id).unwrap();
            assert_eq!(s.to_bits(), es.to_bits());
        }
    }

    #[test]
    fn default_mode_approx_serves_plain_queries_through_the_index() {
        use daakg_index::QueryMode;
        let svc = AlignmentService::with_serving(
            tiny_cfg(),
            ServingConfig {
                mode: QueryMode::Approx { nprobe: 3 },
                ..ServingConfig::with_index(3)
            },
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
        )
        .unwrap();
        // nprobe == nlist: the default-mode plain calls must equal the
        // explicit exact answers.
        let exact = svc
            .query(0, QueryOptions::top_k(4).with_mode(QueryMode::Exact))
            .unwrap();
        let plain = svc.top_k(0, 4).unwrap();
        assert_eq!(exact.value, plain.value);
    }

    #[test]
    fn each_version_builds_its_index_once_and_keeps_it() {
        let svc = example_indexed_service();
        let labels = example_labels(&svc);
        svc.train(&labels).unwrap();
        svc.align_rounds(&labels, 1).unwrap();
        for v in 1..=3u64 {
            let pinned = svc.snapshot_at(SnapshotVersion(v)).unwrap();
            let first = Arc::clone(pinned.snapshot.ivf_index().expect("index configured"));
            let second = Arc::clone(pinned.snapshot.ivf_index().unwrap());
            assert!(
                Arc::ptr_eq(&first, &second),
                "version {v} rebuilt its index"
            );
            // Re-grabbing the same version sees the same built index (the
            // registry shares one snapshot per version).
            let again = svc.snapshot_at(SnapshotVersion(v)).unwrap();
            assert!(Arc::ptr_eq(&first, again.snapshot.ivf_index().unwrap()));
        }
        // Distinct versions own distinct indexes.
        let i2 = Arc::clone(
            svc.snapshot_at(SnapshotVersion(2))
                .unwrap()
                .snapshot
                .ivf_index()
                .unwrap(),
        );
        let i3 = Arc::clone(
            svc.snapshot_at(SnapshotVersion(3))
                .unwrap()
                .snapshot
                .ivf_index()
                .unwrap(),
        );
        assert!(!Arc::ptr_eq(&i2, &i3));
    }

    #[test]
    fn snapshot_at_checked_diagnoses_pruned_vs_never_published() {
        let svc = example_service();
        let labels = example_labels(&svc);
        for _ in 0..3 {
            svc.align_rounds(&labels, 1).unwrap();
        }
        svc.prune(2);
        // Version 1 existed but fell out of retention.
        match svc.snapshot_at_checked(SnapshotVersion::of(1)) {
            Err(DaakgError::UnknownVersion {
                requested: 1,
                latest: 4,
                pruned: true,
            }) => {}
            other => panic!("expected pruned UnknownVersion, got {other:?}"),
        }
        // Version 9 was never published.
        match svc.snapshot_at_checked(SnapshotVersion::of(9)) {
            Err(DaakgError::UnknownVersion {
                requested: 9,
                latest: 4,
                pruned: false,
            }) => {}
            other => panic!("expected never-published UnknownVersion, got {other:?}"),
        }
        // Retained versions resolve.
        assert_eq!(
            svc.snapshot_at_checked(SnapshotVersion::of(4))
                .unwrap()
                .version
                .get(),
            4
        );
    }

    #[test]
    fn open_on_a_fresh_directory_persists_the_initial_version() {
        let td = daakg_store::TestDir::new("svc-fresh");
        let svc = AlignmentService::open(
            tiny_cfg(),
            ServingConfig::default(),
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
            td.path(),
        )
        .unwrap();
        assert!(svc.is_durable());
        assert_eq!(svc.store_dir().unwrap(), td.path());
        assert_eq!(svc.version().get(), 1);
        let report = svc.recovery().unwrap();
        assert!(report.loaded.is_empty());
        assert!(report.skipped.is_empty());
        // v1 is on disk immediately.
        let reg = DurableRegistry::open(td.path()).unwrap();
        assert_eq!(reg.versions().unwrap(), vec![1]);
        assert!(reg.load(1).unwrap().bitwise_eq(&svc.current().snapshot));
    }

    #[test]
    fn warm_restart_restores_versions_and_resumes_numbering() {
        let td = daakg_store::TestDir::new("svc-restart");
        let open = || {
            AlignmentService::open(
                tiny_cfg(),
                ServingConfig::default(),
                Arc::new(example_dbpedia()),
                Arc::new(example_wikidata()),
                td.path(),
            )
            .unwrap()
        };
        let answers = {
            let svc = open();
            let labels = example_labels(&svc);
            svc.train(&labels).unwrap();
            svc.align_rounds(&labels, 1).unwrap();
            assert_eq!(svc.version().get(), 3);
            svc.batch_top_k(&[0, 1, 2], 3).unwrap()
        }; // drop = process "exit"
        let svc = open();
        assert_eq!(svc.version().get(), 3);
        let report = svc.recovery().unwrap();
        assert_eq!(report.loaded, vec![1, 2, 3]);
        assert!(report.skipped.is_empty());
        // Restored answers are bitwise identical to pre-restart ones.
        let restored = svc.batch_top_k(&[0, 1, 2], 3).unwrap();
        assert_eq!(restored.version.get(), 3);
        for (a, b) in answers.value.iter().zip(&restored.value) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
        // Numbering resumes monotonically: next publish is v4, on disk.
        let labels = example_labels(&svc);
        let v4 = svc.train(&labels).unwrap();
        assert_eq!(v4.version.get(), 4);
        let reg = DurableRegistry::open(td.path()).unwrap();
        assert_eq!(reg.versions().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn warm_restart_skips_corrupt_newest_and_republishes_over_it() {
        let td = daakg_store::TestDir::new("svc-corrupt");
        let open = || {
            AlignmentService::open(
                tiny_cfg(),
                ServingConfig::default(),
                Arc::new(example_dbpedia()),
                Arc::new(example_wikidata()),
                td.path(),
            )
            .unwrap()
        };
        {
            let svc = open();
            let labels = example_labels(&svc);
            svc.train(&labels).unwrap();
            svc.align_rounds(&labels, 1).unwrap();
        }
        // Corrupt the newest version on disk.
        daakg_store::fault::flip_bit(&td.path().join("v0000000003.snap"), 64, 5).unwrap();
        let svc = open();
        // Degraded to the newest intact version...
        assert_eq!(svc.version().get(), 2);
        let report = svc.recovery().unwrap();
        assert_eq!(report.loaded, vec![1, 2]);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, 3);
        assert!(matches!(report.skipped[0].1, DaakgError::Corrupt { .. }));
        assert!(report.manifest_was_stale());
        svc.rank(0).unwrap();
        // ...and the next publish reclaims version 3, atomically replacing
        // the corrupt file with an intact one.
        let labels = example_labels(&svc);
        let v3 = svc.train(&labels).unwrap();
        assert_eq!(v3.version.get(), 3);
        let reg = DurableRegistry::open(td.path()).unwrap();
        assert_eq!(reg.versions().unwrap(), vec![1, 2, 3]);
        assert!(reg.load(3).unwrap().bitwise_eq(&v3.snapshot));
    }

    #[test]
    fn prune_with_store_garbage_collects_snapshot_files() {
        let td = daakg_store::TestDir::new("svc-gc");
        let svc = AlignmentService::open(
            tiny_cfg(),
            ServingConfig::default(),
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
            td.path(),
        )
        .unwrap();
        let labels = example_labels(&svc);
        for _ in 0..3 {
            svc.align_rounds(&labels, 1).unwrap();
        }
        let deleted = svc.prune_with_store(2).unwrap();
        assert_eq!(deleted, vec![1, 2]);
        assert_eq!(svc.retained_versions(), 2);
        let reg = DurableRegistry::open(td.path()).unwrap();
        assert_eq!(reg.versions().unwrap(), vec![3, 4]);
        // Non-durable services GC nothing but still prune memory.
        let plain = example_service();
        plain.align_rounds(&labels, 1).unwrap();
        assert_eq!(plain.prune_with_store(1).unwrap(), Vec::<u64>::new());
        assert_eq!(plain.retained_versions(), 1);
    }

    /// A failing disk degrades durability, never in-memory serving: the
    /// persist error propagates (after bounded retries) and is recorded
    /// in [`AlignmentService::health`], while the publish stands and
    /// queries keep answering; a recovered disk clears the degradation.
    #[test]
    fn failing_disk_degrades_durability_not_serving() {
        let td = daakg_store::TestDir::new("svc-health");
        let svc = AlignmentService::open(
            tiny_cfg(),
            ServingConfig::default(),
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
            td.path(),
        )
        .unwrap();
        let fresh = svc.health();
        assert_eq!(fresh, ServiceHealth::default());
        // Fault injection that works regardless of privileges: occupy the
        // next version's tmp path with a *directory*, so the atomic-write
        // protocol's File::create fails (EISDIR) on every attempt.
        let blocker = td.path().join("v0000000002.snap.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let labels = example_labels(&svc);
        let err = svc.train(&labels).expect_err("persist must fail");
        assert!(matches!(err, DaakgError::IoAt { .. }));
        // The publish stands: in-memory serving moved to v2 and answers.
        assert_eq!(svc.version().get(), 2);
        assert_eq!(svc.top_k(0, 2).unwrap().version.get(), 2);
        // Health records the degradation: transient IO was retried with
        // backoff (3 attempts = 2 retries), then counted as a failure.
        let health = svc.health();
        assert!(health.durability_degraded);
        assert_eq!(health.persist_failures, 1);
        assert_eq!(health.persist_retries, 2);
        let message = health.last_persist_error.expect("error recorded");
        assert!(message.contains("v0000000002.snap"), "got: {message}");
        assert!(!health.degrade_engaged);
        // Disk "recovers": the next publish persists and clears the flag.
        std::fs::remove_dir(&blocker).unwrap();
        svc.train(&labels).expect("persist works again");
        let health = svc.health();
        assert!(!health.durability_degraded);
        assert_eq!(health.last_persist_error, None);
        assert_eq!(health.persist_failures, 1);
        // Disk state: v1 (initial), v3 (recovered publish); v2 was the
        // durability casualty — memory-only, by design.
        let reg = DurableRegistry::open(td.path()).unwrap();
        assert_eq!(reg.versions().unwrap(), vec![1, 3]);
    }

    /// Registry-level satellite: versions stay dense and strictly monotone
    /// under *concurrent* publishers.
    #[test]
    fn concurrent_publishes_yield_dense_monotone_versions() {
        let svc = example_service();
        let initial = svc.current();
        let registry = SnapshotRegistry::new((*initial.snapshot).clone());
        let per_thread = 16;
        let threads = 4;
        let mut all: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::with_capacity(per_thread);
                        for _ in 0..per_thread {
                            let v = registry.publish((*initial.snapshot).clone());
                            mine.push(v.get());
                        }
                        mine
                    })
                })
                .collect();
            let mut all = Vec::new();
            for h in handles {
                let mine = h.join().unwrap();
                // Per-thread monotonicity.
                assert!(mine.windows(2).all(|w| w[0] < w[1]));
                all.extend(mine);
            }
            all
        });
        all.sort_unstable();
        // Dense: exactly versions 2..=1+threads*per_thread, no gaps/dupes.
        let expect: Vec<u64> = (2..=(1 + threads * per_thread) as u64).collect();
        assert_eq!(all, expect);
        assert_eq!(registry.version().get(), *expect.last().unwrap());
        assert_eq!(registry.retained(), 1 + threads * per_thread);
    }

    // -- live updates --------------------------------------------------

    /// A live config whose compactor never runs on its own: folds happen
    /// only through `compact_now`, keeping the tests deterministic.
    fn manual_live() -> LiveConfig {
        LiveConfig {
            compact_after: 10_000,
            tick: std::time::Duration::from_secs(3600),
            ..LiveConfig::default()
        }
    }

    fn triple(rel: u32, neighbor: u32) -> DeltaTriple {
        DeltaTriple {
            rel,
            neighbor,
            outgoing: true,
        }
    }

    fn assert_bitwise(a: &[(u32, f32)], b: &[(u32, f32)], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.0, y.0, "{what}: id at {i}");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "{what}: score bits at {i}");
        }
    }

    /// The exactness contract: merged base ∪ delta answers are bitwise
    /// what the *folded* snapshot — the union corpus scanned by the
    /// standard engine — produces, across `rank`, `top_k`, and
    /// `batch_top_k` shapes, for k at and beyond every boundary.
    #[test]
    fn live_merged_answers_are_bitwise_the_folded_union() {
        let mut svc = example_service();
        svc.train(&example_labels(&svc)).unwrap();
        svc.enable_live(manual_live()).unwrap();
        let n2 = svc.kg2().num_entities();
        // Three new right-KG entities; the third anchors on a pending
        // delta neighbor, exercising delta-on-delta warm starts.
        let a = svc.upsert_entity(&[triple(0, 0), triple(1, 2)]).unwrap();
        assert_eq!(a as usize, n2);
        svc.upsert_entity(&[triple(0, 1)]).unwrap();
        let c = svc.upsert_entity(&[triple(1, a), triple(0, 3)]).unwrap();
        assert_eq!(c as usize, n2 + 2);
        let union_n = n2 + 3;
        let queries: Vec<u32> = (0..svc.kg1().num_entities() as u32).collect();
        let ks = [Some(0), Some(5), Some(union_n), Some(union_n + 3), None];
        let opts_of = |k: Option<usize>| match k {
            Some(k) => QueryOptions::top_k(k),
            None => QueryOptions::rank(),
        };
        let pre: Vec<_> = ks
            .iter()
            .map(|&k| {
                let single = svc.query(0, opts_of(k)).unwrap();
                assert_eq!(single.deltas_merged, 3, "k={k:?}");
                let batch = svc.query_batch(&queries, opts_of(k)).unwrap();
                assert_eq!(batch.deltas_merged, 3, "k={k:?}");
                assert_bitwise(&batch.value[0], &single.value, "batch[0] vs single");
                (single, batch)
            })
            .collect();
        // New entities are queryable pre-fold: the full ranking sees all
        // union_n candidates.
        assert_eq!(pre.last().unwrap().0.value.len(), union_n);
        // Fold: the published snapshot IS the union corpus.
        let published = svc.compact_now().unwrap().expect("entries were pending");
        assert_eq!(published.snapshot.entity_counts().1, union_n);
        assert_eq!(svc.live_health().unwrap().delta_depth, 0);
        assert!(svc.compact_now().unwrap().is_none(), "nothing left to fold");
        for (&k, (pre_single, pre_batch)) in ks.iter().zip(&pre) {
            let single = svc.query(0, opts_of(k)).unwrap();
            assert_eq!(single.deltas_merged, 0, "folded: no deltas left");
            assert_bitwise(&pre_single.value, &single.value, "single");
            let batch = svc.query_batch(&queries, opts_of(k)).unwrap();
            for (qi, (pre_r, post_r)) in pre_batch.value.iter().zip(&batch.value).enumerate() {
                assert_bitwise(pre_r, post_r, &format!("batch q={qi} k={k:?}"));
            }
        }
    }

    #[test]
    fn live_segments_warm_restart_and_survive_torn_writes() {
        let td = daakg_store::TestDir::new("live-segments");
        let open = || {
            let mut svc = AlignmentService::open(
                tiny_cfg(),
                ServingConfig::default(),
                Arc::new(example_dbpedia()),
                Arc::new(example_wikidata()),
                td.path(),
            )
            .unwrap();
            svc.enable_live(manual_live()).unwrap();
            svc
        };
        let (pre, ids) = {
            let svc = open();
            let i0 = svc.upsert_entity(&[triple(0, 0)]).unwrap();
            let i1 = svc.upsert_entity(&[triple(0, 1)]).unwrap();
            let i2 = svc.upsert_entity(&[triple(1, i0)]).unwrap();
            (svc.query(0, QueryOptions::rank()).unwrap(), [i0, i1, i2])
        };
        // Clean warm restart: every segment replays, answers are bitwise
        // what the previous process served.
        {
            let svc = open();
            let rec = svc.live_recovery().unwrap();
            assert_eq!(rec.replayed, 3);
            assert!(rec.skipped.is_empty(), "{:?}", rec.skipped);
            let post = svc.query(0, QueryOptions::rank()).unwrap();
            assert_eq!(post.deltas_merged, 3);
            assert_bitwise(&pre.value, &post.value, "restart");
        }
        // Torn write inside the middle record: replay stops at the last
        // intact prefix with a typed Corrupt diagnostic; the torn record
        // and everything after it are dropped so their ids can be
        // re-issued safely.
        let files = delta::log_files(td.path());
        assert_eq!(files.len(), 1, "the restart rewrote one live log file");
        let bytes = std::fs::read(&files[0]).unwrap();
        let mid = delta::record_spans(&bytes)[1].clone();
        std::fs::write(&files[0], &bytes[..(mid.start + mid.end) / 2]).unwrap();
        {
            let svc = open();
            let rec = svc.live_recovery().unwrap();
            assert_eq!(rec.replayed, 1, "only the intact prefix replays");
            assert!(
                rec.skipped
                    .iter()
                    .any(|(id, e)| *id == ids[1] && matches!(e, DaakgError::Corrupt { .. })),
                "torn segment must surface as Corrupt: {:?}",
                rec.skipped
            );
            let post = svc.query(0, QueryOptions::rank()).unwrap();
            assert_eq!(post.deltas_merged, 1);
            assert_eq!(
                post.value.len(),
                svc.kg2().num_entities() + 1,
                "exactly the intact prefix is queryable"
            );
            // The re-issued id lands on the first removed slot.
            assert_eq!(svc.upsert_entity(&[triple(0, 2)]).unwrap(), ids[1]);
        }
    }

    #[test]
    fn retraining_supersedes_pending_deltas() {
        let mut svc = example_service();
        svc.enable_live(manual_live()).unwrap();
        let id = svc.upsert_entity(&[triple(0, 0)]).unwrap();
        assert_eq!(svc.live_health().unwrap().delta_depth, 1);
        assert_eq!(svc.query(0, QueryOptions::rank()).unwrap().deltas_merged, 1);
        // A full retrain replaces the embedding tables the delta rows
        // were warm-started against: the pending entries are dropped,
        // not folded into the fresh publication.
        svc.train(&example_labels(&svc)).unwrap();
        let health = svc.live_health().unwrap();
        assert_eq!(health.delta_depth, 0);
        assert_eq!(health.upserts, 1, "accepted-upsert count is monotonic");
        let post = svc.query(0, QueryOptions::rank()).unwrap();
        assert_eq!(post.deltas_merged, 0);
        assert_eq!(post.value.len(), svc.kg2().num_entities());
        // The id is re-issued for the next upsert against the new tables.
        assert_eq!(svc.upsert_entity(&[triple(0, 0)]).unwrap(), id);
    }

    #[test]
    fn live_misuse_is_typed_errors() {
        let mut svc = example_service();
        // Not enabled yet: upserts and compaction are typed errors.
        assert!(matches!(
            svc.upsert_entity(&[triple(0, 0)]),
            Err(DaakgError::InvalidConfig { .. })
        ));
        assert!(matches!(
            svc.compact_now(),
            Err(DaakgError::InvalidConfig { .. })
        ));
        svc.enable_live(manual_live()).unwrap();
        // Double-enable is rejected.
        assert!(matches!(
            svc.enable_live(manual_live()),
            Err(DaakgError::InvalidConfig { .. })
        ));
        // Empty triple sets are rejected.
        assert!(matches!(
            svc.upsert_entity(&[]),
            Err(DaakgError::InvalidConfig { .. })
        ));
        // Unknown triple neighbors are bounds-checked.
        let err = svc.upsert_entity(&[triple(0, 10_000)]).unwrap_err();
        assert!(matches!(err, DaakgError::UnknownEntity { .. }), "{err}");
        // upsert_triples targets pending entities only.
        let err = svc.upsert_triples(0, &[triple(0, 0)]).unwrap_err();
        assert!(matches!(err, DaakgError::UnknownEntity { .. }), "{err}");
        // Invalid configs are rejected up front.
        let mut fresh = example_service();
        assert!(matches!(
            fresh.enable_live(LiveConfig {
                compact_after: 0,
                ..LiveConfig::default()
            }),
            Err(DaakgError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn upsert_triples_extends_a_pending_entity_deterministically() {
        let mut svc = example_service();
        svc.enable_live(manual_live()).unwrap();
        // One entity upserted with the full triple set in one call...
        let all_at_once = svc.upsert_entity(&[triple(0, 0), triple(1, 2)]).unwrap();
        let reference = svc.query(0, QueryOptions::rank()).unwrap();
        // ...must be bitwise the same as arriving incrementally: the
        // warm start depends only on the final triple set.
        let mut svc2 = example_service();
        svc2.enable_live(manual_live()).unwrap();
        let grown = svc2.upsert_entity(&[triple(0, 0)]).unwrap();
        assert_eq!(grown, all_at_once);
        svc2.upsert_triples(grown, &[triple(1, 2)]).unwrap();
        let incremental = svc2.query(0, QueryOptions::rank()).unwrap();
        assert_bitwise(&reference.value, &incremental.value, "incremental");
    }

    #[test]
    fn live_health_reports_depth_compactions_and_lag() {
        let mut svc = example_service();
        assert!(svc.live_health().is_none());
        assert!(svc.health().live.is_none());
        // Threshold above the upsert count: no background nudge fires,
        // so the pre-fold counters are deterministic.
        svc.enable_live(LiveConfig {
            compact_after: 4,
            tick: std::time::Duration::from_secs(3600),
            ..LiveConfig::default()
        })
        .unwrap();
        assert_eq!(svc.live_health().unwrap(), LiveHealth::default());
        svc.upsert_entity(&[triple(0, 0)]).unwrap();
        svc.upsert_entity(&[triple(0, 1)]).unwrap();
        svc.upsert_entity(&[triple(0, 2)]).unwrap();
        let health = svc.health().live.unwrap();
        assert_eq!(health.delta_depth, 3);
        assert_eq!(health.upserts, 3);
        assert_eq!(health.compaction_lag, 0, "under one full fold behind");
        let published = svc.compact_now().unwrap().unwrap();
        let health = svc.live_health().unwrap();
        assert_eq!(health.delta_depth, 0);
        assert_eq!(health.compactions, 1);
        assert_eq!(health.compaction_lag, 0);
        assert_eq!(health.compactor_panics, 0);
        assert_eq!(health.last_compacted_version, Some(published.version.get()));
    }

    #[test]
    fn background_compactor_folds_past_the_threshold() {
        let mut svc = example_service();
        svc.enable_live(LiveConfig {
            compact_after: 2,
            tick: std::time::Duration::from_millis(5),
            ..LiveConfig::default()
        })
        .unwrap();
        let n2 = svc.kg2().num_entities();
        svc.upsert_entity(&[triple(0, 0)]).unwrap();
        svc.upsert_entity(&[triple(0, 1)]).unwrap();
        // The threshold nudge (or the next tick) folds both entries into
        // a published snapshot without any explicit compact_now.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let health = svc.live_health().unwrap();
            if health.compactions >= 1 && health.delta_depth == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "compactor never folded: {health:?}"
            );
            std::thread::yield_now();
        }
        let post = svc.query(0, QueryOptions::rank()).unwrap();
        assert_eq!(post.deltas_merged, 0);
        assert_eq!(post.value.len(), n2 + 2, "folded corpus serves plainly");
    }

    /// A nudge folds only past the threshold. Upserts that land while a
    /// fold runs nudge with the entries it folds still counted; those
    /// nudges must not start a second fold of the few that arrived
    /// meanwhile. Here a nudge with one entry pending (threshold 2)
    /// leaves it pending, and the upsert that reaches the threshold folds.
    #[test]
    fn compactor_nudge_below_the_threshold_does_not_fold() {
        let mut svc = example_service();
        svc.enable_live(LiveConfig {
            compact_after: 2,
            tick: std::time::Duration::from_secs(3600),
            ..LiveConfig::default()
        })
        .unwrap();
        svc.upsert_entity(&[triple(0, 0)]).unwrap();
        let live = svc.live.as_ref().unwrap();
        live.compactor.as_ref().unwrap().nudge();
        std::thread::sleep(std::time::Duration::from_millis(100));
        // The nudged run has finished (it took the fold lock, or never
        // started): with the lock held here, nothing is mid-fold.
        drop(lock_recover(&live.fold_lock));
        let health = svc.live_health().unwrap();
        assert_eq!((health.compactions, health.delta_depth), (0, 1));
        svc.upsert_entity(&[triple(0, 1)]).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let health = svc.live_health().unwrap();
            if health.compactions == 1 && health.delta_depth == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the threshold nudge never folded: {health:?}"
            );
            std::thread::yield_now();
        }
    }

    /// A fold whose persist fails must NOT retire the folded delta log
    /// records: until the folded snapshot is durably on disk they are the
    /// only durable copies of the acknowledged upserts. The publish still
    /// stands in memory; a restart recovers the pre-fold snapshot and
    /// replays the surviving records, bitwise.
    #[test]
    fn failed_fold_persist_keeps_segments_and_restart_replays_them() {
        let td = daakg_store::TestDir::new("live-fold-persist");
        let open = || {
            let mut svc = AlignmentService::open(
                tiny_cfg(),
                ServingConfig::default(),
                Arc::new(example_dbpedia()),
                Arc::new(example_wikidata()),
                td.path(),
            )
            .unwrap();
            svc.enable_live(manual_live()).unwrap();
            svc
        };
        let pre = {
            let svc = open();
            let i0 = svc.upsert_entity(&[triple(0, 0)]).unwrap();
            let i1 = svc.upsert_entity(&[triple(0, 1)]).unwrap();
            let pre = svc.query(0, QueryOptions::rank()).unwrap();
            assert_eq!(pre.deltas_merged, 2);
            // Block the fold's persist (directory at the tmp path, as in
            // failing_disk_degrades_durability_not_serving).
            let blocker = td.path().join("v0000000002.snap.tmp");
            std::fs::create_dir(&blocker).unwrap();
            let err = svc.compact_now().expect_err("fold persist must fail");
            assert!(matches!(err, DaakgError::IoAt { .. }), "{err}");
            // The publish stands: readers serve the folded corpus, and
            // Exact answers are unchanged across the fold...
            assert_eq!(svc.version().get(), 2);
            let folded = svc.query(0, QueryOptions::rank()).unwrap();
            assert_eq!(folded.deltas_merged, 0);
            assert_bitwise(&pre.value, &folded.value, "fold");
            assert!(svc.health().durability_degraded);
            // ...but the log records survive the failed persist.
            let logged = delta::logged_ids(td.path());
            for id in [i0, i1] {
                assert!(
                    logged.contains(&id),
                    "record {id} must stay in a live log file"
                );
            }
            std::fs::remove_dir(&blocker).unwrap();
            pre
        };
        // Restart: the store only ever persisted v1, so recovery loads
        // the pre-fold snapshot and the replay restores both upserts.
        let svc = open();
        let rec = svc.live_recovery().unwrap();
        assert_eq!(rec.replayed, 2);
        assert!(rec.skipped.is_empty(), "{:?}", rec.skipped);
        let post = svc.query(0, QueryOptions::rank()).unwrap();
        assert_eq!(post.deltas_merged, 2);
        assert_bitwise(&pre.value, &post.value, "replay");
    }

    /// A retrain whose persist fails superseded the pending delta in
    /// memory, but no durable snapshot supersedes the log records — so
    /// they must stay on disk and replay on top of the recovered
    /// pre-retrain snapshot. Only a successfully persisted retrain
    /// retires them.
    #[test]
    fn failed_retrain_persist_keeps_superseded_segments_for_replay() {
        let td = daakg_store::TestDir::new("live-retrain-persist");
        let open = || {
            let mut svc = AlignmentService::open(
                tiny_cfg(),
                ServingConfig::default(),
                Arc::new(example_dbpedia()),
                Arc::new(example_wikidata()),
                td.path(),
            )
            .unwrap();
            svc.enable_live(manual_live()).unwrap();
            svc
        };
        let ids = {
            let svc = open();
            let i0 = svc.upsert_entity(&[triple(0, 0)]).unwrap();
            let i1 = svc.upsert_entity(&[triple(1, i0)]).unwrap();
            let blocker = td.path().join("v0000000002.snap.tmp");
            std::fs::create_dir(&blocker).unwrap();
            let labels = example_labels(&svc);
            let err = svc.train(&labels).expect_err("retrain persist must fail");
            assert!(matches!(err, DaakgError::IoAt { .. }), "{err}");
            // In memory the retrain supersedes the pending delta...
            assert_eq!(svc.live_health().unwrap().delta_depth, 0);
            assert_eq!(svc.query(0, QueryOptions::rank()).unwrap().deltas_merged, 0);
            // ...but without a durable superseding snapshot the log
            // records are not retired.
            let logged = delta::logged_ids(td.path());
            for id in [i0, i1] {
                assert!(
                    logged.contains(&id),
                    "record {id} must stay in a live log file"
                );
            }
            std::fs::remove_dir(&blocker).unwrap();
            [i0, i1]
        };
        // Restart: disk holds only the pre-retrain v1, which is exactly
        // the snapshot the segments extend — the acknowledged upserts
        // are back.
        let svc = open();
        let rec = svc.live_recovery().unwrap();
        assert_eq!(rec.replayed, 2);
        assert!(rec.skipped.is_empty(), "{:?}", rec.skipped);
        let post = svc.query(0, QueryOptions::rank()).unwrap();
        assert_eq!(post.deltas_merged, 2);
        assert_eq!(post.value.len(), svc.kg2().num_entities() + 2);
        // A retrain that persists successfully retires them for good.
        svc.train(&example_labels(&svc)).unwrap();
        let logged = delta::logged_ids(td.path());
        for id in ids {
            assert!(
                !logged.contains(&id),
                "record {id} must be retired after a persisted retrain"
            );
        }
    }

    /// A durable live service over `td` with `telemetry`, live enabled.
    fn open_durable_live(
        td: &Path,
        cfg: LiveConfig,
        telemetry: TelemetryConfig,
    ) -> AlignmentService {
        let mut svc = AlignmentService::open(
            tiny_cfg(),
            ServingConfig {
                telemetry,
                ..ServingConfig::default()
            },
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
            td,
        )
        .unwrap();
        svc.enable_live(cfg).unwrap();
        svc
    }

    /// A retrain whose persist failed must not let the next upserts —
    /// warm-started against the never-persisted tables, with re-issued
    /// ids — overwrite the only durable copies of the acknowledged ones:
    /// they are logged under the retrain's own lineage, which a restart
    /// that recovers the pre-retrain snapshot does not replay.
    #[test]
    fn live_failed_retrain_persist_never_lets_new_upserts_overwrite_acknowledged_ones() {
        let td = daakg_store::TestDir::new("live-retrain-lineage");
        let open = || open_durable_live(td.path(), manual_live(), TelemetryConfig::default());
        let (pre, j0) = {
            let svc = open();
            let i0 = svc.upsert_entity(&[triple(0, 0)]).unwrap();
            svc.upsert_entity(&[triple(1, i0)]).unwrap();
            let pre = svc.query(0, QueryOptions::rank()).unwrap();
            assert_eq!(pre.deltas_merged, 2);
            let blocker = td.path().join("v0000000002.snap.tmp");
            std::fs::create_dir(&blocker).unwrap();
            let labels = example_labels(&svc);
            svc.train(&labels).expect_err("retrain persist must fail");
            std::fs::remove_dir(&blocker).unwrap();
            // The re-anchored buffer re-issues the first delta id.
            let j0 = svc.upsert_entity(&[triple(0, 1)]).unwrap();
            assert_eq!(j0, i0);
            (pre, j0)
        };
        let svc = open();
        assert_eq!(svc.version().get(), 1, "only v1 ever persisted");
        let rec = svc.live_recovery().unwrap();
        assert_eq!(rec.replayed, 2);
        assert!(
            rec.skipped
                .iter()
                .any(|(id, e)| *id == j0 && matches!(e, DaakgError::Corrupt { .. })),
            "the never-durable lineage's upsert must be reported: {:?}",
            rec.skipped
        );
        let post = svc.query(0, QueryOptions::rank()).unwrap();
        assert_eq!(post.deltas_merged, 2);
        assert_bitwise(&pre.value, &post.value, "acknowledged upserts replay");
    }

    /// A retrain whose lineage file cannot be created does not persist:
    /// a restart picks the replayed lineage by the files on disk, so a
    /// durable v2 without its file would replay v1-lineage rows onto v2's
    /// tables. Upserts meanwhile fail with a typed IO error, and the first
    /// one after the obstacle clears creates the file itself — no
    /// compactor tick needed.
    #[test]
    fn live_retrain_without_its_log_file_never_persists() {
        let td = daakg_store::TestDir::new("live-retrain-no-log");
        let open = || open_durable_live(td.path(), manual_live(), TelemetryConfig::default());
        let n2 = example_wikidata().num_entities() as u32;
        let pre = {
            let svc = open();
            let i0 = svc.upsert_entity(&[triple(0, 0)]).unwrap();
            svc.upsert_entity(&[triple(1, i0)]).unwrap();
            let pre = svc.query(0, QueryOptions::rank()).unwrap();
            let blocker = td.path().join(format!(
                "{}{}",
                delta::log_name(2, n2),
                daakg_store::store::TMP_SUFFIX
            ));
            std::fs::create_dir(&blocker).unwrap();
            let labels = example_labels(&svc);
            let err = svc.train(&labels).expect_err("no lineage file, no persist");
            assert!(matches!(err, DaakgError::IoAt { .. }), "{err}");
            assert!(!td.path().join("v0000000002.snap").exists());
            let refused = svc.upsert_entity(&[triple(0, 1)]);
            assert!(
                matches!(refused, Err(DaakgError::IoAt { .. })),
                "{refused:?}"
            );
            std::fs::remove_dir(&blocker).unwrap();
            let j0 = svc.upsert_entity(&[triple(0, 1)]).unwrap();
            assert_eq!(j0, n2);
            assert_eq!(delta::logged_ids(td.path()), vec![n2, n2 + 1, n2]);
            pre
        };
        let svc = open();
        assert_eq!(svc.version().get(), 1, "only v1 ever persisted");
        let rec = svc.live_recovery().unwrap();
        assert_eq!(rec.replayed, 2);
        let post = svc.query(0, QueryOptions::rank()).unwrap();
        assert_eq!(post.deltas_merged, 2);
        assert_bitwise(&pre.value, &post.value, "acknowledged upserts replay");
    }

    /// Folds roll and retire log files, so a durable live service never
    /// holds more than two of them, and no per-upsert segment file is
    /// ever created.
    #[test]
    fn live_log_files_stay_bounded_and_no_segments_appear() {
        let td = daakg_store::TestDir::new("live-bounded");
        let compact_after = 4;
        let cfg = LiveConfig {
            compact_after,
            tick: std::time::Duration::from_secs(3600),
            ..LiveConfig::default()
        };
        let svc = open_durable_live(td.path(), cfg, TelemetryConfig::default());
        let count = |ext: &str| {
            std::fs::read_dir(td.path())
                .unwrap()
                .filter(|d| {
                    d.as_ref()
                        .unwrap()
                        .path()
                        .extension()
                        .is_some_and(|e| e == ext)
                })
                .count()
        };
        for i in 0..5 * compact_after {
            svc.upsert_entity(&[triple(0, (i % 3) as u32)]).unwrap();
            if (i + 1) % compact_after == 0 {
                // The threshold also nudges the background compactor;
                // whichever fold runs first, the delta drains.
                svc.compact_now().unwrap();
                assert_eq!(svc.live_health().unwrap().delta_depth, 0);
            }
            assert!(
                count("dlog") <= 2,
                "{} log files after upsert {i}",
                count("dlog")
            );
            assert_eq!(count("dseg"), 0, "no segment file, ever");
        }
        assert!(svc.live_health().unwrap().compactions >= 5);
    }

    /// A store that still holds an older release's `.dseg` segment is
    /// refused at `enable_live` with a typed error naming the file —
    /// never a silent skip, and the file is left for the operator.
    #[test]
    fn live_legacy_segment_file_is_a_typed_error_at_enable_live() {
        let td = daakg_store::TestDir::new("live-legacy");
        let open = || {
            AlignmentService::open(
                tiny_cfg(),
                ServingConfig::default(),
                Arc::new(example_dbpedia()),
                Arc::new(example_wikidata()),
                td.path(),
            )
            .unwrap()
        };
        drop(open());
        let n2 = example_wikidata().num_entities() as u32;
        let legacy = td.path().join(format!("d{n2:010}.dseg"));
        let image = delta::encode_segment(&DeltaEntry {
            global_id: n2,
            raw: vec![0.5; 8],
            triples: vec![triple(0, 0)],
        });
        std::fs::write(&legacy, image).unwrap();
        let mut svc = open();
        let err = svc.enable_live(manual_live()).unwrap_err();
        match &err {
            DaakgError::Corrupt { path, .. } => assert_eq!(path, &legacy),
            other => panic!("expected a typed Corrupt naming the segment: {other}"),
        }
        assert!(
            err.to_string().contains(&format!("d{n2:010}.dseg")),
            "{err}"
        );
        assert!(!svc.is_live());
        assert!(legacy.exists(), "the segment is left for the operator");
    }

    /// One durable upsert costs exactly one record append and one
    /// `fdatasync`, and the ack path creates, renames, or grows no file:
    /// the directory listing (names and sizes) is unchanged.
    #[test]
    fn live_upsert_ack_is_one_append_one_sync_and_no_file_create() {
        let td = daakg_store::TestDir::new("live-ack-io");
        let svc = open_durable_live(td.path(), manual_live(), TelemetryConfig::default());
        let listing = || {
            let mut v: Vec<(String, u64)> = std::fs::read_dir(td.path())
                .unwrap()
                .map(|d| {
                    let d = d.unwrap();
                    let name = d.file_name().to_string_lossy().into_owned();
                    (name, d.metadata().unwrap().len())
                })
                .collect();
            v.sort();
            v
        };
        let reg = svc.telemetry().registry().clone();
        let hist = |name: &str| {
            reg.histograms()
                .into_iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, h)| h.count())
        };
        let syncs = || {
            reg.counters()
                .into_iter()
                .find(|(n, _)| n == "delta_log_syncs_total")
                .map_or(0, |(_, v)| v)
        };
        let before = listing();
        let id = svc.upsert_entity(&[triple(0, 0)]).unwrap();
        assert_eq!(hist("stage_delta_append_ns"), 1);
        assert_eq!(hist("stage_delta_sync_ns"), 1);
        assert_eq!(syncs(), 1);
        svc.upsert_entity(&[triple(0, 1)]).unwrap();
        svc.upsert_triples(id, &[triple(1, 2)]).unwrap();
        assert_eq!(hist("stage_delta_append_ns"), 3);
        assert_eq!(hist("stage_delta_sync_ns"), 3);
        assert_eq!(syncs(), 3, "one sync per upsert");
        assert_eq!(listing(), before, "no file created, renamed, or grown");
    }

    /// Telemetry does not perturb the durable live path: with it disabled
    /// the answers and the log bytes are bitwise the enabled run's, and
    /// exposition stays dark.
    #[test]
    fn live_log_with_disabled_telemetry_is_bitwise_identical() {
        let run = |label: &str, telemetry: TelemetryConfig| {
            let td = daakg_store::TestDir::new(label);
            let svc = open_durable_live(td.path(), manual_live(), telemetry);
            let a = svc.upsert_entity(&[triple(0, 0), triple(1, 2)]).unwrap();
            svc.upsert_entity(&[triple(1, a)]).unwrap();
            svc.upsert_triples(a, &[triple(0, 3)]).unwrap();
            let answer = svc.query(0, QueryOptions::rank()).unwrap();
            let logs: Vec<(String, Vec<u8>)> = delta::log_files(td.path())
                .iter()
                .map(|p| {
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(p).unwrap())
                })
                .collect();
            let dark = svc.telemetry().registry().counters().is_empty()
                && svc.telemetry().journal().events().is_empty();
            (answer, logs, dark)
        };
        let (want, want_logs, _) = run("live-telem-on", TelemetryConfig::default());
        let (got, got_logs, dark) = run("live-telem-off", TelemetryConfig::disabled());
        assert_eq!(got.deltas_merged, 2);
        assert_bitwise(&want.value, &got.value, "answers");
        assert_eq!(want_logs, got_logs, "log files byte for byte");
        assert!(dark, "disabled telemetry records nothing");
    }

    /// Log file creation, rolls, and retirements are journaled: enabling
    /// live opens the first file, and a persisted fold rolls to a fresh
    /// file and retires the folded one.
    #[test]
    fn live_log_roll_and_retire_are_journaled() {
        use daakg_telemetry::EventKind as K;
        let td = daakg_store::TestDir::new("live-log-journal");
        let svc = open_durable_live(td.path(), manual_live(), TelemetryConfig::default());
        let n2 = svc.kg2().num_entities() as u32;
        svc.upsert_entity(&[triple(0, 0)]).unwrap();
        svc.compact_now().unwrap().expect("one entry folds");
        let log_events: Vec<_> = svc
            .telemetry()
            .journal()
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, K::DeltaLogRoll { .. } | K::DeltaLogRetire { .. }))
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            log_events,
            vec![
                K::DeltaLogRoll {
                    lineage: 1,
                    first_id: n2
                },
                K::DeltaLogRoll {
                    lineage: 1,
                    first_id: n2 + 1
                },
                K::DeltaLogRetire {
                    lineage: 1,
                    first_id: n2
                },
            ]
        );
        assert_eq!(delta::log_files(td.path()).len(), 1);
    }

    /// Delta logs extend the snapshot the store recovered. A training
    /// publish before `enable_live` supersedes them: nothing replays onto
    /// the retrained tables, and the old lineage's file is retired only
    /// once a snapshot of the new lineage has persisted.
    #[test]
    fn live_enabled_after_a_retrain_replays_no_superseded_rows() {
        let td = daakg_store::TestDir::new("live-enable-after-train");
        {
            let svc = open_durable_live(td.path(), manual_live(), TelemetryConfig::default());
            svc.upsert_entity(&[triple(0, 0)]).unwrap();
        }
        let mut svc = AlignmentService::open(
            tiny_cfg(),
            ServingConfig::default(),
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
            td.path(),
        )
        .unwrap();
        let labels = example_labels(&svc);
        svc.train(&labels).unwrap();
        svc.enable_live(manual_live()).unwrap();
        assert_eq!(svc.live_recovery().unwrap().replayed, 0);
        let post = svc.query(0, QueryOptions::rank()).unwrap();
        assert_eq!(post.deltas_merged, 0, "no row warm-started on v1 tables");
        assert_eq!(post.value.len(), svc.kg2().num_entities());
        let names = || -> Vec<String> {
            delta::log_files(td.path())
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect()
        };
        let n2 = svc.kg2().num_entities() as u32;
        assert_eq!(
            names(),
            vec![delta::log_name(1, n2), delta::log_name(2, n2)],
            "the superseded lineage waits for a persisted successor"
        );
        svc.upsert_entity(&[triple(0, 1)]).unwrap();
        svc.compact_now().unwrap().expect("one entry folds");
        assert_eq!(names(), vec![delta::log_name(2, n2 + 1)]);
    }

    /// Slabs anchor to the snapshot *version*, so a publish that keeps
    /// the right-entity count unchanged (the typical retrain) can never
    /// merge delta rows warm-started against the superseded tables —
    /// even in the window before any service-level reanchor runs.
    #[test]
    fn same_count_publish_never_merges_stale_delta_rows() {
        let mut svc = example_service();
        svc.enable_live(manual_live()).unwrap();
        svc.upsert_entity(&[triple(0, 0)]).unwrap();
        assert_eq!(svc.query(0, QueryOptions::rank()).unwrap().deltas_merged, 1);
        // Publish a same-count snapshot directly through the registry —
        // the widest version of the publish→reanchor window.
        let cur = svc.current();
        svc.registry.publish_pinned((*cur.snapshot).clone());
        let post = svc.query(0, QueryOptions::rank()).unwrap();
        assert_eq!(post.deltas_merged, 0, "stale slab must not merge");
        assert_eq!(post.value.len(), svc.kg2().num_entities());
    }

    /// `upsert_triples` holds the fold lock, so an extend can never be
    /// acknowledged while a concurrent fold drains the entry it
    /// extended: every `Ok` extend is in the folded corpus. Verified by
    /// racing extends against `compact_now` and comparing the folded
    /// answers against a service given the same final triple set up
    /// front (warm starts are deterministic in the triple set).
    #[test]
    fn upsert_triples_racing_a_fold_never_loses_acknowledged_triples() {
        for round in 0..8u32 {
            let mut svc = example_service();
            svc.enable_live(manual_live()).unwrap();
            let id = svc.upsert_entity(&[triple(0, 0)]).unwrap();
            let svc_ref = &svc;
            let landed = std::thread::scope(|scope| {
                let extender = scope.spawn(move || {
                    let mut landed = Vec::new();
                    for i in 0..6u32 {
                        if (round + i) % 3 == 0 {
                            std::thread::yield_now();
                        }
                        match svc_ref.upsert_triples(id, &[triple(1, i)]) {
                            Ok(()) => landed.push(triple(1, i)),
                            // The fold landed first: the entity is no
                            // longer pending, the extend is a typed
                            // error and nothing was acknowledged.
                            Err(DaakgError::UnknownEntity { .. }) => break,
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                    landed
                });
                scope
                    .spawn(move || svc_ref.compact_now().unwrap())
                    .join()
                    .unwrap();
                extender.join().unwrap()
            });
            svc.compact_now().unwrap();
            let mut reference = example_service();
            reference.enable_live(manual_live()).unwrap();
            let mut triples = vec![triple(0, 0)];
            triples.extend(landed);
            reference.upsert_entity(&triples).unwrap();
            reference.compact_now().unwrap();
            let got = svc.query(0, QueryOptions::rank()).unwrap();
            let want = reference.query(0, QueryOptions::rank()).unwrap();
            assert_eq!(got.deltas_merged, 0);
            assert_bitwise(&want.value, &got.value, "race round");
        }
    }

    // -- telemetry -----------------------------------------------------

    /// Satellite: a fresh service's health must read exactly as the
    /// all-zero default, for plain and live-enabled builds — including
    /// after a no-op `compact_now` (nothing pending folds nothing, so
    /// nothing may count).
    #[test]
    fn fresh_service_health_is_default() {
        assert_eq!(example_service().health(), ServiceHealth::default());
        let mut svc = example_service();
        svc.enable_live(manual_live()).unwrap();
        assert!(svc.compact_now().unwrap().is_none(), "nothing pending");
        let want = ServiceHealth {
            live: Some(LiveHealth::default()),
            ..ServiceHealth::default()
        };
        assert_eq!(svc.health(), want);
    }

    /// The default-enabled telemetry surface: the initial publication is
    /// counted and journaled, queries land in the stage histograms, and
    /// both exposition formats render the cells.
    #[test]
    fn telemetry_records_stages_counters_and_journal() {
        let svc = example_indexed_service();
        let t = svc.telemetry();
        assert!(t.is_enabled());
        let counter = |name: &str| {
            t.registry()
                .counters()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
        };
        assert_eq!(counter("snapshot_publish_total"), Some(1));
        let publishes: Vec<_> = t
            .journal()
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, daakg_telemetry::EventKind::SnapshotPublish { .. }))
            .collect();
        assert_eq!(publishes.len(), 1, "initial publication journaled");

        // An exact and an approx query populate their stage histograms.
        svc.query(0, QueryOptions::top_k(3)).unwrap();
        svc.query(
            0,
            QueryOptions::top_k(3).with_mode(QueryMode::Approx { nprobe: 3 }),
        )
        .unwrap();
        let hist = |name: &str| {
            t.registry()
                .histograms()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.count())
                .unwrap_or(0)
        };
        assert_eq!(hist("stage_exact_scan_ns"), 1);
        assert_eq!(hist("stage_ivf_probe_ns"), 1);
        assert_eq!(hist("stage_ivf_scan_ns"), 1);

        let text = t.render_prometheus();
        assert!(text.contains("daakg_snapshot_publish_total 1"), "{text}");
        assert!(
            text.contains("daakg_stage_exact_scan_seconds_count 1"),
            "{text}"
        );
        let json = t.render_json();
        assert!(json.contains("\"snapshot_publish_total\""), "{json}");
        assert!(json.contains("\"snapshot_publish\""), "{json}");
    }

    /// Disabled telemetry goes fully dark — no cells, empty exposition —
    /// while serving itself (and the health surface, backed by private
    /// always-on cells) keeps working.
    #[test]
    fn disabled_telemetry_serves_identically_and_keeps_health() {
        let enabled = example_service();
        let disabled = AlignmentService::with_serving(
            tiny_cfg(),
            ServingConfig {
                telemetry: TelemetryConfig::disabled(),
                ..ServingConfig::default()
            },
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
        )
        .unwrap();
        assert!(!disabled.telemetry().is_enabled());
        let want = enabled.query(0, QueryOptions::top_k(3)).unwrap();
        let got = disabled.query(0, QueryOptions::top_k(3)).unwrap();
        assert_bitwise(&want.value, &got.value, "telemetry must not perturb");
        assert!(disabled.telemetry().registry().counters().is_empty());
        assert!(disabled.telemetry().registry().histograms().is_empty());
        assert!(disabled.telemetry().journal().events().is_empty());
        assert_eq!(disabled.health(), ServiceHealth::default());
    }

    /// Each training call records exactly one sample in its stage
    /// histogram — `train` in `stage_train_ns`, every fine-tune flavour in
    /// `stage_fine_tune_ns` — and its stages inside them: one `train` is
    /// one warm-up, `align_epochs` alignment steps and a round-state
    /// refresh every 5 epochs plus a final one; one fine-tune is
    /// `fine_tune_epochs` steps and one refresh.
    #[test]
    fn training_calls_record_one_train_or_fine_tune_sample_each() {
        let svc = example_service();
        let hist = |name: &str| {
            svc.telemetry()
                .registry()
                .histograms()
                .into_iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, h)| h.count())
        };
        let counts = || {
            [
                "stage_train_ns",
                "stage_fine_tune_ns",
                "stage_warm_up_ns",
                "stage_align_step_ns",
                "stage_round_scan_ns",
            ]
            .map(hist)
        };
        let cfg = tiny_cfg();
        let (steps, scans) = (
            cfg.align_epochs as u64,
            cfg.align_epochs.div_ceil(5) as u64 + 1,
        );
        let tune = cfg.fine_tune_epochs as u64;
        assert_eq!(counts(), [0, 0, 0, 0, 0]);
        let labels = example_labels(&svc);
        svc.train(&labels).unwrap();
        assert_eq!(counts(), [1, 0, 1, steps, scans]);
        svc.fine_tune(&labels).unwrap();
        assert_eq!(counts(), [1, 1, 1, steps + tune, scans + 1]);
        svc.fine_tune_with_inferred(&labels, &[(1, 1, 0.9)], 0.5)
            .unwrap();
        assert_eq!(counts(), [1, 2, 1, steps + 2 * tune, scans + 2]);
        svc.train(&labels).unwrap();
        assert_eq!(counts(), [2, 2, 2, 2 * steps + 2 * tune, 2 * scans + 2]);
    }

    /// The training spans do not perturb training: a service with
    /// telemetry disabled trains and fine-tunes to bitwise the enabled
    /// service's snapshots, and records nothing.
    #[test]
    fn disabled_telemetry_trains_bitwise_identical_snapshots() {
        let enabled = example_service();
        let disabled = AlignmentService::with_serving(
            tiny_cfg(),
            ServingConfig {
                telemetry: TelemetryConfig::disabled(),
                ..ServingConfig::default()
            },
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
        )
        .unwrap();
        let labels = example_labels(&enabled);
        let (want, got) = (
            enabled.train(&labels).unwrap(),
            disabled.train(&labels).unwrap(),
        );
        assert!(want.snapshot.bitwise_eq(&got.snapshot), "train");
        let inferred = [(1, 1, 0.9)];
        let want = enabled
            .fine_tune_with_inferred(&labels, &inferred, 0.5)
            .unwrap();
        let got = disabled
            .fine_tune_with_inferred(&labels, &inferred, 0.5)
            .unwrap();
        assert!(want.snapshot.bitwise_eq(&got.snapshot), "fine-tune");
        assert!(disabled.telemetry().registry().histograms().is_empty());
    }

    /// Health stays live with telemetry disabled: a failing disk is
    /// still observable through `health()` even though exposition is
    /// dark — the health cells come from a private always-on registry.
    #[test]
    fn disabled_telemetry_still_reports_persist_faults() {
        let td = daakg_store::TestDir::new("svc-telem-dark");
        let svc = AlignmentService::open(
            tiny_cfg(),
            ServingConfig {
                telemetry: TelemetryConfig::disabled(),
                ..ServingConfig::default()
            },
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
            td.path(),
        )
        .unwrap();
        let blocker = td.path().join("v0000000002.snap.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let labels = example_labels(&svc);
        svc.train(&labels).expect_err("persist must fail");
        let health = svc.health();
        assert!(health.durability_degraded);
        assert_eq!(health.persist_failures, 1);
        assert_eq!(health.persist_retries, 2);
        assert!(health.last_persist_error.is_some());
        // Exposition stays dark: the failure is *not* in the public
        // registry or journal.
        assert!(svc.telemetry().registry().counters().is_empty());
        assert!(svc.telemetry().journal().events().is_empty());
    }

    /// The full live lifecycle lands in the journal in causal order:
    /// publish (v1) → fold start → publish (v2) → fold done, with
    /// strictly monotonic sequence numbers and timestamps.
    #[test]
    fn journal_orders_fold_lifecycle_causally() {
        use daakg_telemetry::EventKind as K;
        let mut svc = example_service();
        svc.enable_live(manual_live()).unwrap();
        svc.upsert_entity(&[triple(0, 0)]).unwrap();
        let published = svc.compact_now().unwrap().expect("one entry folds");
        assert_eq!(published.version.get(), 2);
        let events = svc.telemetry().journal().events();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            vec![
                "snapshot_publish",
                "fold_start",
                "snapshot_publish",
                "fold_done"
            ],
            "causal order"
        );
        assert!(
            events
                .windows(2)
                .all(|w| w[0].seq < w[1].seq && w[0].at_ns <= w[1].at_ns),
            "monotonic seq + time"
        );
        match (&events[1].kind, &events[3].kind) {
            (K::FoldStart { anchor, pending }, K::FoldDone { version, folded }) => {
                assert_eq!(*anchor, 1);
                assert_eq!(*pending, 1);
                assert_eq!(*version, 2);
                assert_eq!(*folded, 1);
            }
            other => panic!("unexpected fold events: {other:?}"),
        }
        // The fold also landed in the maintenance-stage histograms.
        let hist = |name: &str| {
            svc.telemetry()
                .registry()
                .histograms()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.count())
                .unwrap_or(0)
        };
        assert_eq!(hist("stage_fold_ns"), 1);
        assert_eq!(hist("stage_republish_ns"), 1);
        assert_eq!(hist("stage_warm_start_ns"), 1);
        assert_eq!(hist("stage_delta_merge_ns"), 0, "no query ran");
    }

    /// A retrain that supersedes pending deltas journals the
    /// supersession with the dropped count.
    #[test]
    fn retrain_supersession_is_journaled() {
        use daakg_telemetry::EventKind as K;
        let mut svc = example_service();
        svc.enable_live(manual_live()).unwrap();
        svc.upsert_entity(&[triple(0, 0)]).unwrap();
        svc.upsert_entity(&[triple(0, 1)]).unwrap();
        let labels = example_labels(&svc);
        let published = svc.train(&labels).unwrap();
        let superseded: Vec<_> = svc
            .telemetry()
            .journal()
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                K::RetrainSupersede { version, dropped } => Some((version, dropped)),
                _ => None,
            })
            .collect();
        assert_eq!(superseded, vec![(published.version.get(), 2)]);
    }
}
