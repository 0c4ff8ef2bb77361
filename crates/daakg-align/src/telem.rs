//! The service-side telemetry bundle: every stage histogram, lifecycle
//! counter, and health cell the serving/maintenance path records into,
//! pre-registered once at service construction so hot paths never touch
//! the registry's name map.
//!
//! # Metric taxonomy
//!
//! | kind | name | records |
//! |---|---|---|
//! | counter | `ingress_queries_total` | queries admitted through the ingress |
//! | counter | `ingress_batches_total` | batched kernel dispatches |
//! | counter | `ingress_shed_total` | admissions rejected at capacity |
//! | counter | `ingress_expired_total` | deadline sheds (admission + dequeue) |
//! | counter | `ingress_degraded_total` | `Exact` queries served `Approx` under degradation |
//! | counter | `ingress_panics_total` | caught dispatch panics |
//! | counter | `persist_failures_total` | publications whose persist failed after retries |
//! | counter | `persist_retries_total` | transient-IO persist retries |
//! | counter | `snapshot_publish_total` | snapshot publications (training + folds) |
//! | counter | `compactions_total` | delta folds committed |
//! | counter | `delta_log_syncs_total` | delta log `fdatasync`s (one per durable upsert) |
//! | gauge | `ingress_queue_depth_max` | high-water mark of the pending queue |
//! | gauge | `ingress_degrade_engaged` | 1 while the [`crate::DegradePolicy`] is engaged |
//! | gauge | `durability_degraded` | 1 while the latest persist failed |
//! | histogram | `stage_ingress_queue_wait_ns` | admission → dequeue wait |
//! | histogram | `stage_ingress_execute_ns` | batched dispatch execution |
//! | histogram | `stage_shard_scan_ns` | one partition's scan of one query range (2+ partitions) |
//! | histogram | `stage_shard_merge_ns` | merge of the partitions' lists (2+ partitions) |
//! | histogram | `stage_exact_scan_ns` | one query range's exhaustive scan (one partition) |
//! | histogram | `stage_serving_build_ns` | a version's serving set, built on the publishing thread |
//! | histogram | `stage_ivf_probe_ns` | IVF centroid probe |
//! | histogram | `stage_ivf_scan_ns` | IVF inverted-list scan |
//! | histogram | `stage_delta_merge_ns` | live delta-slab merge into an answer |
//! | histogram | `stage_train_ns` | full training: warm-up plus alignment rounds |
//! | histogram | `stage_fine_tune_ns` | active-learning focal fine-tune |
//! | histogram | `stage_warm_up_ns` | the embedding warm-up of one full training |
//! | histogram | `stage_align_step_ns` | one alignment optimizer step (training and fine-tune) |
//! | histogram | `stage_round_scan_ns` | one round-state refresh: snapshot build + fused Eq. 6 / mining scan |
//! | histogram | `stage_warm_start_ns` | upsert warm-start fine-tune |
//! | histogram | `stage_delta_append_ns` | delta log record encode + `pwrite` |
//! | histogram | `stage_delta_sync_ns` | delta log `fdatasync` (the upsert ack) |
//! | histogram | `stage_fold_ns` | compaction fold (snapshot build) |
//! | histogram | `stage_republish_ns` | compaction compare-and-publish |
//! | histogram | `stage_persist_ns` | full persist (retries included) |
//! | histogram | `stage_store_write_ns` | store tmp-file byte write |
//! | histogram | `stage_store_fsync_ns` | store fsync + rename + dir-fsync |

use crate::joint::TrainSpans;
use daakg_index::SearchSpans;
use daakg_store::StoreSpans;
use daakg_telemetry::{
    Counter, EventKind, Gauge, HistogramHandle, MetricsRegistry, Telemetry, TelemetryConfig,
};

/// Pre-registered handles for everything the service records.
///
/// Health cells (`durability_degraded`, `persist_failures`,
/// `persist_retries`) are minted from a private always-on registry when
/// telemetry is disabled, so [`crate::AlignmentService::health`] keeps
/// reporting persist faults either way — only *exposition* and the
/// hot-path stage histograms go dark when telemetry is off.
#[derive(Debug, Clone)]
pub(crate) struct ServiceTelemetry {
    pub telemetry: Telemetry,
    // Stage histograms.
    pub exact_scan: HistogramHandle,
    pub shard_scan: HistogramHandle,
    pub shard_merge: HistogramHandle,
    pub serving_build: HistogramHandle,
    pub search: SearchSpans,
    pub delta_merge: HistogramHandle,
    pub train: HistogramHandle,
    pub fine_tune: HistogramHandle,
    pub training: TrainSpans,
    pub warm_start: HistogramHandle,
    pub delta_append: HistogramHandle,
    pub delta_sync: HistogramHandle,
    pub fold: HistogramHandle,
    pub republish: HistogramHandle,
    pub persist: HistogramHandle,
    pub store: StoreSpans,
    // Lifecycle counters.
    pub snapshot_publish: Counter,
    pub compactions: Counter,
    pub delta_log_syncs: Counter,
    // Health cells (always live — see type docs).
    pub durability_degraded: Gauge,
    pub persist_failures: Counter,
    pub persist_retries: Counter,
}

impl ServiceTelemetry {
    pub fn new(config: TelemetryConfig) -> Self {
        let telemetry = Telemetry::new(config);
        let reg = telemetry.registry().clone();
        // Keep the health surface alive when exposition is off.
        let health = if reg.is_enabled() {
            reg.clone()
        } else {
            MetricsRegistry::new()
        };
        Self {
            exact_scan: reg.histogram("stage_exact_scan_ns"),
            shard_scan: reg.histogram("stage_shard_scan_ns"),
            shard_merge: reg.histogram("stage_shard_merge_ns"),
            serving_build: reg.histogram("stage_serving_build_ns"),
            search: SearchSpans {
                probe: reg.histogram("stage_ivf_probe_ns"),
                scan: reg.histogram("stage_ivf_scan_ns"),
            },
            delta_merge: reg.histogram("stage_delta_merge_ns"),
            train: reg.histogram("stage_train_ns"),
            fine_tune: reg.histogram("stage_fine_tune_ns"),
            training: TrainSpans {
                warm_up: reg.histogram("stage_warm_up_ns"),
                align_step: reg.histogram("stage_align_step_ns"),
                round_scan: reg.histogram("stage_round_scan_ns"),
            },
            warm_start: reg.histogram("stage_warm_start_ns"),
            delta_append: reg.histogram("stage_delta_append_ns"),
            delta_sync: reg.histogram("stage_delta_sync_ns"),
            fold: reg.histogram("stage_fold_ns"),
            republish: reg.histogram("stage_republish_ns"),
            persist: reg.histogram("stage_persist_ns"),
            store: StoreSpans {
                write: reg.histogram("stage_store_write_ns"),
                fsync: reg.histogram("stage_store_fsync_ns"),
            },
            snapshot_publish: reg.counter("snapshot_publish_total"),
            compactions: reg.counter("compactions_total"),
            delta_log_syncs: reg.counter("delta_log_syncs_total"),
            durability_degraded: health.gauge("durability_degraded"),
            persist_failures: health.counter("persist_failures_total"),
            persist_retries: health.counter("persist_retries_total"),
            telemetry,
        }
    }

    /// Record a lifecycle event into the journal (no-op when disabled).
    pub fn event(&self, kind: EventKind) {
        self.telemetry.event(kind);
    }
}

impl Default for ServiceTelemetry {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}
