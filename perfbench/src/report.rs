//! Run accounting (operations, checks, metrics), the result line, and the
//! small statistics every workload shares.

use daakg::MetricsRegistry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything one run reports: per-phase operation counts, the outcome of
/// every output check, and the metrics of the requested mode.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    broken: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Record one phase's operations and print them as a progress line.
    pub fn phase(&mut self, name: &str, sent: u64, failed: u64) {
        println!(
            "phase {name}: sent {sent}, succeeded {}, failed {failed}",
            sent - failed
        );
        self.attempted += sent;
        self.failed += failed;
    }

    /// Record an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("CHECK FAILED: {what}");
            self.broken.push(what);
        }
    }

    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn is_correct(&self) -> bool {
        self.broken.is_empty()
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, on one line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                // Non-finite values have no JSON spelling; they only arise
                // from an empty sample, which the checks already flag.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.is_correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Elapsed seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Elapsed milliseconds since `t0`.
pub fn millis(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank quantile of an ascending slice (`0.0` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The tail of a sample: the highest percentile with at least ten samples
/// beyond it, capped at the 99th (the maximum below eleven samples).
pub fn tail(values: &[f64]) -> f64 {
    let s = sorted(values);
    let q = (1.0 - 10.0 / s.len().max(1) as f64).clamp(0.0, 0.99);
    if s.len() < 11 {
        s.last().copied().unwrap_or(0.0)
    } else {
        quantile(&s, q)
    }
}

/// `stat` of each fixed time window, read at the quietest quarter of the
/// windows (their lower quartile). Neighbours on a shared host slow whole
/// stretches of a run; this keeps the figure on the program's own latency
/// while a change that slows every window still moves it. `samples` are
/// `(offset_s, value)`; windows with fewer than `min` samples are skipped
/// (the whole sample is used when none qualifies).
pub fn windowed(samples: &[(f64, f64)], window_s: f64, min: usize, stat: fn(&[f64]) -> f64) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        windows.entry((t / window_s) as u64).or_default().push(v);
    }
    let per_window: Vec<f64> = windows
        .values()
        .filter(|w| w.len() >= min)
        .map(|w| stat(w))
        .collect();
    if per_window.is_empty() {
        stat(&samples.iter().map(|s| s.1).collect::<Vec<_>>())
    } else {
        quantile(&sorted(&per_window), 0.25)
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Quantile of a registry stage histogram, in microseconds.
pub fn stage_us(reg: &MetricsRegistry, stage: &str, q: f64) -> f64 {
    reg.histogram(stage)
        .histogram()
        .map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
}

/// Total recorded time of a registry stage histogram, in milliseconds.
pub fn stage_sum_ms(reg: &MetricsRegistry, stage: &str) -> f64 {
    reg.histogram(stage)
        .histogram()
        .map_or(0.0, |h| h.sum() as f64 / 1e6)
}

/// Number of samples in a registry stage histogram.
pub fn stage_count(reg: &MetricsRegistry, stage: &str) -> f64 {
    reg.histogram(stage)
        .histogram()
        .map_or(0.0, |h| h.count() as f64)
}

/// Every per-layer metric the traced run reports, with its unit. Each
/// workload fills the layers it exercises; the rest read 0, which is
/// itself the measurement (no training on `serve`, no store on
/// `campaign`, ...).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("joint.train_ms", "ms"),
    ("joint.fine_tune_ms", "ms"),
    ("joint.fine_tune_p50_ms", "ms"),
    ("active.candidates_ms", "ms"),
    ("active.candidates", "count"),
    ("active.select_ms", "ms"),
    ("active.questions", "count"),
    ("active.positive_frac", "frac"),
    ("infer.closure_ms", "ms"),
    ("infer.inferred", "count"),
    ("infer.accepted_frac", "frac"),
    ("eval.ms", "ms"),
    ("eval.final_mrr", "frac"),
    ("ingress.queue_wait_p50_us", "us"),
    ("ingress.queue_wait_p99_us", "us"),
    ("ingress.execute_p50_us", "us"),
    ("ingress.mean_batch", "count"),
    ("ingress.max_depth", "count"),
    ("ingress.shed", "count"),
    ("ingress.expired", "count"),
    ("shard.scan_p50_us", "us"),
    ("shard.scan_sum_ms", "ms"),
    ("shard.merge_p50_us", "us"),
    ("index.exact_scan_p50_us", "us"),
    ("index.ivf_probe_p50_us", "us"),
    ("index.ivf_scan_p50_us", "us"),
    ("index.recall_at_10", "frac"),
    ("delta.warm_start_p50_us", "us"),
    ("delta.merge_p50_us", "us"),
    ("store.write_p50_us", "us"),
    ("store.fsync_p50_us", "us"),
    ("store.fsync_count", "count"),
    ("store.dir_mb_end", "MB"),
    ("store.files_end", "count"),
    ("compact.folds", "count"),
    ("compact.fold_p50_ms", "ms"),
    ("compact.persist_p50_ms", "ms"),
    ("compact.delta_depth_max", "count"),
    ("registry.retained_versions_end", "count"),
    ("live.first_query_after_publish_p50_ms", "ms"),
    ("live.first_query_after_publish_max_ms", "ms"),
    ("tail.op_ms", "ms"),
    ("tail.read_ms", "ms"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
];

/// Every end-to-end metric the untraced run reports, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("max_qps", "1/s"),
    ("quality", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Copy the registry's serving-path stages: ingress, shard scatter and
    /// merge, IVF probe and scan, delta merge, warm start, store, fold and
    /// persist.
    pub fn read_registry(&mut self, reg: &MetricsRegistry) {
        let counter = |name: &str| reg.counter(name).get() as f64;
        self.set(
            "ingress.queue_wait_p50_us",
            stage_us(reg, "stage_ingress_queue_wait_ns", 0.5),
        );
        self.set(
            "ingress.queue_wait_p99_us",
            stage_us(reg, "stage_ingress_queue_wait_ns", 0.99),
        );
        self.set(
            "ingress.execute_p50_us",
            stage_us(reg, "stage_ingress_execute_ns", 0.5),
        );
        let batches = counter("ingress_batches_total");
        if batches > 0.0 {
            self.set(
                "ingress.mean_batch",
                counter("ingress_queries_total") / batches,
            );
        }
        self.set(
            "ingress.max_depth",
            reg.gauge("ingress_queue_depth_max").get() as f64,
        );
        self.set("ingress.shed", counter("ingress_shed_total"));
        self.set("ingress.expired", counter("ingress_expired_total"));
        self.set("shard.scan_p50_us", stage_us(reg, "stage_shard_scan_ns", 0.5));
        self.set("shard.scan_sum_ms", stage_sum_ms(reg, "stage_shard_scan_ns"));
        self.set(
            "shard.merge_p50_us",
            stage_us(reg, "stage_shard_merge_ns", 0.5),
        );
        self.set(
            "index.ivf_probe_p50_us",
            stage_us(reg, "stage_ivf_probe_ns", 0.5),
        );
        self.set("index.ivf_scan_p50_us", stage_us(reg, "stage_ivf_scan_ns", 0.5));
        self.set(
            "delta.warm_start_p50_us",
            stage_us(reg, "stage_warm_start_ns", 0.5),
        );
        self.set("delta.merge_p50_us", stage_us(reg, "stage_delta_merge_ns", 0.5));
        self.set("store.write_p50_us", stage_us(reg, "stage_store_write_ns", 0.5));
        self.set("store.fsync_p50_us", stage_us(reg, "stage_store_fsync_ns", 0.5));
        self.set("store.fsync_count", stage_count(reg, "stage_store_fsync_ns"));
        self.set(
            "compact.fold_p50_ms",
            stage_us(reg, "stage_fold_ns", 0.5) / 1e3,
        );
        self.set(
            "compact.persist_p50_ms",
            stage_us(reg, "stage_persist_ns", 0.5) / 1e3,
        );
    }

    /// Write every per-layer metric (0 for layers this workload does not
    /// exercise) into the report.
    pub fn emit(&self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            report.set(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// End-to-end values of one untraced run, keyed by [`END_TO_END`] name.
#[derive(Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub op_p50_ms: f64,
    pub read_p50_ms: f64,
    pub max_qps: f64,
    pub quality: f64,
}

impl EndToEnd {
    pub fn emit(&self, report: &mut Report) {
        let values = [
            self.setup_s,
            self.op_p50_ms,
            self.read_p50_ms,
            self.max_qps,
            self.quality,
            peak_rss_mb(),
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            report.check(value > 0.0 && value.is_finite(), format!("{name} measured"));
            report.set(name, value, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), 90.0);
        let s: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&s), 4950.0);
        assert_eq!(tail(&[3.0, 1.0]), 3.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.phase("p", 3, 1);
        r.set("x_ms", 1.5, "ms");
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
