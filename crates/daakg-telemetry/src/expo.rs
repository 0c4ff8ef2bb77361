//! Exposition: render a [`crate::Telemetry`] snapshot as Prometheus-style
//! text or as a JSON document.
//!
//! Both renderers read the registry's name-sorted snapshots, so output
//! is deterministic for a given set of recorded values. Histograms are
//! rendered as Prometheus *summaries* (p50/p95/p99 quantile samples plus
//! `_sum`/`_count`), with durations converted from the internal
//! nanosecond unit to seconds as the Prometheus convention demands; the
//! JSON dump keeps raw nanoseconds and includes the event journal.

use crate::journal::{Event, EventKind};
use crate::Telemetry;

const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Render the registry as Prometheus text exposition format. Metric
/// names get a `daakg_` prefix; histogram samples are emitted in
/// seconds under `<name>_seconds` (a trailing `_ns` in the registered
/// name is replaced by the seconds unit suffix — the internal
/// nanosecond unit never leaks into exposition names).
pub fn render_prometheus(t: &Telemetry) -> String {
    let mut out = String::new();
    for (name, value) in t.registry().counters() {
        let full = format!("daakg_{name}");
        out.push_str(&format!("# TYPE {full} counter\n{full} {value}\n"));
    }
    for (name, value) in t.registry().gauges() {
        let full = format!("daakg_{name}");
        out.push_str(&format!("# TYPE {full} gauge\n{full} {value}\n"));
    }
    for (name, hist) in t.registry().histograms() {
        let base = name.strip_suffix("_ns").unwrap_or(&name);
        let full = format!("daakg_{base}_seconds");
        out.push_str(&format!("# TYPE {full} summary\n"));
        for (q, label) in QUANTILES {
            out.push_str(&format!(
                "{full}{{quantile=\"{label}\"}} {}\n",
                fmt_f64(hist.quantile(q) as f64 * 1e-9)
            ));
        }
        out.push_str(&format!(
            "{full}_sum {}\n{full}_count {}\n",
            fmt_f64(hist.sum() as f64 * 1e-9),
            hist.count()
        ));
    }
    let journal = t.journal();
    if journal.is_active() {
        out.push_str(&format!(
            "# TYPE daakg_journal_events_total counter\ndaakg_journal_events_total {}\n",
            journal.recorded()
        ));
        out.push_str(&format!(
            "# TYPE daakg_journal_events_dropped_total counter\ndaakg_journal_events_dropped_total {}\n",
            journal.dropped()
        ));
    }
    out
}

/// Render the registry and journal as a JSON document. Histogram values
/// stay in nanoseconds.
pub fn render_json(t: &Telemetry) -> String {
    let mut out = String::from("{");
    out.push_str("\"enabled\":");
    out.push_str(if t.is_enabled() { "true" } else { "false" });

    out.push_str(",\"counters\":{");
    push_scalar_map(&mut out, &t.registry().counters());
    out.push_str("},\"gauges\":{");
    push_scalar_map(&mut out, &t.registry().gauges());
    out.push_str("},\"histograms\":{");
    for (i, (name, hist)) in t.registry().histograms().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}:{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
            json_string(name),
            hist.count(),
            hist.sum(),
            hist.min(),
            hist.max(),
            hist.quantile(0.5),
            hist.quantile(0.95),
            hist.quantile(0.99),
        ));
    }
    out.push_str("},\"events\":[");
    for (i, e) in t.journal().events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_event(&mut out, e);
    }
    out.push_str(&format!("],\"events_dropped\":{}}}", t.journal().dropped()));
    out
}

fn push_scalar_map(out: &mut String, entries: &[(String, u64)]) {
    for (i, (name, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{value}", json_string(name)));
    }
}

fn push_event(out: &mut String, e: &Event) {
    out.push_str(&format!(
        "{{\"seq\":{},\"at_ns\":{},\"kind\":{}",
        e.seq,
        e.at_ns,
        json_string(e.kind.name())
    ));
    match &e.kind {
        EventKind::SnapshotPublish { version } => {
            out.push_str(&format!(",\"version\":{version}"));
        }
        EventKind::FoldStart { anchor, pending } => {
            out.push_str(&format!(",\"anchor\":{anchor},\"pending\":{pending}"));
        }
        EventKind::FoldDone { version, folded } => {
            out.push_str(&format!(",\"version\":{version},\"folded\":{folded}"));
        }
        EventKind::RetrainSupersede { version, dropped } => {
            out.push_str(&format!(",\"version\":{version},\"dropped\":{dropped}"));
        }
        EventKind::DeltaLogRoll { lineage, first_id }
        | EventKind::DeltaLogRetire { lineage, first_id } => {
            out.push_str(&format!(",\"lineage\":{lineage},\"first_id\":{first_id}"));
        }
        EventKind::QueryShed { depth }
        | EventKind::DegradeEngage { depth }
        | EventKind::DegradeRecover { depth } => {
            out.push_str(&format!(",\"depth\":{depth}"));
        }
        EventKind::PersistRetry { version, attempt } => {
            out.push_str(&format!(",\"version\":{version},\"attempt\":{attempt}"));
        }
        EventKind::PersistFailure { version, error } => {
            out.push_str(&format!(
                ",\"version\":{version},\"error\":{}",
                json_string(error)
            ));
        }
        EventKind::DeadlineExpired | EventKind::CompactorPanic => {}
    }
    out.push('}');
}

/// Escape a string for embedding in JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an f64 the way Prometheus expects (plain decimal, no
/// exponent for the magnitudes we emit).
fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.9}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    fn sample() -> Telemetry {
        let t = Telemetry::new(TelemetryConfig::default());
        t.registry().counter("ingress_queries_total").add(42);
        t.registry().gauge("ingress_queue_depth_max").set(7);
        let h = t.registry().histogram("stage_ingress_execute_ns");
        h.record(1_000);
        h.record(2_000_000);
        t.event(EventKind::SnapshotPublish { version: 3 });
        t.event(EventKind::PersistFailure {
            version: 3,
            error: "no \"space\" left\n".into(),
        });
        t
    }

    #[test]
    fn prometheus_render_has_types_quantiles_and_prefix() {
        let text = render_prometheus(&sample());
        assert!(text.contains("# TYPE daakg_ingress_queries_total counter"));
        assert!(text.contains("daakg_ingress_queries_total 42"));
        assert!(text.contains("# TYPE daakg_ingress_queue_depth_max gauge"));
        assert!(text.contains("# TYPE daakg_stage_ingress_execute_seconds summary"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("daakg_stage_ingress_execute_seconds_count 2"));
        assert!(
            !text.contains("_ns_seconds"),
            "nanosecond unit leaked into an exposition name: {text}"
        );
        assert!(text.contains("daakg_journal_events_total 2"));
    }

    #[test]
    fn json_render_is_escaped_and_structured() {
        let json = render_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ingress_queries_total\":42"));
        assert!(json.contains("\"p99_ns\":"));
        assert!(json.contains("\"kind\":\"snapshot_publish\""));
        // The error string round-trips with quotes and newline escaped.
        assert!(json.contains("no \\\"space\\\" left\\n"));
        // Balanced braces/brackets outside of strings — a cheap
        // well-formedness check without a JSON parser dependency.
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn disabled_telemetry_renders_empty() {
        let t = Telemetry::disabled();
        let text = render_prometheus(&t);
        assert!(text.is_empty());
        let json = render_json(&t);
        assert!(json.contains("\"enabled\":false"));
        assert!(json.contains("\"counters\":{}"));
        assert!(json.contains("\"events\":[]"));
    }
}
