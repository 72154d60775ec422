//! Sinks: JSONL trace log, Prometheus text exposition, JSON run summary
//! and the human-readable `--timings` digest, plus [`write_sinks`], which
//! writes the first three to the files a run asked for.
//!
//! Every sink walks sorted snapshots, so output is deterministic given
//! the recorded data. The JSONL and summary-JSON schemas are stable
//! interfaces — `schemas/metrics_summary.schema.json` is checked in and
//! validated in CI (`obs_validate`), and the JSONL keys are pinned by
//! `tests/` in this crate.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::json::{escape_into, fmt_num};
use crate::metrics::MetricsSnapshot;
use crate::span::SpanRecord;
use crate::ObsReport;

/// Writes the trace as JSON Lines: one `meta` record, then one `span`
/// record per completed span (sorted by start time).
///
/// Schema (all keys always present):
/// * meta — `{"type":"meta","version":1,"spans":N,"dropped_spans":M}`
/// * span — `{"type":"span","id":u64,"parent":u64|null,"thread":u64,
///   "name":str,"labels":str,"start_ns":u64,"dur_ns":u64}`
pub fn write_trace_jsonl(report: &ObsReport, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "{{\"type\":\"meta\",\"version\":1,\"spans\":{},\"dropped_spans\":{}}}",
        report.spans.len(),
        report.dropped_spans
    )?;
    let mut line = String::new();
    for span in &report.spans {
        line.clear();
        span_jsonl(&mut line, span);
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Writes a drained report to the file sinks a run asked for: the JSONL
/// span trace at `trace`, and the JSON run summary at `metrics` plus its
/// Prometheus exposition at `<metrics>.prom`. Stops at the first failed
/// write or flush, with an error naming the file.
pub fn write_sinks(
    report: &ObsReport,
    trace: Option<&Path>,
    metrics: Option<&Path>,
) -> Result<(), String> {
    if let Some(path) = trace {
        write_file(path, |out| write_trace_jsonl(report, out))?;
    }
    if let Some(path) = metrics {
        write_file(path, |out| out.write_all(summary_json(report).as_bytes()))?;
        let mut prom = path.as_os_str().to_owned();
        prom.push(".prom");
        write_file(Path::new(&prom), |out| {
            out.write_all(prometheus_text(&report.metrics).as_bytes())
        })?;
    }
    Ok(())
}

/// Creates `path`, fills it through a buffered writer and flushes it.
fn write_file(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), String> {
    File::create(path)
        .map(BufWriter::new)
        .and_then(|mut out| {
            fill(&mut out)?;
            out.flush()
        })
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn span_jsonl(out: &mut String, span: &SpanRecord) {
    out.push_str("{\"type\":\"span\",\"id\":");
    let _ = write!(out, "{}", span.id);
    out.push_str(",\"parent\":");
    match span.parent {
        Some(parent) => {
            let _ = write!(out, "{parent}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"thread\":{}", span.thread);
    out.push_str(",\"name\":");
    escape_into(out, span.name);
    out.push_str(",\"labels\":");
    escape_into(out, &span.labels);
    let _ = write!(out, ",\"start_ns\":{},\"dur_ns\":{}}}", span.start_ns, span.dur_ns);
}

/// Renders the run summary as one JSON document (the `--metrics-out`
/// artifact; CI validates it against
/// `schemas/metrics_summary.schema.json`).
pub fn summary_json(report: &ObsReport) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"version\": 1,\n");
    let _ = write!(
        out,
        "  \"spans\": {{\"recorded\": {}, \"dropped\": {}, \"evicted_total\": {}, \"thread_slots\": {}}},\n",
        report.spans.len(),
        report.dropped_spans,
        report.evicted_total,
        report.thread_slots
    );

    out.push_str("  \"counters\": {");
    let mut first = true;
    for (key, value) in &report.metrics.counters {
        sep(&mut out, &mut first);
        escape_into(&mut out, key);
        let _ = write!(out, ": {value}");
    }
    out.push_str(close_brace(first));

    out.push_str("  \"gauges\": {");
    let mut first = true;
    for (key, value) in &report.metrics.gauges {
        sep(&mut out, &mut first);
        escape_into(&mut out, key);
        out.push_str(": ");
        fmt_num(&mut out, *value);
    }
    out.push_str(close_brace(first));

    out.push_str("  \"histograms\": {");
    let mut first = true;
    for (key, hist) in &report.metrics.histograms {
        sep(&mut out, &mut first);
        escape_into(&mut out, key);
        let _ = write!(out, ": {{\"count\": {}, \"sum_ms\": ", hist.count);
        fmt_num(&mut out, hist.sum_ms);
        out.push_str(", \"min_ms\": ");
        fmt_num(&mut out, hist.min_ms);
        out.push_str(", \"max_ms\": ");
        fmt_num(&mut out, hist.max_ms);
        out.push_str(", \"p50_ms\": ");
        fmt_num(&mut out, hist.quantile_ms(0.5).unwrap_or(0.0));
        out.push_str(", \"p95_ms\": ");
        fmt_num(&mut out, hist.quantile_ms(0.95).unwrap_or(0.0));
        let _ = write!(out, ", \"overflow\": {}, \"buckets\": [", hist.overflow);
        for (i, (le, count)) in hist.buckets.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"le\": ");
            fmt_num(&mut out, *le);
            let _ = write!(out, ", \"count\": {count}}}");
        }
        out.push_str("]}");
    }
    if first {
        out.push_str("}\n");
    } else {
        out.push_str("\n  }\n");
    }
    out.push('}');
    out.push('\n');
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        out.push_str("\n    ");
        *first = false;
    } else {
        out.push_str(",\n    ");
    }
}

fn close_brace(first: bool) -> &'static str {
    if first {
        "},\n"
    } else {
        "\n  },\n"
    }
}

/// Renders a live [`MetricsSnapshot`] as one compact JSON object —
/// the body of the daemon's `obs` query. Unlike [`summary_json`] this
/// is single-line (JSONL-embeddable) and omits per-bucket arrays:
/// histograms carry count / sum / min / max, the p50/p95/p99 estimates
/// and the overflow count (the full bucket layout is available from
/// `GET /metrics`).
pub fn metrics_json(metrics: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"counters\":{");
    let mut first = true;
    for (key, value) in &metrics.counters {
        if !first {
            out.push(',');
        }
        first = false;
        escape_into(&mut out, key);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"gauges\":{");
    let mut first = true;
    for (key, value) in &metrics.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        escape_into(&mut out, key);
        out.push(':');
        fmt_num(&mut out, *value);
    }
    out.push_str("},\"histograms\":{");
    let mut first = true;
    for (key, hist) in &metrics.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        escape_into(&mut out, key);
        let _ = write!(out, ":{{\"count\":{},\"sum_ms\":", hist.count);
        fmt_num(&mut out, hist.sum_ms);
        out.push_str(",\"min_ms\":");
        fmt_num(&mut out, hist.min_ms);
        out.push_str(",\"max_ms\":");
        fmt_num(&mut out, hist.max_ms);
        out.push_str(",\"p50_ms\":");
        fmt_num(&mut out, hist.quantile_ms(0.5).unwrap_or(0.0));
        out.push_str(",\"p95_ms\":");
        fmt_num(&mut out, hist.quantile_ms(0.95).unwrap_or(0.0));
        out.push_str(",\"p99_ms\":");
        fmt_num(&mut out, hist.quantile_ms(0.99).unwrap_or(0.0));
        let _ = write!(out, ",\"overflow\":{}}}", hist.overflow);
    }
    out.push_str("}}");
    out
}

/// Renders the metrics in the Prometheus text exposition format. Metric
/// names are prefixed `daas_` with `.`/`-` mapped to `_`; the single
/// `key=value` label becomes a Prometheus label. Histograms emit the
/// conventional cumulative `_bucket{le=...}`, `_sum` and `_count`
/// series.
pub fn prometheus_text(metrics: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let mut last_type_for: Option<String> = None;
    for (key, value) in &metrics.counters {
        let (name, label) = prom_name(key);
        type_line(&mut out, &mut last_type_for, &name, "counter");
        let _ = writeln!(out, "{name}{label} {value}");
    }
    last_type_for = None;
    for (key, value) in &metrics.gauges {
        let (name, label) = prom_name(key);
        type_line(&mut out, &mut last_type_for, &name, "gauge");
        let mut rendered = String::new();
        fmt_num(&mut rendered, *value);
        let _ = writeln!(out, "{name}{label} {rendered}");
    }
    last_type_for = None;
    for (key, hist) in &metrics.histograms {
        let (name, label) = prom_name(key);
        type_line(&mut out, &mut last_type_for, &name, "histogram");
        let base_label = label.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
        let mut cumulative = 0u64;
        for (le, count) in &hist.buckets {
            cumulative += count;
            let mut bound = String::new();
            fmt_num(&mut bound, *le);
            match base_label {
                Some(inner) => {
                    let _ = writeln!(out, "{name}_bucket{{{inner},le=\"{bound}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
            }
        }
        cumulative += hist.overflow;
        match base_label {
            Some(inner) => {
                let _ = writeln!(out, "{name}_bucket{{{inner},le=\"+Inf\"}} {cumulative}");
            }
            None => {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            }
        }
        let mut sum = String::new();
        fmt_num(&mut sum, hist.sum_ms);
        let _ = writeln!(out, "{name}_sum{label} {sum}");
        let _ = writeln!(out, "{name}_count{label} {}", hist.count);
    }
    out
}

/// Splits a snapshot key (`name` or `name{k=v}`) into the sanitized
/// Prometheus metric name and a rendered `{k="v"}` label clause.
fn prom_name(key: &str) -> (String, String) {
    let (raw_name, raw_label) = match key.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}').unwrap_or(rest)),
        None => (key, ""),
    };
    let mut name = String::with_capacity(raw_name.len() + 5);
    name.push_str("daas_");
    for c in raw_name.chars() {
        name.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    let label = match raw_label.split_once('=') {
        Some((k, v)) => format!("{{{k}=\"{v}\"}}", k = k, v = prom_label_value(v)),
        None => String::new(),
    };
    (name, label)
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and line feed — backslash first, or the
/// other escapes' own backslashes would be doubled.
fn prom_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn type_line(out: &mut String, last: &mut Option<String>, name: &str, kind: &str) {
    if last.as_deref() != Some(name) {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        *last = Some(name.to_string());
    }
}

/// A compact human digest for `--timings`: every counter and gauge, and
/// each histogram's count/mean/max. Deterministically sorted; intended
/// for stderr.
pub fn human_summary(report: &ObsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "obs: {} spans ({} dropped) | {} counters | {} gauges | {} histograms",
        report.spans.len(),
        report.dropped_spans,
        report.metrics.counters.len(),
        report.metrics.gauges.len(),
        report.metrics.histograms.len(),
    );
    for (key, value) in &report.metrics.counters {
        let _ = writeln!(out, "  counter {key} = {value}");
    }
    for (key, value) in &report.metrics.gauges {
        let _ = writeln!(out, "  gauge   {key} = {value:.3}");
    }
    for (key, hist) in &report.metrics.histograms {
        let mean = if hist.count == 0 { 0.0 } else { hist.sum_ms / hist.count as f64 };
        let _ = writeln!(
            out,
            "  hist    {key}: count {} | mean {:.3}ms | min {:.3}ms | max {:.3}ms",
            hist.count, mean, hist.min_ms, hist.max_ms,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn sample_report() -> ObsReport {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        crate::drain();
        {
            let _root = crate::span!("sink.root");
            let _child = crate::span!("sink.child", idx = 1);
            crate::add("sink.counter", 3);
            crate::add_l("sink.labeled", "shard", "2", 1);
            crate::gauge("sink.gauge", 1.5);
            crate::observe_ms_l("sink.lat_ms", "report", "victims", 0.7);
            crate::observe_ms_l("sink.lat_ms", "report", "victims", 2000.0);
        }
        crate::set_enabled(false);
        crate::drain()
    }

    #[test]
    fn jsonl_lines_parse_with_stable_keys() {
        let report = sample_report();
        let mut buf = Vec::new();
        write_trace_jsonl(&report, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + report.spans.len());

        let meta = parse(lines[0]).unwrap();
        let meta = meta.as_obj().unwrap();
        assert_eq!(meta["type"].as_str(), Some("meta"));
        assert_eq!(meta["version"].as_num(), Some(1.0));
        assert_eq!(meta["spans"].as_num(), Some(report.spans.len() as f64));
        assert_eq!(meta["dropped_spans"].as_num(), Some(0.0));

        for line in &lines[1..] {
            let span = parse(line).unwrap();
            let span = span.as_obj().unwrap();
            // The pinned JSONL span schema: exactly these keys.
            let keys: Vec<&str> = span.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                ["dur_ns", "id", "labels", "name", "parent", "start_ns", "thread", "type"],
            );
            assert_eq!(span["type"].as_str(), Some("span"));
            assert!(matches!(span["parent"], Value::Num(_) | Value::Null));
            assert!(span["dur_ns"].as_num().is_some());
        }
    }

    #[test]
    fn summary_json_is_valid_and_complete() {
        let report = sample_report();
        let doc = parse(&summary_json(&report)).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["version"].as_num(), Some(1.0));
        assert_eq!(obj["counters"].as_obj().unwrap()["sink.counter"].as_num(), Some(3.0));
        assert_eq!(
            obj["counters"].as_obj().unwrap()["sink.labeled{shard=2}"].as_num(),
            Some(1.0)
        );
        assert_eq!(obj["gauges"].as_obj().unwrap()["sink.gauge"].as_num(), Some(1.5));
        let hist =
            obj["histograms"].as_obj().unwrap()["sink.lat_ms{report=victims}"].as_obj().unwrap();
        assert_eq!(hist["count"].as_num(), Some(2.0));
        assert_eq!(hist["overflow"].as_num(), Some(1.0));
        assert_eq!(
            hist["buckets"].as_arr().unwrap().len(),
            crate::MS_BUCKETS.len(),
            "every fixed bucket is always present"
        );
        // Percentile estimates: 0.7ms lands in the (0.5, 1.0] bucket, so
        // the interpolated median is the bucket's upper bound; the
        // overflowing 2000ms observation saturates p95 at max_ms.
        assert_eq!(hist["p50_ms"].as_num(), Some(1.0));
        assert_eq!(hist["p95_ms"].as_num(), Some(2000.0));
    }

    #[test]
    fn summary_json_reports_slot_and_eviction_accounting() {
        let mut report = sample_report();
        report.evicted_total = 17;
        report.thread_slots = 3;
        let doc = parse(&summary_json(&report)).unwrap();
        let spans = doc.as_obj().unwrap()["spans"].as_obj().unwrap();
        assert_eq!(spans["recorded"].as_num(), Some(report.spans.len() as f64));
        assert_eq!(spans["dropped"].as_num(), Some(0.0));
        assert_eq!(spans["evicted_total"].as_num(), Some(17.0));
        assert_eq!(spans["thread_slots"].as_num(), Some(3.0));
    }

    #[test]
    fn metrics_json_is_single_line_and_parses(){
        let report = sample_report();
        let rendered = metrics_json(&report.metrics);
        assert!(!rendered.contains('\n'), "JSONL-embeddable");
        let doc = parse(&rendered).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["counters"].as_obj().unwrap()["sink.counter"].as_num(), Some(3.0));
        assert_eq!(obj["gauges"].as_obj().unwrap()["sink.gauge"].as_num(), Some(1.5));
        let hist =
            obj["histograms"].as_obj().unwrap()["sink.lat_ms{report=victims}"].as_obj().unwrap();
        assert_eq!(hist["count"].as_num(), Some(2.0));
        assert_eq!(hist["overflow"].as_num(), Some(1.0));
        assert!(hist["p99_ms"].as_num().is_some());
        assert!(!hist.contains_key("buckets"), "compact: no bucket array");
        let empty = parse(&metrics_json(&MetricsSnapshot::default())).unwrap();
        assert_eq!(empty.as_obj().unwrap()["counters"], Value::Obj(Default::default()));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("sink.weird{path=a\\b\"c\nd}".into(), 1);
        let text = prometheus_text(&metrics);
        assert!(
            text.contains(r#"daas_sink_weird{path="a\\b\"c\nd"} 1"#),
            "backslash, quote and newline escaped, got: {text}"
        );
        assert!(!text.contains('\n') || text.lines().count() == 2, "no raw newline in the value");
    }

    #[test]
    fn empty_report_summary_is_still_valid() {
        let report = ObsReport::default();
        let doc = parse(&summary_json(&report)).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["counters"], Value::Obj(Default::default()));
        assert_eq!(obj["histograms"], Value::Obj(Default::default()));
    }

    #[test]
    fn prometheus_text_shape() {
        let report = sample_report();
        let text = prometheus_text(&report.metrics);
        assert!(text.contains("# TYPE daas_sink_counter counter"));
        assert!(text.contains("daas_sink_counter 3"));
        assert!(text.contains("daas_sink_labeled{shard=\"2\"} 1"));
        assert!(text.contains("# TYPE daas_sink_gauge gauge"));
        assert!(text.contains("# TYPE daas_sink_lat_ms histogram"));
        assert!(text.contains("daas_sink_lat_ms_bucket{report=\"victims\",le=\"+Inf\"} 2"));
        assert!(text.contains("daas_sink_lat_ms_count{report=\"victims\"} 2"));
    }

    #[test]
    fn human_summary_lists_everything() {
        let report = sample_report();
        let digest = human_summary(&report);
        assert!(digest.contains("counter sink.counter = 3"));
        assert!(digest.contains("gauge   sink.gauge = 1.500"));
        assert!(digest.contains("hist    sink.lat_ms{report=victims}: count 2"));
    }

    #[test]
    fn write_sinks_writes_each_requested_file_and_names_a_failed_one() {
        let report = sample_report();
        let dir = std::env::temp_dir().join(format!("daas_obs_sinks_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace, metrics) = (dir.join("trace.jsonl"), dir.join("metrics.json"));
        write_sinks(&report, Some(&trace), Some(&metrics)).unwrap();
        let mut jsonl = Vec::new();
        write_trace_jsonl(&report, &mut jsonl).unwrap();
        assert_eq!(std::fs::read(&trace).unwrap(), jsonl);
        assert_eq!(std::fs::read_to_string(&metrics).unwrap(), summary_json(&report));
        let prom = std::fs::read_to_string(dir.join("metrics.json.prom")).unwrap();
        assert_eq!(prom, prometheus_text(&report.metrics));

        let missing = dir.join("no_such_dir").join("trace.jsonl");
        let err = write_sinks(&report, Some(&missing), None).unwrap_err();
        assert!(err.starts_with(&format!("{}: ", missing.display())), "{err}");
        write_sinks(&report, None, None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
