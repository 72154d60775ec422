//! Zero-cost-when-off observability for the daas-lab pipeline.
//!
//! The layer is compiled into every hot-path crate but **disabled by
//! default**: each instrumentation site performs exactly one relaxed
//! atomic load ([`enabled`]) and bails out, so the pipeline's artifacts
//! and schedules are untouched — equivalence suites pass with the
//! recorder on or off, and `cargo bench -p daas-bench --bench
//! obs_overhead` tracks the residual cost of the disabled path.
//!
//! Three pieces (DESIGN.md §11):
//!
//! * **Spans** ([`span!`]) — named regions with monotonic start/duration
//!   timing, thread id and parent linkage, recorded into a lock-cheap
//!   sharded ring buffer ([`span`] module). Drained as JSONL.
//! * **Metrics** ([`metrics`]) — typed counters, gauges and fixed-bucket
//!   histograms, aggregated per thread and merged at drain (merging is
//!   commutative, so the drained snapshot is independent of the thread
//!   schedule).
//! * **Sinks** ([`sink`]) — a JSONL trace log, a Prometheus text
//!   exposition, a JSON run summary (validated in CI against
//!   `schemas/metrics_summary.schema.json`) and the human-readable
//!   `--timings` digest.
//!
//! Naming convention: `stage.object.event{label}` — e.g.
//! `cache.classify.hit`, `live.window.update_ms{stage=detect}`,
//! `measure.report_ms{report=victims}`. `_ms` suffixes mark duration
//! histograms on the shared [`metrics::MS_BUCKETS`] bounds.
//!
//! The recorder is process-global. [`drain`] flushes the calling
//! thread's local aggregates plus everything worker threads flushed on
//! exit (scoped workers always exit — and therefore flush — before
//! their scope returns), then clears all state. Instrumentation
//! never feeds back into the pipeline: enabling it cannot change any
//! artifact, only record what happened.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod rolling;
pub mod sink;
pub mod slo;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use metrics::{
    add, add_l, gauge, gauge_l, inc, observe_ms, observe_ms_l, HistogramSnapshot,
    MetricsSnapshot, MS_BUCKETS,
};
pub use rolling::{RollingWindow, WindowView};
pub use sink::{
    human_summary, metrics_json, prometheus_text, summary_json, write_sinks, write_trace_jsonl,
};
pub use slo::{SloEvaluation, SloOutcome, SloRule, SloSpec, SloStat, SloVerdict};
pub use span::{SpanGuard, SpanRecord};

/// Global recorder switch. Default off: every instrumentation site costs
/// one relaxed load of this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic epoch all span timestamps are relative to, fixed at the
/// first call (i.e. when the recorder is first enabled).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether the recorder is on. The single hot-path check: one relaxed
/// atomic load; everything else is behind it.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on or off. Enabling pins the monotonic epoch on
/// first use. Disabling stops new recording; already-recorded state
/// stays until [`drain`].
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the recorder epoch.
#[inline]
pub(crate) fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Everything recorded since the last drain: the span log (sorted by
/// start time) and the merged metrics snapshot.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Completed spans, sorted by `(start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the ring buffer before this drain.
    pub dropped_spans: u64,
    /// Spans evicted over the whole process lifetime (never reset).
    pub evicted_total: u64,
    /// Per-thread metric slots registered at drain time.
    pub thread_slots: usize,
    /// Merged counters, gauges and histograms.
    pub metrics: MetricsSnapshot,
}

/// Drains and clears all recorded state: the span ring buffer and the
/// metric aggregates (the calling thread's locals are flushed first;
/// worker threads flush on exit, so drain after joining them).
pub fn drain() -> ObsReport {
    let (spans, dropped_spans) = span::drain_spans();
    let (metrics, thread_slots) = metrics::drain_metrics();
    ObsReport { spans, dropped_spans, evicted_total: span::evicted_total(), thread_slots, metrics }
}

/// A **non-destructive** interval snapshot of the merged metrics: every
/// per-thread slot is merged without being reset, so `drain()`'s
/// end-of-run semantics are untouched no matter how many snapshots were
/// taken or on what schedule. This is the live-scrape path (`daas-serve`
/// renders it as Prometheus text); per-slot locking guarantees no
/// histogram is ever torn (`count` == Σ buckets + overflow).
pub fn snapshot() -> MetricsSnapshot {
    metrics::snapshot_metrics().0
}

/// [`snapshot`] plus the number of per-thread metric slots swept.
pub fn snapshot_with_slots() -> (MetricsSnapshot, usize) {
    metrics::snapshot_metrics()
}

/// Starts a span when the recorder is enabled; a no-op guard otherwise.
///
/// ```
/// let _span = daas_obs::span!("snowball.round", round = 3);
/// ```
///
/// Labels are formatted only when the recorder is on, so arbitrary
/// `Display` expressions are free in the disabled case.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            #[allow(unused_mut)]
            let mut __labels = ::std::string::String::new();
            $(
                if !__labels.is_empty() {
                    __labels.push(',');
                }
                __labels.push_str(::std::stringify!($key));
                __labels.push('=');
                __labels.push_str(&::std::string::ToString::to_string(&$value));
            )*
            $crate::SpanGuard::begin($name, __labels)
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Times `f` into the duration histogram `name{label_key=label_val}`
/// when the recorder is enabled; calls `f` directly (no clock read)
/// otherwise.
#[inline]
pub fn timed<T>(name: &'static str, label_key: &'static str, label_val: &str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    observe_ms_l(name, label_key, label_val, t0.elapsed().as_secs_f64() * 1e3);
    out
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The recorder is process-global; unit tests that enable/drain it
    // serialize on this lock so the harness schedule cannot interleave
    // their state.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = test_lock();
        set_enabled(false);
        drain();
        let _span = span!("test.noop", idx = 1);
        inc("test.counter");
        gauge("test.gauge", 1.0);
        observe_ms("test.hist_ms", 5.0);
        let report = drain();
        assert!(report.spans.is_empty());
        assert!(report.metrics.counters.is_empty());
        assert!(report.metrics.gauges.is_empty());
        assert!(report.metrics.histograms.is_empty());
    }

    #[test]
    fn enabled_recorder_captures_span_tree_and_metrics() {
        let _guard = test_lock();
        set_enabled(true);
        drain();
        {
            let _outer = span!("test.outer");
            let _inner = span!("test.inner", step = 2);
            inc("test.hits");
            add("test.hits", 2);
        }
        set_enabled(false);
        let report = drain();
        assert_eq!(report.spans.len(), 2);
        let outer = report.spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = report.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id), "parent linkage");
        assert_eq!(inner.labels, "step=2");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.thread, inner.thread);
        assert!(outer.start_ns <= inner.start_ns);
        assert_eq!(report.metrics.counters.get("test.hits"), Some(&3));
    }

    #[test]
    fn timed_observes_only_when_enabled() {
        let _guard = test_lock();
        set_enabled(false);
        drain();
        assert_eq!(timed("test.t_ms", "k", "v", || 7), 7);
        assert!(drain().metrics.histograms.is_empty());
        set_enabled(true);
        assert_eq!(timed("test.t_ms", "k", "v", || 7), 7);
        set_enabled(false);
        let report = drain();
        let hist = report.metrics.histograms.get("test.t_ms{k=v}").expect("histogram recorded");
        assert_eq!(hist.count, 1);
    }
}
