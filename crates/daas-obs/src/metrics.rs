//! Typed metrics: counters, gauges and fixed-bucket histograms.
//!
//! Every recording call lands in a thread-local slot (one uncontended
//! mutex lock; no cross-thread contention on the hot path). Each slot
//! is also registered in a global list the moment its thread first
//! records, and [`drain_metrics`](crate::metrics) merges directly from
//! that list — so a drain sees every recording that happened before it,
//! regardless of whether the recording thread has fully exited.
//! (Flushing from TLS destructors instead is a trap: `thread::scope`
//! unblocks when a worker's closure returns, *before* its TLS
//! destructors run, so a drain right after the scope could miss the
//! worker's flush.) Merging is commutative and associative per metric
//! type (sum, max, bucket-wise add), which makes the drained snapshot a
//! pure function of the multiset of recording calls: the thread
//! schedule can change *who* held a partial aggregate, never the merged
//! result (asserted by the merge-determinism unit test).
//!
//! Gauges merge by **max**: the pipeline uses them for set-once sizes
//! and stage durations, where the maximum is both deterministic and the
//! value of interest. Duration histograms share one fixed bucket layout
//! ([`MS_BUCKETS`]) so every `_ms` series is comparable across runs and
//! stages.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use crate::enabled;

/// Fixed histogram bucket upper bounds, in milliseconds. Observations
/// above the last bound land in the implicit overflow bucket.
pub const MS_BUCKETS: [f64; 14] =
    [0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0];

/// Metric identity: a static name plus an optional pre-formatted
/// `key=value` label ("" when unlabeled).
type Key = (&'static str, String);

/// One histogram's running aggregate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Histogram {
    /// Per-bucket (non-cumulative) counts, parallel to [`MS_BUCKETS`].
    buckets: [u64; MS_BUCKETS.len()],
    /// Observations above the last bucket bound.
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; MS_BUCKETS.len()],
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, value: f64) {
        match MS_BUCKETS.iter().position(|&bound| value <= bound) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One thread's (or the global pending) aggregate.
#[derive(Debug, Default)]
struct Aggregate {
    counters: HashMap<Key, u64>,
    gauges: HashMap<Key, f64>,
    histograms: HashMap<Key, Histogram>,
}

impl Aggregate {
    fn merge_from(&mut self, other: Aggregate) {
        for (key, value) in other.counters {
            *self.counters.entry(key).or_insert(0) += value;
        }
        for (key, value) in other.gauges {
            let slot = self.gauges.entry(key).or_insert(f64::NEG_INFINITY);
            *slot = slot.max(value);
        }
        for (key, hist) in other.histograms {
            self.histograms.entry(key).or_insert_with(Histogram::new).merge(&hist);
        }
    }

    /// Non-consuming merge: the source slot keeps its aggregate (the
    /// interval-snapshot path — [`snapshot_metrics`] must leave every
    /// recording in place for the eventual [`drain_metrics`]).
    fn merge_ref(&mut self, other: &Aggregate) {
        for (key, value) in &other.counters {
            *self.counters.entry(key.clone()).or_insert(0) += value;
        }
        for (key, value) in &other.gauges {
            let slot = self.gauges.entry(key.clone()).or_insert(f64::NEG_INFINITY);
            *slot = slot.max(*value);
        }
        for (key, hist) in &other.histograms {
            self.histograms.entry(key.clone()).or_insert_with(Histogram::new).merge(hist);
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// One thread's slot: the registry and the owning thread's TLS share it
/// via `Arc`. The mutex is uncontended except while a drain sweeps.
struct Slot(Mutex<Aggregate>);

/// Every slot ever handed to a recording thread. A slot outlives its
/// thread (the registry keeps it alive), so recordings made by a worker
/// that exited before the drain are still merged; drains prune slots
/// whose thread is gone and whose aggregate has been taken.
static REGISTRY: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Slot> = {
        let slot = Arc::new(Slot(Mutex::new(Aggregate::default())));
        REGISTRY
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(Arc::clone(&slot));
        slot
    };
}

fn with_local(f: impl FnOnce(&mut Aggregate)) {
    // If the TLS slot is already destroyed (thread teardown), the
    // recording is dropped — no pipeline code records there.
    let _ = LOCAL
        .try_with(|slot| f(&mut slot.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())));
}

/// Increments counter `name` by 1. No-op while the recorder is off.
#[inline]
pub fn inc(name: &'static str) {
    add(name, 1);
}

/// Adds `n` to counter `name`. No-op while the recorder is off.
#[inline]
pub fn add(name: &'static str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    with_local(|agg| *agg.counters.entry((name, String::new())).or_insert(0) += n);
}

/// Adds `n` to counter `name{label_key=label_val}`.
#[inline]
pub fn add_l(name: &'static str, label_key: &'static str, label_val: &str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    with_local(|agg| {
        *agg.counters.entry((name, format!("{label_key}={label_val}"))).or_insert(0) += n;
    });
}

/// Sets gauge `name` (thread-merge: max). No-op while the recorder is off.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_local(|agg| {
        agg.gauges.insert((name, String::new()), value);
    });
}

/// Sets gauge `name{label_key=label_val}` (thread-merge: max).
#[inline]
pub fn gauge_l(name: &'static str, label_key: &'static str, label_val: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_local(|agg| {
        agg.gauges.insert((name, format!("{label_key}={label_val}")), value);
    });
}

/// Records `value` (milliseconds) into histogram `name`. No-op while
/// the recorder is off.
#[inline]
pub fn observe_ms(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_local(|agg| {
        agg.histograms.entry((name, String::new())).or_insert_with(Histogram::new).observe(value)
    });
}

/// Records `value` (milliseconds) into `name{label_key=label_val}`.
#[inline]
pub fn observe_ms_l(name: &'static str, label_key: &'static str, label_val: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_local(|agg| {
        agg.histograms
            .entry((name, format!("{label_key}={label_val}")))
            .or_insert_with(Histogram::new)
            .observe(value)
    });
}

/// A drained histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (ms).
    pub sum_ms: f64,
    /// Smallest observation (ms).
    pub min_ms: f64,
    /// Largest observation (ms).
    pub max_ms: f64,
    /// `(upper bound ms, non-cumulative count)` per [`MS_BUCKETS`] bucket.
    pub buckets: Vec<(f64, u64)>,
    /// Observations above the last bound.
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (`0.0..=1.0`) in milliseconds, by linear
    /// interpolation inside the fixed [`MS_BUCKETS`]; `None` when the
    /// histogram is empty. Estimates are clamped to the observed
    /// `[min_ms, max_ms]` range, and ranks falling past the last bound
    /// (the overflow region) saturate at `max_ms` — the same
    /// convention Prometheus' `histogram_quantile` applies to an
    /// upper-bounded histogram.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        let mut lower = 0.0f64;
        for &(bound, n) in &self.buckets {
            if n > 0 {
                if (seen + n) as f64 >= rank {
                    let within = (rank - seen as f64) / n as f64;
                    let est = lower + (bound - lower) * within;
                    return Some(est.clamp(self.min_ms, self.max_ms));
                }
                seen += n;
            }
            lower = bound;
        }
        Some(self.max_ms)
    }
}

/// The merged result of every metric recorded since the last drain.
/// Keys render the naming convention: `name` or `name{key=value}`.
/// `BTreeMap` so iteration — and every sink — is deterministically
/// sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket duration histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 when never recorded.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Gauge value, if recorded.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }
}

fn render_key((name, label): &Key) -> String {
    if label.is_empty() {
        (*name).to_string()
    } else {
        format!("{name}{{{label}}}")
    }
}

/// Renders a merged aggregate as the sorted public snapshot.
fn to_snapshot(aggregate: &Aggregate) -> MetricsSnapshot {
    if aggregate.is_empty() {
        return MetricsSnapshot::default();
    }
    let mut snapshot = MetricsSnapshot::default();
    for (key, value) in &aggregate.counters {
        snapshot.counters.insert(render_key(key), *value);
    }
    for (key, value) in &aggregate.gauges {
        snapshot.gauges.insert(render_key(key), *value);
    }
    for (key, hist) in &aggregate.histograms {
        snapshot.histograms.insert(
            render_key(key),
            HistogramSnapshot {
                count: hist.count,
                sum_ms: hist.sum,
                min_ms: if hist.count == 0 { 0.0 } else { hist.min },
                max_ms: if hist.count == 0 { 0.0 } else { hist.max },
                buckets: MS_BUCKETS.iter().copied().zip(hist.buckets.iter().copied()).collect(),
                overflow: hist.overflow,
            },
        );
    }
    snapshot
}

/// Takes every registered thread's aggregate and renders the sorted
/// snapshot, plus the slot count swept. Clears everything; slots of
/// exited threads are pruned.
pub(crate) fn drain_metrics() -> (MetricsSnapshot, usize) {
    let mut aggregate = Aggregate::default();
    let slots;
    {
        let mut registry = REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        slots = registry.len();
        registry.retain(|slot| {
            let taken =
                std::mem::take(&mut *slot.0.lock().unwrap_or_else(|p| p.into_inner()));
            aggregate.merge_from(taken);
            // strong_count == 1 means the owning thread's TLS handle is
            // gone; its (now empty) slot can be dropped.
            Arc::strong_count(slot) > 1
        });
    }
    (to_snapshot(&aggregate), slots)
}

/// Merges every registered thread's aggregate **without resetting
/// anything** — the interval-snapshot path behind
/// [`snapshot`](crate::snapshot). A later [`drain_metrics`] still sees
/// every recording, so end-of-run `drain()` summaries are independent
/// of how many snapshots were taken in between.
///
/// Consistency: each per-thread slot is cloned under its own lock, so a
/// histogram can never be torn (its `count` always equals the sum of
/// its bucket counts plus overflow). Across slots the merge is a
/// point-in-time sweep — recordings that land on an unswept slot while
/// the sweep runs appear in the next snapshot.
pub(crate) fn snapshot_metrics() -> (MetricsSnapshot, usize) {
    // Clone the Arc list first so recording threads never wait on the
    // registry lock while slots are being merged.
    let slots: Vec<Arc<Slot>> = REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .iter()
        .map(Arc::clone)
        .collect();
    let mut aggregate = Aggregate::default();
    for slot in &slots {
        let guard = slot.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        aggregate.merge_ref(&guard);
    }
    (to_snapshot(&aggregate), slots.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn reset() {
        crate::set_enabled(false);
        crate::drain();
    }

    #[test]
    fn histogram_bucketing_boundaries() {
        let mut hist = Histogram::new();
        // On-boundary values land in the bucket they bound (`<=`).
        hist.observe(0.05);
        hist.observe(0.050001);
        hist.observe(1000.0);
        hist.observe(1000.1); // overflow
        hist.observe(0.0); // first bucket
        assert_eq!(hist.buckets[0], 2, "0.0 and 0.05 in the first bucket");
        assert_eq!(hist.buckets[1], 1, "just above a bound falls to the next bucket");
        assert_eq!(hist.buckets[MS_BUCKETS.len() - 1], 1);
        assert_eq!(hist.overflow, 1);
        assert_eq!(hist.count, 5);
        assert_eq!(hist.min, 0.0);
        assert_eq!(hist.max, 1000.1);
    }

    #[test]
    fn quantile_interpolates_clamps_and_saturates() {
        let snap = |values: &[f64]| {
            let mut hist = Histogram::new();
            for &v in values {
                hist.observe(v);
            }
            HistogramSnapshot {
                count: hist.count,
                sum_ms: hist.sum,
                min_ms: hist.min,
                max_ms: hist.max,
                buckets: MS_BUCKETS.iter().copied().zip(hist.buckets.iter().copied()).collect(),
                overflow: hist.overflow,
            }
        };

        let empty = HistogramSnapshot {
            count: 0,
            sum_ms: 0.0,
            min_ms: 0.0,
            max_ms: 0.0,
            buckets: MS_BUCKETS.iter().map(|&b| (b, 0)).collect(),
            overflow: 0,
        };
        assert_eq!(empty.quantile_ms(0.5), None);

        // A single observation: every quantile collapses to it (the
        // interpolated bucket estimate is clamped to [min, max]).
        let one = snap(&[0.7]);
        assert_eq!(one.quantile_ms(0.5), Some(0.7));
        assert_eq!(one.quantile_ms(0.95), Some(0.7));

        // Two buckets of 50: quantile ranks interpolate linearly inside
        // the bucket they land in.
        let mut values = vec![0.3; 50];
        values.extend(std::iter::repeat(2.0).take(50));
        let spread = snap(&values);
        assert_eq!(spread.quantile_ms(0.25), Some(0.375), "mid-bucket interpolation");
        assert_eq!(spread.quantile_ms(0.5), Some(0.5), "bucket upper bound at full rank");

        // Observations past the last bound saturate high quantiles at
        // the observed max.
        let over = snap(&[0.2, 5000.0, 6000.0]);
        assert_eq!(over.quantile_ms(0.99), Some(6000.0));
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0.01, 3.0, 700.0] {
            a.observe(v);
        }
        for v in [0.2, 2000.0] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 5);
        assert_eq!(ab.overflow, 1);
    }

    #[test]
    fn per_thread_merge_is_deterministic() {
        let _guard = crate::test_lock();
        // The same multiset of recordings, under two very different
        // schedules, drains to the same snapshot.
        let run = |threads: usize| {
            reset();
            crate::set_enabled(true);
            let per_thread = 24 / threads;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            inc("merge.count");
                            add_l("merge.labeled", "shard", "3", 2);
                            gauge("merge.gauge", (t * per_thread + i) as f64);
                            observe_ms("merge.hist_ms", ((t * per_thread + i) % 7) as f64);
                        }
                    });
                }
            });
            crate::set_enabled(false);
            crate::drain().metrics
        };
        let sequential = run(1);
        let parallel = run(8);
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.counter("merge.count"), 24);
        assert_eq!(sequential.counter("merge.labeled{shard=3}"), 48);
        assert_eq!(sequential.gauge("merge.gauge"), Some(23.0), "gauges merge by max");
        assert_eq!(sequential.histograms["merge.hist_ms"].count, 24);
    }

    #[test]
    fn drain_right_after_scope_sees_worker_recordings() {
        let _guard = crate::test_lock();
        // `thread::scope` unblocks when a worker's closure returns,
        // which may be before the worker thread has fully exited — a
        // drain on the very next line must still see its recordings.
        for _ in 0..50 {
            reset();
            crate::set_enabled(true);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| inc("scope.count"));
                }
            });
            crate::set_enabled(false);
            assert_eq!(crate::drain().metrics.counter("scope.count"), 4);
        }
    }

    #[test]
    fn drain_clears_state() {
        let _guard = crate::test_lock();
        reset();
        crate::set_enabled(true);
        inc("drain.once");
        crate::set_enabled(false);
        assert_eq!(crate::drain().metrics.counter("drain.once"), 1);
        assert!(crate::drain().metrics.counters.is_empty(), "second drain is empty");
    }

    #[test]
    fn snapshot_is_non_destructive_and_preserves_drain() {
        let _guard = crate::test_lock();
        reset();
        crate::set_enabled(true);
        add("snap.c", 3);
        gauge("snap.g", 2.0);
        observe_ms("snap.h_ms", 1.5);

        // Two consecutive snapshots see the same merged state.
        let (first, slots) = snapshot_metrics();
        assert!(slots >= 1);
        assert_eq!(first.counter("snap.c"), 3);
        assert_eq!(first.gauge("snap.g"), Some(2.0));
        assert_eq!(first.histograms["snap.h_ms"].count, 1);
        let (second, _) = snapshot_metrics();
        assert_eq!(first, second, "snapshot must not consume slot state");

        // Recording continues to accumulate on top.
        add("snap.c", 4);
        let (third, _) = snapshot_metrics();
        assert_eq!(third.counter("snap.c"), 7);

        // The eventual drain sees everything, exactly as if no snapshot
        // had ever been taken.
        crate::set_enabled(false);
        let drained = crate::drain().metrics;
        assert_eq!(drained.counter("snap.c"), 7);
        assert_eq!(drained.histograms["snap.h_ms"].count, 1);
        assert!(crate::drain().metrics.counters.is_empty(), "drain still clears");
    }

    #[test]
    fn drain_after_snapshots_matches_drain_without() {
        let _guard = crate::test_lock();
        // The same deterministic multiset of recordings drains to the
        // same snapshot whether or not interval snapshots were taken —
        // the end-of-run summary is schedule- and scrape-independent.
        let run = |snapshots: bool| {
            reset();
            crate::set_enabled(true);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    scope.spawn(move || {
                        for i in 0..8 {
                            add("purity.count", t + 1);
                            observe_ms("purity.h_ms", ((t * 8 + i) % 5) as f64);
                            if snapshots && i % 3 == 0 {
                                let _ = snapshot_metrics();
                            }
                        }
                    });
                }
                if snapshots {
                    for _ in 0..16 {
                        let _ = snapshot_metrics();
                    }
                }
            });
            crate::set_enabled(false);
            crate::drain().metrics
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn concurrent_snapshots_never_see_torn_histograms() {
        let _guard = crate::test_lock();
        reset();
        crate::set_enabled(true);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..3 {
                let stop = &stop;
                scope.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        observe_ms("torn.h_ms", ((t * 31 + i) % 13) as f64);
                        add("torn.c", 1);
                        i += 1;
                    }
                });
            }
            // Count only snapshots that hold the histogram: the writers
            // may not be scheduled before the reader's first snapshots,
            // and a snapshot of nothing checks nothing.
            let mut checked = 0;
            while checked < 200 {
                let (snap, _) = snapshot_metrics();
                let Some(hist) = snap.histograms.get("torn.h_ms") else {
                    std::thread::yield_now();
                    continue;
                };
                let bucket_total: u64 =
                    hist.buckets.iter().map(|&(_, n)| n).sum::<u64>() + hist.overflow;
                assert_eq!(
                    hist.count, bucket_total,
                    "histogram torn: count {} vs buckets {}",
                    hist.count, bucket_total
                );
                assert!(hist.sum_ms >= 0.0);
                checked += 1;
            }
            stop.store(true, Ordering::Relaxed);
        });
        crate::set_enabled(false);
        let drained = crate::drain().metrics;
        let hist = &drained.histograms["torn.h_ms"];
        assert_eq!(hist.count, drained.counter("torn.c"), "drain saw every recording");
    }

    #[test]
    fn snapshot_accessors() {
        let _guard = crate::test_lock();
        reset();
        crate::set_enabled(true);
        add("acc.c", 5);
        gauge_l("acc.g", "k", "v", 2.5);
        crate::set_enabled(false);
        let snap = crate::drain().metrics;
        assert_eq!(snap.counter("acc.c"), 5);
        assert_eq!(snap.counter("acc.missing"), 0);
        assert_eq!(snap.gauge("acc.g{k=v}"), Some(2.5));
        assert_eq!(snap.gauge("acc.g"), None);
    }
}
