//! Live telemetry shared between the engine thread, the scrape
//! listener, the connection threads and the sampler: readiness and
//! liveness state, the bounded structured event journal, SLO evaluation
//! state and the rolling metrics window.
//!
//! Design rule (DESIGN.md §15): the telemetry paths **read** the
//! metrics registry (via the non-destructive `daas_obs::snapshot`) but
//! never write into it. Computed operational gauges —
//! `serve.snapshot.age_ms`, `serve.ingest.lag_windows`,
//! `serve.engine.alive` — are appended to the *rendered* snapshot at
//! scrape/query time only, so `drain()`-based end-of-run summaries stay
//! byte-identical whether or not anyone ever scraped.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use daas_obs::json::escape_into;
use daas_obs::{MetricsSnapshot, RollingWindow, SloSpec, SloVerdict};

use crate::snapshot::SnapshotCell;

/// Maximum retained journal events; the oldest are dropped (counted,
/// never silently) past this.
pub const JOURNAL_CAPACITY: usize = 1024;

/// One structured journal event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic sequence number (1-based, never reused).
    pub seq: u64,
    /// Milliseconds since daemon start.
    pub t_ms: u64,
    /// Event kind: `start`, `ready`, `publish`, `checkpoint`,
    /// `restore`, `stall`, `slo`, `shutdown`.
    pub kind: &'static str,
    /// Pre-rendered JSON object with kind-specific fields (`{}` if
    /// none).
    pub detail: String,
}

impl Event {
    /// Renders the event as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"t_ms\":{},\"kind\":\"{}\",\"detail\":{}}}",
            self.seq, self.t_ms, self.kind, self.detail
        )
    }
}

/// Bounded ring of [`Event`]s.
#[derive(Debug, Default)]
struct EventJournal {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

impl EventJournal {
    fn push(&mut self, t_ms: u64, kind: &'static str, detail: String) -> u64 {
        self.next_seq += 1;
        if self.events.len() >= JOURNAL_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.events.push_back(Event { seq, t_ms, kind, detail });
        seq
    }
}

/// Shared live-telemetry state. One per daemon; every thread holds an
/// `Arc`.
pub struct Telemetry {
    started: Instant,
    /// Flips true exactly once, at the first snapshot publication the
    /// serving loop observes.
    ready: AtomicBool,
    ready_flips: AtomicU64,
    /// `false` once the engine thread has exited (cleanly or by panic —
    /// the loop holds a drop guard).
    engine_alive: AtomicBool,
    /// Milliseconds-since-start of the engine loop's last sign of life.
    heartbeat_ms: AtomicU64,
    /// Milliseconds-since-start of the last snapshot publication.
    last_publish_ms: AtomicU64,
    last_epoch: AtomicU64,
    /// Default ingest window (blocks) — the unit `serve.ingest.lag_windows`
    /// is measured in.
    window_blocks: u64,
    scrape_addr: Mutex<Option<SocketAddr>>,
    journal: Mutex<EventJournal>,
    slo: SloSpec,
    last_verdict: Mutex<SloVerdict>,
    rolling: Mutex<RollingWindow>,
}

impl Telemetry {
    /// Fresh telemetry with the given SLO spec and ingest window size.
    pub fn new(slo: SloSpec, window_blocks: u64) -> Self {
        Telemetry {
            started: Instant::now(),
            ready: AtomicBool::new(false),
            ready_flips: AtomicU64::new(0),
            engine_alive: AtomicBool::new(true),
            heartbeat_ms: AtomicU64::new(0),
            last_publish_ms: AtomicU64::new(0),
            last_epoch: AtomicU64::new(0),
            window_blocks: window_blocks.max(1),
            scrape_addr: Mutex::new(None),
            journal: Mutex::new(EventJournal::default()),
            slo,
            last_verdict: Mutex::new(SloVerdict::Ok),
            rolling: Mutex::new(RollingWindow::new(60_000)),
        }
    }

    /// Milliseconds since daemon start.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Appends a journal event; `detail` must be a rendered JSON object.
    pub fn record(&self, kind: &'static str, detail: String) -> u64 {
        let t_ms = self.elapsed_ms();
        self.journal.lock().unwrap_or_else(|p| p.into_inner()).push(t_ms, kind, detail)
    }

    /// Called on every snapshot publication (engine thread, plus once
    /// by the server for the boot snapshot). The first call flips
    /// readiness — exactly once for the process lifetime — and records
    /// a `ready` event.
    pub fn on_publish(&self, epoch: u64) {
        let now = self.elapsed_ms();
        self.last_publish_ms.store(now, Ordering::Relaxed);
        self.last_epoch.store(epoch, Ordering::Relaxed);
        self.heartbeat_ms.store(now, Ordering::Relaxed);
        if self
            .ready
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.ready_flips.fetch_add(1, Ordering::Relaxed);
            self.record("ready", format!("{{\"epoch\":{epoch}}}"));
        } else {
            self.record("publish", format!("{{\"epoch\":{epoch}}}"));
        }
    }

    /// Engine-loop heartbeat (called each control-loop iteration).
    pub fn touch(&self) {
        self.heartbeat_ms.store(self.elapsed_ms(), Ordering::Relaxed);
    }

    /// Marks the engine thread as exited. Idempotent.
    pub fn engine_exited(&self) {
        if self.engine_alive.swap(false, Ordering::AcqRel) {
            self.record("shutdown", "{}".into());
        }
    }

    /// `true` until the engine thread exits.
    pub fn engine_alive(&self) -> bool {
        self.engine_alive.load(Ordering::Acquire)
    }

    /// `true` once the first snapshot has been published.
    pub fn ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// How many times readiness flipped false→true (the contract: 1).
    pub fn ready_flips(&self) -> u64 {
        self.ready_flips.load(Ordering::Relaxed)
    }

    /// Milliseconds since the last snapshot publication.
    pub fn snapshot_age_ms(&self) -> u64 {
        self.elapsed_ms().saturating_sub(self.last_publish_ms.load(Ordering::Relaxed))
    }

    /// Milliseconds since the engine loop last showed a sign of life.
    pub fn heartbeat_age_ms(&self) -> u64 {
        self.elapsed_ms().saturating_sub(self.heartbeat_ms.load(Ordering::Relaxed))
    }

    /// Last published epoch.
    pub fn epoch(&self) -> u64 {
        self.last_epoch.load(Ordering::Relaxed)
    }

    /// Publishes the bound scrape address (once the listener is up).
    pub fn set_scrape_addr(&self, addr: SocketAddr) {
        *self.scrape_addr.lock().unwrap_or_else(|p| p.into_inner()) = Some(addr);
    }

    /// The bound scrape address, if a listener is running.
    pub fn scrape_addr(&self) -> Option<SocketAddr> {
        *self.scrape_addr.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Windows of ingest still outstanding per the published snapshot.
    pub fn lag_windows(&self, cell: &SnapshotCell) -> u64 {
        let snap = cell.load();
        let remaining = snap.total_blocks.saturating_sub(snap.blocks_ingested);
        remaining.div_ceil(self.window_blocks)
    }

    /// The registry snapshot plus the computed operational gauges the
    /// scrape contract names. The gauges are inserted into the *copy*
    /// only — nothing is ever recorded back into the registry, so
    /// drained artifacts cannot observe that a scrape happened.
    pub fn augmented_snapshot(&self, cell: &SnapshotCell) -> MetricsSnapshot {
        let mut metrics = daas_obs::snapshot();
        metrics
            .gauges
            .insert("serve.snapshot.age_ms".into(), self.snapshot_age_ms() as f64);
        metrics
            .gauges
            .insert("serve.ingest.lag_windows".into(), self.lag_windows(cell) as f64);
        metrics
            .gauges
            .insert("serve.engine.alive".into(), if self.engine_alive() { 1.0 } else { 0.0 });
        metrics.gauges.insert("serve.uptime_ms".into(), self.elapsed_ms() as f64);
        metrics
    }

    /// Evaluates the SLO spec against the augmented snapshot, records a
    /// `slo` journal event when the worst verdict changed, and returns
    /// `(worst, outcomes-as-JSON)`.
    pub fn evaluate_slo(&self, cell: &SnapshotCell) -> (SloVerdict, String) {
        let evaluation = self.slo.evaluate(&self.augmented_snapshot(cell));
        let worst = evaluation.worst();
        {
            let mut last = self.last_verdict.lock().unwrap_or_else(|p| p.into_inner());
            if *last != worst {
                let detail = format!(
                    "{{\"from\":\"{}\",\"to\":\"{}\"}}",
                    last.name(),
                    worst.name()
                );
                *last = worst;
                drop(last);
                self.record("slo", detail);
            }
        }
        (worst, evaluation.to_json())
    }

    /// One sampler tick: feed the rolling window and re-evaluate SLOs.
    /// Also detects ingest stalls — a daemon that has ingested at least
    /// one window, is not done, and has not published for
    /// `stall_after_ms` gets one `stall` event per stale period.
    pub fn sample(&self, cell: &SnapshotCell, stall_after_ms: u64, stall_flag: &AtomicBool) {
        let now = self.elapsed_ms();
        let metrics = self.augmented_snapshot(cell);
        self.rolling.lock().unwrap_or_else(|p| p.into_inner()).push(now, metrics);
        let _ = self.evaluate_slo(cell);
        let snap = cell.load();
        let age = self.snapshot_age_ms();
        if !snap.done && snap.epoch > 0 && age > stall_after_ms {
            if !stall_flag.swap(true, Ordering::Relaxed) {
                self.record(
                    "stall",
                    format!("{{\"age_ms\":{age},\"epoch\":{}}}", snap.epoch),
                );
            }
        } else {
            stall_flag.store(false, Ordering::Relaxed);
        }
    }

    /// Rolling-window counter rates as a JSON object (`{}` until two
    /// samples exist).
    pub fn rolling_rates_json(&self) -> String {
        let rolling = self.rolling.lock().unwrap_or_else(|p| p.into_inner());
        let Some(view) = rolling.view() else { return "{}".into() };
        let mut out = String::from("{");
        let mut first = true;
        for (key, rate) in &view.rates_per_s {
            if !first {
                out.push(',');
            }
            first = false;
            escape_into(&mut out, key);
            out.push(':');
            daas_obs::json::fmt_num(&mut out, (*rate * 1e3).round() / 1e3);
        }
        out.push('}');
        out
    }

    /// Journal events with `seq > since`, newest last, capped at
    /// `limit`. Returns `(events, total_dropped)`.
    pub fn events_since(&self, since: u64, limit: usize) -> (Vec<Event>, u64) {
        let journal = self.journal.lock().unwrap_or_else(|p| p.into_inner());
        let events = journal
            .events
            .iter()
            .filter(|e| e.seq > since)
            .take(limit)
            .cloned()
            .collect();
        (events, journal.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;

    fn telemetry() -> Telemetry {
        Telemetry::new(SloSpec::serve_defaults(), 64)
    }

    #[test]
    fn readiness_flips_exactly_once() {
        let tel = telemetry();
        assert!(!tel.ready());
        for epoch in 1..=20 {
            tel.on_publish(epoch);
        }
        assert!(tel.ready());
        assert_eq!(tel.ready_flips(), 1);
        let (events, dropped) = tel.events_since(0, usize::MAX);
        assert_eq!(dropped, 0);
        assert_eq!(events.iter().filter(|e| e.kind == "ready").count(), 1);
        assert_eq!(events.iter().filter(|e| e.kind == "publish").count(), 19);
        assert_eq!(tel.epoch(), 20);
    }

    #[test]
    fn journal_is_bounded_and_counts_drops() {
        let tel = telemetry();
        for i in 0..(JOURNAL_CAPACITY as u64 + 50) {
            tel.record("publish", format!("{{\"epoch\":{i}}}"));
        }
        let (events, dropped) = tel.events_since(0, usize::MAX);
        assert_eq!(events.len(), JOURNAL_CAPACITY);
        assert_eq!(dropped, 50);
        // Oldest dropped: the first retained seq is 51.
        assert_eq!(events[0].seq, 51);
        // since/limit paging.
        let (page, _) = tel.events_since(events[0].seq, 10);
        assert_eq!(page.len(), 10);
        assert_eq!(page[0].seq, 52);
    }

    #[test]
    fn augmented_snapshot_never_touches_the_registry() {
        let tel = telemetry();
        let cell = SnapshotCell::new(Snapshot::empty(128));
        let before = daas_obs::snapshot();
        let augmented = tel.augmented_snapshot(&cell);
        assert!(augmented.gauges.contains_key("serve.snapshot.age_ms"));
        assert_eq!(augmented.gauges["serve.ingest.lag_windows"], 2.0, "128 blocks / 64");
        assert_eq!(augmented.gauges["serve.engine.alive"], 1.0);
        // The registry itself saw none of those writes.
        let after = daas_obs::snapshot();
        assert_eq!(before.gauges.get("serve.snapshot.age_ms"), None);
        assert_eq!(
            after.gauges.get("serve.snapshot.age_ms"),
            None,
            "computed gauges must never be recorded"
        );
    }

    #[test]
    fn slo_transitions_are_journaled_once_per_change() {
        let tel = telemetry();
        let cell = SnapshotCell::new(Snapshot::empty(0));
        // Fresh daemon: age ≈ 0 → Ok; no transition event (starts Ok).
        let (worst, rendered) = tel.evaluate_slo(&cell);
        assert_eq!(worst, SloVerdict::Ok);
        assert!(rendered.starts_with('['));
        let (events, _) = tel.events_since(0, usize::MAX);
        assert!(events.iter().all(|e| e.kind != "slo"));
        // Second identical evaluation still records nothing.
        let _ = tel.evaluate_slo(&cell);
        let (events, _) = tel.events_since(0, usize::MAX);
        assert!(events.iter().all(|e| e.kind != "slo"));
    }

    #[test]
    fn event_json_is_parseable() {
        let tel = telemetry();
        tel.record("checkpoint", "{\"path\":\"/tmp/x\",\"bytes\":42}".into());
        let (events, _) = tel.events_since(0, usize::MAX);
        let doc = daas_obs::json::parse(&events[0].to_json()).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["kind"].as_str(), Some("checkpoint"));
        assert_eq!(obj["detail"].as_obj().unwrap()["bytes"].as_num(), Some(42.0));
        assert_eq!(obj["seq"].as_num(), Some(1.0));
    }
}
