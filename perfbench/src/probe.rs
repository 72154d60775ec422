//! The wallet probe of a result published in process (batch-paper and
//! live-fine): risk checks through the daemon's own request parser and
//! `answer_query`, with the reply parsed as `LiveGuardClient` parses it
//! — the socket is the only part of the serve path left out.
//!
//! A probe runs short rounds for a fixed time. Each round republishes
//! the final state as fresh epochs and times the first query of each
//! (the lazy risk-index build), then sends the next stretch of the
//! address pool, checking every answer against the oracle's flags. Each
//! round is one chunk (see `stats.rs`), brought to the reference pace
//! with the readings before and after it (see `pace.rs`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use daas_serve::protocol::{answer_query, Request};
use daas_serve::Snapshot;
use eth_types::Address;
use wallet_guard::LiveRisk;

use crate::pace::Pace;
use crate::stats::Chunked;
use crate::{ms, Outcome};

/// How long one probe runs: long enough for a few rounds, short enough
/// to leave a run many passes or replays.
const PROBE_TIME: Duration = Duration::from_millis(500);

/// Fresh epochs whose first query is timed, per round.
const FRESH_EPOCHS: usize = 32;

/// Pool queries per round.
const ROUND_QUERIES: usize = 8192;

/// What the probes of one run measured.
#[derive(Default)]
pub struct Probe {
    /// Request line to parsed `LiveRisk`, as the wallet sees it.
    pub query_ms: Chunked,
    /// `Request::parse` + `answer_query`: the daemon's share.
    pub server_ms: Chunked,
    /// First query of a freshly published epoch.
    pub first_ms: Chunked,
    /// First minus second query of a fresh epoch: the risk-index build.
    pub index_build_ms: Chunked,
    /// Risk-index entries (contracts + operators + affiliates).
    pub index_entries: usize,
    pub queries: u64,
    pub failed: u64,
    pub epochs: u64,
}

impl Probe {
    /// Probes one published snapshot for [`PROBE_TIME`]; every pool
    /// answer is an output check.
    pub fn run(
        &mut self,
        snap: &Snapshot,
        pool: &[(Address, bool)],
        pace: &mut Pace,
        out: &mut Outcome,
    ) {
        let mut next = pool.iter().cycle();
        let start = Instant::now();
        pace.mark();
        while start.elapsed() < PROBE_TIME {
            for timing in [
                &mut self.query_ms,
                &mut self.server_ms,
                &mut self.first_ms,
                &mut self.index_build_ms,
            ] {
                timing.next_chunk();
            }
            for _ in 0..FRESH_EPOCHS {
                let fresh = republish(snap);
                let first = self.ask(&fresh, next.next().expect("cycle").0, out);
                let second = self.ask(&fresh, next.next().expect("cycle").0, out);
                if let (Some((a, _)), Some((b, _))) = (first, second) {
                    self.first_ms.push(a);
                    self.index_build_ms.push(a - b);
                }
                self.epochs += 1;
            }
            for &(addr, flagged) in next.by_ref().take(ROUND_QUERIES) {
                let is_daas = self.ask(snap, addr, out).map(|(_, risk)| risk.is_daas);
                out.check(is_daas == Some(flagged), || {
                    format!("risk({addr}) answered is_daas={is_daas:?}, oracle says {flagged}")
                });
            }
            let factor = pace.tick();
            for timing in [
                &mut self.query_ms,
                &mut self.server_ms,
                &mut self.first_ms,
                &mut self.index_build_ms,
            ] {
                timing.scale_current(factor);
            }
        }
        self.index_entries = snap.contracts.len() + snap.operators.len() + snap.affiliates.len();
    }

    /// One risk check; `None` (and a failed sample) on a bad reply.
    fn ask(
        &mut self,
        snap: &Snapshot,
        addr: Address,
        out: &mut Outcome,
    ) -> Option<(f64, LiveRisk)> {
        self.queries += 1;
        let t0 = Instant::now();
        let line = format!("{{\"cmd\":\"risk\",\"address\":\"{addr}\"}}");
        let t1 = Instant::now();
        let reply = Request::parse(&line)
            .ok()
            .and_then(|req| answer_query(snap, &req));
        let t2 = Instant::now();
        let risk = reply
            .filter(|r| r.starts_with("{\"ok\":true"))
            .and_then(|r| serde_json::from_str::<LiveRisk>(&r).ok());
        let total = ms(t0.elapsed());
        out.check(risk.is_some(), || format!("risk({addr}) got no ok reply"));
        match risk {
            Some(risk) => {
                self.query_ms.push(total);
                self.server_ms.push(ms(t2 - t1));
                Some((total, risk))
            }
            None => {
                self.failed += 1;
                self.query_ms.push_failed();
                None
            }
        }
    }
}

/// A fresh epoch over the same state: shares every part, rebuilds every
/// lazy reader index.
fn republish(s: &Snapshot) -> Snapshot {
    Snapshot::new(
        s.epoch + 1,
        s.watermark,
        s.blocks_ingested,
        s.total_blocks,
        s.done,
        s.counts,
        Arc::clone(&s.families),
        Arc::clone(&s.contracts),
        Arc::clone(&s.operators),
        Arc::clone(&s.affiliates),
        s.incidents.clone(),
        s.total_usd,
    )
}
