//! Victim-side measurements: Figure 6 and the §6.1 findings.

use daas_chain::days_between;
use serde::{Deserialize, Serialize};

use crate::incidents::MeasureCtx;

/// Figure 6 buckets: `(label, low, high)` in USD.
pub const VICTIM_LOSS_BUCKETS: [(&str, f64, f64); 4] = [
    ("less than $100", 0.0, 100.0),
    ("between $100 and $1,000", 100.0, 1_000.0),
    ("between $1,000 and $5,000", 1_000.0, 5_000.0),
    ("more than $5,000", 5_000.0, f64::INFINITY),
];

/// The victim-side report (§6.1 / Figure 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VictimReport {
    /// Distinct victim accounts.
    pub victims: usize,
    /// Figure 6 rows: `(label, count, percent)`.
    pub loss_buckets: Vec<(String, usize, f64)>,
    /// Share of victims losing under $1,000 (paper: 83.5%).
    pub below_1k_pct: f64,
    /// Mean distinct victims per day over the observed span (paper:
    /// "exceeding 100 per day").
    pub victims_per_day: f64,
    /// Total losses, USD.
    pub total_usd: f64,
}

/// Builds the Figure 6 / §6.1 report from per-victim losses, in address
/// order, and the observed span — shared by the batch context and the
/// streaming accumulator's running loss map.
pub(crate) fn victim_report_from(
    losses: impl ExactSizeIterator<Item = f64> + Clone,
    span_days: u64,
) -> VictimReport {
    let victims = losses.len();
    let mut counts = [0usize; 4];
    for usd in losses.clone() {
        let idx = VICTIM_LOSS_BUCKETS
            .iter()
            .position(|(_, lo, hi)| usd >= *lo && usd < *hi)
            .unwrap_or(3);
        counts[idx] += 1;
    }
    let pct = |n: usize| 100.0 * n as f64 / victims.max(1) as f64;
    let loss_buckets = VICTIM_LOSS_BUCKETS
        .iter()
        .zip(counts)
        .map(|((label, _, _), n)| ((*label).to_owned(), n, pct(n)))
        .collect();
    VictimReport {
        victims,
        loss_buckets,
        below_1k_pct: pct(counts[0] + counts[1]),
        victims_per_day: victims as f64 / span_days.max(1) as f64,
        total_usd: losses.sum(),
    }
}

/// The observed span in days for a `(first, last)` timestamp fold
/// (`u64::MAX` first means "no incidents"; empty spans count as one day).
pub(crate) fn span_days(first: u64, last: u64) -> u64 {
    if first == u64::MAX {
        1
    } else {
        days_between(first, last).max(1)
    }
}

impl<'a> MeasureCtx<'a> {
    /// Builds the Figure 6 / §6.1 victim report.
    pub fn victim_report(&self) -> VictimReport {
        let t = self.tables();
        let (first, last) =
            t.timestamps.iter().fold((u64::MAX, 0u64), |(lo, hi), &ts| (lo.min(ts), hi.max(ts)));
        victim_report_from(t.loss_per_victim.iter().copied(), span_days(first, last))
    }

    /// The §6.1 repeat-victim study.
    pub fn repeat_victim_report(&self) -> RepeatVictimReport {
        let t = self.tables();
        let is_repeat = |v: u32| t.incidents_per_victim[v as usize] > 1;
        let repeats = t.incidents_per_victim.iter().filter(|&&n| n > 1).count();

        // (a) simultaneous multi-sign: ≥ 2 profit-sharing txs in the same
        // block timestamp.
        let mut signed: Vec<(u32, u64)> = t
            .victim_of
            .iter()
            .zip(&t.timestamps)
            .filter(|(&v, _)| is_repeat(v))
            .map(|(&v, &ts)| (v, ts))
            .collect();
        signed.sort_unstable();
        let mut simultaneous = 0;
        for victim in signed.chunk_by(|a, b| a.0 == b.0) {
            if victim.windows(2).any(|w| w[0].1 == w[1].1) {
                simultaneous += 1;
            }
        }

        // (b) unrevoked approvals: the victim still has an active
        // ERC-20 allowance or NFT operator approval toward a dataset
        // contract at the end of the observation window (one replay of
        // the victim's approval history each).
        let unrevoked = t
            .victims
            .iter()
            .zip(&t.incidents_per_victim)
            .filter(|&(&victim, &n)| {
                n > 1 && !self.features().features(victim).live_approval_spenders.is_empty()
            })
            .count();

        RepeatVictimReport {
            repeat_victims: repeats,
            simultaneous_pct: 100.0 * simultaneous as f64 / repeats.max(1) as f64,
            unrevoked_pct: 100.0 * unrevoked as f64 / repeats.max(1) as f64,
        }
    }
}

/// The §6.1 repeat-victim findings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RepeatVictimReport {
    /// Victims phished more than once (paper: 8,856).
    pub repeat_victims: usize,
    /// Share who signed multiple phishing txs simultaneously (paper:
    /// 78.1%).
    pub simultaneous_pct: f64,
    /// Share who never revoked approvals to profit-sharing contracts
    /// (paper: 28.6%).
    pub unrevoked_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_line() {
        // Boundary semantics: lows inclusive, highs exclusive; the last
        // bucket is open-ended.
        for (usd, expect) in [(0.0, 0), (99.99, 0), (100.0, 1), (999.0, 1), (1_000.0, 2), (5_000.0, 3), (1e9, 3)] {
            let idx = VICTIM_LOSS_BUCKETS
                .iter()
                .position(|(_, lo, hi)| usd >= *lo && usd < *hi)
                .unwrap_or(3);
            assert_eq!(idx, expect, "usd {usd}");
        }
    }
}
