//! Blocks and simulated time.

use serde::{Deserialize, Serialize};

/// Unix timestamp in seconds.
pub type Timestamp = u64;
/// Block height.
pub type BlockNumber = u64;

/// Simulated genesis: 2023-03-01T00:00:00Z, the start of the paper's
/// collection window (§5.2).
pub const GENESIS_TIMESTAMP: Timestamp = 1_677_628_800;

/// Post-merge Ethereum slot time.
pub const SECONDS_PER_BLOCK: u64 = 12;

/// A sealed block header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Height of the block.
    pub number: BlockNumber,
    /// Block timestamp (unix seconds).
    pub timestamp: Timestamp,
    /// Index of the first transaction in this block.
    pub first_tx: u32,
    /// Number of transactions in this block.
    pub tx_count: u32,
}

/// Maps a timestamp to the block number that a 12-second slot chain
/// started at [`GENESIS_TIMESTAMP`] would be at.
pub fn block_number_at(ts: Timestamp) -> BlockNumber {
    ts.saturating_sub(GENESIS_TIMESTAMP) / SECONDS_PER_BLOCK
}

/// Number of whole days between two timestamps (earlier first).
pub fn days_between(start: Timestamp, end: Timestamp) -> u64 {
    end.saturating_sub(start) / 86_400
}

/// Formats a timestamp as `YYYY-MM` (for Table 2's active-time rows).
/// Civil-from-days algorithm (Howard Hinnant's) — no external time crate.
pub fn format_year_month(ts: Timestamp) -> String {
    let (y, m) = year_month(ts);
    format!("{y:04}-{m:02}")
}

/// The calendar `(year, month)` a timestamp falls in — the key
/// [`format_year_month`] renders, as numbers that order like it.
pub fn year_month(ts: Timestamp) -> (i64, u32) {
    let (y, m, _) = civil_from_unix(ts);
    (y, m)
}

/// Formats a timestamp as `YYYY-MM-DD`.
pub fn format_date(ts: Timestamp) -> String {
    let (y, m, d) = civil_from_unix(ts);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Unix timestamp (midnight UTC) of a civil date. Inverse of
/// [`format_date`]; same Hinnant days-from-civil algorithm.
pub fn unix_from_civil(y: i64, m: u32, d: u32) -> Timestamp {
    assert!((1..=12).contains(&m) && (1..=31).contains(&d), "bad civil date {y}-{m}-{d}");
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mp = if m > 2 { m - 3 } else { m + 9 } as u64;
    let doy = (153 * mp + 2) / 5 + d as u64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe as i64 - 719_468;
    assert!(days >= 0, "date before unix epoch");
    days as Timestamp * 86_400
}

/// Shorthand: midnight UTC on the first of the given month.
pub fn month_start(y: i64, m: u32) -> Timestamp {
    unix_from_civil(y, m, 1)
}

fn civil_from_unix(ts: Timestamp) -> (i64, u32, u32) {
    let z = (ts / 86_400) as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_date() {
        assert_eq!(format_date(GENESIS_TIMESTAMP), "2023-03-01");
        assert_eq!(format_year_month(GENESIS_TIMESTAMP), "2023-03");
        assert_eq!(year_month(GENESIS_TIMESTAMP), (2023, 3));
    }

    #[test]
    fn known_dates() {
        // 2025-04-01T00:00:00Z = 1743465600 — end of the collection window.
        assert_eq!(format_date(1_743_465_600), "2025-04-01");
        // Unix epoch.
        assert_eq!(format_date(0), "1970-01-01");
        // Leap-year day: 2024-02-29 = 1709164800.
        assert_eq!(format_date(1_709_164_800), "2024-02-29");
        // End of year boundary: 2023-12-31 = 1703980800.
        assert_eq!(format_date(1_703_980_800), "2023-12-31");
        assert_eq!(format_date(1_703_980_800 + 86_400), "2024-01-01");
    }

    #[test]
    fn block_numbers() {
        assert_eq!(block_number_at(GENESIS_TIMESTAMP), 0);
        assert_eq!(block_number_at(GENESIS_TIMESTAMP + 11), 0);
        assert_eq!(block_number_at(GENESIS_TIMESTAMP + 12), 1);
        assert_eq!(block_number_at(GENESIS_TIMESTAMP + 86_400), 7_200);
        // Pre-genesis clamps to zero instead of underflowing.
        assert_eq!(block_number_at(0), 0);
    }

    #[test]
    fn civil_roundtrip() {
        assert_eq!(unix_from_civil(2023, 3, 1), GENESIS_TIMESTAMP);
        assert_eq!(unix_from_civil(2025, 4, 1), 1_743_465_600);
        assert_eq!(unix_from_civil(1970, 1, 1), 0);
        assert_eq!(unix_from_civil(2024, 2, 29), 1_709_164_800);
        assert_eq!(month_start(2023, 12), unix_from_civil(2023, 12, 1));
        // Roundtrip across several years of month boundaries.
        for y in 2023..=2026 {
            for m in 1..=12 {
                let ts = month_start(y, m);
                assert_eq!(format_date(ts), format!("{y:04}-{m:02}-01"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad civil date")]
    fn civil_rejects_bad_month() {
        let _ = unix_from_civil(2023, 13, 1);
    }

    #[test]
    fn day_arithmetic() {
        assert_eq!(days_between(GENESIS_TIMESTAMP, GENESIS_TIMESTAMP), 0);
        assert_eq!(days_between(GENESIS_TIMESTAMP, GENESIS_TIMESTAMP + 86_399), 0);
        assert_eq!(days_between(GENESIS_TIMESTAMP, GENESIS_TIMESTAMP + 86_400), 1);
        // Reversed arguments clamp to zero.
        assert_eq!(days_between(GENESIS_TIMESTAMP + 86_400, GENESIS_TIMESTAMP), 0);
    }
}
