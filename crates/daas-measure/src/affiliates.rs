//! Affiliate-side measurements (§6.3 / Figure 7).

use serde::{Deserialize, Serialize};

use crate::incidents::MeasureCtx;
use crate::stats::{top_share, Concentration};

/// Figure 7 buckets: `(label, low, high)` in USD.
pub const AFFILIATE_PROFIT_BUCKETS: [(&str, f64, f64); 4] = [
    ("less than $1,000", 0.0, 1_000.0),
    ("between $1,000 and $10,000", 1_000.0, 10_000.0),
    ("between $10,000 and $50,000", 10_000.0, 50_000.0),
    ("more than $50,000", 50_000.0, f64::INFINITY),
];

/// The §6.3 affiliate report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AffiliateReport {
    /// Affiliate accounts observed.
    pub affiliates: usize,
    /// Total affiliate profits, USD (paper: $111.9M).
    pub total_usd: f64,
    /// Figure 7 rows: `(label, count, percent)`.
    pub profit_buckets: Vec<(String, usize, f64)>,
    /// Share earning over $1,000 (paper: 50.2%).
    pub above_1k_pct: f64,
    /// Share earning over $10,000 (paper: 22.0%).
    pub above_10k_pct: f64,
    /// Share of affiliates profiting from more than 10 victims (paper:
    /// 26.1%).
    pub over_10_victims_pct: f64,
    /// Share associated with exactly one operator account (paper:
    /// 60.4%).
    pub single_operator_pct: f64,
    /// Share associated with at most three operator accounts (paper:
    /// 90.2%).
    pub up_to_3_operators_pct: f64,
    /// Concentration (paper: 7.4% of affiliates hold 75.6%).
    pub concentration: Concentration,
    /// Share held by the top 7.4% of affiliates, percent.
    pub top_7_4_pct_share: f64,
}

impl<'a> MeasureCtx<'a> {
    /// Builds the §6.3 / Figure 7 affiliate report.
    pub fn affiliate_report(&self) -> AffiliateReport {
        let t = self.tables();
        let values = &t.profit_per_affiliate;
        let affiliates = values.len();
        let pct = |n: usize| 100.0 * n as f64 / affiliates.max(1) as f64;

        let mut counts = [0usize; 4];
        for &usd in values {
            let idx = AFFILIATE_PROFIT_BUCKETS
                .iter()
                .position(|(_, lo, hi)| usd >= *lo && usd < *hi)
                .unwrap_or(3);
            counts[idx] += 1;
        }
        let profit_buckets = AFFILIATE_PROFIT_BUCKETS
            .iter()
            .zip(counts)
            .map(|((label, _, _), n)| ((*label).to_owned(), n, pct(n)))
            .collect();

        // Victims and operator associations per affiliate.
        let over_10 = t.victims_per_affiliate.iter().filter(|&&n| n > 10).count();
        let single_op = t.operators_per_affiliate.iter().filter(|&&n| n == 1).count();
        let up_to_3 = t.operators_per_affiliate.iter().filter(|&&n| n <= 3).count();

        let top_k = ((affiliates as f64) * 0.074).round().max(1.0) as usize;

        AffiliateReport {
            affiliates,
            total_usd: values.iter().sum(),
            profit_buckets,
            above_1k_pct: pct(counts[1] + counts[2] + counts[3]),
            above_10k_pct: pct(counts[2] + counts[3]),
            over_10_victims_pct: pct(over_10),
            single_operator_pct: pct(single_op),
            up_to_3_operators_pct: pct(up_to_3),
            concentration: Concentration::from_values(values),
            top_7_4_pct_share: top_share(values, top_k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        for (usd, expect) in
            [(0.0, 0), (999.0, 0), (1_000.0, 1), (9_999.0, 1), (10_000.0, 2), (50_000.0, 3)]
        {
            let idx = AFFILIATE_PROFIT_BUCKETS
                .iter()
                .position(|(_, lo, hi)| usd >= *lo && usd < *hi)
                .unwrap_or(3);
            assert_eq!(idx, expect, "usd {usd}");
        }
    }
}
