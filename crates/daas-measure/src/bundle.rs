//! The §6 quick-stat bundle computed from an incident set alone.
//!
//! A daas-serve reader answers the `stats` endpoint from a published
//! snapshot, which carries the incident set but not the (engine-owned)
//! running accumulators. [`stat_bundle`] rebuilds the cheap §6 views
//! from incidents in canonical (transaction-id) order — deterministic
//! for a given watermark, independent of event arrival order, and
//! computable without the chain.

use std::collections::BTreeMap;

use daas_chain::format_year_month;
use eth_types::Address;
use serde::{Deserialize, Serialize};

use crate::incidents::MeasuredIncident;
use crate::ratios::{ratio_rows, RatioRow};
use crate::stats::Concentration;
use crate::timeline::{month_rows, MonthAccum, MonthRow};
use crate::victims::{span_days, victim_report_from, VictimReport};

/// The quick §6 views derivable from an incident set: Figure 6 victim
/// losses, the §4.3 ratio histogram, the monthly timeline and the §6.2
/// / §6.3 profit concentrations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatBundle {
    /// Attributed incidents.
    pub incidents: usize,
    /// Distinct victims.
    pub victims: usize,
    /// Total USD stolen (summed in transaction order).
    pub total_usd: f64,
    /// Figure 6: the victim-loss report.
    pub victim_report: VictimReport,
    /// §4.3: the profit-sharing ratio histogram.
    pub ratios: Vec<RatioRow>,
    /// Monthly activity series.
    pub timeline: Vec<MonthRow>,
    /// §6.2: operator profit concentration.
    pub operator_concentration: Concentration,
    /// §6.3: affiliate profit concentration.
    pub affiliate_concentration: Concentration,
}

/// Builds the bundle from incidents. Callers pass the set in canonical
/// (transaction-id) order — a snapshot's key-ordered incident map reads
/// out in it — so the float sums depend only on the incident set, and
/// any two readers of the same snapshot — or the same engine before and
/// after a checkpoint/restore cycle — agree byte-for-byte.
pub fn stat_bundle<'i>(incidents: impl IntoIterator<Item = &'i MeasuredIncident>) -> StatBundle {
    let mut loss_per_victim: BTreeMap<Address, f64> = BTreeMap::new();
    let mut profit_per_operator: BTreeMap<Address, f64> = BTreeMap::new();
    let mut profit_per_affiliate: BTreeMap<Address, f64> = BTreeMap::new();
    let mut ratio_counts: BTreeMap<u32, usize> = BTreeMap::new();
    let mut by_month = MonthAccum::new();
    let (mut first_ts, mut last_ts) = (u64::MAX, 0u64);
    let mut total_usd = 0.0;
    let mut count = 0;
    for inc in incidents {
        count += 1;
        *loss_per_victim.entry(inc.victim).or_insert(0.0) += inc.usd;
        *profit_per_operator.entry(inc.operator).or_insert(0.0) += inc.operator_usd;
        *profit_per_affiliate.entry(inc.affiliate).or_insert(0.0) += inc.affiliate_usd;
        *ratio_counts.entry(inc.ratio_bps).or_default() += 1;
        let month = by_month.entry(format_year_month(inc.timestamp)).or_default();
        month.0.insert(inc.victim);
        month.1 += 1;
        month.2 += inc.usd;
        first_ts = first_ts.min(inc.timestamp);
        last_ts = last_ts.max(inc.timestamp);
        total_usd += inc.usd;
    }
    StatBundle {
        incidents: count,
        victims: loss_per_victim.len(),
        total_usd,
        victim_report: victim_report_from(
            loss_per_victim.values().copied(),
            span_days(first_ts, last_ts),
        ),
        ratios: ratio_rows(&ratio_counts),
        timeline: month_rows(&by_month),
        operator_concentration: Concentration::from_values(
            &profit_per_operator.values().copied().collect::<Vec<_>>(),
        ),
        affiliate_concentration: Concentration::from_values(
            &profit_per_affiliate.values().copied().collect::<Vec<_>>(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_incident_set_builds_an_empty_bundle() {
        let bundle = stat_bundle(&[]);
        assert_eq!(bundle.incidents, 0);
        assert_eq!(bundle.victims, 0);
        assert_eq!(bundle.total_usd, 0.0);
        assert!(bundle.timeline.is_empty());
    }
}
