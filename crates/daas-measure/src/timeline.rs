//! Monthly activity series: victims, incidents and USD losses per
//! calendar month — the running view a deployed observatory publishes
//! (cf. the ScamSniffer monthly phishing reports the paper cites).

use std::collections::{BTreeMap, HashSet};

use daas_chain::{format_year_month, month_start};
use eth_types::Address;
use serde::{Deserialize, Serialize};

use crate::incidents::MeasureCtx;
use crate::tables::distinct_per;

/// One month of DaaS activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonthRow {
    /// Calendar month, `YYYY-MM`.
    pub month: String,
    /// Distinct victim accounts hit this month.
    pub victims: usize,
    /// Profit-sharing transactions this month.
    pub incidents: usize,
    /// USD stolen this month.
    pub usd: f64,
}

/// Per-month accumulator: distinct victims, incident count, USD total.
pub(crate) type MonthAccum = BTreeMap<String, (HashSet<Address>, usize, f64)>;

/// Flattens the per-month accumulator into rows — shared by the batch
/// context and the streaming accumulator's running month map.
pub(crate) fn month_rows(by_month: &MonthAccum) -> Vec<MonthRow> {
    by_month
        .iter()
        .map(|(month, (victims, incidents, usd))| MonthRow {
            month: month.clone(),
            victims: victims.len(),
            incidents: *incidents,
            usd: *usd,
        })
        .collect()
}

impl<'a> MeasureCtx<'a> {
    /// Builds the monthly series, sorted chronologically. Months with no
    /// activity inside the observed span are included with zeros.
    pub fn monthly_series(&self) -> Vec<MonthRow> {
        let t = self.tables();
        let mut incidents = vec![0usize; t.months.len()];
        let mut usd = vec![0.0; t.months.len()];
        for (inc, &m) in self.incidents().iter().zip(&t.month_of) {
            incidents[m as usize] += 1;
            usd[m as usize] += inc.usd;
        }
        let victims = distinct_per(&t.month_of, &t.victim_of, t.months.len());
        t.months
            .iter()
            .enumerate()
            .map(|(m, &(year, month))| MonthRow {
                month: format_year_month(month_start(year, month)),
                victims: victims[m] as usize,
                incidents: incidents[m],
                usd: usd[m],
            })
            .collect()
    }

    /// The busiest month by USD stolen, if any activity exists.
    pub fn peak_month(&self) -> Option<MonthRow> {
        self.monthly_series()
            .into_iter()
            .max_by(|a, b| a.usd.partial_cmp(&b.usd).expect("finite"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{Chain, ContractKind, EntryStyle, ProfitSharingSpec};
    use daas_detector::{classify_tx, Dataset};
    use daas_pricing::Oracle;
    use eth_types::units::ether;

    #[test]
    fn series_buckets_by_calendar_month() {
        let mut chain = Chain::new(); // genesis 2023-03-01
        let op = chain.create_eoa_funded(b"t/op", ether(1)).unwrap();
        let aff = chain.create_eoa(b"t/aff").unwrap();
        let victim = chain.create_eoa_funded(b"t/v", ether(100)).unwrap();
        let contract = chain
            .deploy_contract(
                op,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator: op,
                    operator_bps: 2000,
                    entry: EntryStyle::PayableFallback,
                }),
            )
            .unwrap();
        let mut ds = Dataset::default();
        // Two incidents in March 2023, one in May 2023.
        for advance in [12, 86_400, 75 * 86_400] {
            chain.advance(advance);
            let tx = chain.claim_eth(victim, contract, ether(2), aff).unwrap();
            ds.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());
        }
        let oracle = Oracle::new();
        let ctx = MeasureCtx::new(&chain, &ds, &oracle);
        let series = ctx.monthly_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].month, "2023-03");
        assert_eq!(series[0].incidents, 2);
        assert_eq!(series[0].victims, 1, "same victim twice counts once per month");
        assert_eq!(series[1].month, "2023-05");
        assert_eq!(series[1].incidents, 1);
        // Peak month is March (two incidents at similar prices).
        assert_eq!(ctx.peak_month().unwrap().month, "2023-03");
    }

    #[test]
    fn empty_series() {
        let chain = Chain::new();
        let ds = Dataset::default();
        let oracle = Oracle::new();
        let ctx = MeasureCtx::new(&chain, &ds, &oracle);
        assert!(ctx.monthly_series().is_empty());
        assert!(ctx.peak_month().is_none());
    }
}
