//! Operator-side measurements (§6.2): profit concentration, lifecycles,
//! inter-operator fund flows.

use daas_chain::{days_between, Timestamp};
use eth_types::AddrId;
use serde::{Deserialize, Serialize};

use crate::incidents::MeasureCtx;
use crate::stats::{top_share, Concentration};

/// The §6.2 operator report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OperatorReport {
    /// Operator accounts observed in profit-sharing transactions.
    pub operators: usize,
    /// Total operator profits, USD (paper: $23.1M).
    pub total_usd: f64,
    /// Concentration summary (paper: 25.0% of operators hold 75.7%).
    pub concentration: Concentration,
    /// Number of dominant operators = top quartile count (paper: 14).
    pub top_quartile_count: usize,
    /// USD held by the top-quartile operators (paper: $17.4M).
    pub top_quartile_usd: f64,
    /// Share held by the top quartile, percent.
    pub top_quartile_share_pct: f64,
    /// Ordered pairs of operators with direct fund flows between them.
    pub linked_pairs: usize,
}

/// Operator account lifecycles (§6.2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OperatorLifecycles {
    /// Operators inactive for over a month at `as_of` (paper: 48).
    pub inactive_operators: usize,
    /// Their lifecycles in days (first to last transaction), sorted
    /// ascending.
    pub lifecycle_days: Vec<f64>,
    /// Shortest lifecycle (paper: 2 days).
    pub min_days: f64,
    /// Longest lifecycle (paper: 383 days).
    pub max_days: f64,
}

impl<'a> MeasureCtx<'a> {
    /// Builds the §6.2 operator report.
    pub fn operator_report(&self) -> OperatorReport {
        let t = self.tables();
        let values = &t.profit_per_operator;
        let concentration = Concentration::from_values(values);
        let top_quartile_count = (values.len() as f64 * 0.25).round().max(1.0) as usize;
        let top_quartile_share_pct = top_share(values, top_quartile_count);
        let total_usd: f64 = values.iter().sum();

        // Direct operator→operator fund flows, compared as interned ids
        // (an operator the chain never interned has no history).
        let store = self.chain.transactions();
        let mut ops: Vec<AddrId> =
            t.operators.iter().filter_map(|&op| self.chain.addr_id(op)).collect();
        ops.sort_unstable();
        let mut pairs: Vec<(AddrId, AddrId)> = Vec::new();
        let mut entries = 0u64;
        for &op in &ops {
            let history = self.chain.txs_of_id(op);
            entries += history.len() as u64;
            for &txid in history {
                let cols = store.view(txid).transfer_columns();
                for (&from, &to) in cols.from.iter().zip(cols.to) {
                    if from == op && to != op && ops.binary_search(&to).is_ok() {
                        pairs.push((op.min(to), op.max(to)));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        daas_obs::add_l("measure.history_entries", "report", "operators", entries);

        OperatorReport {
            operators: values.len(),
            total_usd,
            concentration,
            top_quartile_count,
            top_quartile_usd: total_usd * top_quartile_share_pct / 100.0,
            top_quartile_share_pct,
            linked_pairs: pairs.len(),
        }
    }

    /// Lifecycles of operators already inactive for `inactive_secs`
    /// at `as_of` (§6.2: one month, 48 such operators).
    pub fn operator_lifecycles(&self, inactive_secs: u64, as_of: Timestamp) -> OperatorLifecycles {
        let mut lifecycle_days = Vec::new();
        for &op in self.dataset.operators.iter() {
            let f = self.features().features(op);
            let (Some(first_ts), Some(last_ts)) = (f.first_tx_ts, f.last_tx_ts) else { continue };
            if as_of.saturating_sub(last_ts) <= inactive_secs {
                continue; // still active
            }
            lifecycle_days.push(days_between(first_ts, last_ts) as f64);
        }
        lifecycle_days.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        OperatorLifecycles {
            inactive_operators: lifecycle_days.len(),
            min_days: lifecycle_days.first().copied().unwrap_or(0.0),
            max_days: lifecycle_days.last().copied().unwrap_or(0.0),
            lifecycle_days,
        }
    }
}
