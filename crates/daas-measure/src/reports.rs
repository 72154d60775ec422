//! The §6 report bundle: every independent measurement report computed
//! in one pass.
//!
//! The reports — victims, repeat victims, operators, lifecycles,
//! affiliates, associations, ratios, timeline, laundering — all read the
//! same immutable [`MeasureCtx`] and never each other. Before they run,
//! the context builds, once, the role ranks and per-account aggregates
//! the reports share (`tables.rs`): loss per victim, profit per operator
//! and affiliate, distinct victims and operators per affiliate,
//! incidents per victim and each incident's month. Each is indexed by
//! address-ordered rank, so a float sum over one runs in address order.
//! The operator-history scans (operators, associations, laundering)
//! compare interned ids from the transfer columns and resolve an
//! address only for a transfer they keep.
//!
//! This bundle is the *single* implementation of every report: the
//! streaming path (`LiveMeasure::reports`) materialises a context from
//! its running incident set and calls the same nine reports, so batch
//! and live never fork per-report logic.

use daas_chain::{LabelStore, Timestamp};
use daas_obs::timed;
use eth_types::Address;

use crate::affiliates::AffiliateReport;
use crate::incidents::MeasureCtx;
use crate::laundering::LaunderingReport;
use crate::management::RewardReport;
use crate::operators::{OperatorLifecycles, OperatorReport};
use crate::ratios::{ratio_histogram, RatioRow};
use crate::timeline::MonthRow;
use crate::victims::{RepeatVictimReport, VictimReport};

/// Accepted by [`MeasureCtx::reports`] and ignored: the bundle is
/// computed on one thread. Kept only because the benchmark runner
/// builds it; its API move (ROADMAP item 1) deletes this type and the
/// parameter.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// Ignored.
    pub threads: usize,
}

impl MeasureConfig {
    /// `threads: 1`; the same bundle as every other value.
    pub fn sequential() -> Self {
        MeasureConfig { threads: 1 }
    }
}

/// Every independent §6 report, bundled.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MeasureReports {
    /// Figure 6: victim losses.
    pub victims: VictimReport,
    /// §6.1: repeat-victim study.
    pub repeat_victims: RepeatVictimReport,
    /// §6.2: operator profits and concentration.
    pub operators: OperatorReport,
    /// §6.2: operator activity lifecycles.
    pub operator_lifecycles: OperatorLifecycles,
    /// Figure 7 / §6.3: affiliate profits and associations.
    pub affiliates: AffiliateReport,
    /// §7.2: operator→affiliate reward associations across the dataset.
    pub associations: RewardReport,
    /// §4.3: the profit-sharing ratio histogram.
    pub ratios: Vec<RatioRow>,
    /// Monthly activity series.
    pub timeline: Vec<MonthRow>,
    /// §8.1: where operator funds exit.
    pub laundering: LaunderingReport,
}

impl<'a> MeasureCtx<'a> {
    /// Computes the full §6 report bundle, one report after another;
    /// `_cfg` is ignored (see [`MeasureConfig`]). Each report is timed
    /// into `measure.report_ms{report=<name>}` (a clock-free call while
    /// the recorder is off).
    ///
    /// `inactive_secs` / `as_of` parameterise the operator-lifecycle
    /// report (the callers' inactivity threshold and census date).
    pub fn reports(
        &self,
        labels: &LabelStore,
        inactive_secs: u64,
        as_of: Timestamp,
        _cfg: &MeasureConfig,
    ) -> MeasureReports {
        let _bundle_span = daas_obs::span!("measure.reports");
        // The shared role ranks and aggregates, built once before the
        // reports read them.
        self.tables();
        // Reward associations scan operators × affiliates of the whole
        // dataset (BTreeSet iteration: already deterministic order).
        let operators: Vec<Address> = self.dataset.operators.iter().copied().collect();
        let affiliates: Vec<Address> = self.dataset.affiliates.iter().copied().collect();
        const MS: &str = "measure.report_ms";
        MeasureReports {
            victims: timed(MS, "report", "victims", || self.victim_report()),
            repeat_victims: timed(MS, "report", "repeat_victims", || self.repeat_victim_report()),
            operators: timed(MS, "report", "operators", || self.operator_report()),
            operator_lifecycles: timed(MS, "report", "operator_lifecycles", || {
                self.operator_lifecycles(inactive_secs, as_of)
            }),
            affiliates: timed(MS, "report", "affiliates", || self.affiliate_report()),
            associations: timed(MS, "report", "associations", || {
                self.reward_transfers(&operators, &affiliates)
            }),
            ratios: timed(MS, "report", "ratios", || ratio_histogram(self)),
            timeline: timed(MS, "report", "timeline", || self.monthly_series()),
            laundering: timed(MS, "report", "laundering", || self.laundering_report(labels)),
        }
    }
}
