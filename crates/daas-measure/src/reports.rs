//! The §6 report bundle: every independent measurement report computed
//! in one pass, optionally fanned across a worker pool.
//!
//! The reports — victims, repeat victims, operators, lifecycles,
//! affiliates, associations, ratios, timeline, laundering — all read the
//! same immutable [`MeasureCtx`] and never each other, so they are
//! embarrassingly parallel. Before the fan-out the context builds, once,
//! the role ranks and per-account aggregates the reports share
//! (`tables.rs`): loss per victim, profit per operator and affiliate,
//! distinct victims and operators per affiliate, incidents per victim
//! and each incident's month. Each is indexed by address-ordered rank,
//! so a float sum over one runs in address order. The operator-history
//! scans (operators, associations, laundering) compare interned ids
//! from the transfer columns and resolve an address only for a transfer
//! they keep. With `threads > 1` the bundle distributes the report
//! tasks across the pool; each task is a pure function of the context,
//! so the bundle is byte-identical for every thread count
//! (`threads == 1` is the sequential oracle the equivalence suite
//! diffs against).
//!
//! This bundle is the *single* implementation of every report: the
//! streaming path (`LiveMeasure::reports`) materialises a context from
//! its running incident set and calls the same nine tasks, so batch and
//! live never fork per-report logic.

use daas_chain::{LabelStore, Timestamp};
use eth_types::Address;

use crate::affiliates::AffiliateReport;
use crate::incidents::MeasureCtx;
use crate::laundering::LaunderingReport;
use crate::management::RewardReport;
use crate::operators::{OperatorLifecycles, OperatorReport};
use crate::ratios::{ratio_histogram, RatioRow};
use crate::timeline::MonthRow;
use crate::victims::{RepeatVictimReport, VictimReport};

/// Parallelism knob for the report bundle. `threads == 0` uses every
/// core; `threads == 1` is the sequential oracle the equivalence suite
/// diffs against. The thread count is a schedule, never data: the
/// bundle is byte-identical at every setting.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// Worker threads for the report fan-out (0 = all cores).
    pub threads: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig { threads: 0 }
    }
}

impl MeasureConfig {
    /// The sequential oracle configuration.
    pub fn sequential() -> Self {
        MeasureConfig { threads: 1 }
    }

    /// Resolves `threads == 0` to the host's available parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }
}

/// Every independent §6 report, bundled. Construction order (and the
/// merged result) is fixed regardless of how the tasks are scheduled.
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

/// One report task's result. The enum exists so heterogeneous report
/// closures can ride a single worker queue; [`assemble`] maps the slots
/// back to bundle fields by variant, independent of completion order.
enum Slot {
    Victims(VictimReport),
    RepeatVictims(RepeatVictimReport),
    Operators(OperatorReport),
    Lifecycles(OperatorLifecycles),
    Affiliates(AffiliateReport),
    Associations(RewardReport),
    Ratios(Vec<RatioRow>),
    Timeline(Vec<MonthRow>),
    Laundering(LaunderingReport),
}

impl<'a> MeasureCtx<'a> {
    /// Computes the full §6 report bundle. With `cfg.threads > 1` the
    /// independent reports fan out across the pool; results are merged
    /// in a fixed task order, so the bundle is identical to the
    /// sequential (`threads == 1`) run.
    ///
    /// `inactive_secs` / `as_of` parameterise the operator-lifecycle
    /// report (the callers' inactivity threshold and census date).
    pub fn reports(
        &self,
        labels: &LabelStore,
        inactive_secs: u64,
        as_of: Timestamp,
        cfg: &MeasureConfig,
    ) -> MeasureReports {
        let threads = cfg.effective_threads();
        let _bundle_span = daas_obs::span!("measure.reports", threads = threads);
        let feat_before = daas_obs::enabled().then(|| self.features().stats());
        // The shared role ranks and aggregates, built once before the
        // tasks read them.
        self.tables();
        // Reward associations scan operators × affiliates of the whole
        // dataset (BTreeSet iteration: already deterministic order).
        let operators: Vec<Address> = self.dataset.operators.iter().copied().collect();
        let affiliates: Vec<Address> = self.dataset.affiliates.iter().copied().collect();

        type Task<'t> = Box<dyn FnOnce() -> Slot + Send + 't>;
        // Each task is timed into `measure.report_ms{report=<name>}`
        // (a no-op clock-free call while the recorder is off).
        let tasks: Vec<Task<'_>> = vec![
            Box::new(move || {
                daas_obs::timed("measure.report_ms", "report", "victims", || {
                    Slot::Victims(self.victim_report())
                })
            }),
            Box::new(move || {
                daas_obs::timed("measure.report_ms", "report", "repeat_victims", || {
                    Slot::RepeatVictims(self.repeat_victim_report())
                })
            }),
            Box::new(move || {
                daas_obs::timed("measure.report_ms", "report", "operators", || {
                    Slot::Operators(self.operator_report())
                })
            }),
            Box::new(move || {
                daas_obs::timed("measure.report_ms", "report", "operator_lifecycles", || {
                    Slot::Lifecycles(self.operator_lifecycles(inactive_secs, as_of))
                })
            }),
            Box::new(move || {
                daas_obs::timed("measure.report_ms", "report", "affiliates", || {
                    Slot::Affiliates(self.affiliate_report())
                })
            }),
            Box::new(move || {
                daas_obs::timed("measure.report_ms", "report", "associations", || {
                    Slot::Associations(self.reward_transfers(&operators, &affiliates))
                })
            }),
            Box::new(move || {
                daas_obs::timed("measure.report_ms", "report", "ratios", || Slot::Ratios(ratio_histogram(self)))
            }),
            Box::new(move || {
                daas_obs::timed("measure.report_ms", "report", "timeline", || {
                    Slot::Timeline(self.monthly_series())
                })
            }),
            Box::new(move || {
                daas_obs::timed("measure.report_ms", "report", "laundering", || {
                    Slot::Laundering(self.laundering_report(labels))
                })
            }),
        ];

        let slots: Vec<Slot> = if threads <= 1 {
            tasks.into_iter().map(|t| t()).collect()
        } else {
            let workers = threads.min(tasks.len());
            let chunk = tasks.len().div_ceil(workers);
            let mut parts: Vec<Vec<Task<'_>>> = Vec::with_capacity(workers);
            let mut rest = tasks;
            while !rest.is_empty() {
                let tail = rest.split_off(chunk.min(rest.len()));
                parts.push(rest);
                rest = tail;
            }
            crossbeam::scope(|scope| {
                let handles: Vec<_> = parts
                    .into_iter()
                    .map(|part| {
                        scope.spawn(move |_| part.into_iter().map(|t| t()).collect::<Vec<_>>())
                    })
                    .collect();
                // Joining in spawn order restores the task order, so the
                // assembly below never observes the schedule.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("report workers do not panic"))
                    .collect()
            })
            .expect("report scope does not panic")
        };
        if let Some(before) = feat_before {
            // Feature sets this bundle extracted (deltas over the
            // context's counters; nothing is stored, so hits stay 0).
            let stats = self.features().stats();
            daas_obs::add("cache.features.hit", stats.hits.saturating_sub(before.hits));
            daas_obs::add("cache.features.miss", stats.misses.saturating_sub(before.misses));
        }
        assemble(slots)
    }
}

/// Folds task results into the bundle by variant.
fn assemble(slots: Vec<Slot>) -> MeasureReports {
    let mut victims = None;
    let mut repeat_victims = None;
    let mut operators = None;
    let mut operator_lifecycles = None;
    let mut affiliates = None;
    let mut associations = None;
    let mut ratios = None;
    let mut timeline = None;
    let mut laundering = None;
    for slot in slots {
        match slot {
            Slot::Victims(r) => victims = Some(r),
            Slot::RepeatVictims(r) => repeat_victims = Some(r),
            Slot::Operators(r) => operators = Some(r),
            Slot::Lifecycles(r) => operator_lifecycles = Some(r),
            Slot::Affiliates(r) => affiliates = Some(r),
            Slot::Associations(r) => associations = Some(r),
            Slot::Ratios(r) => ratios = Some(r),
            Slot::Timeline(r) => timeline = Some(r),
            Slot::Laundering(r) => laundering = Some(r),
        }
    }
    MeasureReports {
        victims: victims.expect("victim task ran"),
        repeat_victims: repeat_victims.expect("repeat-victim task ran"),
        operators: operators.expect("operator task ran"),
        operator_lifecycles: operator_lifecycles.expect("lifecycle task ran"),
        affiliates: affiliates.expect("affiliate task ran"),
        associations: associations.expect("association task ran"),
        ratios: ratios.expect("ratio task ran"),
        timeline: timeline.expect("timeline task ran"),
        laundering: laundering.expect("laundering task ran"),
    }
}
