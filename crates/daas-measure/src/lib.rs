//! Measurement analytics over a discovered DaaS dataset (§6 and the
//! figures/tables of the paper's evaluation).
//!
//! Everything is computed from *observables only* — the chain, the
//! dataset the snowball sampler produced, and the price oracle — never
//! from generator ground truth. The entry point is [`MeasureCtx`], which
//! attributes each profit-sharing transaction to a victim and a USD
//! value once ([`MeasuredIncident`]); all reports derive from that.
//!
//! Streaming ([`LiveMeasure`]): the same measurements maintained
//! incrementally from the online detector's event feed — exact running
//! counts per poll, and a canonical [`LiveMeasure::reports`] that routes
//! through the identical batch bundle (byte-identical output; see
//! `tests/live_equivalence.rs` and DESIGN.md §10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affiliates;
mod bundle;
mod family_table;
mod incidents;
mod laundering;
mod live;
mod management;
mod timeline;
mod operators;
mod ratios;
mod reports;
mod stats;
mod tables;
mod victims;

pub use affiliates::{AffiliateReport, AFFILIATE_PROFIT_BUCKETS};
pub use bundle::{stat_bundle, StatBundle};
pub use family_table::{dominant_share, family_table, FamilyRow};
pub use incidents::{MeasureCtx, MeasuredIncident};
pub use laundering::{LaunderingReport, SinkKind};
pub use live::{LiveDelta, LiveMeasure};
pub use management::{RewardReport, TierCensus};
pub use timeline::MonthRow;
pub use operators::{OperatorLifecycles, OperatorReport};
pub use ratios::{ratio_histogram, RatioRow};
pub use reports::{MeasureConfig, MeasureReports};
pub use stats::{top_share, Concentration};
pub use victims::{RepeatVictimReport, VictimReport, VICTIM_LOSS_BUCKETS};
