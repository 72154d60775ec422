//! The DaaS detection pipeline — the paper's primary contribution.
//!
//! Three stages, mirroring §4–§5:
//!
//! 1. **Classify** ([`classify_tx`]): decide whether a transaction is a
//!    profit-sharing transaction — exactly two transfers of one fungible
//!    asset from a single source, split in one of the nine observed
//!    operator ratios, with the operator (smaller share) and affiliate
//!    (larger share) roles read off the amounts.
//! 2. **Snowball** ([`build_dataset`]): seed profit-sharing contracts
//!    from public label sources, absorb their operator/affiliate
//!    accounts, then iteratively expand by scanning those accounts'
//!    histories for new profit-sharing contracts — guarded by the
//!    "previously interacted with another phishing account" rule — until
//!    fixpoint.
//! 3. **Evaluate** ([`evaluate`]): score the discovered dataset against
//!    a known ground truth (precision/recall per account class), plus
//!    the paper's §5.2 manual-validation sampling exercise
//!    ([`validation_sample`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod classify;
mod dataset;
mod evaluate;
mod features;
pub mod online;
mod robustness;
mod snowball;

pub use cache::{ClassificationCache, MemoStats, RoleIds, Verdicts};
pub use classify::{classify_tx, ClassifierConfig, PsObservation, DEFAULT_RATIOS_BPS};
pub use features::{AccountFeatures, FeatureCache};
pub use dataset::{Dataset, DatasetCounts};
pub use evaluate::{evaluate, validation_sample, ClassScores, Evaluation, ValidationSample};
pub use online::{Admission, DetectorEvent, OnlineDetector};
pub use robustness::{pairwise_family_scores, LossAttribution};
pub use snowball::{build_dataset, build_dataset_with_cache, SnowballConfig};
