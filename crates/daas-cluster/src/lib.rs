//! DaaS family clustering and family-level forensics (§7).
//!
//! Step 1 ([`cluster`]): group operator accounts with a disjoint-set
//! forest — two operators join the same family when they transact with
//! each other, or both transact with the same explorer-labeled phishing
//! account. Step 2: profit-sharing contracts and affiliates inherit the
//! family of their operator(s). Families are named from explorer labels
//! when available, else by the operator address prefix (the paper's
//! `0x0000b6` convention).
//!
//! Family comparison (§7.2): [`contract_profile`] recovers each family's
//! phishing-function style from observed call metadata (Table 3), and
//! [`primary_lifecycles`] measures the rotation cadence of primary
//! contracts (>100 transactions, retired for over a month).
//! [`family_forensics`] extracts both for every family at once over a
//! shared feature cache.
//!
//! Clustering runs extract → merge → assemble phases, sequentially
//! (DESIGN.md §8). [`cluster_with`] and [`ClusterConfig`] remain only
//! as a shim for the earlier threaded signature and ignore their
//! configuration.
//!
//! Streaming ([`OnlineClusterer`]): families maintained incrementally
//! from the online detector's event feed, byte-identical to the batch
//! oracle [`cluster_prefix`] at every poll boundary — see
//! `tests/live_equivalence.rs` and DESIGN.md §10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod families;
mod forensics;
mod lifecycle;
mod online;
mod profile;

pub use families::{cluster, cluster_prefix, cluster_with, ClusterConfig, Clustering, Family};
pub use online::{ClustererCheckpoint, CompCheckpoint, OnlineClusterer, OnlineClustererStats};
pub use forensics::{family_forensics, FamilyForensics};
pub use lifecycle::{primary_lifecycles, primary_lifecycles_with, LifecycleStats};
pub use profile::{contract_profile, contract_profile_with, ContractProfile};
