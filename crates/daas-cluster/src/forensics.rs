//! Per-family forensics: Table 3 contract profiles and §7.2 lifecycle
//! statistics for every family, read through one shared
//! [`FeatureCache`].

use daas_chain::{Chain, Timestamp};
use daas_detector::{Dataset, FeatureCache};

use crate::families::Clustering;
use crate::lifecycle::{primary_lifecycles_with, LifecycleStats};
use crate::profile::{contract_profile_with, ContractProfile};

/// Profile + lifecycle rows for every family, in clustering order.
#[derive(Debug, Clone)]
pub struct FamilyForensics {
    /// One Table 3 row per family.
    pub profiles: Vec<ContractProfile>,
    /// One §7.2 lifecycle row per family.
    pub lifecycles: Vec<LifecycleStats>,
}

impl FamilyForensics {
    /// Rows for the family with the given name, if clustered.
    pub fn by_name(&self, name: &str) -> Option<(&ContractProfile, &LifecycleStats)> {
        let i = self.profiles.iter().position(|p| p.family == name)?;
        Some((&self.profiles[i], &self.lifecycles[i]))
    }
}

/// Extracts profile and lifecycle rows for every family in
/// `clustering`, in order, over one shared [`FeatureCache`]. Lifecycle
/// criteria are the paper's §7.2 parameters (`min_txs`,
/// `inactive_secs`, `as_of`) — see [`crate::primary_lifecycles`].
pub fn family_forensics(
    chain: &Chain,
    dataset: &Dataset,
    clustering: &Clustering,
    min_txs: usize,
    inactive_secs: u64,
    as_of: Timestamp,
) -> FamilyForensics {
    let features = FeatureCache::new(chain, dataset);
    let (profiles, lifecycles) = clustering
        .families
        .iter()
        .map(|family| {
            (
                contract_profile_with(chain, family, &features),
                primary_lifecycles_with(family, min_txs, inactive_secs, as_of, &features),
            )
        })
        .unzip();
    FamilyForensics { profiles, lifecycles }
}
