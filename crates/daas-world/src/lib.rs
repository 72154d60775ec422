//! The DaaS ecosystem simulator.
//!
//! This crate substitutes for the thing the paper could observe but we
//! cannot: the real Ethereum DaaS economy between 2023-03 and 2025-04.
//! [`World::build`] generates, from a single seed, a complete world whose
//! marginals are calibrated to the paper's published numbers:
//!
//! * nine families with Table 2's exact contract / operator / affiliate /
//!   victim counts and profit totals,
//! * 87,077 profit-sharing transactions over 76,582 victims (Table 1),
//! * Figure 6's loss distribution and Figure 7's affiliate-profit tail,
//! * the §4.3 ratio mix, §6 concentration/association statistics, §7.2
//!   contract rotation lifecycles,
//! * public label coverage matching the seed-dataset ratios, and
//! * a website + CT-certificate population for the §8.2 pipeline, built
//!   on first use ([`World::sites`]).
//!
//! Everything the detection pipeline consumes is *observable* data
//! (chain, labels, certs, crawls); everything it must rediscover is kept
//! separately as [`GroundTruth`], enabling precision/recall scoring the
//! paper could only approximate by manual validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod gen;
mod sampler;
mod sites;
mod truth;

use std::collections::HashMap;
use std::sync::OnceLock;

pub use config::{
    collection_end, collection_start, table2_families, AdversarialConfig, EntryCfg, FamilyConfig,
    WorldConfig, KIND_MIX, LOSS_BUCKETS, RATIO_TABLE,
};
pub use gen::Infra;
pub use sampler::{chance, exponential, log_uniform, uniform_time, zipf_weights, Weighted};
pub use sites::{detection_start, SitePopulation, SiteTruth};
pub use truth::{ContractTruth, FamilyTruth, GroundTruth, IncidentKind, IncidentTruth};

use daas_chain::{Chain, LabelStore};
use daas_pricing::Oracle;
use rand::rngs::StdRng;
use webscan::{Crawler, Site};

/// A fully generated world: the observable surfaces plus ground truth.
#[derive(Debug, Clone)]
pub struct World {
    /// The ledger (what an archive node / explorer exposes).
    pub chain: Chain,
    /// The USD price oracle.
    pub oracle: Oracle,
    /// Public address labels (Etherscan, Chainabuse, academic datasets).
    pub labels: LabelStore,
    /// What the pipeline must rediscover.
    pub truth: GroundTruth,
    /// Shared on-chain infrastructure addresses.
    pub infra: Infra,
    /// The build's configuration, for [`World::sites`].
    config: WorldConfig,
    /// The master RNG stream as label assignment left it. Site
    /// generation is the stream's last consumer, so [`World::sites`]
    /// resumes a copy of it.
    site_rng: StdRng,
    /// The site population, once generated.
    sites: OnceLock<SitePopulation>,
}

impl World {
    /// Builds a world from a configuration. See [`WorldConfig`] for
    /// presets.
    pub fn build(config: &WorldConfig) -> Result<World, String> {
        gen::build(config)
    }

    /// [`World::build`] under an earlier signature, kept only because
    /// the benchmark runner calls it. Both arguments are ignored: the
    /// build runs on one thread and the chain has no shard layout.
    /// Workspace code calls [`World::build`]; the benchmark's API move
    /// (ROADMAP item 1) deletes this.
    pub fn build_opts(config: &WorldConfig, _threads: usize, _shards: usize) -> Result<World, String> {
        gen::build(config)
    }

    /// Websites, CT certificates and toolkit fingerprints: the §8.2
    /// surface, which only the website pipeline reads. Generated on the
    /// first call (`world.sites` span) from `truth`, and identical to
    /// what an eager build produced; a clone made before the first call
    /// generates the same population.
    pub fn sites(&self) -> &SitePopulation {
        self.sites.get_or_init(|| {
            let _s = daas_obs::span!("world.sites");
            sites::generate_sites(&mut self.site_rng.clone(), &self.config, &self.truth)
        })
    }

    /// A crawler over this world's website population (the urlscan.io
    /// stand-in), honouring taken-down sites.
    pub fn crawler(&self) -> WorldCrawler<'_> {
        let sites = self.sites();
        let by_domain =
            sites.sites.iter().enumerate().map(|(i, s)| (s.domain.clone(), i)).collect();
        WorldCrawler { sites, by_domain }
    }
}

/// Crawler implementation over a generated [`World`].
#[derive(Debug)]
pub struct WorldCrawler<'w> {
    sites: &'w SitePopulation,
    by_domain: HashMap<String, usize>,
}

impl Crawler for WorldCrawler<'_> {
    fn fetch(&self, domain: &str) -> Option<&Site> {
        let idx = *self.by_domain.get(domain)?;
        if self.sites.down.contains(domain) {
            return None;
        }
        Some(&self.sites.sites[idx])
    }
}
