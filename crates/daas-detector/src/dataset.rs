//! The DaaS dataset model (Table 1's unit of account).

use std::collections::BTreeSet;

use daas_chain::TxId;
use eth_types::Address;
use serde::{Deserialize, Serialize};

use crate::classify::PsObservation;

/// Row counts in Table 1's format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DatasetCounts {
    /// Profit-sharing contracts.
    pub contracts: usize,
    /// Operator accounts.
    pub operators: usize,
    /// Affiliate accounts.
    pub affiliates: usize,
    /// Profit-sharing transactions.
    pub ps_txs: usize,
}

impl DatasetCounts {
    /// Total DaaS accounts (contracts + operators + affiliates).
    pub fn daas_accounts(&self) -> usize {
        self.contracts + self.operators + self.affiliates
    }
}

/// The discovered DaaS dataset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Profit-sharing contracts.
    pub contracts: BTreeSet<Address>,
    /// Operator accounts (smaller-share recipients).
    pub operators: BTreeSet<Address>,
    /// Affiliate accounts (larger-share recipients).
    pub affiliates: BTreeSet<Address>,
    /// All classified profit-sharing transactions.
    pub ps_txs: BTreeSet<TxId>,
    /// One observation per transaction in `ps_txs`.
    pub observations: Vec<PsObservation>,
    /// Counts snapshotted after the seed stage (Table 1, left column).
    pub seed: DatasetCounts,
    /// Expansion rounds until fixpoint.
    pub rounds: usize,
}

impl Dataset {
    /// Current counts (Table 1, right column once expansion finishes).
    pub fn counts(&self) -> DatasetCounts {
        DatasetCounts {
            contracts: self.contracts.len(),
            operators: self.operators.len(),
            affiliates: self.affiliates.len(),
            ps_txs: self.ps_txs.len(),
        }
    }

    /// `true` if the address is any kind of DaaS account in the dataset.
    pub fn contains(&self, address: Address) -> bool {
        self.contracts.contains(&address)
            || self.operators.contains(&address)
            || self.affiliates.contains(&address)
    }

    /// Absorbs an observation (contract + roles + transaction). Returns
    /// `true` if the transaction was new.
    pub fn absorb(&mut self, obs: PsObservation) -> bool {
        if !self.ps_txs.insert(obs.tx) {
            return false;
        }
        self.contracts.insert(obs.contract);
        self.operators.insert(obs.operator);
        self.affiliates.insert(obs.affiliate);
        self.observations.push(obs);
        true
    }

    /// Observations attributed to one contract.
    pub fn observations_of(&self, contract: Address) -> impl Iterator<Item = &PsObservation> {
        self.observations.iter().filter(move |o| o.contract == contract)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::Asset;
    use eth_types::U256;

    fn addr(n: u8) -> Address {
        Address::from_key_seed(&[n])
    }

    fn obs(tx: TxId, contract: Address, op: Address, aff: Address) -> PsObservation {
        PsObservation {
            tx,
            timestamp: 0,
            source: contract,
            contract,
            operator: op,
            affiliate: aff,
            operator_amount: U256::from_u64(20),
            affiliate_amount: U256::from_u64(80),
            ratio_bps: 2000,
            asset: Asset::Eth,
        }
    }

    #[test]
    fn absorb_dedupes_by_tx() {
        let mut ds = Dataset::default();
        assert!(ds.absorb(obs(1, addr(1), addr(2), addr(3))));
        assert!(!ds.absorb(obs(1, addr(1), addr(2), addr(4))));
        assert_eq!(ds.counts().ps_txs, 1);
        assert_eq!(ds.counts().contracts, 1);
        assert_eq!(ds.counts().operators, 1);
        assert_eq!(ds.counts().affiliates, 1);
        assert_eq!(ds.counts().daas_accounts(), 3);
    }

    #[test]
    fn contains_covers_all_classes() {
        let mut ds = Dataset::default();
        ds.absorb(obs(1, addr(1), addr(2), addr(3)));
        assert!(ds.contains(addr(1)));
        assert!(ds.contains(addr(2)));
        assert!(ds.contains(addr(3)));
        assert!(!ds.contains(addr(4)));
    }

    #[test]
    fn observations_of_filters() {
        let mut ds = Dataset::default();
        ds.absorb(obs(1, addr(1), addr(2), addr(3)));
        ds.absorb(obs(2, addr(1), addr(2), addr(4)));
        ds.absorb(obs(3, addr(9), addr(2), addr(3)));
        assert_eq!(ds.observations_of(addr(1)).count(), 2);
        assert_eq!(ds.observations_of(addr(9)).count(), 1);
    }
}
