//! Immutable engine snapshots and the epoch-swapped publication cell.
//!
//! After every ingested window the engine publishes a new [`Snapshot`]
//! into the shared [`SnapshotCell`]. Readers clone the `Arc` out of the
//! cell (the lock is held only for the pointer copy, never while a
//! query runs) and answer everything from that immutable view, so no
//! reader ever blocks the ingest thread and every answer is internally
//! consistent: all fields of one snapshot describe the same watermark.
//!
//! Risk checks need no index of their own: [`Snapshot::risk`] answers
//! from the epoch's `Arc`-shared parts, with one probe per role set
//! and, for a flagged address only, a binary search of the family
//! member lists of the roles it holds ([`daas_cluster::family_holding`]).
//! So a new epoch's first risk query costs what every other one does.
//! The two remaining query-side indices (victim → loss, the §6 stat
//! bundle) are *lazy*: built by the first reader that needs them via
//! `OnceLock` (timed as `serve.index_build_ms{index}`), shared by every
//! later reader of the same epoch, and never paid for by the ingest
//! thread.
//!
//! The incident map is the one large structure a snapshot shares with
//! the engine. It is a key-ordered copy-on-write [`CowMap`] of sorted
//! chunks, so a published epoch costs the next window only the chunks
//! that window writes — not a copy of every incident — and the derived
//! views read incidents in canonical (transaction-id) order straight
//! off the map.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

use daas_chain::TxId;
use daas_cluster::{family_holding, Family, Role};
use daas_detector::DatasetCounts;
use daas_measure::{stat_bundle, MeasuredIncident, StatBundle};
use eth_types::Address;
use txgraph::CowMap;

/// Role flags in a [`AddressRisk`] (an address can hold several).
pub const ROLE_CONTRACT: u8 = 1;
/// Operator role flag.
pub const ROLE_OPERATOR: u8 = 2;
/// Affiliate role flag.
pub const ROLE_AFFILIATE: u8 = 4;

/// The answer to an address-risk query, resolved against one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressRisk {
    /// `true` when the address holds any DaaS role at this watermark.
    pub is_daas: bool,
    /// Bitwise OR of `ROLE_*` flags.
    pub roles: u8,
    /// Index (= dense id) of the family containing the address.
    pub family: Option<usize>,
    /// Name of that family.
    pub family_name: Option<String>,
}

impl AddressRisk {
    /// Role names in canonical order.
    pub fn role_names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.roles & ROLE_CONTRACT != 0 {
            out.push("contract");
        }
        if self.roles & ROLE_OPERATOR != 0 {
            out.push("operator");
        }
        if self.roles & ROLE_AFFILIATE != 0 {
            out.push("affiliate");
        }
        out
    }
}

/// One immutable view of the engine's intelligence at a watermark.
///
/// Construction is cheap by design: the family vector and the role sets
/// are `Arc`-shared with the engine (a role set that grew is extended in
/// place from a set no reader holds any more; see `engine.rs`), and the
/// incident map is a copy-on-write clone — O(chunks) pointer copies, not
/// O(incidents), and the next window copies only the chunks it writes
/// (module docs).
pub struct Snapshot {
    /// Publication sequence number (strictly increasing per engine).
    pub epoch: u64,
    /// Transactions ingested (exclusive upper bound).
    pub watermark: TxId,
    /// Blocks fully ingested.
    pub blocks_ingested: u64,
    /// Blocks in the replayed chain.
    pub total_blocks: u64,
    /// `true` once the whole chain (including the tail drain) is in.
    pub done: bool,
    /// Dataset row counts at the watermark (Table 1's unit).
    pub counts: DatasetCounts,
    /// Families sorted by transaction count descending; `families[i].id
    /// == i`.
    pub families: Arc<Vec<Arc<Family>>>,
    /// Profit-sharing contracts discovered so far.
    pub contracts: Arc<BTreeSet<Address>>,
    /// Operator accounts discovered so far.
    pub operators: Arc<BTreeSet<Address>>,
    /// Affiliate accounts discovered so far.
    pub affiliates: Arc<BTreeSet<Address>>,
    /// Measured incidents keyed by transaction id; iteration is in
    /// canonical (transaction-id) order.
    pub incidents: CowMap<TxId, MeasuredIncident>,
    /// Running USD total (the engine's order-dependent accumulator).
    pub total_usd: f64,
    victim_losses: OnceLock<BTreeMap<Address, (f64, usize)>>,
    stats: OnceLock<StatBundle>,
}

impl Snapshot {
    /// Builds a snapshot from the engine's shared parts. Lazy indices
    /// start empty.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        epoch: u64,
        watermark: TxId,
        blocks_ingested: u64,
        total_blocks: u64,
        done: bool,
        counts: DatasetCounts,
        families: Arc<Vec<Arc<Family>>>,
        contracts: Arc<BTreeSet<Address>>,
        operators: Arc<BTreeSet<Address>>,
        affiliates: Arc<BTreeSet<Address>>,
        incidents: CowMap<TxId, MeasuredIncident>,
        total_usd: f64,
    ) -> Self {
        Snapshot {
            epoch,
            watermark,
            blocks_ingested,
            total_blocks,
            done,
            counts,
            families,
            contracts,
            operators,
            affiliates,
            incidents,
            total_usd,
            victim_losses: OnceLock::new(),
            stats: OnceLock::new(),
        }
    }

    /// An empty pre-ingest snapshot (epoch 0).
    pub fn empty(total_blocks: u64) -> Self {
        Snapshot::new(
            0,
            0,
            0,
            total_blocks,
            total_blocks == 0,
            DatasetCounts::default(),
            Arc::new(Vec::new()),
            Arc::new(BTreeSet::new()),
            Arc::new(BTreeSet::new()),
            Arc::new(BTreeSet::new()),
            CowMap::new(),
            0.0,
        )
    }

    /// Role flags the address holds: one probe per role set.
    fn roles(&self, address: Address) -> u8 {
        [
            (ROLE_CONTRACT, &self.contracts),
            (ROLE_OPERATOR, &self.operators),
            (ROLE_AFFILIATE, &self.affiliates),
        ]
        .into_iter()
        .filter(|(_, set)| set.contains(&address))
        .fold(0, |roles, (flag, _)| roles | flag)
    }

    /// The family of an address holding `roles`, searched only in the
    /// member lists of those roles: every family member is in its role
    /// set, so no other list can hold it.
    fn family_for(&self, address: Address, roles: u8) -> Option<usize> {
        let held = [
            (ROLE_CONTRACT, Role::Contract),
            (ROLE_OPERATOR, Role::Operator),
            (ROLE_AFFILIATE, Role::Affiliate),
        ]
        .into_iter()
        .filter(|&(flag, _)| roles & flag != 0)
        .map(|(_, role)| role);
        family_holding(&self.families, address, held)
    }

    /// Resolves one address against this epoch.
    pub fn risk(&self, address: Address) -> AddressRisk {
        let roles = self.roles(address);
        if roles == 0 {
            return AddressRisk { is_daas: false, roles: 0, family: None, family_name: None };
        }
        let family = self.family_for(address, roles);
        AddressRisk {
            is_daas: true,
            roles,
            family,
            family_name: family.and_then(|id| self.families.get(id)).map(|f| f.name.clone()),
        }
    }

    /// Family by dense id.
    pub fn family(&self, id: usize) -> Option<&Arc<Family>> {
        self.families.get(id)
    }

    /// Family containing the address (any role).
    pub fn family_of(&self, address: Address) -> Option<usize> {
        match self.roles(address) {
            0 => None,
            roles => self.family_for(address, roles),
        }
    }

    /// (USD lost, incident count) per victim, summed in canonical order.
    pub fn victim_losses(&self) -> &BTreeMap<Address, (f64, usize)> {
        self.victim_losses.get_or_init(|| {
            daas_obs::timed("serve.index_build_ms", "index", "victims", || {
                let mut losses: BTreeMap<Address, (f64, usize)> = BTreeMap::new();
                for inc in self.incidents.values() {
                    let entry = losses.entry(inc.victim).or_insert((0.0, 0));
                    entry.0 += inc.usd;
                    entry.1 += 1;
                }
                losses
            })
        })
    }

    /// The §6 quick-stat bundle for this epoch.
    pub fn stat_bundle(&self) -> &StatBundle {
        self.stats.get_or_init(|| {
            daas_obs::timed("serve.index_build_ms", "index", "stats", || {
                stat_bundle(self.incidents.values())
            })
        })
    }
}

/// The epoch-swapped publication point: a mutex around an `Arc` (std
/// has no atomic `Arc` swap). The lock is held only long enough to
/// clone or replace the pointer — readers and the ingest thread never
/// contend on anything O(data).
pub struct SnapshotCell {
    inner: Mutex<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// A cell seeded with the given snapshot.
    pub fn new(snapshot: Snapshot) -> Self {
        SnapshotCell { inner: Mutex::new(Arc::new(snapshot)) }
    }

    /// Clones the current snapshot pointer out of the cell.
    pub fn load(&self) -> Arc<Snapshot> {
        self.inner.lock().expect("snapshot cell poisoned").clone()
    }

    /// Reads the current snapshot under the cell's lock, without taking
    /// a reference to it. The engine extends a role set in place only
    /// once no snapshot holds it, and the current epoch never holds the
    /// set it extends, so a reader that reads this way (the telemetry)
    /// cannot change what a publish does.
    pub fn read<R>(&self, f: impl FnOnce(&Snapshot) -> R) -> R {
        f(&self.inner.lock().expect("snapshot cell poisoned"))
    }

    /// Publishes a new snapshot (readers holding the old epoch keep it
    /// alive until they drop their `Arc`).
    pub fn store(&self, snapshot: Snapshot) {
        *self.inner.lock().expect("snapshot cell poisoned") = Arc::new(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_answers_clean() {
        let snap = Snapshot::empty(0);
        assert!(snap.done);
        let risk = snap.risk(Address::from_key_seed(&[1]));
        assert!(!risk.is_daas);
        assert!(risk.role_names().is_empty());
        assert!(snap.victim_losses().is_empty());
        assert_eq!(snap.stat_bundle().incidents, 0);
    }

    #[test]
    fn cell_swaps_epochs() {
        let cell = SnapshotCell::new(Snapshot::empty(4));
        let old = cell.load();
        assert_eq!(old.epoch, 0);
        let mut next = Snapshot::empty(4);
        next.epoch = 1;
        cell.store(next);
        assert_eq!(cell.load().epoch, 1);
        // The reader that loaded epoch 0 still holds a live view.
        assert_eq!(old.epoch, 0);
    }
}
