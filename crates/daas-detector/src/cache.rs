//! The classification table: every transaction's §4.3 verdict, in
//! chain order.
//!
//! [`classify_tx`](crate::classify_tx) is a pure function of the
//! transaction and the classifier settings, and batch snowball sampling,
//! step-2 qualification, the online detector, the incremental clusterer
//! and live measurement all read the same verdicts. [`ClassificationCache`]
//! holds them in a dense table indexed by [`TxId`] that grows only in
//! chain order: a lookup past the filled prefix first classifies every
//! transaction up to it in one sequential sweep of the arena. A verdict
//! is four bytes, the index of the transaction's positive or a negative
//! marker. Each positive is stored inline, in 28 bytes: the contract,
//! operator and affiliate `AddrId`s the snowball and the online
//! detector key membership by (and the live clusterer reads, through
//! [`Verdicts::roles`]), and where in the transaction the split is,
//! from which a read materializes the [`PsObservation`].
//! Transaction ids are append-only, so a filled prefix never goes stale
//! while the chain grows.
//!
//! A table is valid for exactly one chain and one [`ClassifierConfig`];
//! callers that sweep classifier settings (the ablation harness) use a
//! fresh table per configuration.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use daas_chain::{Chain, TxId};
use eth_types::AddrId;
use parking_lot::{RwLock, RwLockReadGuard};

use crate::classify::{classify_positive, ClassifierConfig, Positive, PsObservation};

/// Hit/miss counters of a cache, as [`ClassificationCache::stats`] and
/// [`crate::FeatureCache::stats`] report them; each says what its
/// counters count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups served from stored results.
    pub hits: u64,
    /// Results computed.
    pub misses: u64,
    /// Results stored.
    pub entries: usize,
}

impl MemoStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The verdict of a transaction that does not classify.
const NEGATIVE: u32 = u32::MAX;

#[derive(Default)]
struct Table {
    /// One entry per classified transaction, in chain order: an index
    /// into `positives`, or [`NEGATIVE`].
    verdicts: Vec<u32>,
    positives: Vec<Positive>,
}

/// The shared verdict table (see the module docs).
///
/// The table sits behind a read-write lock so one `Arc` can serve the
/// detector, the clusterer and live measurement, but only a fill takes
/// the write side; readers hold one read guard for a whole pass.
#[derive(Default)]
pub struct ClassificationCache {
    table: RwLock<Table>,
    /// Verdicts read since construction.
    reads: AtomicU64,
}

impl fmt::Debug for ClassificationCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassificationCache").field("entries", &self.len()).finish()
    }
}

impl ClassificationCache {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The verdict for `txid`, classifying the chain up to it first if
    /// the table does not reach it yet.
    pub fn classify(
        &self,
        chain: &Chain,
        txid: TxId,
        cfg: &ClassifierConfig,
    ) -> Option<PsObservation> {
        self.fill(chain, cfg, txid + 1);
        self.read().get(txid).map(|p| p.observation(chain.transactions()))
    }

    /// Classifies every transaction below `end` that the table does not
    /// hold yet, in one sweep, and returns how many that was.
    pub(crate) fn fill(&self, chain: &Chain, cfg: &ClassifierConfig, end: TxId) -> usize {
        let end = end as usize;
        if self.len() >= end {
            return 0;
        }
        let mut table = self.table.write();
        let start = table.verdicts.len();
        if start >= end {
            return 0;
        }
        let store = chain.transactions();
        // Size the verdicts to the chain once: the table only ever grows
        // toward it.
        table.verdicts.reserve(store.len().max(end) - start);
        for txid in start..end {
            let verdict = match classify_positive(store.view(txid as TxId), cfg) {
                Some(positive) => {
                    table.positives.push(positive);
                    (table.positives.len() - 1) as u32
                }
                None => NEGATIVE,
            };
            table.verdicts.push(verdict);
        }
        end - start
    }

    /// A read guard over the filled prefix, for a pass of many reads.
    /// Fill before taking it: a fill on the same thread while it is held
    /// would wait on it forever.
    pub(crate) fn read(&self) -> Verdicts<'_> {
        Verdicts { table: self.table.read(), reads: Cell::new(0), total: &self.reads }
    }

    /// Classifies every transaction below `end` the table does not hold
    /// yet, then returns one read guard over the verdicts, for a pass of
    /// many [`Verdicts::roles`] reads. Do not fill the table on the same
    /// thread while the guard is held.
    pub fn read_to(&self, chain: &Chain, cfg: &ClassifierConfig, end: TxId) -> Verdicts<'_> {
        self.fill(chain, cfg, end);
        self.read()
    }

    /// Transactions classified so far (the filled prefix).
    pub fn len(&self) -> usize {
        self.table.read().verdicts.len()
    }

    /// Whether nothing has been classified yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table's counters: `misses` is the number of transactions
    /// classified into it (always equal to `entries`), `hits` the number
    /// of verdicts read. The observability layer exports per-run deltas
    /// of both as `cache.classify.hit` / `cache.classify.miss`.
    pub fn stats(&self) -> MemoStats {
        let entries = self.len();
        MemoStats { hits: self.reads.load(Ordering::Relaxed), misses: entries as u64, entries }
    }
}

/// The interned role ids of one positive verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleIds {
    /// The invoked contract (the transaction's `to`).
    pub contract: AddrId,
    /// Smaller-share recipient.
    pub operator: AddrId,
    /// Larger-share recipient.
    pub affiliate: AddrId,
}

/// Shared read access to the filled prefix of a [`ClassificationCache`].
/// Reads are counted locally and added to the table's `hits` when the
/// guard drops.
pub struct Verdicts<'a> {
    table: RwLockReadGuard<'a, Table>,
    reads: Cell<u64>,
    total: &'a AtomicU64,
}

impl Verdicts<'_> {
    /// The index of `txid`'s positive, or `None` for a negative. Panics
    /// if the table has not been filled up to `txid`.
    #[inline]
    pub(crate) fn slot(&self, txid: TxId) -> Option<u32> {
        self.reads.set(self.reads.get() + 1);
        let verdict = self.table.verdicts[txid as usize];
        (verdict != NEGATIVE).then_some(verdict)
    }

    /// The positive behind a [`Self::slot`].
    #[inline]
    pub(crate) fn positive(&self, slot: u32) -> &Positive {
        &self.table.positives[slot as usize]
    }

    /// The number of positives in the filled prefix (slots run below it).
    pub(crate) fn positives(&self) -> usize {
        self.table.positives.len()
    }

    /// `txid`'s positive, if it classifies.
    #[inline]
    pub(crate) fn get(&self, txid: TxId) -> Option<&Positive> {
        self.slot(txid).map(|slot| self.positive(slot))
    }

    /// The role ids of `txid`'s positive, or `None` for a negative — a
    /// read of the stored 28-byte verdict, with nothing materialized.
    /// Panics if the table has not been filled up to `txid`.
    #[inline]
    pub fn roles(&self, txid: TxId) -> Option<RoleIds> {
        self.get(txid).map(|p| RoleIds {
            contract: p.contract,
            operator: p.operator,
            affiliate: p.affiliate,
        })
    }
}

impl Drop for Verdicts<'_> {
    fn drop(&mut self) {
        self.total.fetch_add(self.reads.get(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{ContractKind, EntryStyle, ProfitSharingSpec};
    use eth_types::units::ether;

    /// A deploy, a profit-sharing claim and a plain transfer after it.
    fn chain() -> Chain {
        let mut chain = Chain::new();
        let op = chain.create_eoa_funded(b"op", ether(10)).unwrap();
        let aff = chain.create_eoa(b"aff").unwrap();
        let spec = ProfitSharingSpec {
            operator: op,
            operator_bps: 2000,
            entry: EntryStyle::PayableFallback,
        };
        let contract = chain.deploy_contract(op, ContractKind::ProfitSharing(spec)).unwrap();
        let victim = chain.create_eoa_funded(b"victim", ether(100)).unwrap();
        chain.advance(12);
        chain.claim_eth(victim, contract, ether(10), aff).unwrap();
        chain.transfer_eth(victim, aff, ether(1)).unwrap();
        chain
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        assert_eq!(MemoStats::default().hit_rate(), 0.0);
        let stats = MemoStats { hits: 1, misses: 3, entries: 2 };
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_table_reports_empty() {
        let cache = ClassificationCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), MemoStats::default());
    }

    #[test]
    fn a_lookup_fills_the_prefix_up_to_it_and_no_further() {
        let chain = chain();
        let total = chain.transactions().len() as TxId;
        let cfg = ClassifierConfig::default();
        let cache = ClassificationCache::new();
        let claim = (0..total)
            .find(|&t| crate::classify_tx(chain.tx(t), &cfg).is_some())
            .expect("the claim classifies");
        assert!(claim + 1 < total, "the fixture ends after the claim");

        let obs = cache.classify(&chain, claim, &cfg).expect("positive");
        assert_eq!(obs.tx, claim);
        assert_eq!(cache.len(), claim as usize + 1, "filled past the lookup");
        let stats = cache.stats();
        let filled = claim as usize + 1;
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, filled as u64, filled));

        // A lookup inside the prefix classifies nothing; one past it
        // classifies only the gap.
        assert!(cache.classify(&chain, 0, &cfg).is_none());
        assert_eq!(cache.len(), claim as usize + 1);
        assert_eq!(cache.fill(&chain, &cfg, total), (total - claim - 1) as usize);
        assert_eq!(cache.fill(&chain, &cfg, total), 0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, total as u64, total as usize));
    }

    #[test]
    fn stored_positives_carry_their_role_ids() {
        let chain = chain();
        let total = chain.transactions().len() as TxId;
        let cfg = ClassifierConfig::default();
        let cache = ClassificationCache::new();
        cache.fill(&chain, &cfg, total);
        let verdicts = cache.read();
        let mut positives = 0;
        for txid in 0..total {
            let obs = verdicts.get(txid).map(|p| p.observation(chain.transactions()));
            assert_eq!(
                obs,
                crate::classify_tx(chain.tx(txid), &cfg),
                "tx {txid}: the table disagrees with the classifier"
            );
            if let (Some(p), Some(obs)) = (verdicts.get(txid), obs) {
                positives += 1;
                assert_eq!(p.tx, txid);
                assert_eq!(chain.resolve_addr(p.contract), obs.contract);
                assert_eq!(chain.resolve_addr(p.operator), obs.operator);
                assert_eq!(chain.resolve_addr(p.affiliate), obs.affiliate);
            }
        }
        assert_eq!(positives, 1);
        drop(verdicts);
        assert_eq!(cache.stats().hits, 2 * total as u64, "every read is counted once");
    }
}
