//! Streaming measurement: the §6 view maintained incrementally from the
//! online detector's event feed.
//!
//! [`LiveMeasure`] consumes [`DetectorEvent`]s and folds each new
//! profit-sharing transaction, attributed and valued once, into only
//! what its callers read: the incident set, the distinct-victim set,
//! the §4.3 ratio counters and the running USD total. An ingest takes
//! one read guard over the shared verdict table, as the clusterer does,
//! and materializes each new transaction's observation from its stored
//! positive. The counts
//! (`incident_count`, `victim_count`, `ratio_histogram`) are *exactly*
//! the batch values at any poll; the total accumulates in event-arrival
//! order and is monitoring-grade (ulp-level) only.
//!
//! The canonical numbers come from [`LiveMeasure::reports`]: it hands a
//! [`MeasureCtx`] the *cached* canonical incident vector (transaction
//! order — the same canonical order `MeasureCtx::new` produces) and
//! routes through the identical §6 report bundle, so the streaming path
//! and the batch path share one implementation per report and agree
//! byte-for-byte. See DESIGN.md §10.
//!
//! The incident set lives on a key-ordered [`txgraph::CowMap`], shared
//! with every published daas-serve snapshot: a window's incidents
//! append to its tail chunk, so ingesting while the previous epoch is
//! still held copies O(window) entries, not the whole set, and the
//! canonical order is the map's own iteration order — the canonical
//! vector reads it out without a sort. The vector is `Arc`-shared and
//! revision-stamped: polls that add no incidents re-serve the previous
//! allocation. Nothing here is checkpointed: an engine restore replays
//! the same event stream in one poll, which adds the same incidents in
//! the same order, so even the order-dependent running total comes out
//! bit-identical.

use std::collections::BTreeMap;
use std::sync::Arc;

use daas_chain::{Chain, LabelStore, Timestamp, TxId};
use daas_detector::{ClassificationCache, ClassifierConfig, Dataset, DetectorEvent};
use daas_pricing::Oracle;
use eth_types::{Address, FxHashSet};

use crate::incidents::{measure_observation, MeasureCtx, MeasuredIncident};
use crate::ratios::{ratio_rows, RatioRow};
use crate::reports::{MeasureConfig, MeasureReports};

/// What one [`LiveMeasure::ingest`] call added.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LiveDelta {
    /// Newly measured profit-sharing incidents.
    pub incidents: usize,
    /// Victims seen for the first time.
    pub new_victims: usize,
    /// USD stolen across the new incidents.
    pub usd: f64,
}

/// Incremental measurement accumulators over a detector event stream.
#[derive(Clone)]
pub struct LiveMeasure {
    cfg: ClassifierConfig,
    cache: Arc<ClassificationCache>,
    /// Attributed incidents keyed by transaction id, in copy-on-write
    /// chunks: cloning the map for a reader snapshot is O(chunks), and a
    /// post-clone window copies only the chunks it writes.
    incidents: txgraph::CowMap<TxId, MeasuredIncident>,
    /// Bumped whenever `incidents` changes; stamps the canonical cache.
    rev: u64,
    /// The canonical (transaction-ordered) incident vector served to
    /// [`MeasureCtx::from_incidents`], rebuilt only when `rev` moved.
    canonical: Option<(u64, Arc<Vec<MeasuredIncident>>)>,
    /// The incidents' distinct victims.
    victims: FxHashSet<Address>,
    /// Incidents per matched ratio.
    ratio_counts: BTreeMap<u32, usize>,
    total_usd: f64,
}

impl LiveMeasure {
    /// A fresh accumulator with its own classification table.
    pub fn new(cfg: ClassifierConfig) -> Self {
        Self::with_cache(cfg, Arc::new(ClassificationCache::new()))
    }

    /// A fresh accumulator sharing a classification table with the
    /// detector and clusterer (every `PsTransaction` lookup then reads
    /// a verdict the detector's poll already classified).
    pub fn with_cache(cfg: ClassifierConfig, cache: Arc<ClassificationCache>) -> Self {
        LiveMeasure {
            cfg,
            cache,
            incidents: txgraph::CowMap::new(),
            rev: 0,
            canonical: None,
            victims: FxHashSet::default(),
            ratio_counts: BTreeMap::new(),
            total_usd: 0.0,
        }
    }

    /// Folds one poll's events into the accumulators. Only
    /// [`DetectorEvent::PsTransaction`] carries measurable value; role
    /// events are ignored here (the clusterer owns membership).
    pub fn ingest(&mut self, chain: &Chain, oracle: &Oracle, events: &[DetectorEvent]) -> LiveDelta {
        let mut delta = LiveDelta::default();
        let txs = events.iter().filter_map(|event| match event {
            DetectorEvent::PsTransaction { tx, .. } => Some(*tx),
            _ => None,
        });
        let Some(last) = txs.clone().max() else { return delta };
        // One guard over the verdict table materializes every new
        // transaction's observation.
        let cache = Arc::clone(&self.cache);
        let verdicts = cache.read_to(chain, &self.cfg, last + 1);
        for tx in txs {
            if self.incidents.contains_key(&tx) {
                continue;
            }
            let obs = verdicts
                .observation(chain, tx)
                .expect("detector only emits positively classified txs");
            let inc = measure_observation(chain, oracle, &obs);
            delta.incidents += 1;
            delta.usd += inc.usd;
            *self.ratio_counts.entry(inc.ratio_bps).or_default() += 1;
            delta.new_victims += usize::from(self.victims.insert(inc.victim));
            self.total_usd += inc.usd;
            self.incidents.insert(tx, inc);
            self.rev += 1;
        }
        delta
    }

    /// An O(chunks) copy-on-write clone of the incident set — the cheap
    /// handle a published reader snapshot holds (daas-serve); readers
    /// derive their lazy per-epoch indices from it without touching the
    /// accumulator again.
    pub fn incidents_snapshot(&self) -> txgraph::CowMap<TxId, MeasuredIncident> {
        self.incidents.clone()
    }

    /// Measured incidents so far.
    pub fn incident_count(&self) -> usize {
        self.incidents.len()
    }

    /// Distinct victims so far.
    pub fn victim_count(&self) -> usize {
        self.victims.len()
    }

    /// Running USD total (event-arrival accumulation order).
    pub fn total_usd(&self) -> f64 {
        self.total_usd
    }

    /// The §4.3 ratio histogram from the running counters — counts are
    /// integral, so this is *exactly* the batch histogram at any poll.
    pub fn ratio_histogram(&self) -> Vec<RatioRow> {
        ratio_rows(&self.ratio_counts)
    }

    /// Materialises a full [`MeasureCtx`] around the running incident
    /// set — incidents are *not* re-attributed, and the canonical
    /// vector is cached per revision, so repeated calls between quiet
    /// polls hand the same `Arc` over without copying.
    pub fn ctx<'a>(
        &mut self,
        chain: &'a Chain,
        dataset: &'a Dataset,
        oracle: &'a Oracle,
    ) -> MeasureCtx<'a> {
        let canonical = match &self.canonical {
            Some((rev, cached)) if *rev == self.rev => cached.clone(),
            _ => {
                let incidents: Arc<Vec<MeasuredIncident>> =
                    Arc::new(self.incidents.values().cloned().collect());
                self.canonical = Some((self.rev, incidents.clone()));
                incidents
            }
        };
        MeasureCtx::from_incidents(chain, dataset, oracle, canonical)
    }

    /// The canonical §6 bundle: routes through the same
    /// [`MeasureCtx::reports`] the batch pipeline calls, so streaming and
    /// batch share one implementation per report and the output is
    /// byte-identical to the batch bundle over the same dataset.
    pub fn reports(
        &mut self,
        chain: &Chain,
        dataset: &Dataset,
        oracle: &Oracle,
        labels: &LabelStore,
        inactive_secs: u64,
        as_of: Timestamp,
        cfg: &MeasureConfig,
    ) -> MeasureReports {
        self.ctx(chain, dataset, oracle).reports(labels, inactive_secs, as_of, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{ContractKind, EntryStyle, ProfitSharingSpec};
    use daas_detector::classify_tx;
    use eth_types::units::ether;

    fn fixture() -> (Chain, Dataset, Oracle, Vec<DetectorEvent>) {
        let mut chain = Chain::new();
        let op = chain.create_eoa_funded(b"lm/op", ether(5)).unwrap();
        let aff = chain.create_eoa(b"lm/aff").unwrap();
        let contract = chain
            .deploy_contract(
                op,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator: op,
                    operator_bps: 2000,
                    entry: EntryStyle::PayableFallback,
                }),
            )
            .unwrap();
        let mut dataset = Dataset::default();
        let mut events = Vec::new();
        for (i, amount) in [ether(1), ether(4), ether(2)].into_iter().enumerate() {
            let victim = chain
                .create_eoa_funded(format!("lm/v{i}").as_bytes(), ether(50))
                .unwrap();
            chain.advance(12);
            let tx = chain.claim_eth(victim, contract, amount, aff).unwrap();
            dataset.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());
            events.push(DetectorEvent::PsTransaction { tx, contract });
        }
        dataset.operators.insert(op);
        dataset.affiliates.insert(aff);
        dataset.contracts.insert(contract);
        (chain, dataset, oracle_with(), events)
    }

    fn oracle_with() -> Oracle {
        Oracle::new()
    }

    #[test]
    fn running_counters_match_batch() {
        let (chain, dataset, oracle, events) = fixture();
        let mut live = LiveMeasure::new(ClassifierConfig::default());
        // Feed one event per poll; counters must track the batch prefix.
        let mut seen = 0;
        for event in &events {
            let delta = live.ingest(&chain, &oracle, std::slice::from_ref(event));
            seen += delta.incidents;
            assert_eq!(live.incident_count(), seen);
        }
        let ctx = MeasureCtx::new(&chain, &dataset, &oracle);
        assert_eq!(live.incident_count(), ctx.incidents().len());
        assert_eq!(live.victim_count(), ctx.victims().len());
        assert_eq!(live.ratio_histogram(), crate::ratio_histogram(&ctx));
        assert!((live.total_usd() - ctx.loss_per_victim().values().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn duplicate_events_are_ignored() {
        let (chain, dataset, oracle, events) = fixture();
        let mut live = LiveMeasure::new(ClassifierConfig::default());
        live.ingest(&chain, &oracle, &events);
        let delta = live.ingest(&chain, &oracle, &events);
        assert_eq!(delta, LiveDelta::default());
        assert_eq!(live.incident_count(), dataset.observations.len());
    }

    #[test]
    fn reports_are_byte_identical_to_batch() {
        let (chain, dataset, oracle, events) = fixture();
        let labels = LabelStore::new();
        let mut live = LiveMeasure::new(ClassifierConfig::default());
        // Reversed event order: the canonical ctx must still agree.
        for event in events.iter().rev() {
            live.ingest(&chain, &oracle, std::slice::from_ref(event));
        }
        let as_of = chain.now();
        let cfg = MeasureConfig::sequential();
        let batch = MeasureCtx::new(&chain, &dataset, &oracle).reports(&labels, 3600, as_of, &cfg);
        let streamed = live.reports(&chain, &dataset, &oracle, &labels, 3600, as_of, &cfg);
        assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&streamed).unwrap()
        );
    }
}
