//! Streaming measurement: the §6 view maintained incrementally from the
//! online detector's event feed.
//!
//! [`LiveMeasure`] consumes [`DetectorEvent`]s and keeps running
//! accumulators — attributed incidents, per-victim losses, per-account
//! profits, the ratio histogram and the monthly timeline — so a deployed
//! observatory can publish cheap per-poll numbers without re-walking the
//! chain. Counter-valued views (`ratio_histogram`, incident/victim
//! counts) are *exactly* the batch values; float-valued running views
//! (`victim_report`, `timeline`, the concentration summaries) accumulate
//! in event-arrival order and are monitoring-grade (ulp-level) only.
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
//! vector and the checkpoint read it out without a sort. The vector is
//! `Arc`-shared and revision-stamped: polls that add no incidents
//! re-serve the previous allocation. Float accumulators stay on plain
//! ordered maps — their values depend on accumulation order, and the
//! ordered in-place updates keep every poll deterministic.

use std::collections::BTreeMap;
use std::sync::Arc;

use daas_chain::{format_year_month, Chain, LabelStore, Timestamp, TxId};
use daas_detector::{ClassificationCache, ClassifierConfig, Dataset, DetectorEvent};
use daas_pricing::Oracle;
use eth_types::Address;
use serde::{Deserialize, Serialize};

use crate::incidents::{measure_observation, MeasureCtx, MeasuredIncident};
use crate::ratios::{ratio_rows, RatioRow};
use crate::reports::{MeasureConfig, MeasureReports};
use crate::stats::Concentration;
use crate::timeline::{month_rows, MonthAccum, MonthRow};
use crate::victims::{span_days, victim_report_from, VictimReport};

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

/// One month's accumulator in a [`MeasureCheckpoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonthCheckpoint {
    /// `YYYY-MM` key.
    pub month: String,
    /// Distinct victims that month (sorted).
    pub victims: Vec<Address>,
    /// Incident count.
    pub incidents: usize,
    /// USD stolen (exact running value — the JSON float round-trips
    /// bit-for-bit through the workspace serializer).
    pub usd: f64,
}

/// Serialized [`LiveMeasure`] state (DESIGN.md §13).
///
/// The float accumulators depend on event-arrival order, so they are
/// serialized *exactly* rather than recomputed: the workspace JSON
/// shim renders `f64` with shortest-round-trip formatting and parses it
/// back bit-for-bit, which makes a restored accumulator — including the
/// monitoring-grade running views — indistinguishable from one that
/// never stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureCheckpoint {
    /// Attributed incidents, sorted by transaction id.
    pub incidents: Vec<MeasuredIncident>,
    /// Per-victim running losses (sorted by address).
    pub loss_per_victim: Vec<(Address, f64)>,
    /// Per-operator running profits.
    pub profit_per_operator: Vec<(Address, f64)>,
    /// Per-affiliate running profits.
    pub profit_per_affiliate: Vec<(Address, f64)>,
    /// Ratio histogram counters.
    pub ratio_counts: Vec<(u32, usize)>,
    /// Monthly accumulators.
    pub by_month: Vec<MonthCheckpoint>,
    /// Earliest incident timestamp (`u64::MAX` when empty).
    pub first_ts: u64,
    /// Latest incident timestamp.
    pub last_ts: u64,
    /// Running USD total.
    pub total_usd: f64,
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
    loss_per_victim: BTreeMap<Address, f64>,
    profit_per_operator: BTreeMap<Address, f64>,
    profit_per_affiliate: BTreeMap<Address, f64>,
    ratio_counts: BTreeMap<u32, usize>,
    by_month: MonthAccum,
    first_ts: u64,
    last_ts: u64,
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
            loss_per_victim: BTreeMap::new(),
            profit_per_operator: BTreeMap::new(),
            profit_per_affiliate: BTreeMap::new(),
            ratio_counts: BTreeMap::new(),
            by_month: MonthAccum::new(),
            first_ts: u64::MAX,
            last_ts: 0,
            total_usd: 0.0,
        }
    }

    /// Folds one poll's events into the accumulators. Only
    /// [`DetectorEvent::PsTransaction`] carries measurable value; role
    /// events are ignored here (the clusterer owns membership).
    pub fn ingest(&mut self, chain: &Chain, oracle: &Oracle, events: &[DetectorEvent]) -> LiveDelta {
        let mut delta = LiveDelta::default();
        for event in events {
            let DetectorEvent::PsTransaction { tx, .. } = event else { continue };
            if self.incidents.contains_key(tx) {
                continue;
            }
            let obs = self
                .cache
                .classify(chain, *tx, &self.cfg)
                .expect("detector only emits positively classified txs");
            let inc = measure_observation(chain, oracle, &obs);

            delta.incidents += 1;
            delta.usd += inc.usd;
            if !self.loss_per_victim.contains_key(&inc.victim) {
                delta.new_victims += 1;
            }
            *self.loss_per_victim.entry(inc.victim).or_insert(0.0) += inc.usd;
            *self.profit_per_operator.entry(inc.operator).or_insert(0.0) += inc.operator_usd;
            *self.profit_per_affiliate.entry(inc.affiliate).or_insert(0.0) += inc.affiliate_usd;
            *self.ratio_counts.entry(inc.ratio_bps).or_default() += 1;
            let month = self.by_month.entry(format_year_month(inc.timestamp)).or_default();
            month.0.insert(inc.victim);
            month.1 += 1;
            month.2 += inc.usd;
            self.first_ts = self.first_ts.min(inc.timestamp);
            self.last_ts = self.last_ts.max(inc.timestamp);
            self.total_usd += inc.usd;
            self.incidents.insert(*tx, inc);
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

    /// Exports the accumulator's full state. See [`MeasureCheckpoint`]
    /// for the float-exactness contract.
    pub fn checkpoint(&self) -> MeasureCheckpoint {
        MeasureCheckpoint {
            incidents: self.incidents.values().cloned().collect(),
            loss_per_victim: self.loss_per_victim.iter().map(|(&a, &v)| (a, v)).collect(),
            profit_per_operator: self.profit_per_operator.iter().map(|(&a, &v)| (a, v)).collect(),
            profit_per_affiliate: self.profit_per_affiliate.iter().map(|(&a, &v)| (a, v)).collect(),
            ratio_counts: self.ratio_counts.iter().map(|(&r, &n)| (r, n)).collect(),
            by_month: self
                .by_month
                .iter()
                .map(|(month, (victims, incidents, usd))| {
                    let mut victims: Vec<Address> = victims.iter().copied().collect();
                    victims.sort_unstable();
                    MonthCheckpoint {
                        month: month.clone(),
                        victims,
                        incidents: *incidents,
                        usd: *usd,
                    }
                })
                .collect(),
            first_ts: self.first_ts,
            last_ts: self.last_ts,
            total_usd: self.total_usd,
        }
    }

    /// Rebuilds an accumulator from a checkpoint. `cfg` and `cache`
    /// follow the same contract as [`Self::with_cache`].
    pub fn restore(
        cfg: ClassifierConfig,
        cache: Arc<ClassificationCache>,
        ckpt: &MeasureCheckpoint,
    ) -> Self {
        let mut live = Self::with_cache(cfg, cache);
        for inc in &ckpt.incidents {
            live.incidents.insert(inc.tx, inc.clone());
        }
        live.rev = ckpt.incidents.len() as u64;
        live.loss_per_victim = ckpt.loss_per_victim.iter().copied().collect();
        live.profit_per_operator = ckpt.profit_per_operator.iter().copied().collect();
        live.profit_per_affiliate = ckpt.profit_per_affiliate.iter().copied().collect();
        live.ratio_counts = ckpt.ratio_counts.iter().copied().collect();
        for m in &ckpt.by_month {
            live.by_month.insert(
                m.month.clone(),
                (m.victims.iter().copied().collect(), m.incidents, m.usd),
            );
        }
        live.first_ts = ckpt.first_ts;
        live.last_ts = ckpt.last_ts;
        live.total_usd = ckpt.total_usd;
        live
    }

    /// Measured incidents so far.
    pub fn incident_count(&self) -> usize {
        self.incidents.len()
    }

    /// Distinct victims so far.
    pub fn victim_count(&self) -> usize {
        self.loss_per_victim.len()
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

    /// The Figure 6 victim report from the running loss map
    /// (monitoring-grade: float sums are in event-arrival order).
    pub fn victim_report(&self) -> VictimReport {
        victim_report_from(
            self.loss_per_victim.values().copied(),
            span_days(self.first_ts, self.last_ts),
        )
    }

    /// Monthly activity series from the running month map
    /// (monitoring-grade).
    pub fn timeline(&self) -> Vec<MonthRow> {
        month_rows(&self.by_month)
    }

    /// Operator profit concentration from the running profit map
    /// (monitoring-grade).
    pub fn operator_concentration(&self) -> Concentration {
        Concentration::from_values(&self.profit_per_operator.values().copied().collect::<Vec<_>>())
    }

    /// Affiliate profit concentration from the running profit map
    /// (monitoring-grade).
    pub fn affiliate_concentration(&self) -> Concentration {
        Concentration::from_values(&self.profit_per_affiliate.values().copied().collect::<Vec<_>>())
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
