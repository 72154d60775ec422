//! The world generator: plans the nine-family DaaS economy, benign
//! background traffic and label coverage, then executes everything on the
//! ledger in timestamp order.

use std::sync::OnceLock;

use daas_chain::{
    Chain, ContractKind, Label, LabelCategory, LabelSource, LabelStore,
    ProfitSharingSpec, Timestamp, TokenKind, TxId,
};
use daas_pricing::{Oracle, Quote};
use eth_types::units::{ether, ether_f64};
use eth_types::{Address, U256};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{collection_end, collection_start, WorldConfig, KIND_MIX, LOSS_BUCKETS, RATIO_TABLE};
use crate::sampler::{chance, exponential, log_uniform, lognormal_weights, uniform_time, zipf_weights, Weighted};
use crate::truth::{ContractTruth, FamilyTruth, GroundTruth, IncidentKind, IncidentTruth};
use crate::World;

/// Shared on-chain infrastructure (tokens, venues, sinks) deployed at
/// genesis.
#[derive(Debug, Clone)]
pub struct Infra {
    /// NFT marketplace (Blur/OpenSea stand-in).
    pub marketplace: Address,
    /// Mixing service (laundering sink, §8.1).
    pub mixer: Address,
    /// DEX pool used by benign swap traffic.
    pub dex: Address,
    /// Centralised-exchange hot wallets (benign funding flows).
    pub cex: Vec<Address>,
    /// Stablecoins and majors: (address, symbol).
    pub erc20_tokens: Vec<(Address, &'static str)>,
    /// NFT collections.
    pub nft_collections: Vec<Address>,
    /// Benign payment splitters (the hard-negative contracts).
    pub splitters: Vec<Address>,
    /// The 70/30 splitter used by ablation A3 (ratio-matching benign
    /// contract), present only when `operator_splitter_noise` is set.
    pub noisy_splitter: Option<Address>,
}

// ---------------------------------------------------------------------
// Planning structures.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ContractPlan {
    operator_idx: usize,
    bps: u32,
    window: (Timestamp, Timestamp),
    primary: bool,
    /// Selection weight for incidents.
    weight: f64,
    /// Filled after deployment.
    address: Option<Address>,
    /// Incidents routed to this contract (for label weighting).
    tx_count: u32,
    /// Adversarial multi-hop payout chain: the deployed spec pays the
    /// first wallet here instead of the operator, and each hop forwards
    /// to the next (the operator last). Empty = direct payout.
    payout_hops: Vec<Address>,
}

#[derive(Debug, Clone)]
struct FamilyPlan {
    operators: Vec<Address>,
    /// Active window (era) of each operator: drainer crews rotate
    /// payout accounts, so most operators retire well before the family
    /// does (§6.2's 48 inactive operators).
    op_eras: Vec<(Timestamp, Timestamp)>,
    /// The family's rotation-era grid.
    eras: Vec<(Timestamp, Timestamp)>,
    /// Home era of each affiliate (campaigns are short-lived: an
    /// affiliate promotes during one rotation).
    affiliate_era: Vec<usize>,
    affiliates: Vec<Address>,
    /// Operator indices each affiliate works with.
    affiliate_ops: Vec<Vec<usize>>,
    affiliate_weights: Vec<f64>,
    contracts: Vec<ContractPlan>,
    /// Contract indices per operator.
    op_contracts: Vec<Vec<usize>>,
    victims: Vec<Address>,
}

/// How an ERC-20 drain is authorised.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Erc20Mode {
    /// On-chain `approve` (MAX), allowance outlives the drain.
    Approve,
    /// Off-chain EIP-2612 permit, consumed within the drain tx.
    Permit,
    /// Reuse of an earlier unrevoked approval (no new grant).
    Reuse,
}

/// How an NFT drain is authorised.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NftMode {
    /// `setApprovalForAll` to the contract, then a Multicall sweep.
    ApprovalSweep,
    /// A signed zero-value marketplace order fulfilled by the drainer
    /// (§7.2's "NFT Zero-order purchase").
    ZeroOrder,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PlanKind {
    Eth,
    Erc20 { token: usize, mode: Erc20Mode },
    Nft { collection: usize, mode: NftMode },
}

#[derive(Debug, Clone)]
struct IncidentPlan {
    fam: usize,
    victim: Address,
    affiliate: Address,
    contract: usize,
    kind: PlanKind,
    loss_usd: f64,
    simultaneous_with_first: bool,
    reused_approval: bool,
}

#[derive(Debug, Clone)]
enum Ev {
    Deploy { fam: usize, contract: usize },
    Incident(IncidentPlan),
    Revoke { victim: Address, kind: PlanKind, contract_of: (usize, usize) },
    OpTransfer { fam: usize, from: usize, to: usize },
    OpSharedPhish { fam: usize, a: usize, b: usize, link: usize },
    Launder { fam: usize, op: usize },
    Benign(BenignKind),
    SplitterNoise { fam: usize, op: usize, shared: bool },
    RewardRound { fam: usize, era: usize },
    /// Adversarial payout-hop drain: intermediary `hop` of a contract's
    /// chain forwards its balance to the next hop (or the operator).
    HopForward { fam: usize, contract: usize, hop: usize },
    /// Adversarial pyramid referral payment: `payer` routes a fee
    /// through a pyramid splitter to two upline participants at a
    /// table-shaped ratio.
    PyramidPay { contract: usize, payer: usize, upline_hi: usize, upline_lo: usize, bps: u32, milli_eth: u64 },
}

#[derive(Debug, Clone)]
enum BenignKind {
    P2p { from: usize, to: usize, milli_eth: u64 },
    CexOut { cex: usize, to: usize, milli_eth: u64 },
    CexIn { from: usize, cex: usize },
    Swap { trader: usize, token: usize, milli_eth: u64 },
    Airdrop { from: usize, recipients: Vec<usize>, milli_eth: u64 },
    Split { payer: usize, splitter: usize, milli_eth: u64 },
}

/// Builds a complete world from the configuration. Panics only on
/// internal invariant violations; configuration problems are returned as
/// `Err`.
pub fn build(config: &WorldConfig) -> Result<World, String> {
    build_with(config, 0)
}

/// Builds a world with an explicit planner thread count (`0` = all
/// cores, `1` = the sequential oracle). The thread count is a schedule,
/// never data: every phase that fans out draws its per-task RNG streams
/// from the master stream in a fixed order and merges results in task
/// order, so the built world is byte-identical for every `threads`.
pub fn build_with(config: &WorldConfig, threads: usize) -> Result<World, String> {
    config.validate()?;
    let threads = effective_threads(threads);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut chain = Chain::new();
    let mut labels = LabelStore::new();
    let mut oracle = Oracle::new();

    let _build_span = daas_obs::span!("world.build", threads = threads);

    // Phase 1 (sequential): infrastructure and family account creation
    // both mutate the chain, so they stay on the master stream.
    let infra = {
        let _s = daas_obs::span!("world.deploy_infra");
        deploy_infra(&mut chain, &mut oracle, &mut labels)?
    };
    let mut plans = {
        let _s = daas_obs::span!("world.plan_families");
        plan_families(&mut rng, config, &mut chain)?
    };
    // Adversarial pyramid background (a no-op that touches neither the
    // chain nor the RNG unless the knob is on).
    let pyramid = plan_pyramid(config, &mut chain)?;

    // Phase 2 (parallel plan): event synthesis touches only its own
    // family plan (or the benign index space), so it fans out across
    // the pool on RNG streams derived from the master stream.
    let (mut events, incident_count) = {
        let _s = daas_obs::span!("world.plan_events", threads = threads);
        plan_events(&mut rng, config, &mut plans, &infra, &pyramid, threads)
    };
    daas_obs::add("world.events.planned", events.len() as u64);
    daas_obs::add("world.incidents.planned", incident_count as u64);

    // Order by (time, kind priority): deployments first at a given
    // timestamp so incident execution always finds its contract. The
    // planning sequence number makes the key total, so the faster
    // unstable sort yields the same order a stable (t, prio) sort would.
    events.sort_unstable_by_key(|(t, prio, seq, _)| (*t, *prio, *seq));

    // Phase 3 (sequential apply): replay the merged timeline into the
    // ledger, then derive labels. The website population is generated
    // on first use, from the stream as the labels leave it.
    let truth = {
        let _s = daas_obs::span!("world.execute");
        execute(
            &mut rng,
            config,
            &mut chain,
            &oracle,
            &infra,
            &mut plans,
            &pyramid,
            events,
            incident_count,
        )?
    };
    {
        let _s = daas_obs::span!("world.derive");
        assign_labels(&mut rng, config, &mut labels, &plans, &truth);
    }

    Ok(World {
        chain,
        oracle,
        labels,
        truth,
        infra,
        config: config.clone(),
        site_rng: rng,
        sites: OnceLock::new(),
    })
}

/// Resolves a thread-count knob: `0` means every available core.
fn effective_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

// ---------------------------------------------------------------------
// Infrastructure.
// ---------------------------------------------------------------------

fn deploy_infra(
    chain: &mut Chain,
    oracle: &mut Oracle,
    labels: &mut LabelStore,
) -> Result<Infra, String> {
    let err = |e: daas_chain::ChainError| format!("infra: {e}");
    let deployer = chain.create_eoa_funded(b"infra/deployer", ether(1_000)).map_err(err)?;

    let usdc = chain.deploy_token(deployer, "USDC", 6, TokenKind::Erc20).map_err(err)?;
    let usdt = chain.deploy_token(deployer, "USDT", 6, TokenKind::Erc20).map_err(err)?;
    let dai = chain.deploy_token(deployer, "DAI", 18, TokenKind::Erc20).map_err(err)?;
    let steth = chain.deploy_token(deployer, "stETH", 18, TokenKind::Erc20).map_err(err)?;
    oracle.set_quote(usdc, Quote::Stable { units_per_usd: 1_000_000 });
    oracle.set_quote(usdt, Quote::Stable { units_per_usd: 1_000_000 });
    oracle.set_quote(dai, Quote::Stable { units_per_usd: 1_000_000_000_000_000_000 });
    oracle.set_quote(steth, Quote::EthRatio { eth_ratio: 1.0 });

    let mut nft_collections = Vec::new();
    for symbol in ["AZUKI", "BAYC", "PPG"] {
        nft_collections.push(chain.deploy_token(deployer, symbol, 0, TokenKind::Erc721).map_err(err)?);
    }

    let marketplace = chain.deploy_contract(deployer, ContractKind::Marketplace).map_err(err)?;
    chain.mint_eth(marketplace, ether(10_000_000)).map_err(err)?;
    let mixer = chain.deploy_contract(deployer, ContractKind::Mixer).map_err(err)?;
    let dex = chain.deploy_contract(deployer, ContractKind::Dex).map_err(err)?;
    chain.mint_eth(dex, ether(1_000_000)).map_err(err)?;
    for (token, _) in [(usdc, ()), (usdt, ()), (dai, ()), (steth, ())] {
        chain.mint_erc20(token, dex, U256::from_u128(10u128.pow(30))).map_err(err)?;
    }

    let mut cex = Vec::new();
    for (i, name) in ["Binance 14", "Coinbase 10", "Kraken 4", "OKX 2", "Bybit 7"].iter().enumerate() {
        let hot = chain
            .create_eoa_funded(format!("infra/cex/{i}").as_bytes(), ether(5_000_000))
            .map_err(err)?;
        labels.add(Label {
            address: hot,
            source: LabelSource::Etherscan,
            category: LabelCategory::Benign,
            text: (*name).to_owned(),
        });
        cex.push(hot);
    }

    let mut splitters = Vec::new();
    for _ in 0..4 {
        splitters.push(chain.deploy_contract(deployer, ContractKind::Benign).map_err(err)?);
    }

    Ok(Infra {
        marketplace,
        mixer,
        dex,
        cex,
        erc20_tokens: vec![(usdc, "USDC"), (usdt, "USDT"), (dai, "DAI"), (steth, "stETH")],
        nft_collections,
        splitters,
        noisy_splitter: None,
    })
}

// ---------------------------------------------------------------------
// Adversarial pyramid background.
// ---------------------------------------------------------------------

/// Forsage-style pyramid population: referral splitter contracts and
/// participant accounts, deployed only when the knob is on.
#[derive(Debug, Clone, Default)]
struct PyramidPlan {
    contracts: Vec<Address>,
    users: Vec<Address>,
}

fn plan_pyramid(config: &WorldConfig, chain: &mut Chain) -> Result<PyramidPlan, String> {
    let adv = &config.adversarial;
    if !adv.pyramid_on() {
        return Ok(PyramidPlan::default());
    }
    let err = |e: daas_chain::ChainError| format!("pyramid: {e}");
    let deployer = chain.create_eoa_funded(b"pyramid/deployer", ether(10)).map_err(err)?;
    let n_contracts = config.scaled(adv.pyramid_contracts) as usize;
    let n_users = (config.scaled(adv.pyramid_users) as usize).max(2);
    let mut contracts = Vec::with_capacity(n_contracts);
    for _ in 0..n_contracts {
        // Referral matrices are payment splitters — the same benign
        // contract kind the §4.3 hard negatives use.
        contracts.push(chain.deploy_contract(deployer, ContractKind::Benign).map_err(err)?);
    }
    let mut users = Vec::with_capacity(n_users);
    for i in 0..n_users {
        users.push(
            chain
                .create_eoa_funded(format!("pyramid/user/{i}").as_bytes(), ether(50))
                .map_err(err)?,
        );
    }
    Ok(PyramidPlan { contracts, users })
}

/// Synthesises the pyramid's referral payments on a dedicated RNG
/// stream. Referral fees split between two upline participants at a
/// §4.3 table ratio — exactly the two-transfer shape the exact-ratio
/// rule keys on, which is what makes a mislabelled pyramid contract a
/// poisoned snowball seed.
fn plan_pyramid_events(
    rng: &mut StdRng,
    config: &WorldConfig,
    pyramid: &PyramidPlan,
) -> Vec<TimedEv> {
    let n_txs = config.scaled(config.adversarial.pyramid_txs) as usize;
    let n_users = pyramid.users.len();
    let n_contracts = pyramid.contracts.len();
    let ratio_picker = Weighted::new(&RATIO_TABLE.map(|(_, p)| p));
    let mut events: Vec<TimedEv> = Vec::with_capacity(n_txs);
    for i in 0..n_txs {
        let t = uniform_time(rng, collection_start(), collection_end());
        let payer = rng.gen_range(0..n_users);
        // Uplines distinct from the payer and each other (mod-shift
        // remap keeps the draw count fixed).
        let upline_hi = (payer + 1 + rng.gen_range(0..n_users - 1)) % n_users;
        let mut upline_lo = (payer + 1 + rng.gen_range(0..n_users - 1)) % n_users;
        if upline_lo == upline_hi {
            upline_lo = if upline_hi + 1 == n_users || upline_hi + 1 == payer {
                (upline_hi + 2) % n_users
            } else {
                upline_hi + 1
            };
        }
        let bps = RATIO_TABLE[ratio_picker.sample(rng)].0;
        let contract = rng.gen_range(0..n_contracts);
        let milli_eth = rng.gen_range(100..3_000);
        events.push((
            t,
            1,
            i as u64,
            Ev::PyramidPay { contract, payer, upline_hi, upline_lo, bps, milli_eth },
        ));
    }
    events
}

// ---------------------------------------------------------------------
// Family planning.
// ---------------------------------------------------------------------

fn plan_families(
    rng: &mut StdRng,
    config: &WorldConfig,
    chain: &mut Chain,
) -> Result<Vec<FamilyPlan>, String> {
    let ratio_picker = Weighted::new(&RATIO_TABLE.map(|(_, p)| p));
    let mut plans = Vec::with_capacity(config.families.len());

    for (fi, fam) in config.families.iter().enumerate() {
        // Model-drift override: this family's contracts all use the
        // novel ratio (outside the detector's table) when configured.
        let forced_bps = config.novel_ratio.and_then(|(f, bps)| (f == fi).then_some(bps));
        let n_ops = config.scaled(fam.operators) as usize;
        let n_contracts = config.scaled(fam.contracts) as usize;
        let n_affs = config.scaled(fam.affiliates) as usize;
        let n_victims = (config.scaled(fam.victims) as usize).max(n_contracts);

        let mut operators = Vec::with_capacity(n_ops);
        for i in 0..n_ops {
            let seed = format!("op/{}/{i}", fam.slug);
            operators.push(
                chain
                    .create_eoa_funded(seed.as_bytes(), ether(10))
                    .map_err(|e| format!("operator: {e}"))?,
            );
        }

        // Operator eras: the family window is divided into rotation
        // epochs; each operator is active in one of them, so operators
        // retire as the crew rotates payout accounts.
        let window_secs = fam.end - fam.start;
        let l_secs = match fam.primary_lifecycle_days {
            Some(d) => (d * 86_400.0) as u64,
            None => {
                // Families without a documented rotation cadence get one
                // era per ~90 days, capped by their operator count.
                let n = ((window_secs / (90 * 86_400)) as usize).clamp(1, n_ops);
                window_secs / n as u64
            }
        };
        let n_eras = ((window_secs as f64 / l_secs as f64).round() as usize).max(1);
        let era_bounds = move |e: usize| -> (Timestamp, Timestamp) {
            let start = fam.start + e as u64 * l_secs;
            // The final era absorbs the residual so the whole family
            // window is covered.
            let end = if e + 1 == n_eras { fam.end } else { (start + l_secs).min(fam.end) };
            (start, end)
        };
        let era_of_op: Vec<usize> = (0..n_ops).map(|i| i * n_eras / n_ops).collect();
        let mut ops_in_era: Vec<Vec<usize>> = vec![Vec::new(); n_eras];
        for (i, &e) in era_of_op.iter().enumerate() {
            ops_in_era[e].push(i);
        }
        let op_eras: Vec<(Timestamp, Timestamp)> =
            era_of_op.iter().map(|&e| era_bounds(e)).collect();
        // Weighted pick among an era's operators (nearest populated era
        // as fallback).
        let pick_op_in_era = |rng: &mut StdRng, e: usize| -> usize {
            let era = (0..n_eras)
                .min_by_key(|&cand| {
                    let populated = !ops_in_era[cand].is_empty();
                    (usize::from(!populated), cand.abs_diff(e))
                })
                .expect("at least one era");
            let ops = &ops_in_era[era];
            // Each era has its own lead operator: weight by local rank.
            let weights = zipf_weights(ops.len(), 1.8);
            ops[Weighted::new(&weights).sample(rng)]
        };

        // Contracts: primaries on a rotation schedule, throwaways short.
        let mut contracts: Vec<ContractPlan> = Vec::with_capacity(n_contracts);
        if fam.primary_lifecycle_days.is_some() {
            // Each rotation epoch runs several primaries concurrently —
            // one per active operator at minimum, so no operator's
            // traffic is forced through short-lived throwaways.
            let concurrent = ops_in_era.iter().map(Vec::len).max().unwrap_or(1).max(3);
            let epochs = n_eras;
            let n_primary = (epochs * concurrent).min(n_contracts);
            // Expected volume share of each primary slot: era volume is
            // front-loaded (zipf 0.8 over epochs) and each era's volume
            // splits across its operators by local rank (zipf 1.8), then
            // evenly across an operator's slots. Ratios are allocated by
            // largest remaining deficit against the §4.3 distribution so
            // the *transaction-weighted* mix tracks the paper even
            // though volume per slot is very uneven.
            let era_vols = zipf_weights(epochs, 0.8);
            let slot_volume: Vec<f64> = (0..n_primary)
                .map(|p| {
                    let epoch = p / concurrent;
                    let slot = p % concurrent;
                    let len = ops_in_era[epoch].len().max(1);
                    let rank = slot % len;
                    let local = zipf_weights(len, 1.8);
                    let local_total: f64 = local.iter().sum();
                    let slots_of_op = (concurrent + len - 1 - rank) / len;
                    era_vols[epoch] * local[rank] / local_total / slots_of_op as f64
                })
                .collect();
            let slot_bps = allocate_ratios(&slot_volume);
            #[allow(clippy::needless_range_loop)] // p indexes two parallel derivations
            for p in 0..n_primary {
                let epoch = p / concurrent;
                let slot = p % concurrent;
                let (start, end) = era_bounds(epoch);
                // Round-robin across the era's operators: each gets a
                // primary before any gets a second.
                let era_ops = &ops_in_era[epoch];
                let operator_idx = if era_ops.is_empty() {
                    pick_op_in_era(rng, epoch)
                } else {
                    era_ops[slot % era_ops.len()]
                };
                contracts.push(ContractPlan {
                    operator_idx,
                    bps: forced_bps.unwrap_or(slot_bps[p]),
                    window: (start, end),
                    primary: true,
                    weight: 300.0,
                    address: None,
                    tx_count: 0,
                    payout_hops: Vec::new(),
                });
            }
        }
        let mut throwaway_idx = 0usize;
        while contracts.len() < n_contracts {
            // Families with a documented rotation run short-lived
            // throwaways next to their primaries; families without one
            // (Venom's single contract, Ace's six) keep each contract
            // alive for its operator's whole era — that is what makes
            // their Table 2 activity spans match the paper.
            let (start, end, era) = if fam.primary_lifecycle_days.is_some() {
                let dur =
                    (exponential(rng, 14.0 * 86_400.0) as u64).clamp(2 * 86_400, 60 * 86_400);
                let latest_start = fam.end.saturating_sub(dur).max(fam.start);
                let start = uniform_time(rng, fam.start, latest_start);
                let era = (((start - fam.start) / l_secs.max(1)) as usize).min(n_eras - 1);
                (start, (start + dur).min(fam.end), era)
            } else {
                let era = rng.gen_range(0..n_eras);
                let (start, end) = era_bounds(era);
                (start, end, era)
            };
            // The first nine throwaways cover each ratio once, so every
            // §4.3 ratio is observable at any world scale; the rest
            // sample the distribution.
            let bps = if throwaway_idx < RATIO_TABLE.len() {
                RATIO_TABLE[throwaway_idx].0
            } else {
                RATIO_TABLE[ratio_picker.sample(rng)].0
            };
            throwaway_idx += 1;
            contracts.push(ContractPlan {
                operator_idx: pick_op_in_era(rng, era),
                bps: forced_bps.unwrap_or(bps),
                window: (start, end),
                primary: false,
                weight: log_uniform(rng, 0.5, 5.0),
                address: None,
                tx_count: 0,
                payout_hops: Vec::new(),
            });
        }

        let mut op_contracts = vec![Vec::new(); n_ops];
        for (ci, c) in contracts.iter().enumerate() {
            op_contracts[c.operator_idx].push(ci);
        }
        // Every operator must own at least one contract, or it would
        // never appear in a profit-sharing transaction. Reassign spares
        // from the most-loaded operator.
        for oi in 0..n_ops {
            if op_contracts[oi].is_empty() {
                let donor = (0..n_ops).max_by_key(|&o| op_contracts[o].len()).unwrap();
                if op_contracts[donor].len() > 1 {
                    let ci = op_contracts[donor].pop().unwrap();
                    contracts[ci].operator_idx = oi;
                    op_contracts[oi].push(ci);
                }
            }
        }

        // Affiliates and their operator associations (§6.3: 60.4% single
        // operator, 90.2% within three). Each affiliate campaigns during
        // one home era and deals with that era's operators (spilling into
        // the neighbouring era when it needs more partners than the era
        // has).
        let mut affiliates = Vec::with_capacity(n_affs);
        let mut affiliate_ops = Vec::with_capacity(n_affs);
        let mut affiliate_era = Vec::with_capacity(n_affs);
        // Campaign volume peaks early in a family's life (Inferno's 2023
        // heyday): early eras attract more affiliates, which is also
        // what concentrates profits on the early operators (§6.2).
        let era_picker = Weighted::new(&zipf_weights(n_eras, 0.8));
        for i in 0..n_affs {
            let seed = format!("aff/{}/{i}", fam.slug);
            affiliates.push(
                chain
                    .create_eoa(seed.as_bytes())
                    .map_err(|e| format!("affiliate: {e}"))?,
            );
            let home = era_picker.sample(rng);
            affiliate_era.push(home);
            // Calibrated so the *measured* association mix (§6.3) lands
            // at 60.4% single / 90.2% within three: affiliates with few
            // incidents collapse onto fewer operators than they signed
            // up with, so the planned mix leans multi-operator.
            let target = match rng.gen::<f64>() {
                x if x < 0.52 => 1,
                x if x < 0.80 => 2,
                x if x < 0.88 => 3,
                x if x < 0.95 => 4,
                _ => 5,
            }
            .min(n_ops);
            // Candidate partners: the home era's operators, then the
            // neighbours'.
            let mut pool: Vec<usize> = Vec::new();
            for d in 0..n_eras {
                for delta in [home.checked_sub(d), home.checked_add(d).filter(|&e| e < n_eras)]
                    .into_iter()
                    .flatten()
                {
                    for &o in &ops_in_era[delta] {
                        if !pool.contains(&o) {
                            pool.push(o);
                        }
                    }
                }
                if pool.len() >= target {
                    break;
                }
            }
            let mut ops = Vec::with_capacity(target);
            let mut guard = 0;
            // Pool positions are home-era-first: weighting by position
            // makes each era's lead operator dominate its cohort, which
            // is what concentrates profits on a few operators (§6.2).
            let pool_weights = zipf_weights(pool.len(), 1.8);
            while ops.len() < target.min(pool.len()) && guard < 200 {
                let o = pool[Weighted::new(&pool_weights).sample(rng)];
                if !ops.contains(&o) {
                    ops.push(o);
                }
                guard += 1;
            }
            if ops.is_empty() {
                ops.push(pick_op_in_era(rng, home));
            }
            affiliate_ops.push(ops);
        }
        // Log-normal traffic weights: most affiliates barely convert,
        // a few reach thousands of victims (§6.3 / Figure 7's tail).
        let affiliate_weights = lognormal_weights(rng, n_affs, 1.7);

        // Victims.
        let mut victims = Vec::with_capacity(n_victims);
        for i in 0..n_victims {
            let seed = format!("victim/{}/{i}", fam.slug);
            victims.push(
                chain
                    .create_eoa(seed.as_bytes())
                    .map_err(|e| format!("victim: {e}"))?,
            );
        }

        // Adversarial ratio rewrites and payout-hop chains. Both passes
        // draw RNG and create accounts only when their knob is on, so a
        // calibrated config is bit-for-bit unaffected.
        let adv = &config.adversarial;
        if adv.ratio_attack_on() {
            for c in contracts.iter_mut() {
                if adv.off_menu_frac > 0.0 && chance(rng, adv.off_menu_frac) {
                    c.bps = adv.off_menu_bps[rng.gen_range(0..adv.off_menu_bps.len())];
                } else if adv.ratio_drift_frac > 0.0 && chance(rng, adv.ratio_drift_frac) {
                    let half = adv.ratio_drift_bps / 2.0;
                    let magnitude = half + rng.gen::<f64>() * half;
                    let offset = if chance(rng, 0.5) { magnitude } else { -magnitude };
                    c.bps = drift_off_table(c.bps, offset);
                }
            }
        }
        if adv.payout_hops_on() {
            for (ci, c) in contracts.iter_mut().enumerate() {
                if !chance(rng, adv.payout_hop_frac) {
                    continue;
                }
                let mut hops = Vec::with_capacity(adv.payout_hops as usize);
                for h in 0..adv.payout_hops {
                    let seed = format!("hop/{}/{ci}/{h}", fam.slug);
                    hops.push(
                        chain
                            .create_eoa(seed.as_bytes())
                            .map_err(|e| format!("payout hop: {e}"))?,
                    );
                }
                c.payout_hops = hops;
            }
        }

        let _ = fi;
        let eras: Vec<(Timestamp, Timestamp)> = (0..n_eras).map(era_bounds).collect();
        plans.push(FamilyPlan {
            operators,
            op_eras,
            eras,
            affiliate_era,
            affiliates,
            affiliate_ops,
            affiliate_weights,
            contracts,
            op_contracts,
            victims,
        });
    }
    Ok(plans)
}

// ---------------------------------------------------------------------
// Event planning.
// ---------------------------------------------------------------------

type TimedEv = (Timestamp, u8, u64, Ev);

#[allow(clippy::too_many_lines)]
/// Events synthesised per benign-traffic planning chunk. Fixed — never
/// derived from the thread count — so the chunk → RNG-stream mapping,
/// and therefore the planned traffic, is identical for every schedule.
const BENIGN_PLAN_CHUNK: usize = 8_192;

fn plan_events(
    rng: &mut StdRng,
    config: &WorldConfig,
    plans: &mut [FamilyPlan],
    infra: &Infra,
    pyramid: &PyramidPlan,
    threads: usize,
) -> (Vec<TimedEv>, usize) {
    // Split the master stream: one derived seed per family plus one per
    // benign chunk, drawn in a fixed order. Each planning task owns an
    // independent RNG, so the fan-out below cannot observe the thread
    // schedule. The pyramid seed is drawn last and only when the knob
    // is on, so calibrated worlds see an unchanged draw sequence.
    let fam_seeds: Vec<u64> = plans.iter().map(|_| rng.gen()).collect();
    let n_benign_txs = config.scaled(config.benign_txs) as usize;
    let n_chunks = n_benign_txs.div_ceil(BENIGN_PLAN_CHUNK);
    let benign_seeds: Vec<u64> = (0..n_chunks).map(|_| rng.gen()).collect();
    let pyramid_events: Vec<TimedEv> = if config.adversarial.pyramid_on() {
        plan_pyramid_events(&mut StdRng::seed_from_u64(rng.gen()), config, pyramid)
    } else {
        Vec::new()
    };

    // Per-family synthesis: each task reads shared config/infra and
    // mutates only its own plan (contract traffic counters), so the
    // families fan out with disjoint `&mut` chunks.
    let fam_results: Vec<(Vec<TimedEv>, usize)> = if threads <= 1 || plans.len() < 2 {
        plans
            .iter_mut()
            .enumerate()
            .map(|(fi, plan)| {
                plan_family_events(&mut StdRng::seed_from_u64(fam_seeds[fi]), fi, config, plan, infra)
            })
            .collect()
    } else {
        let workers = threads.min(plans.len());
        let chunk = plans.len().div_ceil(workers);
        let fam_seeds = &fam_seeds;
        crossbeam::scope(|scope| {
            let handles: Vec<_> = plans
                .chunks_mut(chunk)
                .enumerate()
                .map(|(wi, part)| {
                    scope.spawn(move |_| {
                        part.iter_mut()
                            .enumerate()
                            .map(|(j, plan)| {
                                let fi = wi * chunk + j;
                                plan_family_events(
                                    &mut StdRng::seed_from_u64(fam_seeds[fi]),
                                    fi,
                                    config,
                                    plan,
                                    infra,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            // Joining in spawn order keeps the family order — and the
            // merge below — independent of the thread schedule.
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("family planners do not panic"))
                .collect()
        })
        .expect("family plan scope does not panic")
    };

    // Benign traffic in fixed-size chunks, one derived stream per chunk.
    let n_benign_users = config.scaled(config.benign_users) as usize;
    let chunk_len =
        |ci: usize| (n_benign_txs - ci * BENIGN_PLAN_CHUNK).min(BENIGN_PLAN_CHUNK);
    let benign_results: Vec<Vec<TimedEv>> = if threads <= 1 || n_chunks < 2 {
        (0..n_chunks)
            .map(|ci| {
                plan_benign_chunk(
                    &mut StdRng::seed_from_u64(benign_seeds[ci]),
                    chunk_len(ci),
                    n_benign_users,
                    infra,
                )
            })
            .collect()
    } else {
        let workers = threads.min(n_chunks);
        let stride = n_chunks.div_ceil(workers);
        let chunk_ids: Vec<usize> = (0..n_chunks).collect();
        let benign_seeds = &benign_seeds;
        crossbeam::scope(|scope| {
            let handles: Vec<_> = chunk_ids
                .chunks(stride)
                .map(|part| {
                    scope.spawn(move |_| {
                        part.iter()
                            .map(|&ci| {
                                plan_benign_chunk(
                                    &mut StdRng::seed_from_u64(benign_seeds[ci]),
                                    chunk_len(ci),
                                    n_benign_users,
                                    infra,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("benign planners do not panic"))
                .collect()
        })
        .expect("benign plan scope does not panic")
    };

    // Merge in task order and renumber the planning sequence globally,
    // so the (t, prio, seq) sort key is total and schedule-independent.
    let total = fam_results.iter().map(|(e, _)| e.len()).sum::<usize>()
        + benign_results.iter().map(Vec::len).sum::<usize>();
    let mut events: Vec<TimedEv> = Vec::with_capacity(total);
    let mut incident_count = 0usize;
    for (ev, n) in fam_results {
        incident_count += n;
        events.extend(ev);
    }
    for ev in benign_results {
        events.extend(ev);
    }
    events.extend(pyramid_events);
    for (i, e) in events.iter_mut().enumerate() {
        e.2 = i as u64;
    }
    (events, incident_count)
}

/// Synthesises every planned event for one family on its own RNG
/// stream. Mutates only `plan` (contract traffic counters); sequence
/// numbers are task-local and renumbered by the caller after the merge.
fn plan_family_events(
    rng: &mut StdRng,
    fi: usize,
    config: &WorldConfig,
    plan: &mut FamilyPlan,
    infra: &Infra,
) -> (Vec<TimedEv>, usize) {
    let _task_span = daas_obs::span!("world.plan_family", fam = fi);
    let fam_cfg = &config.families[fi];
    let mut events: Vec<TimedEv> = Vec::new();
    let mut seq: u64 = 0;
    let push = |events: &mut Vec<TimedEv>, t: Timestamp, prio: u8, ev: Ev, seq: &mut u64| {
        events.push((t, prio, *seq, ev));
        *seq += 1;
    };
    let mut incident_count = 0usize;

    // Per-family override of the asset-kind mix (NFT-phishing-heavy
    // adversarial families); `Weighted` normalises, so a `None` keeps
    // the calibrated picker — and the RNG stream — exactly as before.
    let mix = fam_cfg.kind_mix.unwrap_or(KIND_MIX);
    let kind_picker = Weighted::new(&[mix.0, mix.1, mix.2]);
    let token_picker = Weighted::new(&[0.4, 0.3, 0.2, 0.1]);
    let bucket_picker = Weighted::new(&LOSS_BUCKETS.map(|(_, _, p)| p));

    // -- deployments --
    for ci in 0..plan.contracts.len() {
        let t = plan.contracts[ci].window.0.max(collection_start());
        push(&mut events, t, 0, Ev::Deploy { fam: fi, contract: ci }, &mut seq);
    }

    // -- operator linkage (for §7.1 clustering) --
    // Links happen at the successor's onboarding (era start): the
    // retiring account funds or co-transacts with the fresh one.
    let n_ops = plan.operators.len();
    for i in 1..n_ops {
        let era_start = plan.op_eras[i].0;
        let t = (era_start + 86_400).min(fam_cfg.end);
        if chance(rng, 0.7) {
            push(&mut events, t, 1, Ev::OpTransfer { fam: fi, from: i - 1, to: i }, &mut seq);
        } else {
            // Link via a shared Etherscan-labeled phishing EOA.
            push(
                &mut events,
                t,
                1,
                Ev::OpSharedPhish { fam: fi, a: i - 1, b: i, link: i },
                &mut seq,
            );
        }
    }

    // -- affiliate reward rounds (§7.2): families with a leveling
    // policy periodically reward qualifying affiliates --
    if fam_cfg.reward_policy.is_some() {
        let quarter = 90 * 86_400;
        let mut t = fam_cfg.start + quarter;
        while t < fam_cfg.end {
            let era = plan
                .eras
                .iter()
                .position(|e| e.0 <= t && t <= e.1)
                .unwrap_or(n_eras_of(plan) - 1);
            push(&mut events, t, 1, Ev::RewardRound { fam: fi, era }, &mut seq);
            t += quarter;
        }
    }

    // -- laundering sweeps: each operator cashes out shortly after
    // its era ends (this is what retires the account, §6.2) --
    for oi in 0..n_ops {
        let t = (plan.op_eras[oi].1 + 2 * 86_400).min(collection_end());
        push(&mut events, t, 2, Ev::Launder { fam: fi, op: oi }, &mut seq);
    }

    // -- adversarial payout-hop drains: once a contract's window closes,
    // each intermediary forwards its balance one hop onward per day,
    // reaching the true operator last. No RNG: empty chains (the
    // default) plan nothing --
    for ci in 0..plan.contracts.len() {
        for h in 0..plan.contracts[ci].payout_hops.len() {
            let t = (plan.contracts[ci].window.1 + (h as u64 + 1) * 86_400).min(collection_end());
            push(&mut events, t, 2, Ev::HopForward { fam: fi, contract: ci, hop: h }, &mut seq);
        }
    }

    // -- ablation A3 noise --
    if config.operator_splitter_noise && !infra.splitters.is_empty() {
        // One ratio-shaped donation through a family-private benign
        // splitter: a single prior interaction is exactly what the
        // temporal expansion guard screens out (ablation A3).
        let t = uniform_time(rng, fam_cfg.start, fam_cfg.end);
        push(&mut events, t, 1, Ev::SplitterNoise { fam: fi, op: 0, shared: false }, &mut seq);
        // The first two families also donate through one *shared*
        // splitter — the second donation postdates a dataset
        // interaction, which is the guard's honest exposure.
        if fi < 2 {
            let t = uniform_time(rng, fam_cfg.start, fam_cfg.end);
            push(&mut events, t, 1, Ev::SplitterNoise { fam: fi, op: 0, shared: true }, &mut seq);
        }
    }

    // -- incidents --
    let n_victims = plan.victims.len();
    let n_contracts = plan.contracts.len();
    let aff_picker = Weighted::new(&plan.affiliate_weights);
    // Whale victims are routed preferentially through high-traffic
    // affiliates (big promoters reach wealthier audiences): this
    // concentrates *value* on the top affiliates beyond what victim
    // counts alone would (§6.3: 7.4% of affiliates hold 75.6%).
    let whale_weights: Vec<f64> =
        plan.affiliate_weights.iter().map(|w| w.powf(1.3)).collect();
    let aff_picker_whale = Weighted::new(&whale_weights);

    // Per-victim loss sampling, then rescale the whale bucket so the
    // family total hits its Table 2 profit target.
    let mut losses: Vec<f64> = (0..n_victims)
        .map(|_| {
            let (lo, hi, _) = LOSS_BUCKETS[bucket_picker.sample(rng)];
            log_uniform(rng, lo, hi)
        })
        .collect();
    rescale_losses(&mut losses, fam_cfg.profits_usd * config.scale);

    // Repeat-victim flags.
    let n_repeat = ((n_victims as f64) * config.repeat_victim_frac).round() as usize;
    #[derive(Clone, Copy)]
    struct Flags {
        sim: bool,
        rev: bool,
    }
    let mut flags = vec![Flags { sim: false, rev: false }; n_victims];
    for f in flags.iter_mut().take(n_repeat) {
        let x = rng.gen::<f64>();
        if x < config.repeat_sim_only {
            f.sim = true;
        } else if x < config.repeat_sim_only + config.repeat_revoke_only {
            f.rev = true;
        } else if x < config.repeat_sim_only + config.repeat_revoke_only + config.repeat_both {
            f.sim = true;
            f.rev = true;
        }
        // Residual probability: repeat victim with independent
        // second incident (neither flag).
    }

    for vi in 0..n_victims {
        let victim = plan.victims[vi];
        let is_repeat = vi < n_repeat;
        let fl = flags[vi];
        let n_incidents = 1 + usize::from(is_repeat) + usize::from(fl.sim && fl.rev);
        let loss_each = losses[vi] / n_incidents as f64;

        // Choose affiliate → operator → contract; the first
        // `n_contracts` victims are routed to contract `vi` directly
        // so every contract sees at least one transaction.
        let n_affs = plan.affiliates.len();
        let (affiliate_idx, op_idx, contract_idx, t) = if vi < n_contracts {
            let c = vi;
            let op = plan.contracts[c].operator_idx;
            let aff = pick_affiliate_of_op(rng, plan, op, &aff_picker);
            let w = plan.contracts[c].window;
            (aff, op, c, uniform_time(rng, w.0, w.1))
        } else if vi < n_contracts + n_affs {
            // Coverage pass: every affiliate earns from at least one
            // victim, so the discovered affiliate census matches the
            // population (Table 1 counts affiliates *seen in
            // transactions*).
            let aff = vi - n_contracts;
            let ops = &plan.affiliate_ops[aff];
            let op = ops[rng.gen_range(0..ops.len())];
            let era = plan.eras[plan.affiliate_era[aff]];
            let t0 = uniform_time(rng, era.0, era.1);
            let (c, t) = pick_contract(rng, plan, op, t0);
            (aff, op, c, t)
        } else {
            let whale = losses[vi] >= 4_000.0;
            let picker = if whale { &aff_picker_whale } else { &aff_picker };
            let aff = picker.sample(rng);
            let ops = &plan.affiliate_ops[aff];
            let op = ops[rng.gen_range(0..ops.len())];
            let era = plan.eras[plan.affiliate_era[aff]];
            let t0 = uniform_time(rng, era.0, era.1);
            let (c, t) = if whale {
                // High-value campaigns run on negotiated low-ratio
                // deals: the paper's value-weighted operator take
                // ($23.1M of $135M ≈ 17%) sits below the
                // transaction-weighted ratio mix.
                pick_low_ratio_primary(rng, plan, t0)
                    .unwrap_or_else(|| pick_contract(rng, plan, op, t0))
            } else {
                pick_contract(rng, plan, op, t0)
            };
            (aff, op, c, t)
        };
        let _ = op_idx;
        let affiliate = plan.affiliates[affiliate_idx];
        let cwin = plan.contracts[contract_idx].window;

        // Base incident. Victims flagged for approval-reuse must hold
        // an ERC-20 approval, so force that kind.
        let base_kind = if fl.rev {
            PlanKind::Erc20 { token: token_picker.sample(rng), mode: Erc20Mode::Approve }
        } else {
            sample_kind(rng, &kind_picker, &token_picker)
        };
        // Approvals granted along the way, for the revocation pass.
        let mut granted: Vec<(PlanKind, usize, u64)> = Vec::new();
        if matches!(base_kind, PlanKind::Erc20 { .. } | PlanKind::Nft { .. }) {
            granted.push((base_kind, contract_idx, t));
        }
        plan.contracts[contract_idx].tx_count += 1;
        push(
            &mut events,
            t,
            1,
            Ev::Incident(IncidentPlan {
                fam: fi,
                victim,
                affiliate,
                contract: contract_idx,
                kind: base_kind,
                loss_usd: loss_each,
                simultaneous_with_first: false,
                reused_approval: false,
            }),
            &mut seq,
        );
        incident_count += 1;

        if is_repeat {
            if fl.sim {
                // Simultaneous multi-sign: same visit, same contract,
                // another asset.
                let kind = simultaneous_kind(rng, base_kind, &token_picker);
                if matches!(kind, PlanKind::Erc20 { .. } | PlanKind::Nft { .. }) {
                    granted.push((kind, contract_idx, t));
                }
                plan.contracts[contract_idx].tx_count += 1;
                push(
                    &mut events,
                    t,
                    1,
                    Ev::Incident(IncidentPlan {
                        fam: fi,
                        victim,
                        affiliate,
                        contract: contract_idx,
                        kind,
                        loss_usd: loss_each,
                        simultaneous_with_first: true,
                        reused_approval: false,
                    }),
                    &mut seq,
                );
                incident_count += 1;
            }
            if fl.rev {
                // Later re-drain through the unrevoked approval.
                let gap = (exponential(rng, 45.0 * 86_400.0) as u64).max(86_400);
                let t2 = (t + gap).min(cwin.1.max(t + 3_600));
                let PlanKind::Erc20 { token, .. } = base_kind else {
                    unreachable!("rev flag forces ERC-20 base")
                };
                plan.contracts[contract_idx].tx_count += 1;
                push(
                    &mut events,
                    t2,
                    1,
                    Ev::Incident(IncidentPlan {
                        fam: fi,
                        victim,
                        affiliate,
                        contract: contract_idx,
                        kind: PlanKind::Erc20 { token, mode: Erc20Mode::Reuse },
                        loss_usd: loss_each,
                        simultaneous_with_first: false,
                        reused_approval: true,
                    }),
                    &mut seq,
                );
                incident_count += 1;
            }
            if !fl.sim && !fl.rev {
                // Independent second incident, later, any contract of
                // a (possibly different) operator of the same
                // affiliate.
                let ops = &plan.affiliate_ops[affiliate_idx];
                let op2 = ops[rng.gen_range(0..ops.len())];
                let t0 = uniform_time(rng, t, fam_cfg.end.max(t + 1));
                let (c2, t2) = pick_contract(rng, plan, op2, t0);
                let t2 = t2.max(t + 3_600);
                let kind = sample_kind(rng, &kind_picker, &token_picker);
                if matches!(kind, PlanKind::Erc20 { .. } | PlanKind::Nft { .. }) {
                    granted.push((kind, c2, t2));
                }
                plan.contracts[c2].tx_count += 1;
                push(
                    &mut events,
                    t2,
                    1,
                    Ev::Incident(IncidentPlan {
                        fam: fi,
                        victim,
                        affiliate,
                        contract: c2,
                        kind,
                        loss_usd: loss_each,
                        simultaneous_with_first: false,
                        reused_approval: false,
                    }),
                    &mut seq,
                );
                incident_count += 1;
            }

            // Repeat victims WITHOUT the unrevoked flag revoke every
            // approval they granted — base, simultaneous and
            // follow-up alike (that is what makes the §6.1 28.6%
            // statistic identifiable).
            if !fl.rev {
                for (kind, c, granted_at) in granted.drain(..) {
                    let tr = granted_at + (exponential(rng, 5.0 * 86_400.0) as u64).max(3_600);
                    push(
                        &mut events,
                        tr.min(collection_end()),
                        1,
                        Ev::Revoke { victim, kind, contract_of: (fi, c) },
                        &mut seq,
                    );
                }
            }
        } else if !granted.is_empty() && chance(rng, 0.5) {
            // Half of single-hit victims clean up their approvals.
            for (kind, c, granted_at) in granted.drain(..) {
                let tr = granted_at + (exponential(rng, 7.0 * 86_400.0) as u64).max(3_600);
                push(
                    &mut events,
                    tr.min(collection_end()),
                    1,
                    Ev::Revoke { victim, kind, contract_of: (fi, c) },
                    &mut seq,
                );
            }
        }
    }

    (events, incident_count)
}

/// Synthesises `count` benign background transactions on a dedicated
/// RNG stream. Sequence numbers are task-local (renumbered on merge).
fn plan_benign_chunk(
    rng: &mut StdRng,
    count: usize,
    n_benign_users: usize,
    infra: &Infra,
) -> Vec<TimedEv> {
    let _task_span = daas_obs::span!("world.plan_benign", count = count);
    let benign_type = Weighted::new(&[0.40, 0.20, 0.10, 0.15, 0.05, 0.10]);
    let mut events: Vec<TimedEv> = Vec::with_capacity(count);
    for i in 0..count {
        let t = uniform_time(rng, collection_start(), collection_end());
        let kind = match benign_type.sample(rng) {
            0 => BenignKind::P2p {
                from: rng.gen_range(0..n_benign_users),
                to: rng.gen_range(0..n_benign_users),
                milli_eth: rng.gen_range(10..2_000),
            },
            1 => BenignKind::CexOut {
                cex: rng.gen_range(0..infra.cex.len()),
                to: rng.gen_range(0..n_benign_users),
                milli_eth: rng.gen_range(50..20_000),
            },
            2 => BenignKind::CexIn {
                from: rng.gen_range(0..n_benign_users),
                cex: rng.gen_range(0..infra.cex.len()),
            },
            3 => BenignKind::Swap {
                trader: rng.gen_range(0..n_benign_users),
                token: rng.gen_range(0..infra.erc20_tokens.len()),
                milli_eth: rng.gen_range(10..5_000),
            },
            4 => BenignKind::Airdrop {
                from: rng.gen_range(0..n_benign_users),
                recipients: (0..rng.gen_range(4..16))
                    .map(|_| rng.gen_range(0..n_benign_users))
                    .collect(),
                milli_eth: rng.gen_range(1..50),
            },
            _ => BenignKind::Split {
                payer: rng.gen_range(0..n_benign_users),
                splitter: rng.gen_range(0..infra.splitters.len()),
                milli_eth: rng.gen_range(100..5_000),
            },
        };
        events.push((t, 1, i as u64, Ev::Benign(kind)));
    }


    events
}

fn sample_kind(rng: &mut StdRng, kind_picker: &Weighted, token_picker: &Weighted) -> PlanKind {
    match kind_picker.sample(rng) {
        0 => PlanKind::Eth,
        1 => PlanKind::Erc20 {
            token: token_picker.sample(rng),
            // Roughly a third of token drains ride an EIP-2612 permit
            // (§7.2's "ERC20 permit phishing" scheme).
            mode: if chance(rng, 0.3) { Erc20Mode::Permit } else { Erc20Mode::Approve },
        },
        _ => PlanKind::Nft {
            collection: rng.gen_range(0..3),
            // ~40% of NFT thefts ride a signed zero-value order instead
            // of an on-chain approval sweep.
            mode: if chance(rng, 0.4) { NftMode::ZeroOrder } else { NftMode::ApprovalSweep },
        },
    }
}

/// The extra asset signed in the same visit: another token, or ETH.
fn simultaneous_kind(rng: &mut StdRng, base: PlanKind, token_picker: &Weighted) -> PlanKind {
    if chance(rng, 0.5) {
        PlanKind::Eth
    } else {
        let mut token = token_picker.sample(rng);
        if let PlanKind::Erc20 { token: base_token, .. } = base {
            if token == base_token {
                token = (token + 1) % 4;
            }
        }
        PlanKind::Erc20 {
            token,
            mode: if chance(rng, 0.3) { Erc20Mode::Permit } else { Erc20Mode::Approve },
        }
    }
}

/// Picks an affiliate associated with `op`; falls back to extending a
/// random affiliate's association set.
fn pick_affiliate_of_op(
    rng: &mut StdRng,
    plan: &FamilyPlan,
    op: usize,
    picker: &Weighted,
) -> usize {
    for _ in 0..64 {
        let a = picker.sample(rng);
        if plan.affiliate_ops[a].contains(&op) {
            return a;
        }
    }
    // Rare: nobody works with this operator; fall back to any affiliate
    // (the association statistic tolerates a handful of these).
    picker.sample(rng)
}

/// Picks one of `op`'s contracts whose window covers `t`, weighted. If
/// the operator has nothing live at `t` (it may be retired), the victim
/// flows through the family's *current* primary contracts instead — the
/// drainer backend always points phishing sites at the live rotation.
/// Only when nothing at all covers `t` is the timestamp clamped into a
/// contract of `op`.
fn pick_contract(rng: &mut StdRng, plan: &FamilyPlan, op: usize, t: Timestamp) -> (usize, Timestamp) {
    let covering = |c: usize| {
        let w = plan.contracts[c].window;
        w.0 <= t && t <= w.1
    };
    let candidates: Vec<usize> =
        plan.op_contracts[op].iter().copied().filter(|&c| covering(c)).collect();
    if !candidates.is_empty() {
        let weights: Vec<f64> = candidates.iter().map(|&c| plan.contracts[c].weight).collect();
        let c = candidates[Weighted::new(&weights).sample(rng)];
        return (c, t);
    }
    let live_primaries: Vec<usize> = (0..plan.contracts.len())
        .filter(|&c| plan.contracts[c].primary && covering(c))
        .collect();
    if !live_primaries.is_empty() {
        let weights: Vec<f64> =
            live_primaries.iter().map(|&c| plan.contracts[c].weight).collect();
        let c = live_primaries[Weighted::new(&weights).sample(rng)];
        return (c, t);
    }
    let all = &plan.op_contracts[op];
    assert!(!all.is_empty(), "operator without contracts");
    let c = all[rng.gen_range(0..all.len())];
    let w = plan.contracts[c].window;
    (c, uniform_time(rng, w.0, w.1))
}

/// Allocates a ratio to each slot so that the volume-weighted ratio mix
/// tracks the §4.3 distribution: slots are processed in descending
/// expected volume, each taking the ratio with the largest remaining
/// volume deficit (largest-remainder apportionment). Deterministic.
fn allocate_ratios(slot_volume: &[f64]) -> Vec<u32> {
    let total: f64 = slot_volume.iter().sum();
    let mut remaining: Vec<(u32, f64)> =
        RATIO_TABLE.iter().map(|&(bps, share)| (bps, share * total)).collect();
    let mut order: Vec<usize> = (0..slot_volume.len()).collect();
    order.sort_by(|&a, &b| {
        slot_volume[b].partial_cmp(&slot_volume[a]).expect("finite").then(a.cmp(&b))
    });
    let mut out = vec![RATIO_TABLE[0].0; slot_volume.len()];
    for &slot in &order {
        let (bps, deficit) = remaining
            .iter_mut()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("ratio table non-empty");
        out[slot] = *bps;
        *deficit -= slot_volume[slot];
    }
    out
}

fn n_eras_of(plan: &FamilyPlan) -> usize {
    plan.eras.len().max(1)
}

/// Applies a drift offset to a deployed ratio, guaranteeing the result
/// lands outside the classifier's 0.5% relative tolerance of *every*
/// §4.3 table ratio: a drift that happened to land on a neighbouring
/// table entry would still classify and report a phantom "attack" the
/// detector in fact absorbs. Table entries are ≥ 250 bps apart, so one
/// 0.7%-of-ratio nudge cannot enter another entry's window.
fn drift_off_table(bps: u32, offset: f64) -> u32 {
    let mut drifted = (bps as f64 + offset).round().clamp(100.0, 4_900.0) as i64;
    if let Some(&(near, _)) = RATIO_TABLE
        .iter()
        .find(|&&(k, _)| (drifted - k as i64).unsigned_abs() as f64 / k as f64 <= 0.006)
    {
        let nudge = (near as f64 * 0.007).ceil() as i64;
        drifted = near as i64 + if offset >= 0.0 { nudge } else { -nudge };
    }
    drifted.clamp(100, 4_900) as u32
}

/// Whale routing: choose among the family's live primaries with weight
/// biased toward low operator ratios. `None` when no primary covers `t`.
fn pick_low_ratio_primary(
    rng: &mut StdRng,
    plan: &FamilyPlan,
    t: Timestamp,
) -> Option<(usize, Timestamp)> {
    let live: Vec<usize> = (0..plan.contracts.len())
        .filter(|&c| {
            let p = &plan.contracts[c];
            p.primary && p.window.0 <= t && t <= p.window.1
        })
        .collect();
    if live.is_empty() {
        return None;
    }
    // Prefer low ratios (negotiated deals) *and* early slots (the era
    // lead's contract): whale value must land on the dominant operators
    // without inflating the operator take.
    let weights: Vec<f64> = live
        .iter()
        .enumerate()
        .map(|(pos, &c)| {
            (1_500.0 / plan.contracts[c].bps as f64) / (pos + 1) as f64
        })
        .collect();
    Some((live[Weighted::new(&weights).sample(rng)], t))
}

/// Rescales sampled losses so they sum to `target`: whale-bucket losses
/// absorb the variance when possible (preserving the Figure 6 bucket
/// shape), otherwise everything scales.
fn rescale_losses(losses: &mut [f64], target: f64) {
    let small: f64 = losses.iter().filter(|&&l| l < 5_000.0).sum();
    let big: f64 = losses.iter().filter(|&&l| l >= 5_000.0).sum();
    if big > 0.0 && target > small {
        let factor = (target - small) / big;
        // Keep whales above the bucket floor where possible; a factor
        // below 0.4 would push them two buckets down, so fall back to
        // global scaling in that case.
        if factor >= 0.4 {
            for l in losses.iter_mut() {
                if *l >= 5_000.0 {
                    *l *= factor;
                }
            }
            return;
        }
    }
    let total = small + big;
    if total > 0.0 {
        let factor = target / total;
        for l in losses.iter_mut() {
            *l *= factor;
        }
    }
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments, clippy::too_many_lines, clippy::result_large_err)]
fn execute(
    rng: &mut StdRng,
    config: &WorldConfig,
    chain: &mut Chain,
    oracle: &Oracle,
    infra: &Infra,
    plans: &mut [FamilyPlan],
    pyramid: &PyramidPlan,
    events: Vec<TimedEv>,
    incident_count: usize,
) -> Result<GroundTruth, String> {
    let mut incidents: Vec<IncidentTruth> = Vec::with_capacity(incident_count);
    let mut pyramid_txs: Vec<TxId> = Vec::new();
    let mut launder_wallets: Vec<Vec<Address>> = vec![Vec::new(); plans.len()];
    let mut nft_counter: u64 = 0;
    let mut benign_users: Vec<Address> = Vec::new();
    let n_benign_users = config.scaled(config.benign_users) as usize;
    for i in 0..n_benign_users {
        benign_users.push(
            chain
                .create_eoa_funded(format!("benign/user/{i}").as_bytes(), ether(100))
                .map_err(|e| format!("benign user: {e}"))?,
        );
    }
    // Ablation-A3 splitters: one private per family plus one shared.
    let mut noisy_splitters: Vec<Address> = Vec::new();
    let mut shared_splitter: Option<Address> = None;
    if config.operator_splitter_noise {
        let deployer = chain
            .create_eoa_funded(b"benign/noisy-splitter-deployer", ether(1))
            .map_err(|e| e.to_string())?;
        for _ in 0..config.families.len() {
            noisy_splitters
                .push(chain.deploy_contract(deployer, ContractKind::Benign).map_err(|e| e.to_string())?);
        }
        shared_splitter =
            Some(chain.deploy_contract(deployer, ContractKind::Benign).map_err(|e| e.to_string())?);
    }
    // Recipients for benign splitter payouts.
    let split_sinks: Vec<Address> = (0..8)
        .map(|i| chain.create_eoa(format!("benign/sink/{i}").as_bytes()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("sink: {e}"))?;

    let mut benign_failures = 0usize;

    for (t, _prio, _seq, ev) in events {
        let now = chain.now().max(t);
        chain.set_time(now).map_err(|e| format!("clock: {e}"))?;
        match ev {
            Ev::Deploy { fam, contract } => {
                let plan = &mut plans[fam];
                let c = &mut plan.contracts[contract];
                let operator = plan.operators[c.operator_idx];
                // Multi-hop payouts: the deployed spec pays the first
                // intermediary; the true operator only appears at the
                // end of the forwarding chain.
                let payee = c.payout_hops.first().copied().unwrap_or(operator);
                let address = chain
                    .deploy_contract(
                        operator,
                        ContractKind::ProfitSharing(ProfitSharingSpec {
                            operator: payee,
                            operator_bps: c.bps,
                            entry: config.families[fam].entry.to_style(),
                        }),
                    )
                    .map_err(|e| format!("deploy: {e}"))?;
                c.address = Some(address);
            }
            Ev::Incident(plan) => {
                let contract = plans[plan.fam].contracts[plan.contract]
                    .address
                    .expect("incident before deployment");
                let ps_tx = run_incident(chain, oracle, infra, &plan, contract, &mut nft_counter)
                    .map_err(|e| format!("incident: {e}"))?;
                incidents.push(IncidentTruth {
                    family: plan.fam,
                    victim: plan.victim,
                    affiliate: plan.affiliate,
                    contract,
                    time: chain.now(),
                    kind: plan_kind_to_truth(&plan.kind, infra, nft_counter),
                    loss_usd: plan.loss_usd,
                    ps_tx,
                    simultaneous_with_first: plan.simultaneous_with_first,
                    reused_approval: plan.reused_approval,
                });
            }
            Ev::Revoke { victim, kind, contract_of: (fam, ci) } => {
                let Some(contract) = plans[fam].contracts[ci].address else { continue };
                match kind {
                    PlanKind::Erc20 { token, .. } => {
                        let (token, _) = infra.erc20_tokens[token];
                        // Only meaningful if an approval is outstanding.
                        if !chain.erc20_allowance(token, victim, contract).is_zero() {
                            chain
                                .approve_erc20(victim, token, contract, U256::ZERO)
                                .map_err(|e| format!("revoke: {e}"))?;
                        }
                    }
                    PlanKind::Nft { collection, .. } => {
                        let token = infra.nft_collections[collection];
                        if chain.nft_approved_for_all(token, victim, contract) {
                            chain
                                .approve_nft_all(victim, token, contract, false)
                                .map_err(|e| format!("revoke nft: {e}"))?;
                        }
                    }
                    PlanKind::Eth => {}
                }
            }
            Ev::OpTransfer { fam, from, to } => {
                let (a, b) = (plans[fam].operators[from], plans[fam].operators[to]);
                let amount = ether_f64(0.3 + rng.gen::<f64>() * 1.7);
                if chain.eth_balance(a) >= amount {
                    chain.transfer_eth(a, b, amount).map_err(|e| format!("op transfer: {e}"))?;
                }
            }
            Ev::OpSharedPhish { fam, a, b, link } => {
                // An old, already-labeled phishing EOA both operators
                // touch. Registered lazily from its deterministic seed
                // (the label pass derives the same address).
                let seed = format!("oldphish/{}/{link}", config.families[fam].slug);
                let phish = match chain.create_eoa(seed.as_bytes()) {
                    Ok(addr) => addr,
                    Err(daas_chain::ChainError::AccountExists(addr)) => addr,
                    Err(e) => return Err(format!("shared phish: {e}")),
                };
                let (a, b) = (plans[fam].operators[a], plans[fam].operators[b]);
                for op in [a, b] {
                    let amount = ether_f64(0.05 + rng.gen::<f64>() * 0.2);
                    if chain.eth_balance(op) >= amount {
                        chain.transfer_eth(op, phish, amount).map_err(|e| format!("shared: {e}"))?;
                    }
                }
            }
            Ev::Launder { fam, op } => {
                let op_addr = plans[fam].operators[op];
                let balance = chain.eth_balance(op_addr);
                let threshold = ether(2);
                if balance > threshold {
                    let amount = balance.mul_div(U256::from_u64(60), U256::from_u64(100));
                    // Adversarial laundering chains: the cash-out hops
                    // through fresh wallets before the mixer. 0 hops
                    // (the default) is the original direct deposit.
                    let mut from = op_addr;
                    for h in 0..config.adversarial.launder_hops {
                        let seed = format!("launder/{}/{op}/{h}", config.families[fam].slug);
                        let hop = match chain.create_eoa(seed.as_bytes()) {
                            Ok(a) => a,
                            Err(daas_chain::ChainError::AccountExists(a)) => a,
                            Err(e) => return Err(format!("launder hop: {e}")),
                        };
                        chain.transfer_eth(from, hop, amount).map_err(|e| format!("launder: {e}"))?;
                        launder_wallets[fam].push(hop);
                        from = hop;
                    }
                    chain
                        .transfer_eth(from, infra.mixer, amount)
                        .map_err(|e| format!("launder: {e}"))?;
                }
            }
            Ev::SplitterNoise { fam, op, shared } => {
                let splitter = if shared {
                    match shared_splitter {
                        Some(sp) => sp,
                        None => continue,
                    }
                } else {
                    match noisy_splitters.get(fam) {
                        Some(&sp) => sp,
                        None => continue,
                    }
                };
                let op = plans[fam].operators[op];
                let amount = ether_f64(0.5);
                if chain.eth_balance(op) >= amount {
                    // 70/30 — the operator share table contains 30%, so
                    // this benign donation is ratio-shaped.
                    chain
                        .split_payment(op, splitter, amount, &[(split_sinks[0], 7_000), (split_sinks[1], 3_000)])
                        .map_err(|e| format!("noise: {e}"))?;
                }
            }
            Ev::RewardRound { fam, era } => {
                let Some(policy) = config.families[fam].reward_policy else { continue };
                // The era's lead operator pays; qualification is by the
                // affiliate's accumulated ETH balance valued in USD (our
                // affiliates never spend, so balance ≈ ETH-side profit).
                let _ = era;
                let now = chain.now();
                let op_idx = plans[fam]
                    .op_eras
                    .iter()
                    .position(|e| e.0 <= now && now <= e.1 + 90 * 86_400)
                    .unwrap_or(plans[fam].operators.len() - 1);
                let operator = plans[fam].operators[op_idx];
                // Reward the top qualifying affiliates this round.
                let mut paid = 0;
                for &aff in plans[fam].affiliates.iter() {
                    if paid >= 5 {
                        break;
                    }
                    let balance_usd = oracle.wei_to_usd(chain.eth_balance(aff), now);
                    let level = policy
                        .level_thresholds_usd
                        .iter()
                        .rev()
                        .position(|&t| balance_usd >= t)
                        .map(|i| 2 - i);
                    let Some(level) = level else { continue };
                    let reward = eth_types::units::milliether(policy.reward_milli_eth[level]);
                    if chain.eth_balance(operator) > reward {
                        chain
                            .transfer_eth(operator, aff, reward)
                            .map_err(|e| format!("reward: {e}"))?;
                        paid += 1;
                    }
                }
            }
            Ev::Benign(kind) => {
                if run_benign(chain, infra, &benign_users, &split_sinks, kind).is_err() {
                    benign_failures += 1;
                }
            }
            Ev::HopForward { fam, contract, hop } => {
                let plan = &plans[fam];
                let c = &plan.contracts[contract];
                let from = c.payout_hops[hop];
                let to = c
                    .payout_hops
                    .get(hop + 1)
                    .copied()
                    .unwrap_or(plan.operators[c.operator_idx]);
                let balance = chain.eth_balance(from);
                if !balance.is_zero() {
                    chain.transfer_eth(from, to, balance).map_err(|e| format!("hop: {e}"))?;
                }
            }
            Ev::PyramidPay { contract, payer, upline_hi, upline_lo, bps, milli_eth } => {
                let payer = pyramid.users[payer];
                let (hi, lo) = (pyramid.users[upline_hi], pyramid.users[upline_lo]);
                let amount = eth_types::units::milliether(milli_eth);
                if payer != hi && payer != lo && chain.eth_balance(payer) >= amount {
                    let tx = chain
                        .split_payment(
                            payer,
                            pyramid.contracts[contract],
                            amount,
                            &[(hi, 10_000 - bps), (lo, bps)],
                        )
                        .map_err(|e| format!("pyramid pay: {e}"))?;
                    pyramid_txs.push(tx);
                }
            }
        }
    }

    if benign_failures * 50 > config.scaled(config.benign_txs) as usize {
        return Err(format!("too many benign execution failures: {benign_failures}"));
    }

    // Assemble ground truth.
    let mut families = Vec::with_capacity(plans.len());
    for (fi, (plan, cfg)) in plans.iter().zip(&config.families).enumerate() {
        families.push(FamilyTruth {
            id: fi,
            label: cfg.label.clone(),
            slug: cfg.slug.clone(),
            operators: plan.operators.clone(),
            contracts: plan
                .contracts
                .iter()
                .map(|c| ContractTruth {
                    address: c.address.expect("undeployed contract"),
                    operator: plan.operators[c.operator_idx],
                    operator_bps: c.bps,
                    entry: config.families[fi].entry.to_style(),
                    window: c.window,
                    primary: c.primary,
                    payout_hops: c.payout_hops.clone(),
                })
                .collect(),
            affiliates: plan.affiliates.clone(),
            window: (cfg.start, cfg.end),
            launder_wallets: std::mem::take(&mut launder_wallets[fi]),
        });
    }
    Ok(GroundTruth {
        families,
        incidents,
        pyramid_contracts: pyramid.contracts.clone(),
        pyramid_users: pyramid.users.clone(),
        pyramid_txs,
    })
}

fn plan_kind_to_truth(kind: &PlanKind, infra: &Infra, nft_counter: u64) -> IncidentKind {
    match kind {
        PlanKind::Eth => IncidentKind::Eth,
        PlanKind::Erc20 { token, .. } => IncidentKind::Erc20 { token: infra.erc20_tokens[*token].0 },
        PlanKind::Nft { collection, .. } => IncidentKind::Nft {
            token: infra.nft_collections[*collection],
            // The just-minted id (run_incident increments the counter).
            id: nft_counter - 1,
        },
    }
}

/// Executes one incident's transaction sequence; returns the
/// profit-sharing transaction id.
// ChainError carries U256 diagnostics by value; boxing it for these two
// internal helpers would cost more churn than the cold error path saves.
#[allow(clippy::result_large_err)]
fn run_incident(
    chain: &mut Chain,
    oracle: &Oracle,
    infra: &Infra,
    plan: &IncidentPlan,
    contract: Address,
    nft_counter: &mut u64,
) -> Result<TxId, daas_chain::ChainError> {
    let t = chain.now();
    let operator = chain
        .profit_sharing_spec(contract)
        .expect("incident target is a profit-sharing contract")
        .operator;
    match plan.kind {
        PlanKind::Eth => {
            let wei = oracle.usd_to_wei(plan.loss_usd, t);
            chain.mint_eth(plan.victim, wei)?;
            chain.claim_eth(plan.victim, contract, wei, plan.affiliate)
        }
        PlanKind::Erc20 { token, mode } => {
            let (token, _) = infra.erc20_tokens[token];
            let amount = token_amount(oracle, token, plan.loss_usd, t);
            chain.mint_erc20(token, plan.victim, amount)?;
            match mode {
                Erc20Mode::Approve => {
                    chain.approve_erc20(plan.victim, token, contract, U256::MAX)?;
                    chain.drain_erc20(operator, contract, token, plan.victim, amount, plan.affiliate)
                }
                Erc20Mode::Permit => chain.drain_erc20_permit(
                    operator,
                    contract,
                    token,
                    plan.victim,
                    amount,
                    plan.affiliate,
                ),
                Erc20Mode::Reuse => {
                    chain.drain_erc20(operator, contract, token, plan.victim, amount, plan.affiliate)
                }
            }
        }
        PlanKind::Nft { collection, mode } => {
            let token = infra.nft_collections[collection];
            let id = *nft_counter;
            *nft_counter += 1;
            chain.mint_nft(token, plan.victim, id)?;
            match mode {
                NftMode::ApprovalSweep => {
                    chain.approve_nft_all(plan.victim, token, contract, true)?;
                    chain.drain_nft(operator, contract, token, plan.victim, id)?;
                }
                NftMode::ZeroOrder => {
                    chain.zero_value_order(
                        operator,
                        infra.marketplace,
                        token,
                        id,
                        plan.victim,
                        contract,
                    )?;
                }
            }
            // The drainer backend liquidates and distributes within the
            // same block: separate transactions, same timestamp.
            // (Advancing the global clock here would accumulate drift
            // across the whole timeline in dense periods.)
            let price = oracle.usd_to_wei(plan.loss_usd, chain.now());
            chain.sell_nft(operator, infra.marketplace, token, id, contract, price)?;
            chain.distribute_eth(operator, contract, price, plan.affiliate)
        }
    }
}

/// Converts a USD loss to token smallest-units via the oracle.
fn token_amount(oracle: &Oracle, token: Address, usd: f64, t: Timestamp) -> U256 {
    // Invert the oracle's quote. Stable: units = usd * units_per_usd;
    // ratio tokens: usd / (ratio * eth_usd) ether.
    // We probe with 1 whole token to recover the quote scale.
    let one_probe = oracle
        .token_to_usd(token, U256::from_u128(1_000_000_000_000_000_000), t)
        .or_else(|| oracle.token_to_usd(token, U256::from_u64(1_000_000), t).map(|v| v * 1e12));
    match one_probe {
        Some(usd_per_whole) if usd_per_whole > 0.0 => {
            // usd_per_whole is USD per 1e18 units (18-dec view).
            let units = usd / usd_per_whole * 1e18;
            U256::from_u128(units as u128)
        }
        _ => U256::from_u128((usd * 1e6) as u128),
    }
}

#[allow(clippy::result_large_err)]
fn run_benign(
    chain: &mut Chain,
    infra: &Infra,
    users: &[Address],
    sinks: &[Address],
    kind: BenignKind,
) -> Result<(), daas_chain::ChainError> {
    use eth_types::units::milliether;
    match kind {
        BenignKind::P2p { from, to, milli_eth } => {
            if from == to {
                return Ok(());
            }
            chain.transfer_eth(users[from], users[to], milliether(milli_eth))?;
        }
        BenignKind::CexOut { cex, to, milli_eth } => {
            chain.transfer_eth(infra.cex[cex], users[to], milliether(milli_eth))?;
        }
        BenignKind::CexIn { from, cex } => {
            let amount = chain.eth_balance(users[from]).mul_div(U256::from_u64(20), U256::from_u64(100));
            if !amount.is_zero() {
                chain.transfer_eth(users[from], infra.cex[cex], amount)?;
            }
        }
        BenignKind::Swap { trader, token, milli_eth } => {
            let (token, _) = infra.erc20_tokens[token];
            chain.swap_eth_for_token(
                users[trader],
                infra.dex,
                token,
                milliether(milli_eth),
                milliether(milli_eth * 3),
            )?;
        }
        BenignKind::Airdrop { from, recipients, milli_eth } => {
            let outs: Vec<(Address, U256)> = recipients
                .iter()
                .map(|&r| (users[r], milliether(milli_eth)))
                .collect();
            chain.multi_transfer_eth(users[from], &outs)?;
        }
        BenignKind::Split { payer, splitter, milli_eth } => {
            // 50/50 and three-way splits: two-transfer shapes whose
            // ratios are NOT in the §4.3 table.
            let recipients = if splitter % 2 == 0 {
                vec![(sinks[0], 5_000u32), (sinks[1], 5_000u32)]
            } else {
                vec![(sinks[2], 3_400u32), (sinks[3], 3_300u32), (sinks[4], 3_300u32)]
            };
            chain.split_payment(users[payer], infra.splitters[splitter], milliether(milli_eth), &recipients)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Labels.
// ---------------------------------------------------------------------

fn assign_labels(
    rng: &mut StdRng,
    config: &WorldConfig,
    labels: &mut LabelStore,
    plans: &[FamilyPlan],
    truth: &GroundTruth,
) {
    let mut phish_counter = 60_000u32;
    let sources = LabelSource::PUBLIC;

    for (fi, plan) in plans.iter().enumerate() {
        // Labeled contracts, stratified: public incident reports track
        // victim volume, so roughly 60% of each family's high-volume
        // primaries are reported; the remaining quota comes from the
        // throwaway long tail (weighted mildly by traffic). This keeps
        // the seed's transaction coverage near the paper's 57% without
        // run-to-run swings.
        let n = plan.contracts.len();
        let k = ((n as f64) * config.label_contract_frac).round().max(1.0) as usize;
        let primaries: Vec<usize> =
            (0..n).filter(|&i| plan.contracts[i].primary).collect();
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        if !primaries.is_empty() {
            let quota = ((primaries.len() as f64) * 0.45).round() as usize;
            // Uniform over primaries: weighting by volume would always
            // pick the biggest ones and overshoot the coverage target.
            let mut weights: Vec<f64> = vec![1.0; primaries.len()];
            for _ in 0..quota.min(primaries.len()).min(k) {
                let picker = Weighted::new(&weights);
                let idx = picker.sample(rng);
                chosen.push(primaries[idx]);
                weights[idx] = 0.0;
                if weights.iter().all(|&w| w == 0.0) {
                    break;
                }
            }
        }
        let mut weights: Vec<f64> = (0..n)
            .map(|i| {
                if chosen.contains(&i) {
                    0.0
                } else {
                    (plan.contracts[i].tx_count.max(1) as f64)
                        .powf(config.label_weight_exponent)
                }
            })
            .collect();
        while chosen.len() < k.min(n) {
            if weights.iter().all(|&w| w == 0.0) {
                break;
            }
            let picker = Weighted::new(&weights);
            let idx = picker.sample(rng);
            chosen.push(idx);
            weights[idx] = 0.0;
        }
        for ci in chosen {
            let address = plan.contracts[ci].address.expect("deployed");
            phish_counter += 1;
            let n_sources = 1 + rng.gen_range(0..3usize);
            let mut srcs = sources.to_vec();
            // Deterministic partial shuffle.
            for i in 0..n_sources {
                let j = rng.gen_range(i..srcs.len());
                srcs.swap(i, j);
            }
            for src in srcs.into_iter().take(n_sources) {
                labels.add_phishing(address, src, &format!("Fake_Phishing{phish_counter}"));
            }
        }

        // Family label on the top operator and the first primary (or
        // first) contract, for labeled families (§7.1 naming).
        if let Some(name) = truth.families[fi].label.clone() {
            labels.add(Label {
                address: plan.operators[0],
                source: LabelSource::Etherscan,
                category: LabelCategory::DrainerFamily,
                text: name.clone(),
            });
            if let Some(c) = plan.contracts.iter().find(|c| c.primary).or(plan.contracts.first()) {
                labels.add(Label {
                    address: c.address.expect("deployed"),
                    source: LabelSource::Etherscan,
                    category: LabelCategory::DrainerFamily,
                    text: name,
                });
            }
        }

        // Affiliate labels (Fake_Phishing on EOAs).
        for &aff in &plan.affiliates {
            if chance(rng, config.label_affiliate_frac) {
                phish_counter += 1;
                labels.add_phishing(aff, LabelSource::Etherscan, &format!("Fake_Phishing{phish_counter}"));
            }
        }

        // The shared old-phishing EOAs used for operator linkage are
        // labeled by construction (the clustering rule depends on it).
        for i in 1..plan.operators.len() {
            let phish = Address::from_key_seed(
                format!("oldphish/{}/{i}", config.families[fi].slug).as_bytes(),
            );
            phish_counter += 1;
            labels.add_phishing(phish, LabelSource::Etherscan, &format!("Fake_Phishing{phish_counter}"));
        }
    }

    // Adversarial pyramid mislabelling: community feeds widely report
    // pyramid contracts as phishing. A mislabelled splitter whose
    // history is full of table-ratio splits is a poisoned snowball
    // seed. Draws RNG only when the knob is on.
    let adv = &config.adversarial;
    if adv.pyramid_mislabel_frac > 0.0 {
        for &pc in &truth.pyramid_contracts {
            if chance(rng, adv.pyramid_mislabel_frac) {
                phish_counter += 1;
                labels.add_phishing(pc, LabelSource::Chainabuse, &format!("Fake_Phishing{phish_counter}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_hits_target_via_whales() {
        let mut losses = vec![50.0, 500.0, 2_000.0, 10_000.0, 20_000.0];
        rescale_losses(&mut losses, 60_000.0);
        let total: f64 = losses.iter().sum();
        assert!((total - 60_000.0).abs() < 1.0);
        // Small losses untouched.
        assert_eq!(&losses[..3], &[50.0, 500.0, 2_000.0]);
    }

    #[test]
    fn rescale_falls_back_to_global_scaling() {
        // Target below the small-loss total: everything shrinks.
        let mut losses = vec![100.0, 200.0, 10_000.0];
        rescale_losses(&mut losses, 1_000.0);
        let total: f64 = losses.iter().sum();
        assert!((total - 1_000.0).abs() < 1.0);
        assert!(losses[0] < 100.0);
    }

    #[test]
    fn rescale_no_whales() {
        let mut losses = vec![100.0, 300.0];
        rescale_losses(&mut losses, 800.0);
        assert!((losses.iter().sum::<f64>() - 800.0).abs() < 1.0);
    }

    #[test]
    fn rescale_empty_is_noop() {
        let mut losses: Vec<f64> = vec![];
        rescale_losses(&mut losses, 100.0);
        assert!(losses.is_empty());
    }
}
