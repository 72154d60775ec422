//! The sequential oracle: the `threads = 1` batch pipeline, whose
//! artifact every workload must reproduce byte for byte, plus the
//! seeded address pool the serve-mixed wallet client queries.

use std::collections::BTreeSet;

use daas_cluster::{cluster_with, ClusterConfig};
use daas_detector::{build_dataset_with_cache, ClassificationCache, SnowballConfig};
use daas_measure::{MeasureConfig, MeasureCtx};
use daas_world::{collection_end, World};
use eth_types::Address;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{artifact_json, read, Args, ChainSize, INACTIVE_SECS};

/// Addresses in the serve-mixed query pool.
const POOL_SIZE: usize = 4096;

/// Every `FLAGGED_EVERY`-th pool address is one the final dataset flags
/// (about 10%); the rest are chain accounts it does not flag.
const FLAGGED_EVERY: usize = 10;

/// The oracle files of one seed, loaded.
pub struct Oracle {
    pub artifact: String,
    /// Query pool: address and whether the oracle dataset flags it.
    pub pool: Vec<(Address, bool)>,
    pub chain: ChainSize,
}

/// Runs the sequential pipeline and writes the oracle files `artifact.json`,
/// `pool.txt` and `chain.txt` (see [`Args::oracle_file`]).
pub fn write(args: &Args) -> Result<(), String> {
    let world = World::build_opts(&args.world_config(), 1, 0)?;
    let snowball = SnowballConfig {
        threads: 1,
        ..SnowballConfig::default()
    };
    let dataset = build_dataset_with_cache(
        &world.chain,
        &world.labels,
        &snowball,
        &ClassificationCache::new(),
    );
    let clustering = cluster_with(
        &world.chain,
        &world.labels,
        &dataset,
        &ClusterConfig::sequential(),
    );
    let reports = MeasureCtx::new(&world.chain, &dataset, &world.oracle).reports(
        &world.labels,
        INACTIVE_SECS,
        collection_end(),
        &MeasureConfig::sequential(),
    );
    let artifact = artifact_json(&dataset, &clustering, &reports);

    let flagged: BTreeSet<Address> = dataset
        .contracts
        .iter()
        .chain(&dataset.operators)
        .chain(&dataset.affiliates)
        .copied()
        .collect();
    let flagged_list: Vec<Address> = flagged.iter().copied().collect();
    let clean: Vec<Address> = world
        .chain
        .transactions()
        .interner()
        .addresses()
        .iter()
        .filter(|a| !flagged.contains(a))
        .copied()
        .collect();
    if flagged_list.is_empty() || clean.is_empty() {
        return Err("world too small for an address pool".into());
    }
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7065_7266_6265_6e63);
    let mut pool = String::with_capacity(POOL_SIZE * 46);
    for i in 0..POOL_SIZE {
        let (addr, flag) = if i % FLAGGED_EVERY == 0 {
            (flagged_list[rng.gen_range(0..flagged_list.len())], 1)
        } else {
            (clean[rng.gen_range(0..clean.len())], 0)
        };
        pool.push_str(&format!("{addr} {flag}\n"));
    }

    let size = ChainSize::of(&world.chain);
    let put = |ext: &str, body: &str| {
        let path = args.oracle_file(ext);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
    };
    put("artifact.json", &artifact)?;
    put("pool.txt", &pool)?;
    put(
        "chain.txt",
        &format!("{} {} {}\n", size.txs, size.accounts, size.arena_bytes),
    )
}

impl Oracle {
    pub fn load(args: &Args) -> Result<Oracle, String> {
        let artifact = read(&args.oracle_file("artifact.json"))?;
        let pool = read(&args.oracle_file("pool.txt"))?
            .lines()
            .map(|line| {
                let (addr, flag) = line.split_once(' ').ok_or("bad pool line")?;
                let addr: Address = addr
                    .parse()
                    .map_err(|_| format!("bad pool address {addr}"))?;
                Ok((addr, flag == "1"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let chain = read(&args.oracle_file("chain.txt"))?;
        let nums: Vec<usize> = chain
            .split_whitespace()
            .filter_map(|n| n.parse().ok())
            .collect();
        let [txs, accounts, arena_bytes] = nums[..] else {
            return Err("bad oracle chain file".into());
        };
        Ok(Oracle {
            artifact,
            pool,
            chain: ChainSize {
                txs,
                accounts,
                arena_bytes,
            },
        })
    }
}
