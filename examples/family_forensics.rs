//! Family forensics: cluster the discovered dataset into DaaS families
//! (§7) and compare the dominant ones — membership, profits, contract
//! implementation style, and rotation cadence.
//!
//! ```sh
//! cargo run --release --example family_forensics
//! ```

use daas_lab::cluster::{cluster, family_forensics};
use daas_lab::detector::{build_dataset, SnowballConfig};
use daas_lab::measure::{dominant_share, family_table, MeasureCtx};
use daas_lab::world::{collection_end, World, WorldConfig};

fn main() {
    let world = World::build(&WorldConfig::small(42)).expect("world");
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    let clustering = cluster(&world.chain, &world.labels, &dataset);
    println!("clustered {} families from {} operator accounts\n", clustering.families.len(), dataset.operators.len());

    // Table 2-style overview, ordered by victim count.
    let ctx = MeasureCtx::new(&world.chain, &dataset, &world.oracle);
    let rows = family_table(&ctx, &clustering, collection_end());
    println!("{:<18} {:>9} {:>9} {:>10} {:>8} {:>10}  active", "family", "contracts", "operators", "affiliates", "victims", "profits");
    for row in &rows {
        println!(
            "{:<18} {:>9} {:>9} {:>10} {:>8} {:>9.0}k  {} – {}",
            row.name,
            row.contracts,
            row.operators,
            row.affiliates,
            row.victims,
            row.profits_usd / 1e3,
            row.active_start,
            row.active_end
        );
    }
    println!("\ndominant three hold {:.1}% of profits (paper: 93.9%)", dominant_share(&rows, 3));

    // Table 3 + §7.2 in one pass: profiles and lifecycles for every
    // family over a shared feature cache.
    let forensics = family_forensics(
        &world.chain,
        &dataset,
        &clustering,
        5,
        30 * 86_400,
        collection_end(),
    );

    println!("\ncontract implementation (recovered from call metadata):");
    for name in ["Angel Drainer", "Inferno Drainer", "Pink Drainer"] {
        let Some((profile, _)) = forensics.by_name(name) else { continue };
        println!(
            "  {:<17} ETH via {:<42} tokens via {}",
            name,
            profile.eth_entry.as_deref().unwrap_or("-"),
            profile.token_entry.as_deref().unwrap_or("-")
        );
    }

    // §7.2: rotation cadence of the primary contracts.
    println!("\nprimary-contract lifecycles (>5 txs at this scale, retired a month):");
    for name in ["Angel Drainer", "Inferno Drainer", "Pink Drainer"] {
        let Some((_, stats)) = forensics.by_name(name) else { continue };
        println!(
            "  {:<17} {} primaries, mean {:.1} days",
            name,
            stats.contracts.len(),
            stats.mean_days
        );
    }
}
