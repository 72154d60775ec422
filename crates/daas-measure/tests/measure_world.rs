//! Measurement shape-checks against a generated world: the §6 statistics
//! must reproduce the paper's *shape* at reduced scale (exact-magnitude
//! comparisons run at paper scale in the bench harnesses).

use std::sync::OnceLock;

use daas_cluster::cluster;
use daas_detector::{build_dataset, Dataset, SnowballConfig};
use daas_measure::{dominant_share, family_table, ratio_histogram, MeasureCtx};
use daas_world::{collection_end, World, WorldConfig};

struct Fix {
    world: World,
    dataset: Dataset,
}

fn fix() -> &'static Fix {
    static F: OnceLock<Fix> = OnceLock::new();
    F.get_or_init(|| {
        let world = World::build(&WorldConfig::small(11)).expect("world");
        let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
        Fix { world, dataset }
    })
}

fn ctx() -> MeasureCtx<'static> {
    let f = fix();
    MeasureCtx::new(&f.world.chain, &f.dataset, &f.world.oracle)
}

#[test]
fn victim_losses_match_fig6_shape() {
    let report = ctx().victim_report();
    // Paper: 50.9% under $100, 83.5% under $1k.
    let under_100 = report.loss_buckets[0].2;
    assert!((under_100 - 50.9).abs() < 6.0, "under-$100 {under_100}%");
    assert!((report.below_1k_pct - 83.5).abs() < 5.0, "under-$1k {}", report.below_1k_pct);
    // Buckets sum to 100%.
    let sum: f64 = report.loss_buckets.iter().map(|(_, _, p)| p).sum();
    assert!((sum - 100.0).abs() < 1e-6);
}

#[test]
fn total_losses_scale_to_135m() {
    // $134.9M at scale 0.05 → ~$6.75M.
    let report = ctx().victim_report();
    let ratio = report.total_usd / (134.9e6 * 0.05);
    assert!((0.85..1.15).contains(&ratio), "total {}", report.total_usd);
}

#[test]
fn victim_rate_scales() {
    // Paper: >100 victims/day at full scale → ~5/day at 5%.
    let report = ctx().victim_report();
    assert!(report.victims_per_day > 3.0, "rate {}", report.victims_per_day);
}

#[test]
fn repeat_victims_match_section_6_1() {
    let report = ctx().repeat_victim_report();
    let victims = ctx().victim_report().victims;
    let repeat_frac = report.repeat_victims as f64 / victims as f64;
    // Paper: 8,856 / 76,582 ≈ 11.6%.
    assert!((repeat_frac - 0.116).abs() < 0.03, "repeat fraction {repeat_frac}");
    // 78.1% simultaneous, 28.6% unrevoked.
    assert!((report.simultaneous_pct - 78.1).abs() < 8.0, "sim {}", report.simultaneous_pct);
    assert!((report.unrevoked_pct - 28.6).abs() < 8.0, "unrevoked {}", report.unrevoked_pct);
}

#[test]
fn operator_concentration_shape() {
    let report = ctx().operator_report();
    // Paper: top 25% of operators hold 75.7% of $23.1M. Small-scale
    // worlds have very few operators, so allow a wide band.
    assert!(report.operators > 0);
    assert!(
        report.top_quartile_share_pct > 50.0,
        "top-quartile share {}",
        report.top_quartile_share_pct
    );
    // Operator take over total: ratio mix gives ~17-18%.
    let victims_total = ctx().victim_report().total_usd;
    let share = report.total_usd / victims_total;
    assert!((0.14..0.24).contains(&share), "operator take {share}");
}

#[test]
fn operator_fund_flows_exist_with_multi_operator_families() {
    // At 5% scale every family collapses to one operator, so §6.2's
    // inter-operator fund flows need a slightly larger world.
    let cfg = WorldConfig { scale: 0.15, ..WorldConfig::paper_scale(5) };
    let world = World::build(&cfg).expect("world");
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    let ctx = MeasureCtx::new(&world.chain, &dataset, &world.oracle);
    let report = ctx.operator_report();
    assert!(report.operators > 9, "expected multi-operator families");
    assert!(report.linked_pairs > 0, "no operator fund flows found");
}

#[test]
fn operator_lifecycles_span_days_to_hundreds() {
    let lc = ctx().operator_lifecycles(30 * 86_400, collection_end());
    assert!(lc.inactive_operators > 0);
    assert!(lc.max_days > 100.0, "max lifecycle {}", lc.max_days);
    assert!(lc.min_days < lc.max_days);
    assert!(lc.lifecycle_days.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn affiliate_report_matches_fig7_shape() {
    let report = ctx().affiliate_report();
    // Paper: 50.2% above $1k, 22.0% above $10k.
    assert!((report.above_1k_pct - 50.2).abs() < 12.0, "above 1k {}", report.above_1k_pct);
    assert!((report.above_10k_pct - 22.0).abs() < 10.0, "above 10k {}", report.above_10k_pct);
    // Affiliates hold the bulk of profits (~83%).
    let victims_total = ctx().victim_report().total_usd;
    let share = report.total_usd / victims_total;
    assert!((0.76..0.86).contains(&share), "affiliate take {share}");
    // Heavy tail: the top 7.4% hold well over a third.
    assert!(report.top_7_4_pct_share > 35.0, "tail {}", report.top_7_4_pct_share);
    // Few affiliates reach many victims (paper: 26.1% over 10 victims).
    assert!((report.over_10_victims_pct - 26.1).abs() < 20.0);
}

#[test]
fn ratio_histogram_matches_4_3() {
    let c = ctx();
    let rows = ratio_histogram(&c);
    assert_eq!(rows[0].bps, 2000, "dominant ratio should be 20%");
    assert!((rows[0].share_pct - 46.0).abs() < 6.0, "20%% share {}", rows[0].share_pct);
    let r15 = rows.iter().find(|r| r.bps == 1500).expect("15% present");
    assert!((r15.share_pct - 19.3).abs() < 5.0);
    let r175 = rows.iter().find(|r| r.bps == 1750).expect("17.5% present");
    assert!((r175.share_pct - 9.2).abs() < 4.0);
    // All nine ratios observed.
    assert_eq!(rows.len(), 9, "{rows:?}");
    let total: f64 = rows.iter().map(|r| r.share_pct).sum();
    assert!((total - 100.0).abs() < 1e-6);
}

#[test]
fn family_table_reproduces_table2() {
    let f = fix();
    let c = ctx();
    let clustering = cluster(&f.world.chain, &f.world.labels, &f.dataset);
    let rows = family_table(&c, &clustering, collection_end());
    assert_eq!(rows.len(), 9);
    // Ordered by victims: Angel first, Inferno second (paper's order).
    assert_eq!(rows[0].name, "Angel Drainer");
    assert_eq!(rows[1].name, "Inferno Drainer");
    // Dominant three hold ~93.9% of profits.
    let share = dominant_share(&rows, 3);
    assert!((share - 93.9).abs() < 3.0, "dominant share {share}");
    // Families active at the window end show "Now".
    let angel = rows.iter().find(|r| r.name == "Angel Drainer").unwrap();
    assert_eq!(angel.active_end, "Now");
    assert_eq!(angel.active_start, "2023-04");
    // Retired families show a month.
    let venom = rows.iter().find(|r| r.name == "Venom Drainer").unwrap();
    assert_ne!(venom.active_end, "Now");
}

#[test]
fn measured_counts_match_dataset() {
    let f = fix();
    let c = ctx();
    assert_eq!(c.incidents().len(), f.dataset.observations.len());
    let ops = c.profit_per_operator();
    assert!(ops.len() <= f.dataset.operators.len());
    for op in ops.keys() {
        assert!(f.dataset.operators.contains(op));
    }
}
