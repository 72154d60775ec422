//! Ablations A1–A5 (DESIGN.md §4): how each design choice in the
//! pipeline affects precision/recall.
//!
//! Runs at `DAAS_SCALE` (default 1.0; lower it for a quick pass).

use daas_cli::{render_ablations, run_website_pipeline};
use daas_detector::{build_dataset, evaluate, ClassifierConfig, SnowballConfig};
use daas_world::{World, WorldConfig};

fn main() {
    let _obs = daas_bench::obs_from_env();
    let seed = std::env::var("DAAS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    let scale = std::env::var("DAAS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);
    let base = SnowballConfig::default();
    eprintln!("[exp_ablations] seed {seed}, scale {scale}");
    let config = WorldConfig { scale, ..WorldConfig::paper_scale(seed) };
    let world = World::build(&config).expect("world");
    let truth = (
        world.truth.all_contracts(),
        world.truth.all_operators(),
        world.truth.all_affiliates(),
        world.truth.ps_tx_ids(),
    );
    let score = |ds: &daas_detector::Dataset| {
        let e = evaluate(ds, &truth.0, &truth.1, &truth.2, &truth.3);
        (e.transactions.recall(), e.contracts.false_positives + e.transactions.false_positives)
    };

    // ---- A1: ratio tolerance sweep. ----
    let mut rows = Vec::new();
    for tol in [0.0, 0.001, 0.005, 0.02, 0.10] {
        let cfg = SnowballConfig {
            classifier: ClassifierConfig { tolerance: tol, ..Default::default() },
            ..base.clone()
        };
        let ds = build_dataset(&world.chain, &world.labels, &cfg);
        let (recall, fps) = score(&ds);
        rows.push((format!("ε = {tol}"), format!("{recall:.4}"), fps.to_string()));
    }
    println!(
        "{}",
        render_ablations("A1 — Ratio-match tolerance", ["tolerance", "tx recall", "false positives"], &rows)
    );

    // ---- A2: seed label coverage sweep. ----
    let mut rows = Vec::new();
    for frac in [0.02, 0.05, 0.10, 391.0 / 1_910.0, 0.40] {
        let cfg = WorldConfig { label_contract_frac: frac, ..config.clone() };
        let w = World::build(&cfg).expect("world");
        let ds = build_dataset(&w.chain, &w.labels, &base);
        let e = evaluate(
            &ds,
            &w.truth.all_contracts(),
            &w.truth.all_operators(),
            &w.truth.all_affiliates(),
            &w.truth.ps_tx_ids(),
        );
        rows.push((
            format!("{:.1}% of contracts labeled", frac * 100.0),
            format!("seed {} → expanded {}", ds.seed.contracts, ds.counts().contracts),
            format!("{:.4}", e.contracts.recall()),
        ));
    }
    println!(
        "{}",
        render_ablations(
            "A2 — Seed coverage (snowball recall vs label availability)",
            ["seed coverage", "contracts", "contract recall"],
            &rows
        )
    );

    // ---- A3: expansion guard vs ratio-shaped benign noise. ----
    let noisy_cfg = WorldConfig { operator_splitter_noise: true, ..config.clone() };
    let noisy = World::build(&noisy_cfg).expect("noisy world");
    let noisy_truth = (
        noisy.truth.all_contracts(),
        noisy.truth.all_operators(),
        noisy.truth.all_affiliates(),
        noisy.truth.ps_tx_ids(),
    );
    let mut rows = Vec::new();
    for (label, guard) in [("guard on (paper)", true), ("guard off", false)] {
        let cfg = SnowballConfig { expansion_guard: guard, ..base.clone() };
        let ds = build_dataset(&noisy.chain, &noisy.labels, &cfg);
        let e = evaluate(&ds, &noisy_truth.0, &noisy_truth.1, &noisy_truth.2, &noisy_truth.3);
        rows.push((
            label.to_owned(),
            format!("{} contract FPs", e.contracts.false_positives),
            format!("recall {:.4}", e.contracts.recall()),
        ));
    }
    println!(
        "{}",
        render_ablations(
            "A3 — Expansion guard (world with operators donating via a 70/30 benign splitter)",
            ["variant", "false positives", "recall"],
            &rows
        )
    );

    // ---- A4: Levenshtein threshold sweep. ----
    let mut rows = Vec::new();
    for threshold in [0.6, 0.7, 0.8, 0.9, 1.0] {
        let web = run_website_pipeline(&world, threshold);
        rows.push((
            format!("threshold {threshold}"),
            format!("{} triaged, {} confirmed", web.triaged, web.report.confirmed),
            format!(
                "{} crawled clean (benign load)",
                web.report.clean
            ),
        ));
    }
    println!(
        "{}",
        render_ablations(
            "A4 — Domain-triage similarity threshold (paper: 0.8)",
            ["variant", "detections", "crawl overhead"],
            &rows
        )
    );

    // ---- A5: strict two-transfer rule. ----
    let mut rows = Vec::new();
    for (label, strict) in [("exactly two transfers (paper)", true), ("two largest of many", false)] {
        let cfg = SnowballConfig {
            classifier: ClassifierConfig { strict_two_transfers: strict, ..Default::default() },
            ..base.clone()
        };
        let ds = build_dataset(&world.chain, &world.labels, &cfg);
        let (recall, fps) = score(&ds);
        rows.push((label.to_owned(), format!("{recall:.4}"), fps.to_string()));
    }
    println!(
        "{}",
        render_ablations("A5 — Two-transfer strictness", ["variant", "tx recall", "false positives"], &rows)
    );
}
