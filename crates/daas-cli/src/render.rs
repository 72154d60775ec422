//! Text renderers: every paper table/figure with paper-vs-measured
//! columns.

use daas_chain::format_date;
use daas_cluster::{contract_profile_with, FamilyForensics};
use daas_detector::FeatureCache;
use daas_measure::{dominant_share, family_table};
use daas_world::collection_end;

use crate::paper;
use crate::pipeline::{Measured, Pipeline};
use crate::websites::WebsitePipelineResult;

/// Minimal aligned-column table.
struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "column mismatch");
        self.rows.push(cells);
    }

    fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(c);
                for _ in c.chars().count()..widths[i] + 2 {
                    out.push(' ');
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

fn usd(v: f64) -> String {
    if v >= 1e6 {
        format!("${:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("${:.1}k", v / 1e3)
    } else {
        format!("${v:.0}")
    }
}

fn scaled(n: usize, scale: f64) -> String {
    format!("{:.0}", n as f64 * scale)
}

/// Table 1: dataset collection results, seed vs expanded, with the
/// paper's numbers scaled to the run's world scale.
pub fn render_table1(p: &Pipeline, scale: f64) -> String {
    let seed = p.dataset.seed;
    let full = p.dataset.counts();
    let mut t = Table::new(vec![
        "Number of",
        "Seed (measured)",
        "Seed (paper×scale)",
        "Expanded (measured)",
        "Expanded (paper×scale)",
    ]);
    let (ps, os, as_, ts) = paper::TABLE1_SEED;
    let (pe, oe, ae, te) = paper::TABLE1_EXPANDED;
    t.row(vec![
        "Profit-sharing Contracts".into(),
        seed.contracts.to_string(),
        scaled(ps, scale),
        full.contracts.to_string(),
        scaled(pe, scale),
    ]);
    t.row(vec![
        "Operator Accounts".into(),
        seed.operators.to_string(),
        scaled(os, scale),
        full.operators.to_string(),
        scaled(oe, scale),
    ]);
    t.row(vec![
        "Affiliate Accounts".into(),
        seed.affiliates.to_string(),
        scaled(as_, scale),
        full.affiliates.to_string(),
        scaled(ae, scale),
    ]);
    t.row(vec![
        "DaaS Accounts".into(),
        seed.daas_accounts().to_string(),
        scaled(ps + os + as_, scale),
        full.daas_accounts().to_string(),
        scaled(pe + oe + ae, scale),
    ]);
    t.row(vec![
        "Profit-sharing Transactions".into(),
        seed.ps_txs.to_string(),
        scaled(ts, scale),
        full.ps_txs.to_string(),
        scaled(te, scale),
    ]);
    format!(
        "Table 1 — Dataset Collection Results (snowball rounds: {})\n{}",
        p.dataset.rounds,
        t.render()
    )
}

/// Table 2: family overview.
pub fn render_table2(p: &Pipeline, m: &Measured<'_>, scale: f64) -> String {
    let rows = family_table(&m.ctx, &p.clustering, collection_end());
    let mut t = Table::new(vec![
        "DaaS Family",
        "Contracts",
        "Operators",
        "Affiliates",
        "Victims",
        "Profits",
        "Active",
        "Paper victims×scale",
        "Paper profits×scale",
    ]);
    for r in &rows {
        let paper_row = paper::TABLE2.iter().find(|(name, ..)| *name == r.name);
        let (pv, pp) = match paper_row {
            Some((_, _, _, _, v, usd_total, _, _)) => {
                (scaled(*v as usize, scale), usd(usd_total * scale))
            }
            // The prefix-named family cannot match by name; compare to
            // the paper's 0x0000b6 row.
            None => {
                let (_, _, _, _, v, usd_total, _, _) = paper::TABLE2[7];
                (scaled(v as usize, scale), usd(usd_total * scale))
            }
        };
        t.row(vec![
            r.name.clone(),
            r.contracts.to_string(),
            r.operators.to_string(),
            r.affiliates.to_string(),
            r.victims.to_string(),
            usd(r.profits_usd),
            format!("{} – {}", r.active_start, r.active_end),
            pv,
            pp,
        ]);
    }
    let dom = dominant_share(&rows, 3);
    format!(
        "Table 2 — DaaS Family Overview\n{}\nDominant three families hold {:.1}% of profits (paper: {:.1}%)\n",
        t.render(),
        dom,
        paper::DOMINANT_SHARE_PCT
    )
}

/// Table 3: phishing functions of the dominant families. One shared
/// feature cache indexes the observations once for every family row.
pub fn render_table3(p: &Pipeline) -> String {
    let features = FeatureCache::new(&p.world.chain, &p.dataset);
    let mut t = Table::new(vec!["Family", "ETH entry (measured)", "ETH entry (paper)", "Tokens (both)"]);
    for (name, paper_eth, paper_tok) in paper::TABLE3 {
        let measured = p
            .clustering
            .by_name(name)
            .map(|fam| contract_profile_with(&p.world.chain, fam, &features))
            .and_then(|prof| prof.eth_entry)
            .unwrap_or_else(|| "<family not found>".into());
        t.row(vec![name.to_owned(), measured, paper_eth.to_owned(), paper_tok.to_owned()]);
    }
    format!("Table 3 — Phishing Functions in Dominant Family Contracts\n{}", t.render())
}

/// Table 4: top-10 TLDs of detected phishing domains.
pub fn render_table4(w: &WebsitePipelineResult) -> String {
    let tlds = w.report.tld_table();
    let measured = tlds.top(10);
    let mut t = Table::new(vec!["Rank", "TLD (measured)", "% (measured)", "TLD (paper)", "% (paper)"]);
    for i in 0..10 {
        let (mt, mp) = measured.get(i).map(|(t, p)| (*t, *p)).unwrap_or(("-", 0.0));
        let (pt, pp) = paper::TABLE4[i];
        t.row(vec![
            (i + 1).to_string(),
            mt.to_owned(),
            format!("{mp:.1}"),
            pt.to_owned(),
            format!("{pp:.1}"),
        ]);
    }
    format!("Table 4 — Top 10 TLDs in Phishing Domains ({} domains)\n{}", tlds.total, t.render())
}

/// Figure 4: a worked example of one profit-sharing transaction.
pub fn render_fig4(p: &Pipeline, m: &Measured<'_>) -> String {
    // Pick the highest-value ETH observation for drama, like the paper's
    // 27.1 ETH example.
    let Some(inc) = m
        .ctx
        .incidents()
        .iter()
        .filter(|i| matches!(p.world.chain.tx(i.tx).transfers().next().map(|t| t.asset), Some(daas_chain::Asset::Eth)))
        .max_by(|a, b| a.usd.partial_cmp(&b.usd).expect("finite"))
    else {
        return "no incidents".into();
    };
    let tx = p.world.chain.tx(inc.tx);
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 4 — Example Profit-sharing Transaction\n  tx {} at {}\n",
        tx.hash(),
        format_date(tx.timestamp())
    ));
    for t in tx.transfers() {
        out.push_str(&format!(
            "  transfer {:>12} wei-units  {} -> {}\n",
            t.amount.to_string(),
            t.from.short(),
            t.to.short()
        ));
    }
    out.push_str(&format!(
        "  victim {} lost {} ; operator {} took {} ({} bps), affiliate {} took {}\n",
        inc.victim.short(),
        usd(inc.usd),
        inc.operator.short(),
        usd(inc.operator_usd),
        inc.ratio_bps,
        inc.affiliate.short(),
        usd(inc.affiliate_usd),
    ));
    out
}

/// Figure 6: victim loss distribution.
pub fn render_fig6(m: &Measured<'_>) -> String {
    let report = &m.reports.victims;
    let mut t = Table::new(vec!["Loss bucket", "Victims", "% (measured)", "% (paper)"]);
    for (i, (label, count, pct)) in report.loss_buckets.iter().enumerate() {
        t.row(vec![
            label.clone(),
            count.to_string(),
            format!("{pct:.1}"),
            format!("{:.1}", paper::FIG6[i]),
        ]);
    }
    format!(
        "Figure 6 — Distribution of Victim Account Losses ({} victims, {} total)\n{}\nBelow $1,000: {:.1}% (paper: {:.1}%)   victims/day: {:.1} (paper: >100 at full scale)\n",
        report.victims,
        usd(report.total_usd),
        t.render(),
        report.below_1k_pct,
        paper::FIG6_BELOW_1K,
        report.victims_per_day,
    )
}

/// Figure 7: affiliate profit distribution.
pub fn render_fig7(m: &Measured<'_>) -> String {
    let report = &m.reports.affiliates;
    let mut t = Table::new(vec!["Profit bucket", "Affiliates", "% (measured)"]);
    for (label, count, pct) in &report.profit_buckets {
        t.row(vec![label.clone(), count.to_string(), format!("{pct:.1}")]);
    }
    format!(
        "Figure 7 — Distribution of Affiliate Account Profits ({} affiliates, {} total)\n{}\nAbove $1k: {:.1}% (paper: {:.1}%)   above $10k: {:.1}% (paper: {:.1}%)\n",
        report.affiliates,
        usd(report.total_usd),
        t.render(),
        report.above_1k_pct,
        paper::FIG7_ABOVE_1K,
        report.above_10k_pct,
        paper::FIG7_ABOVE_10K,
    )
}

/// §4.3: the profit-sharing ratio histogram.
pub fn render_ratios(m: &Measured<'_>) -> String {
    let mut t = Table::new(vec!["Operator share", "Transactions", "% (measured)", "% (paper)"]);
    for r in &m.reports.ratios {
        let paper_pct = paper::RATIOS_TOP3
            .iter()
            .find(|(bps, _)| *bps == r.bps)
            .map(|(_, pct)| format!("{pct:.1}"))
            .unwrap_or_else(|| "-".into());
        t.row(vec![
            format!("{:.2}%", r.bps as f64 / 100.0),
            r.count.to_string(),
            format!("{:.1}", r.share_pct),
            paper_pct,
        ]);
    }
    format!("§4.3 — Profit-sharing Ratio Distribution\n{}", t.render())
}

/// §6: the scale statistics block.
pub fn render_scale_stats(m: &Measured<'_>, scale: f64) -> String {
    let victims = &m.reports.victims;
    let repeats = &m.reports.repeat_victims;
    let ops = &m.reports.operators;
    let op_lc = &m.reports.operator_lifecycles;
    let affs = &m.reports.affiliates;

    let mut t = Table::new(vec!["Statistic", "Measured", "Paper"]);
    t.row(vec![
        "Victim accounts".into(),
        victims.victims.to_string(),
        scaled(paper::VICTIMS, scale),
    ]);
    t.row(vec![
        "Repeat victims".into(),
        repeats.repeat_victims.to_string(),
        scaled(paper::REPEAT_VICTIMS, scale),
    ]);
    t.row(vec![
        "  … signing simultaneously".into(),
        format!("{:.1}%", repeats.simultaneous_pct),
        format!("{:.1}%", paper::REPEAT_SIMULTANEOUS_PCT),
    ]);
    t.row(vec![
        "  … with unrevoked approvals".into(),
        format!("{:.1}%", repeats.unrevoked_pct),
        format!("{:.1}%", paper::REPEAT_UNREVOKED_PCT),
    ]);
    t.row(vec![
        "Operator profits".into(),
        usd(ops.total_usd),
        usd(paper::OPERATOR_EARNINGS_USD * scale),
    ]);
    t.row(vec![
        "Top-quartile operator share".into(),
        format!("{:.1}% ({} ops, {})", ops.top_quartile_share_pct, ops.top_quartile_count, usd(ops.top_quartile_usd)),
        format!("{:.1}% (14 ops, {})", paper::OPERATOR_TOP25_SHARE_PCT, usd(paper::OPERATOR_TOP14_USD * scale)),
    ]);
    t.row(vec![
        "Inactive operators (>1 month)".into(),
        op_lc.inactive_operators.to_string(),
        scaled(paper::INACTIVE_OPERATORS, scale),
    ]);
    t.row(vec![
        "Operator lifecycle range".into(),
        format!("{:.0}–{:.0} days", op_lc.min_days, op_lc.max_days),
        "2–383 days".into(),
    ]);
    t.row(vec![
        "Affiliate profits".into(),
        usd(affs.total_usd),
        usd(paper::AFFILIATE_EARNINGS_USD * scale),
    ]);
    t.row(vec![
        "Top-7.4% affiliate share".into(),
        format!("{:.1}%", affs.top_7_4_pct_share),
        format!("{:.1}%", paper::AFFILIATE_TOP_SHARE_PCT),
    ]);
    t.row(vec![
        "Affiliates with >10 victims".into(),
        format!("{:.1}%", affs.over_10_victims_pct),
        format!("{:.1}%", paper::AFFILIATES_OVER_10_VICTIMS_PCT),
    ]);
    t.row(vec![
        "Affiliates with 1 operator".into(),
        format!("{:.1}%", affs.single_operator_pct),
        format!("{:.1}%", paper::AFFILIATES_SINGLE_OP_PCT),
    ]);
    t.row(vec![
        "Affiliates with ≤3 operators".into(),
        format!("{:.1}%", affs.up_to_3_operators_pct),
        format!("{:.1}%", paper::AFFILIATES_UP_TO_3_OPS_PCT),
    ]);
    format!("§6 — Scale of DaaS\n{}", t.render())
}

/// §7.2: primary-contract lifecycles, extracted for every family in
/// one forensics pass.
pub fn render_lifecycles(p: &Pipeline, min_txs: usize) -> String {
    let forensics: FamilyForensics = p.forensics(min_txs, 30 * 86_400, collection_end());
    let mut t = Table::new(vec!["Family", "Primary contracts", "Mean lifecycle (measured)", "Paper"]);
    for (name, target) in paper::LIFECYCLES {
        let Some((_, stats)) = forensics.by_name(name) else { continue };
        t.row(vec![
            name.to_owned(),
            stats.contracts.len().to_string(),
            format!("{:.1} days", stats.mean_days),
            format!("{target:.1} days"),
        ]);
    }
    format!("§7.2 — Primary Contract Lifecycles (threshold: >{min_txs} txs)\n{}", t.render())
}

/// §8: community contribution stats.
pub fn render_community(p: &Pipeline, m: &Measured<'_>, w: &WebsitePipelineResult, scale: f64) -> String {
    let cov = daas_reporting::coverage(&p.world.labels, &p.dataset);
    let mut t = Table::new(vec!["Statistic", "Measured", "Paper"]);
    t.row(vec![
        "DaaS accounts pre-labeled".into(),
        format!("{:.1}% ({}/{})", cov.labeled_pct, cov.labeled, cov.total_accounts),
        format!("{:.1}%", paper::PRELABELED_PCT),
    ]);
    t.row(vec![
        "Certificates watched".into(),
        w.certs_watched.to_string(),
        "-".into(),
    ]);
    t.row(vec!["Suspicious domains triaged".into(), w.triaged.to_string(), "-".into()]);
    t.row(vec![
        "Phishing websites confirmed".into(),
        w.report.confirmed.to_string(),
        scaled(paper::WEBSITES_DETECTED, scale),
    ]);
    t.row(vec![
        "Toolkit fingerprints".into(),
        format!("{} (from {} seeds)", w.fingerprints_total, w.fingerprints_seed),
        paper::FINGERPRINTS.to_string(),
    ]);
    t.row(vec![
        "Reachable but clean".into(),
        w.report.clean.to_string(),
        "-".into(),
    ]);
    t.row(vec!["Unreachable".into(), w.report.unreachable.to_string(), "-".into()]);
    // §8.1: reported accounts launder through mixers instead of CEXs.
    let laundering = &m.reports.laundering;
    t.row(vec![
        "Operator outflows via mixers".into(),
        format!(
            "{:.1}% ({} operators)",
            laundering.operator_mixer_pct, laundering.operators_using_mixers
        ),
        "primary laundering path".into(),
    ]);
    t.row(vec![
        "Operator outflows via CEXs".into(),
        format!("{:.1}%", laundering.operator_exchange_pct),
        "blocked for labeled accounts".into(),
    ]);
    let fam_rows = w.report.by_family();
    let by_family = fam_rows
        .iter()
        .take(3)
        .map(|(f, n)| format!("{f}: {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("§8 — Contributing to the Anti-DaaS Community\n{}\nTop families by site count: {by_family}\n", t.render())
}

/// §5.2: dataset validation (precision/recall vs ground truth + the
/// manual-review sampling exercise).
pub fn render_validation(p: &Pipeline, scale: f64) -> String {
    let eval = daas_detector::evaluate(
        &p.dataset,
        &p.world.truth.all_contracts(),
        &p.world.truth.all_operators(),
        &p.world.truth.all_affiliates(),
        &p.world.truth.ps_tx_ids(),
    );
    let sample = daas_detector::validation_sample(&p.world.chain, &p.dataset, 10);
    let mut t = Table::new(vec!["Class", "Precision", "Recall", "FP", "FN"]);
    for (name, s) in [
        ("Contracts", eval.contracts),
        ("Operators", eval.operators),
        ("Affiliates", eval.affiliates),
        ("Transactions", eval.transactions),
    ] {
        t.row(vec![
            name.to_owned(),
            format!("{:.4}", s.precision()),
            format!("{:.4}", s.recall()),
            s.false_positives.to_string(),
            s.false_negatives.to_string(),
        ]);
    }
    let mut v = Table::new(vec!["Review split", "Measured", "Paper×scale"]);
    v.row(vec![
        "Via contracts".into(),
        sample.contract_txs.to_string(),
        scaled(paper::VALIDATION_SPLIT.0, scale),
    ]);
    v.row(vec![
        "Via operators".into(),
        sample.operator_txs.to_string(),
        scaled(paper::VALIDATION_SPLIT.1, scale),
    ]);
    v.row(vec![
        "Via affiliates".into(),
        sample.affiliate_txs.to_string(),
        scaled(paper::VALIDATION_SPLIT.2, scale),
    ]);
    v.row(vec![
        "Total reviewed".into(),
        format!("{} ({:.1}%)", sample.total, sample.coverage_pct),
        format!("{} ({:.1}%)", scaled(paper::VALIDATION_REVIEWED, scale), paper::VALIDATION_COVERAGE_PCT),
    ]);
    format!(
        "§5.2 — Dataset Validation (ground truth; paper: 0 FPs in manual review)\n{}\n§5.2 — Manual-review sampling plan (10 most recent txs per account)\n{}",
        t.render(),
        v.render()
    )
}

/// Monthly activity timeline (victims / incidents / USD per month) with
/// a text sparkline of the USD series.
pub fn render_timeline(m: &Measured<'_>) -> String {
    let series = &m.reports.timeline;
    let max_usd = series.iter().map(|r| r.usd).fold(0.0f64, f64::max).max(1.0);
    let mut t = Table::new(vec!["Month", "Victims", "PS txs", "Stolen", "USD volume"]);
    for row in series {
        let bars = ((row.usd / max_usd) * 30.0).round() as usize;
        t.row(vec![
            row.month.clone(),
            row.victims.to_string(),
            row.incidents.to_string(),
            usd(row.usd),
            "█".repeat(bars.max(1)),
        ]);
    }
    let peak = m.ctx.peak_month();
    format!(
        "Timeline — Monthly DaaS activity
{}
Peak month: {}
",
        t.render(),
        peak.map(|r| format!("{} ({} victims, {})", r.month, r.victims, usd(r.usd)))
            .unwrap_or_else(|| "-".into())
    )
}

/// Generic three-column table for the ablation harness.
pub fn render_ablations(title: &str, headers: [&str; 3], rows: &[(String, String, String)]) -> String {
    let mut t = Table::new(headers.to_vec());
    for (a, b, c) in rows {
        t.row(vec![a.clone(), b.clone(), c.clone()]);
    }
    format!("{title}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["wide-cell", "x"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("wide-cell"));
        // Separator spans the full width.
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn usd_formatting() {
        assert_eq!(usd(12.3e6), "$12.3M");
        assert_eq!(usd(45_600.0), "$45.6k");
        assert_eq!(usd(12.0), "$12");
    }
}
