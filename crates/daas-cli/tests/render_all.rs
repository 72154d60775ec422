//! Renderer smoke tests: every experiment renders without panicking on
//! a tiny world, and the output carries the paper-vs-measured anchors.

use std::sync::OnceLock;

use daas_cli::{
    render_community, render_fig4, render_fig6, render_fig7, render_lifecycles, render_ratios,
    render_scale_stats, render_table1, render_table2, render_table3, render_table4,
    render_validation, run_pipeline, run_website_pipeline, Measured, Pipeline,
    WebsitePipelineResult,
};
use daas_detector::SnowballConfig;
use daas_world::WorldConfig;

struct Fix {
    pipeline: Pipeline,
    web: WebsitePipelineResult,
}

fn fix() -> &'static Fix {
    static F: OnceLock<Fix> = OnceLock::new();
    F.get_or_init(|| {
        let pipeline =
            run_pipeline(&WorldConfig::tiny(13), &SnowballConfig::default()).expect("pipeline");
        let web = run_website_pipeline(&pipeline.world, 0.8);
        Fix { pipeline, web }
    })
}

fn measured() -> Measured<'static> {
    fix().pipeline.measured()
}

#[test]
fn every_renderer_produces_output() {
    let f = fix();
    let scale = 0.01;
    let m = measured();
    let outputs = [
        render_table1(&f.pipeline, scale),
        render_table2(&f.pipeline, &m, scale),
        render_table3(&f.pipeline),
        render_table4(&f.web),
        render_fig4(&f.pipeline, &m),
        render_fig6(&m),
        render_fig7(&m),
        render_ratios(&m),
        render_scale_stats(&m, scale),
        render_lifecycles(&f.pipeline, 5),
        render_community(&f.pipeline, &m, &f.web, scale),
        render_validation(&f.pipeline, scale),
    ];
    for (i, out) in outputs.iter().enumerate() {
        assert!(out.len() > 80, "renderer {i} produced almost nothing: {out:?}");
        assert!(out.lines().count() >= 3, "renderer {i} too short");
    }
}

#[test]
fn table1_carries_both_columns() {
    let f = fix();
    let out = render_table1(&f.pipeline, 0.01);
    assert!(out.contains("Seed (measured)"));
    assert!(out.contains("Expanded (paper×scale)"));
    assert!(out.contains("Profit-sharing Transactions"));
}

#[test]
fn table3_matches_paper_wording_even_at_tiny_scale() {
    let f = fix();
    let out = render_table3(&f.pipeline);
    assert!(out.contains("a payable function named Claim"));
    assert!(out.contains("a payable fallback function"));
    assert!(out.contains("a Multicall function"));
}

#[test]
fn fig6_percentages_are_sane() {
    let out = render_fig6(&measured());
    assert!(out.contains("less than $100"));
    assert!(out.contains("(paper: 83.5%)"));
}

#[test]
fn validation_reports_perfect_scores_on_clean_world() {
    let f = fix();
    let out = render_validation(&f.pipeline, 0.01);
    assert!(out.contains("1.0000"), "expected perfect precision/recall:\n{out}");
}

#[test]
fn pipeline_timings_populated() {
    let f = fix();
    let (w, s, c) = f.pipeline.timings;
    assert!(w.as_nanos() > 0 && s.as_nanos() > 0 && c.as_nanos() > 0);
}
