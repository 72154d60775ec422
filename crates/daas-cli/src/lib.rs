//! The experiment harness library: one call to run the full pipeline,
//! one function per paper table/figure to render it with
//! paper-vs-measured columns.
//!
//! `daas-lab --exp NAME` prints each table and figure through these
//! renderers; the bench crate's harnesses reuse the pipeline drivers
//! for the studies `daas-lab` does not run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;
mod pipeline;
mod render;
mod websites;

pub use pipeline::{run_pipeline, LiveRun, LiveWindowStats, Measured, Pipeline};
pub use render::{
    render_ablations, render_community, render_fig4, render_fig6, render_fig7,
    render_lifecycles, render_ratios, render_scale_stats, render_table1, render_table2,
    render_table3, render_table4, render_timeline, render_validation,
};
pub use websites::{run_website_pipeline, WebsitePipelineResult};
