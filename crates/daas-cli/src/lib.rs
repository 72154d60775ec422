//! The experiment harness library: one call to run the full pipeline,
//! one function per paper table/figure to render it with
//! paper-vs-measured columns.
//!
//! Used by the `daas-lab` binary and by every `exp_*` harness in the
//! bench crate, so all experiments share the same code path.

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
