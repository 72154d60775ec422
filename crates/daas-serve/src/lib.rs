//! The live DaaS pipeline as a long-running intelligence service.
//!
//! [`Engine`] owns the full streaming chain — online detector,
//! incremental clusterer, live measurement, the chain arena and the
//! shared classification table — ingests sealed-block windows, and
//! publishes an immutable [`Snapshot`] per epoch through the
//! lock-lite [`SnapshotCell`]. Readers (the daemon's socket threads,
//! wallet-guard's live client, tests) answer address-risk, family,
//! victim-loss and §6-stat queries from snapshots without ever blocking
//! the ingest thread.
//!
//! [`EngineCheckpoint`] records the engine's stream position (its
//! cursor, with a fingerprint of the chain) and the configs; a restarted
//! daemon regenerates the world, replays it to the cursor in one window
//! and converges to artifacts byte-identical to an uninterrupted run
//! (DESIGN.md §13).
//!
//! The `daas-serve` binary wraps all of this in a JSONL protocol over
//! stdin/stdout and an optional Unix socket ([`protocol`], [`serve`]),
//! plus a live telemetry layer (DESIGN.md §15): a Prometheus scrape
//! listener with health/readiness endpoints ([`spawn_scrape`]), a
//! bounded structured event journal and SLO evaluation ([`Telemetry`]),
//! all built on `daas_obs`'s non-destructive interval snapshots so
//! scraping can never perturb drained end-of-run artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod engine;
pub mod protocol;
mod scrape;
mod server;
mod snapshot;
pub mod telemetry;

pub use checkpoint::{ChainFingerprint, EngineCheckpoint, StreamCursor};
pub use engine::{Engine, LiveWindowStats};
pub use scrape::spawn_scrape;
pub use server::{answer_live, handle_control, serve, ServeOptions};
pub use snapshot::{
    AddressRisk, Snapshot, SnapshotCell, ROLE_AFFILIATE, ROLE_CONTRACT, ROLE_OPERATOR,
};
pub use telemetry::{Event, Telemetry, JOURNAL_CAPACITY};
