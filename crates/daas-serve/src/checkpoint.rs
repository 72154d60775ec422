//! Whole-engine checkpoints: every retained byte of live state, keyed
//! by address (never by arena-local interned id), JSON-serialized.
//!
//! The determinism contract (DESIGN.md §13): the world is a pure
//! function of the embedded `WorldConfig`, so a checkpoint carries the
//! config instead of the chain. On restore the world is rebuilt, every
//! address re-interns against the fresh arena (interned ids are
//! assigned in chain-generation order, so equal worlds produce equal
//! ids), and the detector/clusterer/measure states are re-keyed; a
//! checkpoint whose addresses or components the rebuilt state cannot
//! place is refused. Floats are serialized exactly (shortest round-trip
//! formatting, bit-exact parse) because the measurement's running total
//! is an order-dependent sum — recomputing it would be a different
//! number.

use std::fs;
use std::io::Write;
use std::path::Path;

use daas_cluster::ClustererCheckpoint;
use daas_detector::{DetectorCheckpoint, SnowballConfig};
use daas_measure::MeasureCheckpoint;
use daas_world::WorldConfig;
use serde::{Deserialize, Serialize};

/// Serialized engine state: stream position, full component state of
/// every stage, and the configs needed to rebuild the world and caches.
/// Unknown fields are ignored on load, so checkpoints that still carry
/// the retired `shards` field restore unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Format version ([`EngineCheckpoint::VERSION`]).
    pub version: u32,
    /// World generator configuration (the chain is rebuilt, not saved).
    pub config: WorldConfig,
    /// Snowball / classifier configuration.
    pub snowball: SnowballConfig,
    /// Publication epoch at checkpoint time.
    pub epoch: u64,
    /// Windows ingested so far (continues the window index sequence).
    pub windows: usize,
    /// Online detector state (cursor, dataset, first-contact index).
    pub detector: DetectorCheckpoint,
    /// Incremental clusterer state (components, retained edges, votes).
    pub clusterer: ClustererCheckpoint,
    /// Live measurement state (incidents, exact running total).
    pub measure: MeasureCheckpoint,
}

impl EngineCheckpoint {
    /// Current checkpoint format version.
    pub const VERSION: u32 = 1;

    /// Serializes to JSON.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Writes the checkpoint to `path`, returning the byte size (also
    /// published as the `serve.checkpoint.bytes` gauge). The JSON goes
    /// to a synced temporary file in the same directory, which is then
    /// renamed over `path` and the directory synced: a concurrent
    /// [`EngineCheckpoint::load`] reads the old checkpoint or the new
    /// one, never a torn file, and a crash mid-write leaves the old one
    /// in place.
    pub fn save(&self, path: &Path) -> Result<u64, String> {
        let json = self.to_json()?;
        let name = path.file_name().ok_or_else(|| format!("write {}: no file name", path.display()))?;
        let tmp = path.with_file_name(format!(
            ".{}.{}.tmp",
            name.to_string_lossy(),
            std::process::id()
        ));
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        let written = fs::File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(json.as_bytes())?;
                file.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, path))
            .and_then(|()| fs::File::open(dir)?.sync_all());
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(format!("write {}: {e}", path.display()));
        }
        let bytes = json.len() as u64;
        if daas_obs::enabled() {
            daas_obs::gauge("serve.checkpoint.bytes", bytes as f64);
        }
        Ok(bytes)
    }

    /// Reads a checkpoint back from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let json =
            fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&json)
    }
}
