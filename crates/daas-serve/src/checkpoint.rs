//! Engine checkpoints: where the stream stood, not what it held.
//!
//! Everything the live stages hold is a deterministic function of the
//! chain prefix they have read (DESIGN.md §13). The world is a pure
//! function of the embedded `WorldConfig`; the detector emits the same
//! event stream at every poll size; the clusterer's snapshot equals
//! `cluster_prefix` at every boundary; and the live measurement folds
//! that stream in arrival order. So a checkpoint carries the configs,
//! the publication counters and the detector's cursor, and
//! [`crate::Engine::restore`] rebuilds the world and replays the chain
//! to the cursor in one window. A fingerprint of the chain the cursor
//! was taken on lets restore refuse a checkpoint the rebuilt chain does
//! not match.

use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::Path;

use daas_chain::{Chain, TxId};
use daas_detector::SnowballConfig;
use daas_world::WorldConfig;
use eth_types::H256;
use serde::{Deserialize, Serialize};

/// A serialized stream position plus the configs needed to rebuild the
/// world and caches. Version 1 also carried the detector, clusterer and
/// measurement state; unknown fields are ignored on load, so a
/// version-1 file parses into this struct without that state and
/// restores from its cursor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Format version ([`EngineCheckpoint::VERSION`]; version 1 still
    /// restores).
    pub version: u32,
    /// World generator configuration (the chain is rebuilt, not saved).
    pub config: WorldConfig,
    /// Snowball / classifier configuration.
    pub snowball: SnowballConfig,
    /// Publication epoch at checkpoint time.
    pub epoch: u64,
    /// Windows ingested so far (continues the window index sequence).
    pub windows: usize,
    /// The detector's cursor, under the key version 1 wrote it.
    pub detector: StreamCursor,
    /// The chain the cursor was taken on: required from version 2,
    /// absent in version 1.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub chain: Option<ChainFingerprint>,
}

/// The stream position a checkpoint resumes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamCursor {
    /// Transactions ingested (exclusive upper bound), on a block
    /// boundary.
    pub cursor: TxId,
}

/// What identifies the chain a cursor was taken on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainFingerprint {
    /// Transactions in the whole chain.
    pub txs: u64,
    /// Blocks in the whole chain.
    pub blocks: u64,
    /// Hash of the last transaction before the cursor (zero at cursor 0).
    pub last_tx_hash: H256,
}

impl ChainFingerprint {
    /// The fingerprint of `chain` at `cursor`, which must not lie past
    /// the chain's last transaction.
    pub(crate) fn of(chain: &Chain, cursor: TxId) -> Self {
        ChainFingerprint {
            txs: chain.transactions().len() as u64,
            blocks: chain.blocks().len() as u64,
            last_tx_hash: cursor.checked_sub(1).map_or(H256::ZERO, |last| chain.tx(last).hash()),
        }
    }
}

impl EngineCheckpoint {
    /// Current checkpoint format version.
    pub const VERSION: u32 = 2;

    /// Refuses a version this build does not read, and a version-2
    /// checkpoint without its chain fingerprint. Needs no world, so
    /// restore checks it before the build.
    pub(crate) fn check_format(&self) -> Result<(), String> {
        match (self.version, &self.chain) {
            (1, _) | (2, Some(_)) => Ok(()),
            (2, None) => Err("checkpoint version 2 has no chain fingerprint (field chain)".into()),
            (version, _) => {
                Err(format!("checkpoint version {version} (this build reads versions 1 and 2)"))
            }
        }
    }

    /// The index of the block the stream resumes at on `chain`, the
    /// rebuilt chain. Refuses, naming the field, a fingerprint count
    /// the chain does not match, a cursor past the chain's last
    /// transaction or off a block boundary, and a fingerprint hash the
    /// transaction before the cursor does not match.
    pub(crate) fn resume_block(&self, chain: &Chain) -> Result<usize, String> {
        let cursor = self.detector.cursor;
        let txs = chain.transactions().len();
        let mismatch = |field: &str, saved: &dyn Display, rebuilt: &dyn Display| {
            format!("checkpoint chain.{field} {saved} does not match the rebuilt chain's {rebuilt}")
        };
        if let Some(saved) = &self.chain {
            if saved.txs != txs as u64 {
                return Err(mismatch("txs", &saved.txs, &txs));
            }
            if saved.blocks != chain.blocks().len() as u64 {
                return Err(mismatch("blocks", &saved.blocks, &chain.blocks().len()));
            }
        }
        if cursor as usize > txs {
            return Err(format!(
                "checkpoint detector.cursor {cursor} is past the chain's last transaction \
                 ({txs} transactions)"
            ));
        }
        // Blocks hold at least one transaction each, so the cursor is on
        // a boundary exactly when it is where the first block it has not
        // finished starts.
        let blocks = chain.blocks();
        let next = blocks.partition_point(|b| b.first_tx + b.tx_count <= cursor);
        if let Some(block) = blocks.get(next).filter(|b| b.first_tx != cursor) {
            return Err(format!(
                "checkpoint detector.cursor {cursor} is not on a block boundary (block {} \
                 holds transactions {}..{})",
                block.number,
                block.first_tx,
                block.first_tx + block.tx_count
            ));
        }
        if let Some(saved) = &self.chain {
            let rebuilt = ChainFingerprint::of(chain, cursor).last_tx_hash;
            if saved.last_tx_hash != rebuilt {
                return Err(mismatch("last_tx_hash", &saved.last_tx_hash, &rebuilt));
            }
        }
        Ok(next)
    }

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
