//! Ethereum primitive types for the `daas-lab` workspace.
//!
//! This crate is the dependency-free foundation of the workspace. It
//! provides the value types every other crate speaks in:
//!
//! * [`U256`] — full 256-bit unsigned arithmetic (add/sub/mul/div/rem,
//!   shifts, bit ops, decimal and hex codecs), implemented from scratch
//!   on four little-endian `u64` limbs.
//! * [`H256`] / [`Address`] — 32-byte hashes and 20-byte account
//!   addresses, with hex formatting compatible with block explorers.
//! * [`keccak256`] — the Keccak-256 hash (the pre-NIST padding variant
//!   Ethereum uses), needed to derive contract addresses and transaction
//!   hashes exactly the way mainnet does.
//! * [`rlp`] — the minimal subset of RLP encoding required for `CREATE`
//!   address derivation.
//! * [`units`] — wei/gwei/ether conversions and display helpers.
//! * [`FxHasher`] / [`FxHashMap`] / [`FxHashSet`] — the deterministic
//!   multiply-xor hash every crate's internal maps use.
//!
//! Everything here is deterministic and allocation-light, in keeping with
//! the event-driven, no-surprises style of the networking guides this
//! workspace follows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod fxhash;
mod hash;
mod hexcodec;
mod intern;
pub mod rlp;
mod u256;
pub mod units;

pub use address::Address;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{AddrId, AddrInterner, AddrRanks};
pub use hash::{keccak256, H256};
pub use hexcodec::{decode_hex, encode_hex, HexError};
pub use u256::{ParseU256Error, U256};
