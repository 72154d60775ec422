//! An in-memory, deterministic Ethereum ledger substrate.
//!
//! The DaaS measurement pipeline (detector → cluster → measure) consumes
//! exactly what a block explorer / archive node offers: per-account
//! transaction history, per-transaction fund flows (internal transfers),
//! token approvals, and block timestamps. This crate provides that surface
//! over a fully simulated ledger:
//!
//! * [`Chain`] — the ledger: accounts, blocks, transactions, ERC-20/721
//!   state, and an execution engine for the typed actions the ecosystem
//!   simulator emits (ETH drains, ERC-20 approval+drain, NFT drain+sale,
//!   and a zoo of benign traffic shapes).
//! * [`ProfitSharingSpec`] — the semantics of a drainer profit-sharing
//!   contract (Listing 1/3 of the paper): a payable entry point that
//!   forwards fixed basis-point shares to the operator and affiliate, and
//!   a `multicall` used to sweep ERC-20/NFT loot.
//! * [`LabelStore`] — explorer-style address labels (`Fake_Phishing…`)
//!   from multiple sources, used for seeding and for clustering.
//!
//! Design notes (per the workspace networking guides): the chain is a
//! poll-free, event-free *value machine* — callers push actions, the chain
//! appends immutable facts. All errors are explicit ([`ChainError`]);
//! nothing panics on user input; everything is reproducible from the
//! caller's seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod account;
mod asset;
mod block;
mod chain;
mod error;
mod labels;
mod memo;
mod store;
mod tx;

pub use account::{AccountKind, ContractKind, EntryStyle, ProfitSharingSpec};
pub use asset::{Asset, TokenKind, TokenMeta};
pub use block::{
    block_number_at, days_between, format_date, format_year_month, month_start, unix_from_civil,
    BlockHeader, BlockNumber, Timestamp, GENESIS_TIMESTAMP, SECONDS_PER_BLOCK,
};
pub use chain::{Chain, ChainStats};
pub use error::ChainError;
pub use labels::{Label, LabelCategory, LabelSource, LabelStore};
pub use memo::{MemoStats, ShardKey, ShardedMemo};
pub use store::{AssetRef, TransferColumns, TxStore, TxStoreIter, TxView};
pub use tx::{Approval, CallInfo, Transaction, Transfer, TxId};
