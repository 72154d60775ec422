//! The ledger: state, execution engine, and explorer-style query API.

use std::collections::BTreeMap;
use std::sync::Arc;

use eth_types::{AddrId, Address, FxHashMap, FxHashSet, U256};
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

use crate::account::{AccountKind, ContractKind, EntryStyle, ProfitSharingSpec};
use crate::asset::{Asset, TokenKind, TokenMeta};
use crate::block::{
    block_number_at, BlockHeader, Timestamp, GENESIS_TIMESTAMP, SECONDS_PER_BLOCK,
};
use crate::error::ChainError;
use crate::store::{TxStore, TxView};
use crate::tx::{Approval, Transaction, Transfer, TxId};

/// Per-account ledger record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AccountInfo {
    kind: AccountKind,
    nonce: u64,
    balance: U256,
    created_at: Timestamp,
}

/// Aggregate counters, handy for sanity checks and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChainStats {
    /// Number of accounts (EOA + contract).
    pub accounts: usize,
    /// Number of contract accounts.
    pub contracts: usize,
    /// Number of confirmed transactions.
    pub transactions: usize,
    /// Number of sealed blocks.
    pub blocks: usize,
}

/// The simulated ledger. See the crate docs for the design rationale.
///
/// All mutating methods are transactional: on error, no state changes and
/// no transaction is recorded.
///
/// Storage is columnar since the interned-address refactor: transactions
/// live in a [`TxStore`] arena and every hot map (asset state) is keyed
/// by interned [`AddrId`]s; the history is a vector indexed by them.
/// Every map is a plain Fx-hashed table (deterministic hasher, no
/// shards), so a clone deep-copies the whole ledger. The serialized
/// artifact is **byte-identical** to the
/// pre-columnar format — the manual serde impls below materialize
/// transactions, resolve every id back to its address (ids are
/// instance-local and never reach disk) and sort every map.
#[derive(Debug, Clone, Default)]
pub struct Chain {
    now: Timestamp,
    blocks: Vec<BlockHeader>,
    store: TxStore,
    accounts: FxHashMap<Address, AccountInfo>,
    tokens: FxHashMap<Address, TokenMeta>,
    erc20_balances: FxHashMap<(AddrId, AddrId), U256>,
    erc20_allowances: FxHashMap<(AddrId, AddrId, AddrId), U256>,
    nft_owners: FxHashMap<(AddrId, u64), AddrId>,
    nft_operators: FxHashSet<(AddrId, AddrId, AddrId)>,
    /// Per-account transaction ids in chain order, indexed by
    /// [`AddrId`]. Addresses interned without a transaction (asset
    /// state only) have an empty list, or none past the last id a
    /// transaction touched.
    history: Vec<Vec<TxId>>,
    /// Scratch for the ids one transaction touches, reused across
    /// transactions.
    touched: Vec<AddrId>,
    /// The entry selector and function name of each profit-sharing
    /// contract with a named entry point, hashed once at deploy. Derived
    /// from `accounts`, so it is never serialized.
    entry_points: FxHashMap<Address, EntryPoint>,
}

/// A named entry point: its selector and its shared name, so a call
/// records the name without copying it.
type EntryPoint = ([u8; 4], Arc<str>);

/// The named entry point of a profit-sharing contract, if it has one.
fn entry_point(kind: &AccountKind) -> Option<EntryPoint> {
    let entry = &kind.profit_sharing()?.entry;
    let EntryStyle::NamedPayable(name) = entry else { return None };
    Some((entry.selector()?, Arc::from(name.as_str())))
}

impl Chain {
    /// Creates an empty chain at [`GENESIS_TIMESTAMP`].
    pub fn new() -> Self {
        Chain { now: GENESIS_TIMESTAMP, ..Default::default() }
    }

    // ------------------------------------------------------------------
    // Time.
    // ------------------------------------------------------------------

    /// Current chain time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Sets the chain clock. Time must not go backwards.
    pub fn set_time(&mut self, ts: Timestamp) -> Result<(), ChainError> {
        if ts < self.now {
            return Err(ChainError::TimeWentBackwards { now: self.now, requested: ts });
        }
        self.now = ts;
        Ok(())
    }

    /// Advances the clock by `seconds`.
    pub fn advance(&mut self, seconds: u64) {
        self.now += seconds;
    }

    // ------------------------------------------------------------------
    // Account management (genesis/faucet operations: no tx recorded).
    // ------------------------------------------------------------------

    /// Registers a fresh EOA derived from `seed`. Idempotent on the
    /// address space: re-registering an existing address is an error.
    pub fn create_eoa(&mut self, seed: &[u8]) -> Result<Address, ChainError> {
        let address = Address::from_key_seed(seed);
        self.register(address, AccountKind::Eoa)?;
        Ok(address)
    }

    /// Registers an EOA and credits it with `balance` wei.
    pub fn create_eoa_funded(&mut self, seed: &[u8], balance: U256) -> Result<Address, ChainError> {
        let address = self.create_eoa(seed)?;
        self.mint_eth(address, balance)?;
        Ok(address)
    }

    /// Faucet: credits ETH out of thin air (world-generation only).
    pub fn mint_eth(&mut self, address: Address, amount: U256) -> Result<(), ChainError> {
        let info = self.accounts.get_mut(&address).ok_or(ChainError::UnknownAccount(address))?;
        info.balance = info.balance.saturating_add(amount);
        Ok(())
    }

    /// Faucet: credits ERC-20 balance out of thin air.
    pub fn mint_erc20(
        &mut self,
        token: Address,
        to: Address,
        amount: U256,
    ) -> Result<(), ChainError> {
        self.expect_token(token, TokenKind::Erc20)?;
        self.expect_account(to)?;
        let key = (self.store.intern(token), self.store.intern(to));
        let entry = self.erc20_balances.entry(key).or_insert(U256::ZERO);
        *entry = entry.saturating_add(amount);
        Ok(())
    }

    /// Faucet: mints an NFT to `to`.
    pub fn mint_nft(&mut self, token: Address, to: Address, id: u64) -> Result<(), ChainError> {
        self.expect_token(token, TokenKind::Erc721)?;
        self.expect_account(to)?;
        let key = (self.store.intern(token), id);
        let owner = self.store.intern(to);
        self.nft_owners.insert(key, owner);
        Ok(())
    }

    /// Deploys a contract from `deployer` (consumes a nonce, records a
    /// creation transaction, derives the address via `CREATE`).
    pub fn deploy_contract(
        &mut self,
        deployer: Address,
        kind: ContractKind,
    ) -> Result<Address, ChainError> {
        if let ContractKind::ProfitSharing(spec) = &kind {
            if spec.operator_bps == 0 || spec.operator_bps >= 10_000 {
                return Err(ChainError::InvalidBps(spec.operator_bps));
            }
        }
        let nonce = {
            let info =
                self.accounts.get_mut(&deployer).ok_or(ChainError::UnknownAccount(deployer))?;
            let n = info.nonce;
            info.nonce += 1;
            n
        };
        let address = Address::create(deployer, nonce);
        let kind = AccountKind::Contract(kind);
        let entry = entry_point(&kind);
        self.register(address, kind)?;
        if let Some(entry) = entry {
            self.entry_points.insert(address, entry);
        }
        self.record_tx(deployer, None, U256::ZERO, None, None, &[], &[], Some(address));
        Ok(address)
    }

    /// Deploys and registers a token contract.
    pub fn deploy_token(
        &mut self,
        deployer: Address,
        symbol: &str,
        decimals: u8,
        kind: TokenKind,
    ) -> Result<Address, ChainError> {
        let address = self.deploy_contract(deployer, ContractKind::Token(kind))?;
        self.tokens.insert(
            address,
            TokenMeta { symbol: symbol.to_owned(), decimals, kind },
        );
        Ok(address)
    }

    fn register(&mut self, address: Address, kind: AccountKind) -> Result<(), ChainError> {
        if self.accounts.contains_key(&address) {
            return Err(ChainError::AccountExists(address));
        }
        self.accounts.insert(
            address,
            AccountInfo { kind, nonce: 0, balance: U256::ZERO, created_at: self.now },
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// ETH balance of an account (zero for unknown addresses, like a node).
    pub fn eth_balance(&self, address: Address) -> U256 {
        self.accounts.get(&address).map(|i| i.balance).unwrap_or(U256::ZERO)
    }

    /// ERC-20 balance.
    pub fn erc20_balance(&self, token: Address, holder: Address) -> U256 {
        match (self.store.addr_id(token), self.store.addr_id(holder)) {
            (Some(t), Some(h)) => {
                self.erc20_balances.get(&(t, h)).copied().unwrap_or(U256::ZERO)
            }
            _ => U256::ZERO,
        }
    }

    /// Current ERC-20 allowance.
    pub fn erc20_allowance(&self, token: Address, owner: Address, spender: Address) -> U256 {
        match (
            self.store.addr_id(token),
            self.store.addr_id(owner),
            self.store.addr_id(spender),
        ) {
            (Some(t), Some(o), Some(s)) => self.erc20_allowance_id(t, o, s),
            _ => U256::ZERO,
        }
    }

    /// [`Chain::erc20_allowance`] of interned accounts.
    pub fn erc20_allowance_id(&self, token: AddrId, owner: AddrId, spender: AddrId) -> U256 {
        self.erc20_allowances.get(&(token, owner, spender)).copied().unwrap_or(U256::ZERO)
    }

    /// Owner of an NFT, if it exists.
    pub fn nft_owner(&self, token: Address, id: u64) -> Option<Address> {
        let t = self.store.addr_id(token)?;
        self.nft_owners.get(&(t, id)).map(|&owner| self.store.resolve(owner))
    }

    /// `true` if `operator` is approved for all of `owner`'s NFTs in
    /// `token`.
    pub fn nft_approved_for_all(&self, token: Address, owner: Address, operator: Address) -> bool {
        match (
            self.store.addr_id(token),
            self.store.addr_id(owner),
            self.store.addr_id(operator),
        ) {
            (Some(t), Some(o), Some(p)) => self.nft_approved_for_all_id(t, o, p),
            _ => false,
        }
    }

    /// [`Chain::nft_approved_for_all`] of interned accounts.
    pub fn nft_approved_for_all_id(&self, token: AddrId, owner: AddrId, operator: AddrId) -> bool {
        self.nft_operators.contains(&(token, owner, operator))
    }

    /// `(owner, spender)` of every live approval: each non-zero ERC-20
    /// allowance and each NFT operator approval, in no fixed order (a
    /// pair repeats once per token). Every one was set by an
    /// [`Chain::approve_erc20`] or [`Chain::approve_nft_all`]
    /// transaction of its owner.
    pub fn live_approvals(&self) -> impl Iterator<Item = (AddrId, AddrId)> + '_ {
        let erc20 = self.erc20_allowances.iter().filter(|(_, amount)| !amount.is_zero());
        let erc20 = erc20.map(|(&(_, owner, spender), _)| (owner, spender));
        erc20.chain(self.nft_operators.iter().map(|&(_, owner, operator)| (owner, operator)))
    }

    /// Account kind, if the account exists.
    pub fn account_kind(&self, address: Address) -> Option<&AccountKind> {
        self.accounts.get(&address).map(|i| &i.kind)
    }

    /// `true` if the address is a contract account.
    pub fn is_contract(&self, address: Address) -> bool {
        matches!(self.account_kind(address), Some(k) if k.is_contract())
    }

    /// Profit-sharing spec if the address is a drainer contract. This is
    /// *ground truth* — the detector never calls it; only the world
    /// generator and the evaluation harness do.
    pub fn profit_sharing_spec(&self, address: Address) -> Option<&ProfitSharingSpec> {
        self.account_kind(address).and_then(|k| k.profit_sharing())
    }

    /// Token metadata.
    pub fn token_meta(&self, token: Address) -> Option<&TokenMeta> {
        self.tokens.get(&token)
    }

    /// Timestamp an account was first seen (registered) at.
    pub fn account_created_at(&self, address: Address) -> Option<Timestamp> {
        self.accounts.get(&address).map(|i| i.created_at)
    }

    /// Transaction ids touching `address`, in chain order — the
    /// "historical transactions of the account" the snowball sampler
    /// walks (§5.1).
    pub fn txs_of(&self, address: Address) -> &[TxId] {
        match self.store.addr_id(address) {
            Some(id) => self.txs_of_id(id),
            None => &[],
        }
    }

    /// Transaction ids touching the interned account, in chain order —
    /// the zero-hash hot-path form of [`Chain::txs_of`].
    #[inline]
    pub fn txs_of_id(&self, id: AddrId) -> &[TxId] {
        self.history.get(id.index()).map_or(&[], Vec::as_slice)
    }

    /// The interned id of `address`, if the chain has seen it.
    #[inline]
    pub fn addr_id(&self, address: Address) -> Option<AddrId> {
        self.store.addr_id(address)
    }

    /// Resolves an interned id back to its address.
    #[inline]
    pub fn resolve_addr(&self, id: AddrId) -> Address {
        self.store.resolve(id)
    }

    /// Looks up a transaction by id — a cheap `Copy` view into the
    /// columnar arena.
    #[inline]
    pub fn tx(&self, id: TxId) -> TxView<'_> {
        self.store.view(id)
    }

    /// The columnar tx arena: all transactions, in chain order
    /// (`.len()`, `.iter()`, and `IntoIterator` of [`TxView`]s).
    pub fn transactions(&self) -> &TxStore {
        &self.store
    }

    /// Sealed block headers.
    pub fn blocks(&self) -> &[BlockHeader] {
        &self.blocks
    }

    /// Every registered account address (unordered).
    pub fn addresses(&self) -> impl Iterator<Item = Address> + '_ {
        self.accounts.keys().copied()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ChainStats {
        ChainStats {
            accounts: self.accounts.len(),
            contracts: self.accounts.values().filter(|i| i.kind.is_contract()).count(),
            transactions: self.store.len(),
            blocks: self.blocks.len(),
        }
    }

    // ------------------------------------------------------------------
    // Plain transactions.
    // ------------------------------------------------------------------

    /// A plain ETH transfer transaction.
    pub fn transfer_eth(
        &mut self,
        from: Address,
        to: Address,
        value: U256,
    ) -> Result<TxId, ChainError> {
        self.expect_account(to)?;
        self.debit_eth(from, value)?;
        self.credit_eth(to, value);
        let transfers = [Transfer { asset: Asset::Eth, from, to, amount: value }];
        Ok(self.record_tx(from, Some(to), value, None, None, &transfers, &[], None))
    }

    /// An ERC-20 `transfer(to, amount)` transaction.
    pub fn transfer_erc20(
        &mut self,
        from: Address,
        token: Address,
        to: Address,
        amount: U256,
    ) -> Result<TxId, ChainError> {
        self.expect_token(token, TokenKind::Erc20)?;
        self.expect_account(to)?;
        self.move_erc20(token, from, to, amount)?;
        let transfers = [Transfer { asset: Asset::Erc20(token), from, to, amount }];
        let (selector, function) = (Some(TRANSFER), Some("transfer"));
        Ok(self.record_tx(from, Some(token), U256::ZERO, selector, function, &transfers, &[], None))
    }

    /// An ERC-20 `approve(spender, amount)` transaction. `amount == 0`
    /// revokes.
    pub fn approve_erc20(
        &mut self,
        owner: Address,
        token: Address,
        spender: Address,
        amount: U256,
    ) -> Result<TxId, ChainError> {
        self.expect_token(token, TokenKind::Erc20)?;
        self.expect_account(owner)?;
        let key =
            (self.store.intern(token), self.store.intern(owner), self.store.intern(spender));
        if amount.is_zero() {
            self.erc20_allowances.remove(&key);
        } else {
            self.erc20_allowances.insert(key, amount);
        }
        let approvals = [Approval { token, owner, spender, amount }];
        let (selector, function) = (Some(APPROVE), Some("approve"));
        Ok(self.record_tx(owner, Some(token), U256::ZERO, selector, function, &[], &approvals, None))
    }

    /// An ERC-721 `setApprovalForAll(operator, approved)` transaction.
    pub fn approve_nft_all(
        &mut self,
        owner: Address,
        token: Address,
        operator: Address,
        approved: bool,
    ) -> Result<TxId, ChainError> {
        self.expect_token(token, TokenKind::Erc721)?;
        self.expect_account(owner)?;
        let key =
            (self.store.intern(token), self.store.intern(owner), self.store.intern(operator));
        if approved {
            self.nft_operators.insert(key);
        } else {
            self.nft_operators.remove(&key);
        }
        let approvals = [Approval {
            token,
            owner,
            spender: operator,
            amount: if approved { U256::MAX } else { U256::ZERO },
        }];
        let (selector, function) = (Some(SET_APPROVAL_FOR_ALL), Some("setApprovalForAll"));
        Ok(self.record_tx(owner, Some(token), U256::ZERO, selector, function, &[], &approvals, None))
    }

    /// A multi-output ETH transfer (airdrop / payroll / exchange sweep):
    /// benign background traffic with interesting shapes for the
    /// classifier's negative space.
    pub fn multi_transfer_eth(
        &mut self,
        from: Address,
        outputs: &[(Address, U256)],
    ) -> Result<TxId, ChainError> {
        let total: U256 = outputs.iter().map(|(_, v)| *v).sum();
        for (to, _) in outputs {
            self.expect_account(*to)?;
        }
        self.debit_eth(from, total)?;
        let mut transfers = Vec::with_capacity(outputs.len());
        for &(to, value) in outputs {
            self.credit_eth(to, value);
            transfers.push(Transfer { asset: Asset::Eth, from, to, amount: value });
        }
        let (selector, function) = (Some(DISPERSE_ETHER), Some("disperseEther"));
        Ok(self.record_tx(from, Some(from), U256::ZERO, selector, function, &transfers, &[], None))
    }

    /// A DEX swap: `trader` sends ETH to the pool, pool sends tokens back.
    /// Two transfers with *different* sources — a structurally adjacent
    /// negative for the profit-sharing rule.
    pub fn swap_eth_for_token(
        &mut self,
        trader: Address,
        dex: Address,
        token: Address,
        eth_in: U256,
        tokens_out: U256,
    ) -> Result<TxId, ChainError> {
        self.expect_contract_kind(dex, |k| matches!(k, ContractKind::Dex))?;
        self.expect_token(token, TokenKind::Erc20)?;
        self.debit_eth(trader, eth_in)?;
        self.credit_eth(dex, eth_in);
        if let Err(e) = self.move_erc20(token, dex, trader, tokens_out) {
            // Roll back the ETH leg so failure is atomic.
            self.debit_eth(dex, eth_in).expect("rollback of just-credited ETH");
            self.credit_eth(trader, eth_in);
            return Err(e);
        }
        let transfers = [
            Transfer { asset: Asset::Eth, from: trader, to: dex, amount: eth_in },
            Transfer { asset: Asset::Erc20(token), from: dex, to: trader, amount: tokens_out },
        ];
        let (selector, function) = (Some(SWAP_EXACT_ETH_FOR_TOKENS), Some("swapExactETHForTokens"));
        Ok(self.record_tx(trader, Some(dex), eth_in, selector, function, &transfers, &[], None))
    }

    /// A benign payment splitter: `payer` sends `value` to a splitter
    /// contract which forwards fixed basis-point shares to each
    /// recipient. Structurally adjacent to a profit-sharing transaction
    /// (two transfers from one source in fixed proportions) — the hard
    /// negative the paper's expansion guard exists for.
    pub fn split_payment(
        &mut self,
        payer: Address,
        splitter: Address,
        value: U256,
        recipients: &[(Address, u32)],
    ) -> Result<TxId, ChainError> {
        self.expect_contract_kind(splitter, |k| matches!(k, ContractKind::Benign))?;
        let total_bps: u32 = recipients.iter().map(|(_, bps)| *bps).sum();
        if total_bps == 0 || total_bps > 10_000 {
            return Err(ChainError::InvalidBps(total_bps));
        }
        for (to, _) in recipients {
            self.expect_account(*to)?;
        }
        self.debit_eth(payer, value)?;
        let mut transfers = Vec::with_capacity(1 + recipients.len());
        transfers.push(Transfer { asset: Asset::Eth, from: payer, to: splitter, amount: value });
        let mut remaining = value;
        for &(to, bps) in recipients {
            let cut = value.mul_div(U256::from_u64(bps as u64), U256::from_u64(10_000));
            remaining -= cut;
            self.credit_eth(to, cut);
            transfers.push(Transfer { asset: Asset::Eth, from: splitter, to, amount: cut });
        }
        // Rounding dust (and any sub-100% remainder) stays in the splitter.
        self.credit_eth(splitter, remaining);
        let (selector, function) = (Some(RELEASE), Some("release"));
        Ok(self.record_tx(payer, Some(splitter), value, selector, function, &transfers, &[], None))
    }

    // ------------------------------------------------------------------
    // Drainer actions (paper §4.2, Figure 3).
    // ------------------------------------------------------------------

    /// The ETH phishing scenario: the victim invokes the contract's
    /// payable entry point with `value`; the contract immediately forwards
    /// the operator's share to the operator and the rest (minus integer
    /// dust) to `affiliate`. One transaction, three ETH transfers.
    pub fn claim_eth(
        &mut self,
        victim: Address,
        contract: Address,
        value: U256,
        affiliate: Address,
    ) -> Result<TxId, ChainError> {
        let spec =
            self.profit_sharing_spec(contract).ok_or(ChainError::NotProfitSharing(contract))?;
        let (operator, operator_bps) = (spec.operator, spec.operator_bps);
        // A payable fallback has no entry point: no selector, no name.
        let entry = self.entry_points.get(&contract).cloned();
        self.expect_account(affiliate)?;
        self.expect_account(operator)?;
        self.debit_eth(victim, value)?;
        let bps = U256::from_u64(10_000);
        let op_cut = value.mul_div(U256::from_u64(operator_bps as u64), bps);
        let aff_cut = value.mul_div(U256::from_u64((10_000 - operator_bps) as u64), bps);
        // Dust from integer division stays in the contract, like the
        // Solidity in Listing 1.
        self.credit_eth(contract, value - op_cut - aff_cut);
        self.credit_eth(operator, op_cut);
        self.credit_eth(affiliate, aff_cut);
        let transfers = [
            Transfer { asset: Asset::Eth, from: victim, to: contract, amount: value },
            Transfer { asset: Asset::Eth, from: contract, to: operator, amount: op_cut },
            Transfer { asset: Asset::Eth, from: contract, to: affiliate, amount: aff_cut },
        ];
        let selector = entry.as_ref().map(|(selector, _)| *selector);
        let function = entry.as_ref().map(|(_, name)| &**name);
        Ok(self.record_tx(victim, Some(contract), value, selector, function, &transfers, &[], None))
    }

    /// The ERC-20 phishing scenario: the drainer backend (`caller`,
    /// typically the operator EOA) triggers the contract's `multicall`,
    /// which `transferFrom`s the victim's approved tokens in two fixed
    /// shares — one to the operator, one to the affiliate. Requires a
    /// prior [`Chain::approve_erc20`] to `contract`.
    pub fn drain_erc20(
        &mut self,
        caller: Address,
        contract: Address,
        token: Address,
        victim: Address,
        amount: U256,
        affiliate: Address,
    ) -> Result<TxId, ChainError> {
        let spec =
            self.profit_sharing_spec(contract).ok_or(ChainError::NotProfitSharing(contract))?;
        let (operator, operator_bps) = (spec.operator, spec.operator_bps);
        self.expect_token(token, TokenKind::Erc20)?;
        self.expect_account(affiliate)?;
        self.spend_allowance(token, victim, contract, amount)?;
        let bps = U256::from_u64(10_000);
        let op_cut = amount.mul_div(U256::from_u64(operator_bps as u64), bps);
        let aff_cut = amount - op_cut; // token path: no dust, full sweep
        self.move_erc20(token, victim, operator, op_cut)?;
        self.move_erc20(token, victim, affiliate, aff_cut)?;
        let transfers = [
            Transfer { asset: Asset::Erc20(token), from: victim, to: operator, amount: op_cut },
            Transfer { asset: Asset::Erc20(token), from: victim, to: affiliate, amount: aff_cut },
        ];
        let (selector, function) = (Some(MULTICALL), Some("multicall"));
        Ok(self.record_tx(caller, Some(contract), U256::ZERO, selector, function, &transfers, &[], None))
    }

    /// The ERC-20 *permit* phishing scenario (§7.2 lists "ERC20 permit
    /// phishing" among the schemes Multicall dispatches): the victim
    /// signs an off-chain EIP-2612 permit instead of an on-chain
    /// `approve`, so the approval and the sweep land in one transaction
    /// and no standing allowance remains afterwards.
    pub fn drain_erc20_permit(
        &mut self,
        caller: Address,
        contract: Address,
        token: Address,
        victim: Address,
        amount: U256,
        affiliate: Address,
    ) -> Result<TxId, ChainError> {
        let spec =
            self.profit_sharing_spec(contract).ok_or(ChainError::NotProfitSharing(contract))?;
        let (operator, operator_bps) = (spec.operator, spec.operator_bps);
        self.expect_token(token, TokenKind::Erc20)?;
        self.expect_account(affiliate)?;
        // The permit authorises exactly `amount`; it is consumed in full
        // by the sweep, so no allowance entry is created.
        let bps = U256::from_u64(10_000);
        let op_cut = amount.mul_div(U256::from_u64(operator_bps as u64), bps);
        let aff_cut = amount - op_cut;
        self.move_erc20(token, victim, operator, op_cut)?;
        if let Err(e) = self.move_erc20(token, victim, affiliate, aff_cut) {
            // Roll the first leg back so failure is atomic.
            self.move_erc20(token, operator, victim, op_cut)
                .expect("rollback of just-moved tokens");
            return Err(e);
        }
        let transfers = [
            Transfer { asset: Asset::Erc20(token), from: victim, to: operator, amount: op_cut },
            Transfer { asset: Asset::Erc20(token), from: victim, to: affiliate, amount: aff_cut },
        ];
        // The permit itself is visible in the trace as an approval event
        // granted and spent within the transaction.
        let approvals = [Approval { token, owner: victim, spender: contract, amount }];
        let (selector, function) = (Some(MULTICALL), Some("multicall"));
        Ok(self.record_tx(caller, Some(contract), U256::ZERO, selector, function, &transfers, &approvals, None))
    }

    /// The NFT phishing scenario, step 1: sweep the victim's NFT to the
    /// profit-sharing contract via `multicall` (requires a prior
    /// [`Chain::approve_nft_all`] to `contract`).
    pub fn drain_nft(
        &mut self,
        caller: Address,
        contract: Address,
        token: Address,
        victim: Address,
        id: u64,
    ) -> Result<TxId, ChainError> {
        self.profit_sharing_spec(contract).ok_or(ChainError::NotProfitSharing(contract))?;
        self.expect_token(token, TokenKind::Erc721)?;
        let owner =
            self.nft_owner(token, id).ok_or(ChainError::UnknownNft { token, id })?;
        if owner != victim {
            return Err(ChainError::NotNftOwner { token, id, caller: victim });
        }
        if !self.nft_approved_for_all(token, victim, contract) {
            return Err(ChainError::NotNftOwner { token, id, caller: contract });
        }
        let key = (self.store.intern(token), id);
        let new_owner = self.store.intern(contract);
        self.nft_owners.insert(key, new_owner);
        let transfers = [Transfer {
            asset: Asset::Erc721 { token, id },
            from: victim,
            to: contract,
            amount: U256::ONE,
        }];
        let (selector, function) = (Some(MULTICALL), Some("multicall"));
        Ok(self.record_tx(caller, Some(contract), U256::ZERO, selector, function, &transfers, &[], None))
    }

    /// The NFT *zero-value order* scheme (§7.2 lists "NFT Zero-order
    /// purchase" among Multicall's phishing schemes): the victim signs a
    /// marketplace sell order pricing the NFT at zero; the drainer
    /// fulfils it. Like a permit, the authorisation is an off-chain
    /// signature — no on-chain approval precedes the transfer.
    pub fn zero_value_order(
        &mut self,
        caller: Address,
        marketplace: Address,
        token: Address,
        id: u64,
        victim: Address,
        to: Address,
    ) -> Result<TxId, ChainError> {
        self.expect_contract_kind(marketplace, |k| matches!(k, ContractKind::Marketplace))?;
        self.expect_token(token, TokenKind::Erc721)?;
        self.expect_account(to)?;
        let owner = self.nft_owner(token, id).ok_or(ChainError::UnknownNft { token, id })?;
        if owner != victim {
            return Err(ChainError::NotNftOwner { token, id, caller: victim });
        }
        let key = (self.store.intern(token), id);
        let new_owner = self.store.intern(to);
        self.nft_owners.insert(key, new_owner);
        let transfers = [Transfer {
            asset: Asset::Erc721 { token, id },
            from: victim,
            to,
            amount: U256::ONE,
        }];
        let (selector, function) = (Some(FULFILL_ORDER), Some("fulfillOrder"));
        Ok(self.record_tx(caller, Some(marketplace), U256::ZERO, selector, function, &transfers, &[], None))
    }

    /// NFT phishing, step 2: sell an NFT the `seller` account (often the
    /// profit-sharing contract, driven by the operator) holds to a
    /// marketplace for `price` wei. NFTs are indivisible, so they are
    /// liquidated before profit can be shared (§4.2).
    pub fn sell_nft(
        &mut self,
        caller: Address,
        marketplace: Address,
        token: Address,
        id: u64,
        seller: Address,
        price: U256,
    ) -> Result<TxId, ChainError> {
        self.expect_contract_kind(marketplace, |k| matches!(k, ContractKind::Marketplace))?;
        self.expect_token(token, TokenKind::Erc721)?;
        let owner = self.nft_owner(token, id).ok_or(ChainError::UnknownNft { token, id })?;
        if owner != seller {
            return Err(ChainError::NotNftOwner { token, id, caller: seller });
        }
        self.debit_eth(marketplace, price)?;
        let key = (self.store.intern(token), id);
        let new_owner = self.store.intern(marketplace);
        self.nft_owners.insert(key, new_owner);
        self.credit_eth(seller, price);
        let transfers = [
            Transfer { asset: Asset::Erc721 { token, id }, from: seller, to: marketplace, amount: U256::ONE },
            Transfer { asset: Asset::Eth, from: marketplace, to: seller, amount: price },
        ];
        let (selector, function) = (Some(FULFILL_ORDER), Some("fulfillOrder"));
        Ok(self.record_tx(caller, Some(marketplace), U256::ZERO, selector, function, &transfers, &[], None))
    }

    /// NFT phishing, step 3 (and the generic payout path): the operator
    /// triggers the contract to distribute `amount` of its held ETH in the
    /// configured proportions. One transaction, exactly two transfers from
    /// the same source — the canonical profit-sharing shape (Figure 4).
    pub fn distribute_eth(
        &mut self,
        caller: Address,
        contract: Address,
        amount: U256,
        affiliate: Address,
    ) -> Result<TxId, ChainError> {
        let spec =
            self.profit_sharing_spec(contract).ok_or(ChainError::NotProfitSharing(contract))?;
        let (operator, operator_bps) = (spec.operator, spec.operator_bps);
        self.expect_account(affiliate)?;
        self.debit_eth(contract, amount)?;
        let bps = U256::from_u64(10_000);
        let op_cut = amount.mul_div(U256::from_u64(operator_bps as u64), bps);
        let aff_cut = amount - op_cut;
        self.credit_eth(operator, op_cut);
        self.credit_eth(affiliate, aff_cut);
        let transfers = [
            Transfer { asset: Asset::Eth, from: contract, to: operator, amount: op_cut },
            Transfer { asset: Asset::Eth, from: contract, to: affiliate, amount: aff_cut },
        ];
        let (selector, function) = (Some(WITHDRAW), Some("withdraw"));
        Ok(self.record_tx(caller, Some(contract), U256::ZERO, selector, function, &transfers, &[], None))
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn expect_account(&self, address: Address) -> Result<(), ChainError> {
        if self.accounts.contains_key(&address) {
            Ok(())
        } else {
            Err(ChainError::UnknownAccount(address))
        }
    }

    fn expect_token(&self, token: Address, kind: TokenKind) -> Result<(), ChainError> {
        match self.tokens.get(&token) {
            Some(meta) if meta.kind == kind => Ok(()),
            _ => Err(ChainError::UnknownToken(token)),
        }
    }

    fn expect_contract_kind(
        &self,
        address: Address,
        pred: impl Fn(&ContractKind) -> bool,
    ) -> Result<(), ChainError> {
        match self.account_kind(address) {
            Some(AccountKind::Contract(kind)) if pred(kind) => Ok(()),
            _ => Err(ChainError::NotAContract(address)),
        }
    }

    fn debit_eth(&mut self, from: Address, amount: U256) -> Result<(), ChainError> {
        let info = self.accounts.get_mut(&from).ok_or(ChainError::UnknownAccount(from))?;
        if info.balance < amount {
            return Err(ChainError::InsufficientBalance {
                account: from,
                asset: Asset::Eth,
                have: info.balance,
                need: amount,
            });
        }
        info.balance -= amount;
        Ok(())
    }

    fn credit_eth(&mut self, to: Address, amount: U256) {
        if let Some(info) = self.accounts.get_mut(&to) {
            info.balance = info.balance.saturating_add(amount);
        }
    }

    fn move_erc20(
        &mut self,
        token: Address,
        from: Address,
        to: Address,
        amount: U256,
    ) -> Result<(), ChainError> {
        let have = self.erc20_balance(token, from);
        if have < amount {
            return Err(ChainError::InsufficientBalance {
                account: from,
                asset: Asset::Erc20(token),
                have,
                need: amount,
            });
        }
        let t = self.store.intern(token);
        let f = self.store.intern(from);
        let d = self.store.intern(to);
        self.erc20_balances.insert((t, f), have - amount);
        let dst = self.erc20_balances.entry((t, d)).or_insert(U256::ZERO);
        *dst = dst.saturating_add(amount);
        Ok(())
    }

    fn spend_allowance(
        &mut self,
        token: Address,
        owner: Address,
        spender: Address,
        amount: U256,
    ) -> Result<(), ChainError> {
        let have = self.erc20_allowance(token, owner, spender);
        if have < amount {
            return Err(ChainError::InsufficientAllowance { token, owner, spender, have, need: amount });
        }
        if have != U256::MAX {
            let key = (
                self.store.intern(token),
                self.store.intern(owner),
                self.store.intern(spender),
            );
            self.erc20_allowances.insert(key, have - amount);
        }
        Ok(())
    }

    // One parameter per transaction field; bundling them into a struct
    // would just restate the Transaction type. The transaction's hash is
    // not among them: the arena derives it on read (`store::tx_hash`).
    #[allow(clippy::too_many_arguments)]
    fn record_tx(
        &mut self,
        from: Address,
        to: Option<Address>,
        value: U256,
        selector: Option<[u8; 4]>,
        function: Option<&str>,
        transfers: &[Transfer],
        approvals: &[Approval],
        created: Option<Address>,
    ) -> TxId {
        let id = self.store.len() as TxId;

        // Bump the sender's nonce (contract creations bumped it already
        // when deriving the address).
        if created.is_none() {
            if let Some(info) = self.accounts.get_mut(&from) {
                info.nonce += 1;
            }
        }

        // Batched block sealing: transactions append to the open block
        // while `now` stays inside its 12-second slot (one compare —
        // time never goes backwards); a new header is sealed only on
        // slot rollover, which is the only place the slot division runs.
        let block = match self.blocks.last_mut() {
            Some(header)
                if self.now < GENESIS_TIMESTAMP + (header.number + 1) * SECONDS_PER_BLOCK =>
            {
                header.tx_count += 1;
                header.number
            }
            _ => {
                let number = block_number_at(self.now);
                self.blocks.push(BlockHeader {
                    number,
                    timestamp: self.now,
                    first_tx: id,
                    tx_count: 1,
                });
                number
            }
        };

        let recorded = self.store.push_tx(
            block, self.now, from, to, value, selector, function, transfers, approvals, created,
        );
        debug_assert_eq!(recorded, id);
        self.store.touched_ids_into(id, &mut self.touched);
        index_history(&mut self.history, &self.touched, id);
        id
    }
}

/// Appends `id` to the history of every address in `touched` (sorted,
/// deduped), growing the id-indexed table to the largest one.
fn index_history(history: &mut Vec<Vec<TxId>>, touched: &[AddrId], id: TxId) {
    if let Some(last) = touched.last() {
        if history.len() <= last.index() {
            history.resize_with(last.index() + 1, Vec::new);
        }
    }
    for addr_id in touched {
        history[addr_id.index()].push(id);
    }
}

// ----------------------------------------------------------------------
// Serialization: the columnar layout flattens back to the exact bytes
// the pre-columnar (`Vec<Transaction>` + address-keyed maps) derive
// produced. Field order, entry sorting, and key encodings all match;
// ids never appear on disk. Deserialization re-interns in tx order and
// rebuilds the history index from the arena (it is fully derivable).
// ----------------------------------------------------------------------

impl Serialize for Chain {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::Error as _;
        fn val<S: Serializer, T: Serialize + ?Sized>(v: &T) -> Result<Value, S::Error> {
            serde::to_value(v).map_err(S::Error::custom)
        }
        // Address-keyed tables in address order, which is the order of
        // their lowercase hex keys: the bytes a sorted default-hasher
        // `HashMap` field produced.
        fn sorted<V>(map: &FxHashMap<Address, V>) -> BTreeMap<&Address, &V> {
            map.iter().collect()
        }

        // Materialized transactions: identical bytes to the old
        // `Vec<Transaction>` field (one tx at a time — no full vector).
        let mut txs = Vec::with_capacity(self.store.len());
        for id in 0..self.store.len() as TxId {
            txs.push(val::<S, _>(&self.store.to_transaction(id))?);
        }

        // Asset maps: resolve ids to addresses, then emit the entry
        // lists sorted by key, as the pre-columnar address-keyed maps
        // serialized.
        let mut balances: Vec<((Address, Address), &U256)> = self
            .erc20_balances
            .iter()
            .map(|(&(t, h), v)| ((self.store.resolve(t), self.store.resolve(h)), v))
            .collect();
        balances.sort_by(|a, b| a.0.cmp(&b.0));

        let mut allowances: Vec<((Address, Address, Address), &U256)> = self
            .erc20_allowances
            .iter()
            .map(|(&(t, o, s), v)| {
                (
                    (self.store.resolve(t), self.store.resolve(o), self.store.resolve(s)),
                    v,
                )
            })
            .collect();
        allowances.sort_by(|a, b| a.0.cmp(&b.0));

        let mut owners: Vec<((Address, u64), Address)> = self
            .nft_owners
            .iter()
            .map(|(&(t, id), &owner)| ((self.store.resolve(t), id), self.store.resolve(owner)))
            .collect();
        owners.sort_by(|a, b| a.0.cmp(&b.0));

        let mut operators: Vec<(Address, Address, Address)> = self
            .nft_operators
            .iter()
            .map(|&(t, o, p)| (self.store.resolve(t), self.store.resolve(o), self.store.resolve(p)))
            .collect();
        operators.sort();

        // History: the flat address-keyed map, entries sorted by the
        // serialized key string (addresses serialize as lowercase hex,
        // so string order == byte order) — exactly what the HashMap
        // delegate emitted pre-refactor.
        // Ids no transaction touched (asset state only) have no entry.
        let mut history: Vec<(String, Value)> = Vec::with_capacity(self.history.len());
        for (id, txids) in self.history.iter().enumerate() {
            if !txids.is_empty() {
                let address = self.store.interner().addresses()[id];
                history.push((address.to_hex(), val::<S, _>(txids)?));
            }
        }
        history.sort_by(|a, b| a.0.cmp(&b.0));

        serializer.serialize_value(Value::Map(vec![
            ("now".to_owned(), val::<S, _>(&self.now)?),
            ("blocks".to_owned(), val::<S, _>(&self.blocks)?),
            ("txs".to_owned(), Value::Seq(txs)),
            ("accounts".to_owned(), val::<S, _>(&sorted(&self.accounts))?),
            ("tokens".to_owned(), val::<S, _>(&sorted(&self.tokens))?),
            ("erc20_balances".to_owned(), val::<S, _>(&balances)?),
            ("erc20_allowances".to_owned(), val::<S, _>(&allowances)?),
            ("nft_owners".to_owned(), val::<S, _>(&owners)?),
            ("nft_operators".to_owned(), val::<S, _>(&operators)?),
            ("history".to_owned(), Value::Map(history)),
        ]))
    }
}

impl<'de> Deserialize<'de> for Chain {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let mut map =
            serde::expect_map(deserializer.into_value()?, "Chain").map_err(D::Error::custom)?;
        fn field<E: serde::de::Error, T: for<'a> Deserialize<'a>>(
            map: &mut Vec<(String, Value)>,
            name: &str,
        ) -> Result<T, E> {
            serde::take_field(map, name, "Chain")
                .and_then(serde::from_value)
                .map_err(E::custom)
        }

        let now: Timestamp = field::<D::Error, _>(&mut map, "now")?;
        let blocks: Vec<BlockHeader> = field::<D::Error, _>(&mut map, "blocks")?;
        let txs: Vec<Transaction> = field::<D::Error, _>(&mut map, "txs")?;
        let accounts: BTreeMap<Address, AccountInfo> = field::<D::Error, _>(&mut map, "accounts")?;
        let tokens: BTreeMap<Address, TokenMeta> = field::<D::Error, _>(&mut map, "tokens")?;
        let balances: Vec<((Address, Address), U256)> =
            field::<D::Error, _>(&mut map, "erc20_balances")?;
        let allowances: Vec<((Address, Address, Address), U256)> =
            field::<D::Error, _>(&mut map, "erc20_allowances")?;
        let owners: Vec<((Address, u64), Address)> =
            field::<D::Error, _>(&mut map, "nft_owners")?;
        let operators: Vec<(Address, Address, Address)> =
            field::<D::Error, _>(&mut map, "nft_operators")?;
        // The serialized history is fully derivable from the tx arena;
        // rebuilding it below guarantees index/arena consistency.
        let _ = serde::take_field_opt(&mut map, "history");

        let mut store = TxStore::from_transactions(txs);
        let mut history = Vec::new();
        let mut touched = Vec::new();
        for id in 0..store.len() as TxId {
            store.touched_ids_into(id, &mut touched);
            index_history(&mut history, &touched, id);
        }

        let mut erc20_balances = FxHashMap::default();
        for ((t, h), v) in balances {
            erc20_balances.insert((store.intern(t), store.intern(h)), v);
        }
        let mut erc20_allowances = FxHashMap::default();
        for ((t, o, s), v) in allowances {
            erc20_allowances.insert((store.intern(t), store.intern(o), store.intern(s)), v);
        }
        let mut nft_owners = FxHashMap::default();
        for ((t, id), owner) in owners {
            let key = (store.intern(t), id);
            let owner = store.intern(owner);
            nft_owners.insert(key, owner);
        }
        let mut nft_operators = FxHashSet::default();
        for (t, o, p) in operators {
            nft_operators.insert((store.intern(t), store.intern(o), store.intern(p)));
        }

        let entry_points = accounts
            .iter()
            .filter_map(|(&a, info)| Some((a, entry_point(&info.kind)?)))
            .collect();

        Ok(Chain {
            now,
            blocks,
            store,
            accounts: accounts.into_iter().collect(),
            tokens: tokens.into_iter().collect(),
            erc20_balances,
            erc20_allowances,
            nft_owners,
            nft_operators,
            history,
            touched,
            entry_points,
        })
    }
}

// Solidity-style 4-byte selectors of the fixed entry points: the first
// four bytes of the Keccak-256 of each canonical signature, written out
// so no transaction hashes its signature. The unit test
// `fixed_selectors_match_their_signatures` recomputes every one.
const TRANSFER: [u8; 4] = [0xa9, 0x05, 0x9c, 0xbb]; // transfer(address,uint256)
const APPROVE: [u8; 4] = [0x09, 0x5e, 0xa7, 0xb3]; // approve(address,uint256)
const SET_APPROVAL_FOR_ALL: [u8; 4] = [0xa2, 0x2c, 0xb4, 0x65]; // setApprovalForAll(address,bool)
const DISPERSE_ETHER: [u8; 4] = [0xe6, 0x3d, 0x38, 0xed]; // disperseEther(address[],uint256[])
const SWAP_EXACT_ETH_FOR_TOKENS: [u8; 4] = [0x7f, 0xf3, 0x6a, 0xb5]; // swapExactETHForTokens(uint256,address[],address,uint256)
const RELEASE: [u8; 4] = [0x86, 0xd1, 0xa6, 0x9f]; // release()
const MULTICALL: [u8; 4] = [0xac, 0x96, 0x50, 0xd8]; // multicall(bytes[])
const FULFILL_ORDER: [u8; 4] = [0x65, 0x0b, 0x0e, 0xce]; // fulfillOrder(bytes)
const WITHDRAW: [u8; 4] = [0x3c, 0xcf, 0xd6, 0x0b]; // withdraw()

#[cfg(test)]
mod tests {
    use super::*;
    use eth_types::keccak256;
    use eth_types::units::ether;

    fn setup() -> (Chain, Address, Address, Address, Address) {
        let mut chain = Chain::new();
        let operator = chain.create_eoa_funded(b"operator", ether(10)).unwrap();
        let affiliate = chain.create_eoa_funded(b"affiliate", ether(1)).unwrap();
        let victim = chain.create_eoa_funded(b"victim", ether(100)).unwrap();
        let contract = chain
            .deploy_contract(
                operator,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator,
                    operator_bps: 2000,
                    entry: EntryStyle::NamedPayable("Claim".into()),
                }),
            )
            .unwrap();
        (chain, operator, affiliate, victim, contract)
    }

    #[test]
    fn eth_drain_splits_20_80() {
        let (mut chain, operator, affiliate, victim, contract) = setup();
        let id = chain.claim_eth(victim, contract, ether(10), affiliate).unwrap();
        assert_eq!(chain.eth_balance(victim), ether(90));
        assert_eq!(chain.eth_balance(operator), ether(12)); // 10 + 2
        assert_eq!(chain.eth_balance(affiliate), ether(9)); // 1 + 8
        let tx = chain.tx(id);
        assert_eq!(tx.transfer_count(), 3);
        // Fund flow out of the contract: exactly two transfers.
        let outgoing: Vec<_> = tx.transfers_from(contract).collect();
        assert_eq!(outgoing.len(), 2);
        assert_eq!(outgoing[0].amount, ether(2));
        assert_eq!(outgoing[1].amount, ether(8));
        assert_eq!(tx.function(), Some("Claim"));
    }

    #[test]
    fn eth_drain_insufficient_balance_is_atomic() {
        let (mut chain, _op, affiliate, victim, contract) = setup();
        let before = chain.stats();
        let err = chain.claim_eth(victim, contract, ether(1000), affiliate).unwrap_err();
        assert!(matches!(err, ChainError::InsufficientBalance { .. }));
        assert_eq!(chain.stats(), before);
        assert_eq!(chain.eth_balance(victim), ether(100));
    }

    #[test]
    fn fallback_entry_has_plain_call() {
        let mut chain = Chain::new();
        let operator = chain.create_eoa_funded(b"op", ether(1)).unwrap();
        let affiliate = chain.create_eoa(b"aff").unwrap();
        let victim = chain.create_eoa_funded(b"v", ether(5)).unwrap();
        let contract = chain
            .deploy_contract(
                operator,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator,
                    operator_bps: 1500,
                    entry: EntryStyle::PayableFallback,
                }),
            )
            .unwrap();
        let id = chain.claim_eth(victim, contract, ether(2), affiliate).unwrap();
        let tx = chain.tx(id);
        assert_eq!(tx.selector(), None);
        assert_eq!(tx.function(), None);
    }

    #[test]
    fn erc20_drain_requires_allowance() {
        let (mut chain, operator, affiliate, victim, contract) = setup();
        let token = chain.deploy_token(operator, "USDC", 6, TokenKind::Erc20).unwrap();
        chain.mint_erc20(token, victim, U256::from_u64(1_000_000)).unwrap();
        // No approval yet: drain fails.
        let err = chain
            .drain_erc20(operator, contract, token, victim, U256::from_u64(500_000), affiliate)
            .unwrap_err();
        assert!(matches!(err, ChainError::InsufficientAllowance { .. }));
        // Victim signs the phishing approval.
        chain.approve_erc20(victim, token, contract, U256::MAX).unwrap();
        let id = chain
            .drain_erc20(operator, contract, token, victim, U256::from_u64(500_000), affiliate)
            .unwrap();
        assert_eq!(chain.erc20_balance(token, operator), U256::from_u64(100_000));
        assert_eq!(chain.erc20_balance(token, affiliate), U256::from_u64(400_000));
        assert_eq!(chain.erc20_balance(token, victim), U256::from_u64(500_000));
        let tx = chain.tx(id);
        assert_eq!(tx.transfer_count(), 2);
        assert!(tx.transfers().all(|t| t.from == victim));
        assert_eq!(tx.function(), Some("multicall"));
    }

    #[test]
    fn erc20_finite_allowance_is_consumed() {
        let (mut chain, operator, affiliate, victim, contract) = setup();
        let token = chain.deploy_token(operator, "DAI", 18, TokenKind::Erc20).unwrap();
        chain.mint_erc20(token, victim, ether(100)).unwrap();
        chain.approve_erc20(victim, token, contract, ether(50)).unwrap();
        chain.drain_erc20(operator, contract, token, victim, ether(50), affiliate).unwrap();
        assert_eq!(chain.erc20_allowance(token, victim, contract), U256::ZERO);
        // Second drain fails: allowance exhausted.
        assert!(chain
            .drain_erc20(operator, contract, token, victim, U256::ONE, affiliate)
            .is_err());
    }

    #[test]
    fn unlimited_allowance_not_consumed_victim_stays_exposed() {
        // §6.1: victims who do not revoke unlimited approvals remain
        // drainable when they reacquire tokens.
        let (mut chain, operator, affiliate, victim, contract) = setup();
        let token = chain.deploy_token(operator, "USDT", 6, TokenKind::Erc20).unwrap();
        chain.mint_erc20(token, victim, U256::from_u64(100)).unwrap();
        chain.approve_erc20(victim, token, contract, U256::MAX).unwrap();
        chain.drain_erc20(operator, contract, token, victim, U256::from_u64(100), affiliate).unwrap();
        // Victim reacquires tokens; still approved; drained again.
        chain.mint_erc20(token, victim, U256::from_u64(40)).unwrap();
        assert!(chain
            .drain_erc20(operator, contract, token, victim, U256::from_u64(40), affiliate)
            .is_ok());
        // Until they revoke.
        chain.approve_erc20(victim, token, contract, U256::ZERO).unwrap();
        chain.mint_erc20(token, victim, U256::from_u64(40)).unwrap();
        assert!(chain
            .drain_erc20(operator, contract, token, victim, U256::from_u64(40), affiliate)
            .is_err());
    }

    #[test]
    fn permit_drain_needs_no_prior_approval_and_leaves_none() {
        let (mut chain, operator, affiliate, victim, contract) = setup();
        let token = chain.deploy_token(operator, "USDC", 6, TokenKind::Erc20).unwrap();
        chain.mint_erc20(token, victim, U256::from_u64(1_000_000)).unwrap();
        let id = chain
            .drain_erc20_permit(operator, contract, token, victim, U256::from_u64(1_000_000), affiliate)
            .unwrap();
        assert_eq!(chain.erc20_balance(token, operator), U256::from_u64(200_000));
        assert_eq!(chain.erc20_balance(token, affiliate), U256::from_u64(800_000));
        // No standing allowance remains — the §6.1 "unrevoked approval"
        // exposure does not apply to permit victims.
        assert_eq!(chain.erc20_allowance(token, victim, contract), U256::ZERO);
        let tx = chain.tx(id);
        assert_eq!(tx.transfer_count(), 2);
        assert_eq!(tx.approval_count(), 1, "the permit shows in the trace");
        assert_eq!(tx.approval(0).amount, U256::from_u64(1_000_000));
    }

    #[test]
    fn permit_drain_insufficient_balance_is_atomic() {
        let (mut chain, operator, affiliate, victim, contract) = setup();
        let token = chain.deploy_token(operator, "USDC", 6, TokenKind::Erc20).unwrap();
        chain.mint_erc20(token, victim, U256::from_u64(100)).unwrap();
        let before = chain.stats();
        let err = chain
            .drain_erc20_permit(operator, contract, token, victim, U256::from_u64(500), affiliate)
            .unwrap_err();
        assert!(matches!(err, ChainError::InsufficientBalance { .. }));
        assert_eq!(chain.stats(), before);
        assert_eq!(chain.erc20_balance(token, victim), U256::from_u64(100));
    }

    #[test]
    fn nft_drain_sale_distribute_pipeline() {
        let (mut chain, operator, affiliate, victim, contract) = setup();
        let nft = chain.deploy_token(operator, "AZUKI", 0, TokenKind::Erc721).unwrap();
        let market_owner = chain.create_eoa_funded(b"market-owner", ether(1)).unwrap();
        let market = chain.deploy_contract(market_owner, ContractKind::Marketplace).unwrap();
        chain.mint_eth(market, ether(1_000)).unwrap();
        chain.mint_nft(nft, victim, 42).unwrap();

        chain.approve_nft_all(victim, nft, contract, true).unwrap();
        chain.drain_nft(operator, contract, nft, victim, 42).unwrap();
        assert_eq!(chain.nft_owner(nft, 42), Some(contract));

        chain.sell_nft(operator, market, nft, 42, contract, ether(30)).unwrap();
        assert_eq!(chain.nft_owner(nft, 42), Some(market));
        assert_eq!(chain.eth_balance(contract), ether(30));

        let id = chain.distribute_eth(operator, contract, ether(30), affiliate).unwrap();
        let tx = chain.tx(id);
        assert_eq!(tx.transfer_count(), 2);
        assert!(tx.transfers().all(|t| t.from == contract));
        assert_eq!(chain.eth_balance(operator), ether(16)); // 10 + 6
        assert_eq!(chain.eth_balance(affiliate), ether(25)); // 1 + 24
    }

    #[test]
    fn zero_value_order_moves_nft_without_approval() {
        let (mut chain, operator, _affiliate, victim, contract) = setup();
        let nft = chain.deploy_token(operator, "MOON", 0, TokenKind::Erc721).unwrap();
        let mowner = chain.create_eoa_funded(b"zo-owner", ether(1)).unwrap();
        let market = chain.deploy_contract(mowner, ContractKind::Marketplace).unwrap();
        chain.mint_nft(nft, victim, 9).unwrap();
        // No setApprovalForAll — the order signature authorises it.
        let id = chain
            .zero_value_order(operator, market, nft, 9, victim, contract)
            .unwrap();
        assert_eq!(chain.nft_owner(nft, 9), Some(contract));
        let tx = chain.tx(id);
        assert_eq!(tx.transfer_count(), 1);
        assert_eq!(tx.approval_count(), 0);
        assert_eq!(tx.value(), U256::ZERO);
        // Wrong owner now (the contract holds it) — fails.
        let err = chain
            .zero_value_order(operator, market, nft, 9, victim, contract)
            .unwrap_err();
        assert!(matches!(err, ChainError::NotNftOwner { .. }));
    }

    #[test]
    fn nft_drain_requires_operator_approval() {
        let (mut chain, operator, _affiliate, victim, contract) = setup();
        let nft = chain.deploy_token(operator, "BAYC", 0, TokenKind::Erc721).unwrap();
        chain.mint_nft(nft, victim, 7).unwrap();
        let err = chain.drain_nft(operator, contract, nft, victim, 7).unwrap_err();
        assert!(matches!(err, ChainError::NotNftOwner { .. }));
    }

    #[test]
    fn history_indexes_all_parties() {
        let (mut chain, operator, affiliate, victim, contract) = setup();
        let id = chain.claim_eth(victim, contract, ether(1), affiliate).unwrap();
        for party in [operator, affiliate, victim, contract] {
            assert!(chain.txs_of(party).contains(&id), "history missing for {party}");
        }
        // An unrelated account has no history.
        assert!(chain.txs_of(Address::from_key_seed(b"stranger")).is_empty());
    }

    #[test]
    fn blocks_advance_with_time() {
        let (mut chain, _op, affiliate, victim, contract) = setup();
        chain.claim_eth(victim, contract, ether(1), affiliate).unwrap();
        chain.advance(12);
        chain.claim_eth(victim, contract, ether(1), affiliate).unwrap();
        chain.claim_eth(victim, contract, ether(1), affiliate).unwrap();
        let blocks = chain.blocks();
        // Deployment tx + first claim in block 0, next two claims in block 1.
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].tx_count, 2);
        assert_eq!(blocks[1].tx_count, 2);
        assert_eq!(blocks[1].number, blocks[0].number + 1);
    }

    #[test]
    fn time_cannot_go_backwards() {
        let mut chain = Chain::new();
        chain.advance(100);
        let err = chain.set_time(GENESIS_TIMESTAMP).unwrap_err();
        assert!(matches!(err, ChainError::TimeWentBackwards { .. }));
    }

    #[test]
    fn deploy_derives_distinct_create_addresses() {
        let mut chain = Chain::new();
        let deployer = chain.create_eoa_funded(b"d", ether(1)).unwrap();
        let a = chain.deploy_contract(deployer, ContractKind::Benign).unwrap();
        let b = chain.deploy_contract(deployer, ContractKind::Benign).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, Address::create(deployer, 0));
        assert_eq!(b, Address::create(deployer, 1));
        assert!(chain.is_contract(a));
    }

    #[test]
    fn invalid_bps_rejected() {
        let mut chain = Chain::new();
        let op = chain.create_eoa(b"op").unwrap();
        for bps in [0, 10_000, 20_000] {
            let err = chain
                .deploy_contract(
                    op,
                    ContractKind::ProfitSharing(ProfitSharingSpec {
                        operator: op,
                        operator_bps: bps,
                        entry: EntryStyle::PayableFallback,
                    }),
                )
                .unwrap_err();
            assert_eq!(err, ChainError::InvalidBps(bps));
        }
    }

    #[test]
    fn dust_stays_in_contract() {
        // 33% of 10 wei = 3 wei op, 67% = 6 wei aff, 1 wei dust.
        let mut chain = Chain::new();
        let op = chain.create_eoa(b"op").unwrap();
        let aff = chain.create_eoa(b"aff").unwrap();
        let victim = chain.create_eoa_funded(b"v", U256::from_u64(10)).unwrap();
        let contract = chain
            .deploy_contract(
                op,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator: op,
                    operator_bps: 3300,
                    entry: EntryStyle::PayableFallback,
                }),
            )
            .unwrap();
        chain.claim_eth(victim, contract, U256::from_u64(10), aff).unwrap();
        assert_eq!(chain.eth_balance(op), U256::from_u64(3));
        assert_eq!(chain.eth_balance(aff), U256::from_u64(6));
        assert_eq!(chain.eth_balance(contract), U256::from_u64(1));
    }

    #[test]
    fn swap_is_atomic_on_failure() {
        let mut chain = Chain::new();
        let owner = chain.create_eoa_funded(b"o", ether(1)).unwrap();
        let trader = chain.create_eoa_funded(b"t", ether(5)).unwrap();
        let dex = chain.deploy_contract(owner, ContractKind::Dex).unwrap();
        let token = chain.deploy_token(owner, "UNI", 18, TokenKind::Erc20).unwrap();
        // Dex has no token liquidity: swap fails, ETH refunded.
        let err = chain.swap_eth_for_token(trader, dex, token, ether(1), ether(10)).unwrap_err();
        assert!(matches!(err, ChainError::InsufficientBalance { .. }));
        assert_eq!(chain.eth_balance(trader), ether(5));
        assert_eq!(chain.eth_balance(dex), U256::ZERO);
    }

    #[test]
    fn multi_transfer_shapes() {
        let mut chain = Chain::new();
        let payer = chain.create_eoa_funded(b"p", ether(100)).unwrap();
        let a = chain.create_eoa(b"a").unwrap();
        let b = chain.create_eoa(b"b").unwrap();
        let c = chain.create_eoa(b"c").unwrap();
        let id = chain
            .multi_transfer_eth(payer, &[(a, ether(1)), (b, ether(2)), (c, ether(3))])
            .unwrap();
        assert_eq!(chain.tx(id).transfer_count(), 3);
        assert_eq!(chain.eth_balance(payer), ether(94));
        assert_eq!(chain.eth_balance(c), ether(3));
    }

    #[test]
    fn benign_splitter_mimics_profit_share_shape() {
        let mut chain = Chain::new();
        let owner = chain.create_eoa_funded(b"owner", ether(1)).unwrap();
        let a = chain.create_eoa(b"ra").unwrap();
        let b = chain.create_eoa(b"rb").unwrap();
        let payer = chain.create_eoa_funded(b"payer", ether(10)).unwrap();
        let splitter = chain.deploy_contract(owner, ContractKind::Benign).unwrap();
        let id = chain
            .split_payment(payer, splitter, ether(10), &[(a, 3000), (b, 7000)])
            .unwrap();
        let tx = chain.tx(id);
        let outgoing: Vec<_> = tx.transfers_from(splitter).collect();
        assert_eq!(outgoing.len(), 2);
        assert_eq!(chain.eth_balance(a), ether(3));
        assert_eq!(chain.eth_balance(b), ether(7));
        assert_eq!(chain.eth_balance(splitter), U256::ZERO);
    }

    #[test]
    fn splitter_rejects_bad_bps_and_wrong_kind() {
        let mut chain = Chain::new();
        let owner = chain.create_eoa_funded(b"owner", ether(1)).unwrap();
        let a = chain.create_eoa(b"ra").unwrap();
        let payer = chain.create_eoa_funded(b"payer", ether(10)).unwrap();
        let splitter = chain.deploy_contract(owner, ContractKind::Benign).unwrap();
        assert!(matches!(
            chain.split_payment(payer, splitter, ether(1), &[(a, 10_001)]),
            Err(ChainError::InvalidBps(10_001))
        ));
        assert!(matches!(
            chain.split_payment(payer, splitter, ether(1), &[]),
            Err(ChainError::InvalidBps(0))
        ));
        // A profit-sharing contract is not a Benign splitter.
        let ps = chain
            .deploy_contract(
                owner,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator: owner,
                    operator_bps: 2000,
                    entry: EntryStyle::PayableFallback,
                }),
            )
            .unwrap();
        assert!(matches!(
            chain.split_payment(payer, ps, ether(1), &[(a, 1000)]),
            Err(ChainError::NotAContract(_))
        ));
    }

    #[test]
    fn tx_hashes_unique() {
        let (mut chain, _op, affiliate, victim, contract) = setup();
        let a = chain.claim_eth(victim, contract, ether(1), affiliate).unwrap();
        let b = chain.claim_eth(victim, contract, ether(1), affiliate).unwrap();
        assert_ne!(chain.tx(a).hash(), chain.tx(b).hash());
    }

    /// Each entry point with a selector, as the transaction that records
    /// it, so a failure names the signature whose constant or wiring is
    /// wrong. `Claim(address)` is the deploy-time cached entry selector.
    #[test]
    fn fixed_selectors_match_their_signatures() {
        let (mut chain, operator, affiliate, victim, contract) = setup();
        let token = chain.deploy_token(operator, "USDC", 6, TokenKind::Erc20).unwrap();
        let nft = chain.deploy_token(operator, "AZUKI", 0, TokenKind::Erc721).unwrap();
        let owner = chain.create_eoa_funded(b"venue-owner", ether(1)).unwrap();
        let market = chain.deploy_contract(owner, ContractKind::Marketplace).unwrap();
        let dex = chain.deploy_contract(owner, ContractKind::Dex).unwrap();
        let splitter = chain.deploy_contract(owner, ContractKind::Benign).unwrap();
        chain.mint_eth(market, ether(100)).unwrap();
        chain.mint_erc20(token, victim, U256::from_u64(1_000)).unwrap();
        chain.mint_erc20(token, dex, U256::from_u64(1_000)).unwrap();
        chain.mint_nft(nft, victim, 1).unwrap();
        chain.mint_nft(nft, victim, 2).unwrap();
        let ten = U256::from_u64(10);
        let table = [
            ("transfer(address,uint256)", chain.transfer_erc20(victim, token, affiliate, ten)),
            ("approve(address,uint256)", chain.approve_erc20(victim, token, contract, U256::MAX)),
            ("multicall(bytes[])", chain.drain_erc20(operator, contract, token, victim, ten, affiliate)),
            (
                "multicall(bytes[])",
                chain.drain_erc20_permit(operator, contract, token, victim, ten, affiliate),
            ),
            ("setApprovalForAll(address,bool)", chain.approve_nft_all(victim, nft, contract, true)),
            ("multicall(bytes[])", chain.drain_nft(operator, contract, nft, victim, 1)),
            ("fulfillOrder(bytes)", chain.sell_nft(operator, market, nft, 1, contract, ether(3))),
            ("withdraw()", chain.distribute_eth(operator, contract, ether(3), affiliate)),
            ("fulfillOrder(bytes)", chain.zero_value_order(operator, market, nft, 2, victim, contract)),
            (
                "swapExactETHForTokens(uint256,address[],address,uint256)",
                chain.swap_eth_for_token(victim, dex, token, ether(1), ten),
            ),
            (
                "release()",
                chain.split_payment(victim, splitter, ether(1), &[(affiliate, 3000), (operator, 7000)]),
            ),
            (
                "disperseEther(address[],uint256[])",
                chain.multi_transfer_eth(victim, &[(affiliate, ether(1)), (operator, ether(1))]),
            ),
            ("Claim(address)", chain.claim_eth(victim, contract, ether(1), affiliate)),
        ];
        for (sig, id) in table {
            let tx = chain.tx(id.unwrap_or_else(|e| panic!("{sig}: {e}")));
            let h = keccak256(sig.as_bytes());
            assert_eq!(tx.selector(), Some([h.0[0], h.0[1], h.0[2], h.0[3]]), "selector of {sig}");
            assert_eq!(tx.function(), sig.split('(').next(), "function name of {sig}");
        }
        // A chain read back from JSON re-derives the entry selectors.
        let mut back: Chain = serde_json::from_str(&serde_json::to_string(&chain).unwrap()).unwrap();
        let id = back.claim_eth(victim, contract, ether(1), affiliate).unwrap();
        assert_eq!(back.tx(id).selector(), chain.tx(id - 1).selector());
    }

    #[test]
    fn stats_count() {
        let (chain, ..) = setup();
        let stats = chain.stats();
        assert_eq!(stats.accounts, 4);
        assert_eq!(stats.contracts, 1);
        assert_eq!(stats.transactions, 1); // the deployment
    }
}
