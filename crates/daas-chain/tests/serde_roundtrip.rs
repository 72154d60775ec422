//! The chain is a releasable artifact: it must serialise to JSON and
//! come back answering every query identically.

use daas_chain::{Chain, ContractKind, EntryStyle, ProfitSharingSpec, TokenKind};
use eth_types::units::ether;
use eth_types::U256;

fn build_chain() -> Chain {
    let mut chain = Chain::new();
    let op = chain.create_eoa_funded(b"s/op", ether(10)).unwrap();
    let aff = chain.create_eoa(b"s/aff").unwrap();
    let victim = chain.create_eoa_funded(b"s/v", ether(100)).unwrap();
    let contract = chain
        .deploy_contract(
            op,
            ContractKind::ProfitSharing(ProfitSharingSpec {
                operator: op,
                operator_bps: 1750,
                entry: EntryStyle::NamedPayable("Claim".into()),
            }),
        )
        .unwrap();
    let token = chain.deploy_token(op, "USDC", 6, TokenKind::Erc20).unwrap();
    chain.mint_erc20(token, victim, U256::from_u64(5_000_000)).unwrap();
    chain.advance(12);
    chain.claim_eth(victim, contract, ether(4), aff).unwrap();
    chain.approve_erc20(victim, token, contract, U256::MAX).unwrap();
    chain.advance(12);
    chain
        .drain_erc20(op, contract, token, victim, U256::from_u64(5_000_000), aff)
        .unwrap();
    chain
}

#[test]
fn json_roundtrip_preserves_everything() {
    let chain = build_chain();
    let json = serde_json::to_string(&chain).expect("serialise");
    let back: Chain = serde_json::from_str(&json).expect("deserialise");

    assert_eq!(back.stats(), chain.stats());
    assert_eq!(back.now(), chain.now());
    assert_eq!(back.transactions().len(), chain.transactions().len());
    for (a, b) in back.transactions().iter().zip(chain.transactions().iter()) {
        assert_eq!(a.to_transaction(), b.to_transaction());
    }
    assert_eq!(back.blocks(), chain.blocks());
    for address in chain.addresses() {
        assert_eq!(back.eth_balance(address), chain.eth_balance(address));
        assert_eq!(back.txs_of(address), chain.txs_of(address));
        assert_eq!(back.account_kind(address), chain.account_kind(address));
        assert_eq!(back.account_created_at(address), chain.account_created_at(address));
    }
}

/// A serialize → deserialize → serialize cycle reproduces the artifact
/// byte for byte.
#[test]
fn chain_json_is_stable_through_a_roundtrip() {
    let reference = serde_json::to_string(&build_chain()).unwrap();
    let back: Chain = serde_json::from_str(&reference).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), reference);
}

#[test]
fn deserialised_chain_keeps_working() {
    let chain = build_chain();
    let json = serde_json::to_string(&chain).unwrap();
    let mut back: Chain = serde_json::from_str(&json).unwrap();
    // Continue executing on the revived chain.
    let newcomer = back.create_eoa_funded(b"s/late", ether(1)).unwrap();
    let someone = back.addresses().next().unwrap();
    back.advance(12);
    back.transfer_eth(newcomer, someone, ether(1)).unwrap();
    assert_eq!(back.stats().transactions, chain.stats().transactions + 1);
}
