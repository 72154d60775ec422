//! The §9 pre-signing check across the wire: `daas-serve` answers a risk
//! query for a flagged and a clean address, and the wallet side parses
//! each reply into `LiveRisk` exactly as `LiveGuardClient::check_address`
//! does. The reply bytes themselves are pinned in `daas-serve`'s
//! protocol tests.

use std::collections::BTreeSet;
use std::sync::Arc;

use daas_lab::cluster::Family;
use daas_lab::detector::DatasetCounts;
use daas_lab::txgraph::CowMap;
use daas_lab::types::Address;
use daas_lab::wallet_guard::LiveRisk;
use daas_serve::protocol::{answer_query, Request};
use daas_serve::Snapshot;

fn ask(snap: &Snapshot, address: Address) -> LiveRisk {
    let request = format!("{{\"cmd\":\"risk\",\"address\":\"{address}\"}}");
    let reply = answer_query(snap, &Request::parse(&request).unwrap()).unwrap();
    serde_json::from_str(&reply).unwrap_or_else(|e| panic!("{reply}: {e}"))
}

#[test]
fn live_risk_parses_the_daemons_risk_replies() {
    let (contract, operator) = (Address::from_key_seed(b"contract"), Address::from_key_seed(b"op"));
    let family = Family {
        id: 0,
        name: "Angel \"Drainer\"".into(),
        operators: vec![operator],
        contracts: vec![contract],
        affiliates: Vec::new(),
        ps_txs: vec![5],
    };
    let snap = Snapshot::new(
        3,
        10,
        2,
        4,
        false,
        DatasetCounts { contracts: 1, operators: 1, affiliates: 0, ps_txs: 1 },
        Arc::new(vec![Arc::new(family)]),
        Arc::new(BTreeSet::from([contract])),
        Arc::new(BTreeSet::from([operator])),
        Arc::new(BTreeSet::new()),
        CowMap::new(),
        0.0,
    );

    let risk = ask(&snap, contract);
    assert_eq!((risk.epoch, risk.is_daas, risk.family), (3, true, Some(0)));
    assert_eq!(risk.roles, ["contract"]);
    assert_eq!(risk.family_name.as_deref(), Some("Angel \"Drainer\""));
    assert!(risk.is_drainer_contract());

    let risk = ask(&snap, operator);
    assert_eq!(risk.roles, ["operator"]);
    assert!(risk.is_daas && !risk.is_drainer_contract());

    let risk = ask(&snap, Address::from_key_seed(b"wallet"));
    assert_eq!((risk.epoch, risk.is_daas, risk.family), (3, false, None));
    assert!(risk.roles.is_empty() && risk.family_name.is_none());
}
