//! Epoch-swapped snapshot reads under concurrent ingestion, the JSONL
//! query layer answered from published snapshots, and risk lookups
//! checked against a per-epoch address index built here as reference.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Barrier};
use std::thread;

use daas_cluster::{Family, Role};
use daas_detector::SnowballConfig;
use daas_serve::protocol::{answer_query, Request};
use daas_serve::{AddressRisk, Engine, Snapshot, ROLE_AFFILIATE, ROLE_CONTRACT, ROLE_OPERATOR};
use daas_world::WorldConfig;
use eth_types::Address;

fn engine(config: &WorldConfig) -> Engine {
    let snowball = SnowballConfig { threads: 1, ..Default::default() };
    Engine::new(config, &snowball, 0).expect("engine")
}

#[test]
fn readers_never_block_ingest_and_see_monotonic_epochs() {
    let mut eng = engine(&WorldConfig::tiny(42));
    let cell = eng.snapshot_cell();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Pin one interleaving: every reader loads an epoch before ingest
    // starts, then reads on only once the first window has published.
    // On a busy machine a reader thread could otherwise first run after
    // the tiny replay has ended and only ever see its final epoch.
    let step = Arc::new(Barrier::new(5));

    let mut readers = Vec::new();
    for _ in 0..4 {
        let cell = Arc::clone(&cell);
        let done = Arc::clone(&done);
        let step = Arc::clone(&step);
        readers.push(thread::spawn(move || {
            let mut last_epoch = cell.load().epoch;
            let mut epochs = BTreeSet::from([last_epoch]);
            step.wait(); // loaded before ingest starts
            step.wait(); // the first window has published
            let mut queries = 0usize;
            while !done.load(std::sync::atomic::Ordering::Relaxed) || queries < 250 {
                let snap = cell.load();
                // Epochs only move forward.
                assert!(snap.epoch >= last_epoch, "epoch went backwards");
                last_epoch = snap.epoch;
                epochs.insert(snap.epoch);
                // Exercise the lazy indices from reader threads.
                let line = answer_query(
                    &snap,
                    &Request::parse("{\"cmd\":\"stats\"}").expect("request"),
                )
                .expect("stats is a query");
                assert!(line.contains("\"ok\":true"), "{line}");
                queries += 1;
            }
            (epochs, queries)
        }));
    }

    step.wait();
    let mut first_window = true;
    let windows = eng.run_to_end(37, |_| {
        if std::mem::take(&mut first_window) {
            step.wait();
        }
    });
    assert!(!windows.is_empty());
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total_queries = 0;
    for reader in readers {
        let (epochs, queries) = reader.join().expect("reader");
        // Readers observed the stream advancing, not just the final
        // state.
        assert!(epochs.len() > 1, "reader saw a single epoch");
        total_queries += queries;
    }
    assert!(total_queries >= 1000, "only {total_queries} queries ran");
}

#[test]
fn query_layer_matches_engine_state() {
    let mut eng = engine(&WorldConfig::tiny(42));
    eng.run_to_end(64, |_| {});
    let reports = eng.reports(&daas_measure::MeasureConfig::sequential());
    let snap = eng.snapshot();
    assert!(snap.done);

    // status reflects the converged dataset.
    let counts = eng.dataset().counts();
    let status =
        answer_query(&snap, &Request::parse("{\"cmd\":\"status\"}").unwrap()).unwrap();
    assert!(status.contains(&format!("\"contracts\":{}", counts.contracts)), "{status}");
    assert!(status.contains(&format!("\"ps_txs\":{}", counts.ps_txs)), "{status}");
    assert!(status.contains("\"done\":true"), "{status}");

    // Every discovered contract resolves as a drainer contract with a
    // family.
    let contract = *snap.contracts.iter().next().expect("tiny world finds contracts");
    let line = answer_query(
        &snap,
        &Request::parse(&format!("{{\"cmd\":\"risk\",\"address\":\"{contract}\"}}")).unwrap(),
    )
    .unwrap();
    assert!(line.contains("\"is_daas\":true"), "{line}");
    assert!(line.contains("contract"), "{line}");

    // Victim losses from the snapshot agree with the §6 victim report.
    let victim_total: f64 = snap.victim_losses().values().map(|(usd, _)| usd).sum();
    assert!(
        (victim_total - reports.victims.total_usd).abs() < 1e-6,
        "snapshot {victim_total} vs reports {}",
        reports.victims.total_usd
    );
    // And the stat bundle counts the same incident set.
    assert_eq!(snap.stat_bundle().incidents, snap.incidents.len());
    assert_eq!(snap.stat_bundle().victims, snap.victim_losses().len());

    // family endpoint round-trips by id and by member address.
    if let Some(family) = snap.families.first() {
        let by_id = answer_query(
            &snap,
            &Request::parse(&format!("{{\"cmd\":\"family\",\"id\":{}}}", family.id)).unwrap(),
        )
        .unwrap();
        assert!(by_id.contains(&format!("\"id\":{}", family.id)), "{by_id}");
        if let Some(op) = family.operators.first() {
            let by_addr = answer_query(
                &snap,
                &Request::parse(&format!("{{\"cmd\":\"family\",\"address\":\"{op}\"}}"))
                    .unwrap(),
            )
            .unwrap();
            assert!(by_addr.contains(&format!("\"id\":{}", family.id)), "{by_addr}");
        }
    }
}

#[test]
fn idle_window_publishes_cheap_epochs() {
    let mut eng = engine(&WorldConfig::micro(42));
    let first = eng.ingest_window(10_000_000).expect("one giant window");
    assert!(first.watermark > 0);
    let epoch_after_all = eng.epoch();
    // Stream exhausted: further ingests are None and don't publish.
    assert!(eng.ingest_window(16).is_none());
    assert_eq!(eng.epoch(), epoch_after_all);
    // finish_stream still publishes a final (idempotent) epoch.
    eng.finish_stream();
    assert!(eng.done());
    assert!(eng.snapshot().done);
}

/// Holding epoch k while window k+1 ingests — as the publication cell
/// does — must cost the window, not the incident set: the new epoch's
/// incident map still shares every chunk of epoch k's except the tail
/// the window appended to and one per retroactive incident (a
/// late-admitted contract's older transactions).
#[test]
fn next_window_shares_all_but_its_own_incident_chunks() {
    let mut eng = engine(&WorldConfig::small(3));
    let mut checked = 0;
    loop {
        let prev = eng.snapshot();
        if eng.ingest_window(500).is_none() {
            break;
        }
        let next = eng.snapshot();
        let (old, new) = (&prev.incidents, &next.incidents);
        let added = new.len() - old.len();
        if added < 200 {
            continue;
        }
        let last = old.iter().map(|(&tx, _)| tx).last().unwrap_or(0);
        let retroactive =
            new.iter().filter(|&(&tx, _)| tx < last && !old.contains_key(&tx)).count();
        let diverged = old.chunk_count() - old.shared_chunks_with(new);
        assert!(
            diverged <= 1 + retroactive,
            "epoch {}: {diverged} of {} chunks copied for {added} new incidents \
             ({retroactive} retroactive)",
            next.epoch,
            old.chunk_count()
        );
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} windows added 200+ incidents");
}

/// The address index snapshots used to build on every epoch's first
/// risk query: role flags from the three role sets, then every family's
/// members in family order, the last write winning.
fn reference_index(snap: &Snapshot) -> HashMap<Address, (u8, Option<usize>)> {
    let mut index: HashMap<Address, (u8, Option<usize>)> = HashMap::new();
    for (set, flag) in [
        (&snap.contracts, ROLE_CONTRACT),
        (&snap.operators, ROLE_OPERATOR),
        (&snap.affiliates, ROLE_AFFILIATE),
    ] {
        for &addr in set.iter() {
            index.entry(addr).or_insert((0, None)).0 |= flag;
        }
    }
    for family in snap.families.iter() {
        for &addr in family.operators.iter().chain(&family.contracts).chain(&family.affiliates) {
            index.entry(addr).or_insert((0, None)).1 = Some(family.id);
        }
    }
    index
}

/// What the reference index answers for `address`.
fn reference_risk(
    snap: &Snapshot,
    index: &HashMap<Address, (u8, Option<usize>)>,
    address: Address,
) -> AddressRisk {
    match index.get(&address) {
        Some(&(roles, family)) => AddressRisk {
            is_daas: true,
            roles,
            family,
            family_name: family.map(|id| snap.families[id].name.clone()),
        },
        None => AddressRisk { is_daas: false, roles: 0, family: None, family_name: None },
    }
}

/// The invariants the index-free lookup relies on: every family member
/// is in its role's set, and no address is listed under one role in two
/// families.
fn assert_family_invariants(snap: &Snapshot) {
    for (role, set) in [
        (Role::Contract, &snap.contracts),
        (Role::Operator, &snap.operators),
        (Role::Affiliate, &snap.affiliates),
    ] {
        let mut listed_in: HashMap<Address, usize> = HashMap::new();
        for family in snap.families.iter() {
            for &addr in family.members(role) {
                assert!(
                    set.contains(&addr),
                    "epoch {}: {addr} is a {role:?} of family {} but not in the {role:?} set",
                    snap.epoch,
                    family.id
                );
                if let Some(other) = listed_in.insert(addr, family.id) {
                    panic!(
                        "epoch {}: {addr} is a {role:?} of families {other} and {}",
                        snap.epoch, family.id
                    );
                }
            }
        }
    }
}

/// Checks `risk` and `family_of` against the reference index for every
/// indexed address and 200 non-members (up to half of them one above a
/// member in the last byte, so B-tree probes land between members).
/// Returns the number of addresses checked.
fn check_epoch(snap: &Snapshot) -> usize {
    assert_family_invariants(snap);
    let index = reference_index(snap);
    let mut probes: Vec<Address> = index.keys().copied().collect();
    probes.sort_unstable();
    let neighbours = probes.iter().map(|a| {
        let mut bytes = a.0;
        bytes[19] = bytes[19].wrapping_add(1);
        Address(bytes)
    });
    let strangers = (0u32..).map(|i| Address::from_key_seed(&i.to_be_bytes()));
    let mut non_members: Vec<Address> =
        neighbours.filter(|a| !index.contains_key(a)).take(100).collect();
    let strangers_needed = 200 - non_members.len();
    non_members.extend(strangers.filter(|a| !index.contains_key(a)).take(strangers_needed));
    probes.extend(non_members);
    for &addr in &probes {
        let want = reference_risk(snap, &index, addr);
        let got = snap.risk(addr);
        assert_eq!(got, want, "epoch {}: risk({addr}) differs from the index", snap.epoch);
        let got_family = snap.family_of(addr);
        assert_eq!(
            got_family, want.family,
            "epoch {}: family_of({addr}) differs from the index",
            snap.epoch
        );
    }
    probes.len()
}

/// Replays `config` in `window`-block windows and checks every
/// published epoch, the tail drain's included. Returns (epochs,
/// addresses checked, largest family count seen).
fn check_every_epoch(config: &WorldConfig, window: u64) -> (usize, usize, usize) {
    let mut eng = engine(config);
    let (mut epochs, mut checks, mut families) = (0, 0, 0);
    loop {
        let more = eng.ingest_window(window).is_some();
        if !more {
            eng.finish_stream();
        }
        let snap = eng.snapshot();
        checks += check_epoch(&snap);
        families = families.max(snap.families.len());
        epochs += 1;
        if !more {
            return (epochs, checks, families);
        }
    }
}

#[test]
fn risk_lookups_match_the_per_epoch_index() {
    for (config, window) in [(WorldConfig::tiny(42), 64), (WorldConfig::tiny(7), 37)] {
        let (epochs, checks, families) = check_every_epoch(&config, window);
        assert!(epochs > 10, "seed {}: only {epochs} epochs", config.seed);
        assert!(families > 1, "seed {}: only {families} families", config.seed);
        assert!(checks > 200 * epochs, "seed {}: only {checks} addresses", config.seed);
    }
}

/// Paper-scale variant for the CI full-scale lane: 216 epochs (215
/// windows and the tail drain) and about a million addresses, each
/// checked with `risk` and `family_of` (seconds in release).
#[test]
#[ignore = "paper scale: run in release under CI_FULL_SCALE"]
fn paper_scale_risk_lookups_match_the_per_epoch_index() {
    let (epochs, checks, families) = check_every_epoch(&WorldConfig::paper_scale(11), 720);
    eprintln!("{epochs} epochs, {checks} addresses, up to {families} families");
    assert!(epochs >= 200, "only {epochs} epochs");
    assert!(checks >= 500_000, "only {checks} addresses");
}

/// No generated world lists one address in two families, so the
/// cross-family rule is pinned by hand: an operator of family 0 that is
/// also an affiliate of family 1 resolves to family 1, as the last
/// write of the per-epoch index did.
#[test]
fn an_address_in_two_families_resolves_to_the_higher_id() {
    let addr = |seed: &str| Address::from_key_seed(seed.as_bytes());
    let shared = addr("shared");
    let family = |id: usize, name: &str, operators: &[Address], affiliates: &[Address]| {
        let sorted = |members: &[Address]| {
            let mut members = members.to_vec();
            members.sort();
            members
        };
        Arc::new(Family {
            id,
            name: name.into(),
            operators: sorted(operators),
            contracts: vec![addr(name)],
            affiliates: sorted(affiliates),
            ps_txs: Vec::new(),
        })
    };
    let families = vec![
        family(0, "Zero", &[shared, addr("op0")], &[addr("aff0")]),
        family(1, "One", &[addr("op1")], &[addr("aff1"), shared]),
    ];
    let role_set = |role: Role| -> Arc<BTreeSet<Address>> {
        Arc::new(families.iter().flat_map(|f| f.members(role).iter().copied()).collect())
    };
    let mut snap = Snapshot::empty(0);
    snap.contracts = role_set(Role::Contract);
    snap.operators = role_set(Role::Operator);
    snap.affiliates = role_set(Role::Affiliate);
    snap.families = Arc::new(families);

    let want = AddressRisk {
        is_daas: true,
        roles: ROLE_OPERATOR | ROLE_AFFILIATE,
        family: Some(1),
        family_name: Some("One".into()),
    };
    assert_eq!(snap.risk(shared), want);
    assert_eq!(snap.family_of(shared), Some(1));
    // The index agrees, on `shared`, every other member and 200
    // non-members.
    assert_eq!(check_epoch(&snap), 7 + 200);
}
