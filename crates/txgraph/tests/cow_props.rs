//! `CowMap` against a `BTreeMap` model, shaped like the live engine: one
//! writer publishes clones (snapshots) at arbitrary points and keeps
//! writing — mostly appends past its largest key, sometimes retroactive
//! keys inside its range — while snapshots are occasionally written
//! too. Every version keeps its own view and iterates in key order, and
//! each writer write diverges at most one chunk from an untouched
//! snapshot.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use txgraph::CowMap;

type Version = (CowMap<u64, u32>, BTreeMap<u64, u32>);

fn check(map: &CowMap<u64, u32>, model: &BTreeMap<u64, u32>) -> Result<(), TestCaseError> {
    prop_assert_eq!(map.len(), model.len());
    prop_assert_eq!(map.is_empty(), model.is_empty());
    let got: Vec<(u64, u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    prop_assert_eq!(got, want);
    let values: Vec<u32> = map.values().copied().collect();
    prop_assert_eq!(values, model.values().copied().collect::<Vec<u32>>());
    for (k, v) in model {
        prop_assert_eq!(map.get(k), Some(v));
    }
    for probe in [0, 1, 2, 999, 1_000, u64::MAX] {
        prop_assert_eq!(map.get(&probe), model.get(&probe));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ops (out of 32): 1 publishes a snapshot of the writer; 17 append
    /// to the writer; 6 write a retroactive key inside the writer's
    /// range (inserts that split full chunks, and overwrites); 8 write
    /// an arbitrary key into a snapshot.
    #[test]
    fn every_clone_keeps_its_own_ordered_view(
        ops in proptest::collection::vec((0u8..32, any::<u32>(), any::<u32>()), 1..3_000),
    ) {
        // versions[0] is the writer; `since[i]` counts the writer's
        // writes since snapshot i was taken, while i itself is unwritten.
        let mut versions: Vec<Version> = vec![(CowMap::new(), BTreeMap::new())];
        let mut since: Vec<Option<usize>> = vec![None];
        for &(op, k, value) in &ops {
            let k = u64::from(k);
            let which = match op {
                0 => {
                    let snapshot = versions[0].clone();
                    versions.push(snapshot);
                    since.push(Some(0));
                    continue;
                }
                1..=23 => 0,
                _ if versions.len() == 1 => 0,
                _ => 1 + k as usize % (versions.len() - 1),
            };
            let (map, model) = &mut versions[which];
            let last = model.keys().next_back().copied();
            let key = match (op, last) {
                (1..=17, Some(last)) => last + 1 + k % 3,
                (18..=23, Some(last)) => k % (last + 2),
                _ => k % 5_000,
            };
            prop_assert_eq!(map.insert(key, value), model.insert(key, value));
            if which == 0 {
                since.iter_mut().flatten().for_each(|n| *n += 1);
            } else {
                since[which] = None;
            }
        }
        for (map, model) in &versions {
            check(map, model)?;
        }
        let writer = &versions[0].0;
        for (i, writes) in since.iter().enumerate() {
            if let Some(writes) = *writes {
                let snapshot = &versions[i].0;
                let diverged = snapshot.chunk_count() - snapshot.shared_chunks_with(writer);
                prop_assert!(
                    diverged <= writes,
                    "snapshot {} lost {} chunks to {} writer writes",
                    i,
                    diverged,
                    writes
                );
            }
        }
    }
}
