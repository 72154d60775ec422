//! `Address` compares as three big-endian words; the order must stay
//! the byte-lexicographic order of `[u8; 20]`, which every B-tree, sort
//! and pinned artifact over addresses relies on.

use std::collections::BTreeSet;

use eth_types::Address;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The first and last byte of each word (bytes 0–7, 8–15, 16–19).
const WORD_EDGES: [usize; 6] = [0, 7, 8, 15, 16, 19];

fn same_order_as_bytes(a: Address, b: Address) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cmp(&b), a.0.cmp(&b.0), "{} vs {}", a, b);
    prop_assert_eq!(a.partial_cmp(&b), a.0.partial_cmp(&b.0), "{} vs {}", a, b);
    prop_assert_eq!(b.cmp(&a), b.0.cmp(&a.0), "{} vs {}", b, a);
    Ok(())
}

proptest! {
    #[test]
    fn random_pairs_compare_as_bytes(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
        same_order_as_bytes(Address(a), Address(b))?;
    }

    #[test]
    fn pairs_differing_at_a_word_edge_compare_as_bytes(
        base in any::<[u8; 20]>(),
        edge in 0usize..WORD_EDGES.len(),
        x in any::<u8>(),
        y in any::<u8>(),
    ) {
        let (mut a, mut b) = (base, base);
        a[WORD_EDGES[edge]] = x;
        b[WORD_EDGES[edge]] = y;
        same_order_as_bytes(Address(a), Address(b))?;
    }

    #[test]
    fn pairs_sharing_a_prefix_compare_as_bytes(
        a in any::<[u8; 20]>(),
        tail in any::<[u8; 20]>(),
        shared in 0usize..=20,
    ) {
        let mut b = a;
        b[shared..].copy_from_slice(&tail[shared..]);
        same_order_as_bytes(Address(a), Address(b))?;
    }

    #[test]
    fn sorting_gives_the_byte_order(raw in proptest::collection::vec(any::<[u8; 20]>(), 0..64)) {
        let mut by_address: Vec<Address> = raw.iter().copied().map(Address).collect();
        by_address.sort();
        let mut by_bytes = raw.clone();
        by_bytes.sort();
        let sorted: Vec<[u8; 20]> = by_address.iter().map(|a| a.0).collect();
        prop_assert_eq!(&sorted, &by_bytes);
        let set: Vec<[u8; 20]> = raw.iter().copied().map(Address).collect::<BTreeSet<_>>()
            .into_iter().map(|a| a.0).collect();
        by_bytes.dedup();
        prop_assert_eq!(set, by_bytes);
    }
}

/// A higher byte decides the order however large every later byte is:
/// each word's first byte outranks the previous word's last.
#[test]
fn an_earlier_byte_outranks_every_later_byte() {
    for edge in WORD_EDGES {
        let mut low = [0xffu8; 20];
        low[..=edge].fill(0);
        let mut high = [0u8; 20];
        high[edge] = 1;
        let (low, high) = (Address(low), Address(high));
        assert!(low < high, "byte {edge}: {low} must sort before {high}");
        assert_eq!(low.cmp(&high), low.0.cmp(&high.0), "byte {edge}");
    }
}
