//! Property tests for Pastry's digit machinery.

use canon::pastry::{build_pastry, digit, leaf_set, routing_table_links, PastryParams};
use canon_id::{metric::Xor, ring::SortedRing, NodeId};
use canon_overlay::{route, NodeIndex};
use proptest::prelude::*;

fn ids_strategy() -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::btree_set(any::<u64>(), 2..100)
        .prop_map(|s| s.into_iter().map(NodeId::new).collect())
}

proptest! {
    /// Digits decompose the identifier: reassembling them gives it back.
    #[test]
    fn digits_reassemble(raw in any::<u64>(), b in 1u32..=4) {
        prop_assume!(64 % b == 0);
        let id = NodeId::new(raw);
        let rows = 64 / b;
        let mut acc = 0u64;
        for row in 0..rows {
            acc = (acc << b) | digit(id, row, b);
        }
        prop_assert_eq!(acc, raw);
    }

    /// Every routing-table entry shares exactly its row's prefix and digit.
    #[test]
    fn entries_match_their_cells(ids in ids_strategy(), b in 1u32..=4) {
        prop_assume!(64 % b == 0);
        let ring = SortedRing::new(ids.clone());
        let me = ids[ids.len() / 2];
        let params = PastryParams { digit_bits: b, leaf_half: 2 };
        for (row, d, n) in routing_table_links(&ring, me, params) {
            for r in 0..row {
                prop_assert_eq!(digit(n, r, b), digit(me, r, b));
            }
            prop_assert_eq!(digit(n, row, b), d);
            prop_assert_ne!(digit(me, row, b), d);
        }
    }

    /// The leaf set holds at most 2*leaf_half distinct non-self nodes and
    /// includes the immediate successor and predecessor.
    #[test]
    fn leaf_set_shape(ids in ids_strategy(), half in 1usize..6) {
        let ring = SortedRing::new(ids.clone());
        let me = ids[0];
        let ls = leaf_set(&ring, me, half);
        prop_assert!(ls.len() <= 2 * half);
        let mut dedup = ls.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), ls.len(), "duplicates in leaf set");
        prop_assert!(!ls.contains(&me));
        if ids.len() > 1 {
            let succ = ring.strict_successor(me).expect("nonempty");
            prop_assert!(ls.contains(&succ));
        }
    }

    /// Flat Pastry routes completely for any identifier set and digit size.
    #[test]
    fn routing_is_complete(ids in ids_strategy(), b in 1u32..=4) {
        prop_assume!(64 % b == 0);
        let g = build_pastry(&ids, PastryParams { digit_bits: b, leaf_half: 2 });
        let n = g.len();
        for i in 0..n.min(6) {
            let a = NodeIndex(i as u32);
            let t = NodeIndex(((i * 17 + 3) % n) as u32);
            if a == t { continue; }
            let r = route(&g, Xor, a, t);
            prop_assert!(r.is_ok(), "route failed: {:?}", r.err());
            prop_assert_eq!(r.expect("checked").target(), t);
        }
    }
}
