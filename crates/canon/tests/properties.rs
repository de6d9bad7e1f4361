//! Property tests for flat Kademlia — Kandy's bucket rule over one domain.

use canon::kandy::build_kademlia;
use canon_id::{metric::Xor, rng::Seed, NodeId};
use canon_kademlia::BucketChoice;
use canon_overlay::{route, NodeIndex};
use proptest::prelude::*;

fn ids_strategy() -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::btree_set(any::<u64>(), 2..120)
        .prop_map(|s| s.into_iter().map(NodeId::new).collect())
}

proptest! {
    /// The link set contains exactly one node per non-empty bucket, and the
    /// closest-choice link is the bucket minimum.
    #[test]
    fn one_closest_link_per_nonempty_bucket(ids in ids_strategy()) {
        let g = build_kademlia(&ids, BucketChoice::Closest, Seed(1));
        let me = ids[0];
        let mut per_bucket = std::collections::HashMap::new();
        for &l in g.neighbors(g.index_of(me).expect("built over ids")) {
            let l = g.id(l);
            let k = 63 - me.xor_to(l).leading_zeros();
            prop_assert!(per_bucket.insert(k, l).is_none(), "two links in bucket {k}");
        }
        for k in 0..64u32 {
            let bucket_min = ids
                .iter()
                .filter(|&&x| {
                    x != me && {
                        let d = me.xor_to(x);
                        d >= (1u64 << k) && (k == 63 || d < (1u64 << (k + 1)))
                    }
                })
                .map(|&x| me.xor_to(x))
                .min();
            let got = per_bucket.get(&k).map(|&l| me.xor_to(l));
            prop_assert_eq!(got, bucket_min, "bucket {}", k);
        }
    }

    /// Greedy XOR routing reaches every destination on a flat Kademlia.
    #[test]
    fn routing_is_complete(ids in ids_strategy(), seed in any::<u64>()) {
        let g = build_kademlia(&ids, BucketChoice::Closest, Seed(seed));
        let n = g.len();
        for i in 0..n.min(8) {
            let a = NodeIndex(i as u32);
            let b = NodeIndex(((i * 13 + 5) % n) as u32);
            if a == b { continue; }
            let r = route(&g, Xor, a, b);
            prop_assert!(r.is_ok(), "route failed: {:?}", r.err());
            prop_assert_eq!(r.expect("checked").target(), b);
        }
    }

    /// Hop counts are bounded by the bit-length of the initial distance.
    #[test]
    fn hops_bounded_by_distance_bits(ids in ids_strategy()) {
        let g = build_kademlia(&ids, BucketChoice::Closest, Seed(0));
        let n = g.len();
        let a = NodeIndex(0);
        let b = NodeIndex((n - 1) as u32);
        if a != b {
            let d0 = g.id(a).xor_to(g.id(b));
            let r = route(&g, Xor, a, b).expect("complete");
            prop_assert!(r.hops() as u32 <= 64 - d0.leading_zeros());
        }
    }
}
