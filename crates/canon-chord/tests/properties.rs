//! Property tests for the Chord link rules.

use canon_chord::{chord_fingers, chord_links, chord_links_bounded, nondet_links_bounded};
use canon_id::{ring::SortedRing, rng::Seed, NodeId, RingDistance, ID_BITS};
use proptest::prelude::*;

fn ring_strategy() -> impl Strategy<Value = SortedRing> {
    proptest::collection::vec(any::<u64>(), 2..150)
        .prop_map(|v| SortedRing::new(v.into_iter().map(NodeId::new).collect()))
}

/// Rings whose members crowd into an arc `2^width` wide, half of the time
/// one that straddles zero, so that fingers wrap, collide and run out at
/// every bit position.
fn clustered_ring_strategy() -> impl Strategy<Value = SortedRing> {
    (
        any::<bool>(),
        any::<u64>(),
        1u32..=64,
        proptest::collection::vec(any::<u64>(), 1..80),
    )
        .prop_map(|(straddle, base, width, offsets)| {
            let spread = |x: u64| x >> (64 - width);
            let base = if straddle {
                0u64.wrapping_sub(spread(base) / 2)
            } else {
                base
            };
            offsets
                .into_iter()
                .map(|x| NodeId::new(base.wrapping_add(spread(x))))
                .collect()
        })
}

/// A `(me, bound)` pair for `ring`: `me` is a member or, one time in four,
/// any identifier, and the bound is the full circle, a power of two, the
/// exact distance to a member (as Canon's own-ring bound always is) or
/// arbitrary.
fn query(ring: &SortedRing, pick: u64, kind: u8, raw: u64) -> (NodeId, RingDistance) {
    let ids = ring.as_slice();
    let me = if kind % 4 == 3 {
        NodeId::new(raw.rotate_left(17))
    } else {
        ids[(pick % ids.len() as u64) as usize]
    };
    let bound = match kind / 4 {
        0 => RingDistance::FULL_CIRCLE,
        1 => RingDistance::from_u64(1u64 << (raw % 64)),
        2 => RingDistance::from_u64(me.clockwise_to(ids[(raw % ids.len() as u64) as usize])),
        _ => RingDistance::from_u64(raw >> (raw % 64)),
    };
    (me, bound)
}

/// [`chord_links_bounded`]'s links as a list.
fn bounded(ring: &SortedRing, me: NodeId, bound: RingDistance) -> Vec<NodeId> {
    let mut out = Vec::new();
    chord_links_bounded(ring, me, bound, &mut out);
    out
}

/// The Chord rule as the paper states it, one successor search per bit.
fn per_bit_chord_links(ring: &SortedRing, me: NodeId, bound: RingDistance) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for k in 0..ID_BITS {
        if (1u128 << k) >= bound.as_u128() {
            break;
        }
        let Some(s) = ring.successor(me.offset(1u64 << k)) else {
            break;
        };
        let d = me.clockwise_to(s) as u128;
        if s != me && d >= (1u128 << k) && d < bound.as_u128() && out.last() != Some(&s) {
            out.push(s);
        }
    }
    out
}

proptest! {
    /// The finger walk returns exactly the per-bit rule's links, in the
    /// same order, on uniform and crowded rings, for members and outside
    /// points, under every kind of bound.
    #[test]
    fn chord_links_equal_the_per_bit_rule(
        uniform in ring_strategy(),
        crowded in clustered_ring_strategy(),
        pick in any::<u64>(),
        kind in 0u8..16,
        raw in any::<u64>(),
    ) {
        for ring in [&uniform, &crowded] {
            let (me, bound) = query(ring, pick, kind, raw);
            prop_assert_eq!(
                bounded(ring, me, bound),
                per_bit_chord_links(ring, me, bound)
            );
        }
    }

    /// One successor search per finger returned, plus at most one that
    /// finds nothing more: the cost is what the node links, not the 64
    /// bits of the identifier space.
    #[test]
    fn the_finger_walk_searches_once_per_finger(
        crowded in clustered_ring_strategy(),
        pick in any::<u64>(),
        kind in 0u8..16,
        raw in any::<u64>(),
    ) {
        let (me, bound) = query(&crowded, pick, kind, raw);
        let mut searches = 0usize;
        let mut fingers = Vec::new();
        chord_fingers(
            me,
            bound,
            |point| {
                searches += 1;
                crowded.successor(point)
            },
            &mut fingers,
        );
        prop_assert!(
            searches <= fingers.len() + 1,
            "{searches} searches for {} fingers",
            fingers.len()
        );
    }

    /// Bounded links are a subset of the flat rule's links and respect the
    /// bound.
    #[test]
    fn bounded_links_are_a_filtered_subset(ring in ring_strategy(), bound_exp in 1u32..64) {
        let me = *ring.as_slice().first().expect("nonempty");
        let bound = RingDistance::from_u64(1u64 << bound_exp);
        let bounded = bounded(&ring, me, bound);
        let flat = chord_links(&ring, me);
        for l in &bounded {
            prop_assert!((me.clockwise_to(*l) as u128) < bound.as_u128());
            prop_assert!(flat.contains(l), "bounded link {l} not in flat set");
        }
        // Everything in the flat set within the bound must also be kept.
        for l in &flat {
            if (me.clockwise_to(*l) as u128) < bound.as_u128() {
                prop_assert!(bounded.contains(l));
            }
        }
    }

    /// Every flat link is the successor of me + 2^k for some k, at distance
    /// >= 2^k.
    #[test]
    fn flat_links_satisfy_the_chord_rule(ring in ring_strategy()) {
        for &me in ring.as_slice().iter().take(10) {
            for l in chord_links(&ring, me) {
                let d = me.clockwise_to(l) as u128;
                let matches = (0..64u32).any(|k| {
                    d >= (1u128 << k) && ring.successor(me.offset(1u64 << k)) == Some(l)
                });
                prop_assert!(matches, "link {l} has no justifying k");
            }
        }
    }

    /// The ring successor is always among the flat links (k = 0 rule).
    #[test]
    fn successor_always_linked(ring in ring_strategy()) {
        for &me in ring.as_slice().iter().take(10) {
            let succ = ring.strict_successor(me).expect("nonempty");
            if succ != me {
                prop_assert!(chord_links(&ring, me).contains(&succ));
            }
        }
    }

    /// Nondeterministic links stay within their bound and are distinct.
    #[test]
    fn nondet_links_respect_bound(ring in ring_strategy(), seed in any::<u64>(), bound_exp in 1u32..64) {
        let me = *ring.as_slice().last().expect("nonempty");
        let bound = RingDistance::from_u64(1u64 << bound_exp);
        let mut rng = Seed(seed).rng();
        let mut links = Vec::new();
        nondet_links_bounded(&ring, me, bound, &mut rng, &mut links);
        let mut seen = std::collections::HashSet::new();
        for l in links {
            prop_assert!(l != me);
            prop_assert!((me.clockwise_to(l) as u128) < bound.as_u128());
            prop_assert!(seen.insert(l), "duplicate link {l}");
        }
    }
}
