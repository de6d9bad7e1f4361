//! The graph invariant auditor over built networks: the Canon merge
//! invariants (conditions (a)/(b), ring completeness, level accounting —
//! see `canon::audit`) hold on every figure-experiment family at the
//! figure smoke size and on randomly shaped hierarchies, and construction
//! is byte-identical across worker-thread counts.

use canon::audit::{verify_canonical, AuditReport, Violation};
use canon::cacophony::{build_cacophony, CacophonyRule};
use canon::cancan::{build_cancan, CanCanRule};
use canon::crescendo::{
    build_crescendo, build_nondet_crescendo, CrescendoRule, NondetCrescendoRule,
};
use canon::kandy::{build_kandy, KandyRule};
use canon::mixed::{build_lan_crescendo, LanRule};
use canon::CanonicalNetwork;
use canon_hierarchy::{Hierarchy, Placement};
use canon_id::rng::Seed;
use canon_id::NodeId;
use canon_kademlia::BucketChoice;
use proptest::prelude::*;

/// Builds and audits all seven builder families over one (hierarchy,
/// placement). The seeds mirror the `build_*` constructors: the
/// deterministic builders fix `Seed(0)`, the randomized ones derive a
/// labeled seed.
fn audit_families(
    h: &Hierarchy,
    p: &Placement,
    seed: Seed,
) -> [(&'static str, Result<AuditReport, Vec<Violation>>); 7] {
    let kandy = |choice| {
        let net = build_kandy(h, p, choice, seed);
        verify_canonical(h, p, &KandyRule::new(choice), seed.derive("kandy"), &net)
    };
    [
        (
            "crescendo",
            verify_canonical(h, p, &CrescendoRule, Seed(0), &build_crescendo(h, p)),
        ),
        (
            "nondet-crescendo",
            verify_canonical(
                h,
                p,
                &NondetCrescendoRule,
                seed.derive("nondet-crescendo"),
                &build_nondet_crescendo(h, p, seed),
            ),
        ),
        (
            "cacophony",
            verify_canonical(
                h,
                p,
                &CacophonyRule,
                seed.derive("cacophony"),
                &build_cacophony(h, p, seed),
            ),
        ),
        ("kandy-closest", kandy(BucketChoice::Closest)),
        ("kandy-random", kandy(BucketChoice::Random)),
        (
            "cancan",
            verify_canonical(h, p, &CanCanRule, Seed(0), &build_cancan(h, p)),
        ),
        (
            "lan-crescendo",
            verify_canonical(
                h,
                p,
                &LanRule::new(CrescendoRule),
                Seed(0),
                &build_lan_crescendo(h, p),
            ),
        ),
    ]
}

/// Every figure-experiment family verifies at n = 160, seed 42: fanout 10
/// at 1–5 levels (Figures 3–5), the fanout-4 3-level shape of the
/// locality/convergence figures, each under the uniform and the Zipf
/// placement of the robustness ablation. `--nocapture` prints the totals.
#[test]
fn figure_families_verify() {
    let (n, seed) = (160, Seed(42));
    let (mut graphs, mut links, mut merged) = (0, 0, 0);
    for (fanout, levels) in [(10, 1), (10, 2), (10, 3), (10, 5), (4, 3)] {
        let h = Hierarchy::balanced(fanout, levels);
        let placements = [
            (
                "uniform",
                Placement::uniform(&h, n, seed.derive("audit-uniform")),
            ),
            ("zipf", Placement::zipf(&h, n, seed.derive("audit-zipf"))),
        ];
        for (placement, p) in &placements {
            for (family, audit) in audit_families(&h, p, seed) {
                let report = audit.unwrap_or_else(|violations| {
                    panic!(
                        "{family} fanout={fanout} levels={levels} n={n} \
                         placement={placement} failed:\n{}",
                        violations
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join("\n")
                    )
                });
                assert!(report.recomputed);
                graphs += 1;
                links += report.links;
                merged += report.merged_links_checked;
            }
        }
    }
    println!("{graphs} graphs clean ({links} links, {merged} merged links checked)");
    // 5 shapes × 2 placements × 7 families, and the multi-level shapes
    // must actually exercise the merge checks.
    assert_eq!(graphs, 70);
    assert!(merged > 0);
}

/// A random tree grown by attaching each new domain under a random
/// existing one (same shape distribution as the hierarchy crate's own
/// property tests).
fn arb_hierarchy() -> impl Strategy<Value = Hierarchy> {
    proptest::collection::vec(any::<u16>(), 0..24).prop_map(|parents| {
        let mut h = Hierarchy::new();
        let mut all = vec![h.root()];
        for (i, p) in parents.into_iter().enumerate() {
            let parent = all[p as usize % all.len()];
            all.push(h.add_domain(parent, format!("d{i}")));
        }
        h
    })
}

/// Everything that makes a built network observable: sorted ids, each
/// node's (sorted) neighbor list, the per-level link counts, and each
/// node's leaf domain.
fn fingerprint(net: &CanonicalNetwork) -> (Vec<NodeId>, Vec<Vec<NodeId>>, Vec<usize>, Vec<u32>) {
    let g = net.graph();
    let ids = g.ids().to_vec();
    let neighbors = g
        .node_indices()
        .map(|i| g.neighbors(i).iter().map(|&j| g.id(j)).collect())
        .collect();
    let leaves = g
        .node_indices()
        .map(|i| net.leaf_of(i).index() as u32)
        .collect();
    (ids, neighbors, net.links_per_level().to_vec(), leaves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crescendo satisfies conditions (a)/(b), ring completeness, and level
    /// accounting on arbitrary hierarchy shapes and placements.
    #[test]
    fn crescendo_verifies_on_random_hierarchies(
        h in arb_hierarchy(),
        n in 1usize..48,
        seed in any::<u64>(),
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_crescendo(&h, &p);
        let report = verify_canonical(&h, &p, &CrescendoRule, Seed(0), &net)
            .map_err(|v| TestCaseError::fail(format!("{v:?}")))?;
        prop_assert!(report.recomputed);
        prop_assert_eq!(report.nodes, n);
    }

    /// Cacophony (randomized flat rule under the Canon transform) verifies
    /// for arbitrary construction seeds.
    #[test]
    fn cacophony_verifies_on_random_hierarchies(
        h in arb_hierarchy(),
        n in 1usize..48,
        pseed in any::<u64>(),
        bseed in any::<u64>(),
    ) {
        let p = Placement::zipf(&h, n, Seed(pseed));
        let net = build_cacophony(&h, &p, Seed(bseed));
        let report =
            verify_canonical(&h, &p, &CacophonyRule, Seed(bseed).derive("cacophony"), &net)
                .map_err(|v| TestCaseError::fail(format!("{v:?}")))?;
        prop_assert!(report.recomputed);
    }

    /// Kandy (XOR metric, per-bucket condition (b)) verifies for both
    /// bucket-choice policies.
    #[test]
    fn kandy_verifies_on_random_hierarchies(
        h in arb_hierarchy(),
        n in 1usize..48,
        seed in any::<u64>(),
        closest in any::<bool>(),
    ) {
        let choice = if closest { BucketChoice::Closest } else { BucketChoice::Random };
        let p = Placement::uniform(&h, n, Seed(seed));
        let net = build_kandy(&h, &p, choice, Seed(seed));
        let report =
            verify_canonical(&h, &p, &KandyRule::new(choice), Seed(seed).derive("kandy"), &net)
                .map_err(|v| TestCaseError::fail(format!("{v:?}")))?;
        prop_assert!(report.recomputed);
    }

    /// Rebuilding with the same seed under different worker-thread counts
    /// yields byte-identical networks.
    #[test]
    fn same_seed_is_identical_across_thread_counts(
        h in arb_hierarchy(),
        n in 1usize..48,
        seed in any::<u64>(),
    ) {
        let p = Placement::uniform(&h, n, Seed(seed));
        let reference =
            canon_par::with_threads(1, || fingerprint(&build_cacophony(&h, &p, Seed(seed))));
        for threads in [2usize, 3, 4] {
            let rebuilt = canon_par::with_threads(threads, || {
                fingerprint(&build_cacophony(&h, &p, Seed(seed)))
            });
            prop_assert_eq!(&rebuilt, &reference, "threads = {}", threads);
        }
    }
}
