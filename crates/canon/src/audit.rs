//! Machine-checked structural invariants of constructed Canonical networks.
//!
//! *How to Make Chord Correct* showed how easily ring invariants rot when
//! nobody re-checks them; this module is the guard rail for this codebase.
//! [`verify_structure`] checks, link by link, the two Canon merge conditions
//! of the paper (§2.1) plus per-domain ring completeness, using only the
//! metric — independently of the link rule that built the network:
//!
//! * **condition (b)** — every merged link must be *strictly closer than any
//!   node of the node's own (child) ring*. Under the clockwise metric this
//!   is a strict distance bound against the child-ring gap. Under XOR the
//!   repo follows the paper's per-bucket reading (see `kandy.rs`): a merged
//!   link's distance band must be empty in the child ring;
//! * **ring completeness** — within every domain of a node's root path the
//!   node retains the links greedy routing needs to stay inside the domain
//!   (its domain-ring successor under the clockwise metric; a link into
//!   every non-empty XOR bucket of the domain ring under XOR). This is the
//!   structural basis of path locality (§2.2);
//! * **instrumentation consistency** — `links_per_level` sums to the
//!   graph's link count and has no entries below the hierarchy's depth.
//!
//! [`verify_canonical`] additionally re-derives every node's link set from
//! the rule with the same seed (serially) and requires the graph to match
//! bit for bit — Canon **condition (a)** by reconstruction, which also
//! catches seed-nondeterminism and post-build corruption.
//!
//! The engine runs [`verify_structure`] automatically after every
//! `build_canonical` in debug and test builds; release builds skip it. The
//! crate's `tests/audit.rs` runs [`verify_canonical`] over the
//! figure-experiment families and over random hierarchies.

use crate::engine::{build_canonical, CanonicalNetwork, LinkRule};
use canon_hierarchy::{DomainId, DomainMembership, Hierarchy, Placement};
use canon_id::{metric::Metric, rng::Seed, NodeId, RingDistance, ID_BITS};
use std::fmt;

/// A violated invariant, locating the offending link or node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A merged link is not strictly closer than the closest node of the
    /// link owner's child ring (clockwise reading of condition (b)).
    ConditionB {
        /// Link owner.
        from: NodeId,
        /// Link target, in a sibling ring.
        to: NodeId,
        /// The domain whose merge granted the link (the leaves' LCA).
        merged_at: DomainId,
        /// Metric distance of the link.
        distance: u64,
        /// The own-ring bound the link had to beat.
        bound: RingDistance,
    },
    /// A merged link's XOR distance band is already served by the child
    /// ring (per-bucket reading of condition (b)).
    ConditionBBucket {
        /// Link owner.
        from: NodeId,
        /// Link target, in a sibling ring.
        to: NodeId,
        /// The domain whose merge granted the link.
        merged_at: DomainId,
        /// The distance band `[2^bucket, 2^(bucket+1))` of the link.
        bucket: u32,
        /// A child-ring node already in that band.
        conflicting: NodeId,
    },
    /// A node is missing the link to its successor within a domain ring it
    /// belongs to (clockwise ring completeness).
    MissingSuccessor {
        /// The incomplete node.
        node: NodeId,
        /// The domain whose ring is incomplete.
        domain: DomainId,
        /// The successor the node should link to.
        successor: NodeId,
    },
    /// A node has no link into a non-empty XOR bucket of a domain ring it
    /// belongs to (XOR ring completeness).
    MissingBucketLink {
        /// The incomplete node.
        node: NodeId,
        /// The domain whose ring is incomplete.
        domain: DomainId,
        /// The uncovered bucket.
        bucket: u32,
    },
    /// `links_per_level` does not sum to the graph's link count, or has
    /// entries deeper than the hierarchy.
    LevelAccounting {
        /// Sum of the per-level counters.
        sum: usize,
        /// Actual number of graph links.
        links: usize,
        /// Number of per-level entries.
        levels: usize,
        /// Number of levels in the hierarchy.
        hierarchy_levels: u32,
    },
    /// Re-deriving a node's links from the rule produced a different set
    /// (condition (a) / determinism failure).
    RebuildMismatch {
        /// The node whose links differ.
        node: NodeId,
        /// Links the rule derives but the graph lacks.
        missing: Vec<NodeId>,
        /// Links the graph has but the rule does not derive.
        unexpected: Vec<NodeId>,
    },
    /// Re-derivation produced different per-level link counts.
    RebuildLevelCounts {
        /// Counts the rule derives.
        expected: Vec<usize>,
        /// Counts recorded on the network.
        actual: Vec<usize>,
    },
    /// The graph's next-hop index disagrees with an exhaustive neighbor
    /// scan (the routing engine's fast-path invariant).
    IndexDivergence {
        /// The probed node.
        node: NodeId,
        /// The probed routing target.
        target: NodeId,
        /// The neighbor the index selects.
        indexed: Option<NodeId>,
        /// The neighbor an exhaustive scan selects.
        scanned: Option<NodeId>,
    },
}

impl Violation {
    /// The audit rule identifier, matching the linter's `[rule]` notation.
    pub fn rule(&self) -> &'static str {
        match self {
            Violation::ConditionB { .. } | Violation::ConditionBBucket { .. } => "condition-b",
            Violation::MissingSuccessor { .. } | Violation::MissingBucketLink { .. } => {
                "ring-completeness"
            }
            Violation::LevelAccounting { .. } => "level-accounting",
            Violation::RebuildMismatch { .. } | Violation::RebuildLevelCounts { .. } => {
                "condition-a"
            }
            Violation::IndexDivergence { .. } => "next-hop-index",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.rule())?;
        match self {
            Violation::ConditionB {
                from,
                to,
                merged_at,
                distance,
                bound,
            } => write!(
                f,
                "link {from} -> {to} merged at {merged_at}: distance {distance} \
                 is not below the own-ring bound {bound:?}"
            ),
            Violation::ConditionBBucket {
                from,
                to,
                merged_at,
                bucket,
                conflicting,
            } => write!(
                f,
                "link {from} -> {to} merged at {merged_at}: bucket {bucket} already \
                 holds own-ring node {conflicting}"
            ),
            Violation::MissingSuccessor {
                node,
                domain,
                successor,
            } => write!(
                f,
                "node {node} lacks its successor link {successor} within {domain}"
            ),
            Violation::MissingBucketLink {
                node,
                domain,
                bucket,
            } => write!(
                f,
                "node {node} lacks a link into non-empty bucket {bucket} of {domain}"
            ),
            Violation::LevelAccounting {
                sum,
                links,
                levels,
                hierarchy_levels,
            } => write!(
                f,
                "links_per_level sums to {sum} over {levels} levels, but the graph \
                 has {links} links and the hierarchy {hierarchy_levels} levels"
            ),
            Violation::RebuildMismatch {
                node,
                missing,
                unexpected,
            } => write!(
                f,
                "node {node}: re-derived links differ ({} missing, {} unexpected)",
                missing.len(),
                unexpected.len()
            ),
            Violation::RebuildLevelCounts { expected, actual } => write!(
                f,
                "re-derived links_per_level {expected:?} != recorded {actual:?}"
            ),
            Violation::IndexDivergence {
                node,
                target,
                indexed,
                scanned,
            } => write!(
                f,
                "node {node}, target {target}: next-hop index selects {indexed:?} \
                 but an exhaustive scan selects {scanned:?}"
            ),
        }
    }
}

/// What an audit pass covered; returned on success for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Nodes in the network.
    pub nodes: usize,
    /// Directed links in the network.
    pub links: usize,
    /// Links whose leaves' LCA was above the owner's leaf (merged links
    /// subjected to the condition (b) check).
    pub merged_links_checked: usize,
    /// (node, domain) ring-membership pairs checked for completeness.
    pub rings_checked: usize,
    /// (node, target) pairs probed for next-hop-index agreement.
    pub index_probes: usize,
    /// Whether the rule re-derivation (condition (a)) pass ran.
    pub recomputed: bool,
}

/// The XOR bucket index of the (non-zero) distance `d`: `k` such that
/// `d ∈ [2^k, 2^(k+1))`.
fn bucket_of(d: u64) -> u32 {
    debug_assert_ne!(d, 0);
    ID_BITS - 1 - d.leading_zeros()
}

/// Checks conditions (a)-independent structure: condition (b) on every
/// merged link, ring completeness per domain, and `links_per_level`
/// accounting. Returns every violation found (empty = structurally sound).
///
/// The metric decides the reading of condition (b) and completeness:
/// clockwise networks use strict distance bounds and successor links, XOR
/// networks the per-bucket formulation (see module docs).
pub fn verify_structure<M: Metric>(
    hierarchy: &Hierarchy,
    placement: &Placement,
    metric: M,
    net: &CanonicalNetwork,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let members = DomainMembership::build(hierarchy, placement);
    let graph = net.graph();
    audit_structure(hierarchy, &members, metric, net, graph, &mut violations);
    violations
}

/// Shared body of [`verify_structure`]/[`verify_canonical`].
fn audit_structure<M: Metric>(
    hierarchy: &Hierarchy,
    members: &DomainMembership,
    metric: M,
    net: &CanonicalNetwork,
    graph: &canon_overlay::OverlayGraph,
    violations: &mut Vec<Violation>,
) -> AuditReport {
    let mut report = AuditReport {
        nodes: graph.len(),
        links: graph.link_count(),
        ..AuditReport::default()
    };

    // Condition (b) on every merged link. A link is "merged" when the
    // owner's and target's leaf domains differ; the level that granted it
    // is exactly their LCA (bounded rules cannot emit a cross-ring pair at
    // any other level — see the module docs of `engine`).
    for (ui, vi) in graph.edges() {
        let (u, v) = (graph.id(ui), graph.id(vi));
        let (lu, lv) = (net.leaf_of(ui), net.leaf_of(vi));
        if lu == lv {
            continue; // intra-leaf link: the flat rule applies unrestricted
        }
        let lca = hierarchy.lca(lu, lv);
        let child = hierarchy.ancestor_at_depth(lu, hierarchy.depth(lca) + 1);
        let own_ring = members.ring(child);
        report.merged_links_checked += 1;
        let d = metric.distance(u, v);
        if metric.is_symmetric() {
            // Per-bucket reading: the link's distance band must be empty in
            // the child ring (otherwise a lower level already served it).
            let k = bucket_of(d);
            if let Some(&conflicting) = own_ring.xor_bucket(u, k).first() {
                violations.push(Violation::ConditionBBucket {
                    from: u,
                    to: v,
                    merged_at: lca,
                    bucket: k,
                    conflicting,
                });
            }
        } else {
            let bound = own_ring.own_ring_bound(metric, u);
            if u128::from(d) >= bound.as_u128() {
                violations.push(Violation::ConditionB {
                    from: u,
                    to: v,
                    merged_at: lca,
                    distance: d,
                    bound,
                });
            }
        }
    }

    // Ring completeness per domain: walk each node's root path.
    for ui in graph.node_indices() {
        let u = graph.id(ui);
        // Invariant verification, not routing: buckets every in-domain
        // neighbor by distance to check ring completeness.
        // audit: allow(greedy-outside-engine)
        let neighbors = graph.neighbors(ui);
        for domain in hierarchy.ancestors(net.leaf_of(ui)) {
            let ring = members.ring(domain);
            if ring.len() < 2 {
                continue;
            }
            report.rings_checked += 1;
            if metric.is_symmetric() {
                // Which buckets do the in-domain neighbors cover?
                let mut covered = 0u64;
                for &ni in neighbors {
                    let nl = net.leaf_of(ni);
                    if hierarchy.depth(nl) >= hierarchy.depth(domain)
                        && hierarchy.ancestor_at_depth(nl, hierarchy.depth(domain)) == domain
                    {
                        covered |= 1u64 << bucket_of(metric.distance(u, graph.id(ni)));
                    }
                }
                for k in 0..ID_BITS {
                    if covered & (1u64 << k) == 0 && !ring.xor_bucket(u, k).is_empty() {
                        violations.push(Violation::MissingBucketLink {
                            node: u,
                            domain,
                            bucket: k,
                        });
                    }
                }
            } else {
                match ring.strict_successor(u) {
                    Some(s) if s != u => {
                        let si = graph.index_of(s);
                        if si.is_none_or(|si| neighbors.binary_search(&si).is_err()) {
                            violations.push(Violation::MissingSuccessor {
                                node: u,
                                domain,
                                successor: s,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Next-hop-index agreement: the routing engine's fast path selects
    // each hop from the graph's `NextHopIndex` instead of scanning
    // neighbors; verify the two agree on deterministic probe targets
    // spread around the identifier circle from every node.
    let index = graph.next_hop_index();
    for ui in graph.node_indices() {
        let u = graph.id(ui);
        let probes = [
            u.offset(1),
            u.offset(u64::MAX / 2),
            NodeId::new(u.raw().rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15),
        ];
        for target in probes {
            report.index_probes += 1;
            let indexed = index.next_toward(metric, ui, target);
            // Invariant reference, not routing: exhaustive neighbor scan.
            let scanned = graph
                // audit: allow(greedy-outside-engine)
                .neighbors(ui)
                .iter()
                .map(|&nb| (metric.distance(graph.id(nb), target), nb))
                .min()
                .map(|(d, nb)| (nb, d));
            if indexed != scanned {
                violations.push(Violation::IndexDivergence {
                    node: u,
                    target,
                    indexed: indexed.map(|(nb, _)| graph.id(nb)),
                    scanned: scanned.map(|(nb, _)| graph.id(nb)),
                });
            }
        }
    }

    // Instrumentation accounting.
    let sum: usize = net.links_per_level().iter().sum();
    if sum != report.links || net.links_per_level().len() > hierarchy.levels() as usize {
        violations.push(Violation::LevelAccounting {
            sum,
            links: report.links,
            levels: net.links_per_level().len(),
            hierarchy_levels: hierarchy.levels(),
        });
    }

    report
}

/// Full audit: [`verify_structure`] plus condition (a) by re-derivation —
/// the network is rebuilt serially from `(rule, seed)` and must match the
/// given one bit for bit (links and per-level counts).
///
/// `seed` must be the seed `build_canonical` received (the `build_*`
/// convenience constructors derive labeled seeds; see their sources).
///
/// # Errors
///
/// Returns every violation found when the network fails the audit.
pub fn verify_canonical<R: LinkRule>(
    hierarchy: &Hierarchy,
    placement: &Placement,
    rule: &R,
    seed: Seed,
    net: &CanonicalNetwork,
) -> Result<AuditReport, Vec<Violation>> {
    let mut violations = Vec::new();
    let members = DomainMembership::build(hierarchy, placement);
    let graph = net.graph();
    let mut report = audit_structure(
        hierarchy,
        &members,
        rule.metric(),
        net,
        graph,
        &mut violations,
    );

    // Condition (a) by reconstruction: the rule, applied over the union
    // ring at every level with the same per-node seeds, must re-derive
    // exactly the links the network holds.
    let rebuilt = canon_par::with_threads(1, || build_canonical(hierarchy, placement, rule, seed));
    let rg = rebuilt.graph();
    if rg.ids() == graph.ids() {
        for ui in graph.node_indices() {
            let (got, want) = (graph.neighbors(ui), rg.neighbors(ui));
            if got != want {
                let missing = want
                    .iter()
                    .filter(|i| !got.contains(i))
                    .map(|&i| graph.id(i))
                    .collect();
                let unexpected = got
                    .iter()
                    .filter(|i| !want.contains(i))
                    .map(|&i| graph.id(i))
                    .collect();
                violations.push(Violation::RebuildMismatch {
                    node: graph.id(ui),
                    missing,
                    unexpected,
                });
            }
        }
    } else {
        violations.push(Violation::RebuildMismatch {
            node: graph.ids().first().copied().unwrap_or_default(),
            missing: rg.ids().to_vec(),
            unexpected: graph.ids().to_vec(),
        });
    }
    if rebuilt.links_per_level() != net.links_per_level() {
        violations.push(Violation::RebuildLevelCounts {
            expected: rebuilt.links_per_level().to_vec(),
            actual: net.links_per_level().to_vec(),
        });
    }
    report.recomputed = true;

    if violations.is_empty() {
        Ok(report)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cacophony::build_cacophony;
    use crate::cancan::build_cancan;
    use crate::crescendo::{build_crescendo, build_nondet_crescendo, CrescendoRule};
    use crate::kandy::build_kandy;
    use crate::mixed::build_lan_crescendo;
    use canon_id::metric::{Clockwise, Xor};
    use canon_kademlia::BucketChoice;

    fn setup(levels: u32, n: usize) -> (Hierarchy, Placement) {
        let h = Hierarchy::balanced(3, levels);
        let p = Placement::uniform(&h, n, Seed(11));
        (h, p)
    }

    #[test]
    fn crescendo_passes_full_audit() {
        let (h, p) = setup(3, 120);
        let net = build_crescendo(&h, &p);
        let report = verify_canonical(&h, &p, &CrescendoRule, Seed(0), &net).unwrap();
        assert_eq!(report.nodes, 120);
        assert!(report.merged_links_checked > 0);
        assert!(report.rings_checked > 0);
        assert_eq!(report.index_probes, 3 * 120);
        assert!(report.recomputed);
    }

    #[test]
    fn all_builders_pass_structure_audit() {
        let (h, p) = setup(3, 90);
        let clockwise: Vec<CanonicalNetwork> = vec![
            build_crescendo(&h, &p),
            build_nondet_crescendo(&h, &p, Seed(5)),
            build_cacophony(&h, &p, Seed(6)),
            build_lan_crescendo(&h, &p),
        ];
        for net in &clockwise {
            assert_eq!(verify_structure(&h, &p, Clockwise, net), Vec::new());
        }
        let xor: Vec<CanonicalNetwork> = vec![
            build_kandy(&h, &p, BucketChoice::Closest, Seed(7)),
            build_kandy(&h, &p, BucketChoice::Random, Seed(8)),
            build_cancan(&h, &p),
        ];
        for net in &xor {
            assert_eq!(verify_structure(&h, &p, Xor, net), Vec::new());
        }
    }

    #[test]
    fn flat_network_has_no_merged_links() {
        let (h, p) = setup(1, 40);
        let net = build_crescendo(&h, &p);
        let report = verify_canonical(&h, &p, &CrescendoRule, Seed(0), &net).unwrap();
        assert_eq!(report.merged_links_checked, 0);
    }

    #[test]
    fn planted_condition_b_violation_is_caught() {
        // Build a sound Crescendo network, then graft a link that overshoots
        // the owner's child ring: from a node to the node "farthest" from it
        // in another leaf (clockwise), which cannot beat the own-ring bound
        // for rings of size >= 2.
        use canon_overlay::GraphBuilder;
        let (h, p) = setup(2, 60);
        let net = build_crescendo(&h, &p);
        let g = net.graph();

        // Pick a node whose leaf ring has >= 2 members and a target in a
        // different leaf at clockwise distance above the own-ring gap.
        let members = DomainMembership::build(&h, &p);
        let mut planted = None;
        'outer: for ui in g.node_indices() {
            let u = g.id(ui);
            let leaf = net.leaf_of(ui);
            let ring = members.ring(leaf);
            if ring.len() < 2 {
                continue;
            }
            let bound = ring.clockwise_gap(u);
            for vi in g.node_indices() {
                let v = g.id(vi);
                if net.leaf_of(vi) != leaf
                    && u128::from(u.clockwise_to(v)) >= bound.as_u128()
                    && !g.neighbors(ui).contains(&vi)
                {
                    planted = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = planted.expect("test population admits a bad link");

        // Re-create the graph with the bad link added.
        let mut b = GraphBuilder::with_nodes(g.ids());
        for (a, t) in g.edges() {
            b.add_link(g.id(a), g.id(t));
        }
        b.add_link(u, v);
        let mut tampered = net.clone();
        tampered_set_graph(&mut tampered, b.build());

        let violations = verify_structure(&h, &p, Clockwise, &tampered);
        assert!(violations.iter().any(
            |x| matches!(x, Violation::ConditionB { from, to, .. } if *from == u && *to == v)
        ));
        // Accounting also trips: links_per_level no longer sums up.
        assert!(violations
            .iter()
            .any(|x| matches!(x, Violation::LevelAccounting { .. })));
        // And the full audit reports the grafted link as unexpected.
        let errs = verify_canonical(&h, &p, &CrescendoRule, Seed(0), &tampered).unwrap_err();
        assert!(errs
            .iter()
            .any(|x| matches!(x, Violation::RebuildMismatch { .. })));
    }

    #[test]
    fn removed_successor_link_is_caught() {
        use canon_overlay::GraphBuilder;
        let (h, p) = setup(2, 50);
        let net = build_crescendo(&h, &p);
        let g = net.graph();
        // Drop one node's global-ring successor link.
        let victim = g.node_indices().next().unwrap();
        let u = g.id(victim);
        let succ = g.ring().strict_successor(u).unwrap();
        let mut b = GraphBuilder::with_nodes(g.ids());
        for (a, t) in g.edges() {
            if !(a == victim && g.id(t) == succ) {
                b.add_link(g.id(a), g.id(t));
            }
        }
        let mut tampered = net.clone();
        tampered_set_graph(&mut tampered, b.build());
        let violations = verify_structure(&h, &p, Clockwise, &tampered);
        assert!(violations
            .iter()
            .any(|x| matches!(x, Violation::MissingSuccessor { node, .. } if *node == u)));
    }

    #[test]
    fn violations_render_with_rule_tags() {
        let v = Violation::MissingSuccessor {
            node: NodeId::new(1),
            domain: Hierarchy::new().root(),
            successor: NodeId::new(2),
        };
        let s = v.to_string();
        assert!(s.starts_with("[ring-completeness]"), "{s}");
        assert!(s.contains("successor"), "{s}");
    }

    /// Test-only back door: swap the graph of a network to model tampering.
    fn tampered_set_graph(net: &mut CanonicalNetwork, graph: canon_overlay::OverlayGraph) {
        net.replace_graph_for_tests(graph);
    }
}
