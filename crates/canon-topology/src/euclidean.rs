//! A clustered Euclidean latency model — an alternative physical substrate.
//!
//! The paper evaluates on a transit-stub graph; DHT papers of the same era
//! often used Euclidean embeddings instead. This module places nodes in
//! Gaussian clusters on a plane (latency = Euclidean distance plus a fixed
//! access cost) and induces the natural two-level hierarchy (root →
//! cluster). Experiments that hold on both substrates — Crescendo's
//! constant stretch, locality collapse — are evidence the paper's claims
//! are not artifacts of one topology generator.

use canon_hierarchy::{Hierarchy, Placement};
use canon_id::{
    rng::{random_ids, Seed},
    NodeId,
};
use rand::Rng;
use std::collections::HashMap;

/// Shape parameters of the clustered plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EuclideanParams {
    /// Number of clusters (induced depth-1 domains).
    pub clusters: usize,
    /// Side length of the square the cluster centers are drawn from, in
    /// milliseconds (latency = distance).
    pub world_size: f64,
    /// Standard deviation of node positions around their cluster center.
    pub cluster_spread: f64,
    /// Fixed per-message access cost added to every latency.
    pub access_cost: f64,
}

impl Default for EuclideanParams {
    fn default() -> Self {
        EuclideanParams {
            clusters: 16,
            world_size: 300.0,
            cluster_spread: 5.0,
            access_cost: 2.0,
        }
    }
}

/// A population embedded in the clustered plane.
#[derive(Clone, Debug)]
pub struct EuclideanWorld {
    params: EuclideanParams,
    hierarchy: Hierarchy,
    placement: Placement,
    position_of: HashMap<NodeId, (f64, f64)>,
}

impl EuclideanWorld {
    /// Places `n` nodes in Gaussian clusters and builds the induced
    /// two-level hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `params.clusters == 0`.
    pub fn generate(params: EuclideanParams, n: usize, seed: Seed) -> Self {
        assert!(n > 0, "a world needs at least one node");
        assert!(params.clusters > 0, "need at least one cluster");
        let mut rng = seed.derive("euclidean").rng();
        let centers: Vec<(f64, f64)> = (0..params.clusters)
            .map(|_| {
                (
                    rng.gen::<f64>() * params.world_size,
                    rng.gen::<f64>() * params.world_size,
                )
            })
            .collect();

        let mut h = Hierarchy::new();
        let leaves: Vec<_> = (0..params.clusters)
            .map(|c| h.add_domain(h.root(), format!("cluster{c}")))
            .collect();

        let ids = random_ids(seed.derive("ids"), n);
        let mut position_of = HashMap::with_capacity(n);
        let mut pairs = Vec::with_capacity(n);
        for &id in &ids {
            let c = rng.gen_range(0..params.clusters);
            let (cx, cy) = centers[c];
            // Box-Muller for a Gaussian offset.
            let (u1, u2): (f64, f64) = (rng.gen_range(f64::MIN_POSITIVE..1.0), rng.gen());
            let r = params.cluster_spread * (-2.0 * u1.ln()).sqrt();
            let (dx, dy) = (
                r * (std::f64::consts::TAU * u2).cos(),
                r * (std::f64::consts::TAU * u2).sin(),
            );
            position_of.insert(id, (cx + dx, cy + dy));
            pairs.push((id, leaves[c]));
        }
        let placement = Placement::from_pairs(&h, pairs);
        EuclideanWorld {
            params,
            hierarchy: h,
            placement,
            position_of,
        }
    }

    /// The induced two-level hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The node placement over cluster domains.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The position of a node on the plane.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not placed.
    pub fn position(&self, id: NodeId) -> (f64, f64) {
        self.position_of[&id]
    }

    /// End-to-end latency between two nodes: Euclidean distance plus the
    /// access cost (0 for a node to itself).
    ///
    /// # Panics
    ///
    /// Panics if either node is not placed.
    pub fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            return 0.0;
        }
        let (ax, ay) = self.position_of[&a];
        let (bx, by) = self.position_of[&b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() + self.params.access_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_induces_two_level_hierarchy() {
        let w = EuclideanWorld::generate(EuclideanParams::default(), 200, Seed(1));
        assert_eq!(w.hierarchy().levels(), 2);
        assert_eq!(w.hierarchy().leaves().len(), 16);
        assert_eq!(w.placement().len(), 200);
    }

    #[test]
    fn latency_is_a_metric_with_access_floor() {
        let w = EuclideanWorld::generate(EuclideanParams::default(), 100, Seed(2));
        let ids = w.placement().ids();
        for i in 1..20 {
            let l = w.latency(ids[0], ids[i]);
            assert!(l >= 2.0, "latency {l} below access cost");
            assert!((l - w.latency(ids[i], ids[0])).abs() < 1e-12, "asymmetric");
        }
        assert_eq!(w.latency(ids[0], ids[0]), 0.0);
        // Triangle inequality (Euclidean + constant access cost per leg).
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        assert!(w.latency(a, c) <= w.latency(a, b) + w.latency(b, c) + 1e-9);
    }

    #[test]
    fn intra_cluster_latency_is_small() {
        let w = EuclideanWorld::generate(EuclideanParams::default(), 400, Seed(3));
        let h = w.hierarchy().clone();
        let leaf = h.leaves()[0];
        let members: Vec<NodeId> = w
            .placement()
            .iter()
            .filter(|(_, l)| *l == leaf)
            .map(|(id, _)| id)
            .collect();
        if members.len() >= 2 {
            let l = w.latency(members[0], members[1]);
            // Two Gaussian(5.0) offsets: overwhelmingly below 50 ms; world
            // diameter is ~424 ms.
            assert!(l < 50.0, "intra-cluster latency {l}");
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let a = EuclideanWorld::generate(EuclideanParams::default(), 50, Seed(4));
        let b = EuclideanWorld::generate(EuclideanParams::default(), 50, Seed(4));
        let ids = a.placement().ids();
        assert_eq!(a.position(ids[7]), b.position(ids[7]));
    }
}
