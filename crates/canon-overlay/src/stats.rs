//! Degree and hop-count statistics (the measurements behind Figures 3–5).
//!
//! Hop counts are read off the routes the shared routing engine returns: a
//! route's hop count is [`Route::hops`](crate::Route::hops).
//!
//! The query sweep fans its routing work across [`canon_par::par_map`]
//! and stay **byte-deterministic at any thread count**: the random pairs
//! are pre-drawn serially (the exact RNG call sequence of the old serial
//! loops), only the routes are computed in parallel, and results are
//! merged in index order, so every accumulator sees the same values in the
//! same order as the serial code.

use crate::graph::{NodeIndex, OverlayGraph};
use crate::route::{self, RouteError};
use canon_id::{metric::Metric, rng::Seed};
use canon_par::par_map;
use rand::Rng;

/// Draws `pairs` ordered pairs of distinct node indices — the sampling
/// scheme of [`hop_stats`], serial by construction so the sampled workload
/// is independent of thread count.
fn draw_pairs(n: usize, pairs: usize, seed: Seed) -> Vec<(NodeIndex, NodeIndex)> {
    let mut rng = seed.rng();
    (0..pairs)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            (NodeIndex(a as u32), NodeIndex(b as u32))
        })
        .collect()
}

/// Summary statistics over a set of samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub stddev: f64,
}

impl Summary {
    /// Summarizes an iterator of samples. Returns the zero summary when the
    /// iterator is empty.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Summary {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut sumsq = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for s in samples {
            count += 1;
            sum += s;
            sumsq += s * s;
            min = min.min(s);
            max = max.max(s);
        }
        if count == 0 {
            return Summary::default();
        }
        let mean = sum / count as f64;
        let var = if count > 1 {
            ((sumsq - sum * sum / count as f64) / (count as f64 - 1.0)).max(0.0)
        } else {
            0.0
        };
        Summary {
            count,
            mean,
            min,
            max,
            stddev: var.sqrt(),
        }
    }
}

/// Out-degree statistics of an overlay graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Summary over per-node out-degrees.
    pub summary: Summary,
    /// `histogram[d]` = number of nodes with out-degree `d`.
    pub histogram: Vec<usize>,
}

impl DegreeStats {
    /// Computes degree statistics for `graph`.
    pub fn of(graph: &OverlayGraph) -> DegreeStats {
        let degrees: Vec<usize> = graph.node_indices().map(|i| graph.degree(i)).collect();
        let maxd = degrees.iter().copied().max().unwrap_or(0);
        let mut histogram = vec![0usize; maxd + 1];
        for &d in &degrees {
            histogram[d] += 1;
        }
        DegreeStats {
            summary: Summary::of(degrees.iter().map(|&d| d as f64)),
            histogram,
        }
    }

    /// The fraction of nodes at each degree (the PDF plotted in Figure 4).
    pub fn pdf(&self) -> Vec<f64> {
        let n = self.summary.count.max(1) as f64;
        self.histogram.iter().map(|&c| c as f64 / n).collect()
    }
}

/// Hop-count statistics over sampled source/destination pairs (Figure 5).
///
/// Samples `pairs` random ordered pairs of distinct nodes, routes greedily,
/// and summarizes hop counts.
///
/// # Errors
///
/// Returns the first [`RouteError`] if a sampled route fails — a structural
/// defect in the graph that experiments should fail loudly on.
///
/// # Panics
///
/// Panics if the graph has fewer than two nodes.
pub fn hop_stats<M: Metric>(
    graph: &OverlayGraph,
    metric: M,
    pairs: usize,
    seed: Seed,
) -> Result<Summary, RouteError> {
    assert!(graph.len() >= 2, "hop sampling needs at least two nodes");
    let drawn = draw_pairs(graph.len(), pairs, seed);
    let routed = par_map(&drawn, |_, &(a, b)| {
        Ok(route::route(graph, metric, a, b)?.hops() as f64)
    });
    let samples: Vec<f64> = routed.into_iter().collect::<Result<_, _>>()?;
    Ok(Summary::of(samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use canon_id::{metric::Clockwise, NodeId};

    #[test]
    fn summary_of_known_samples() {
        let s = Summary::of([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::of(std::iter::empty());
        assert_eq!(s, Summary::default());
    }

    #[test]
    fn summary_of_single_sample() {
        let s = Summary::of([7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
    }

    fn line_graph(n: u64) -> OverlayGraph {
        let ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut b = GraphBuilder::with_nodes(&ids);
        for i in 0..n {
            b.add_link(NodeId::new(i), NodeId::new((i + 1) % n));
        }
        b.build()
    }

    #[test]
    fn degree_stats_of_ring() {
        let g = line_graph(10);
        let d = DegreeStats::of(&g);
        assert_eq!(d.summary.mean, 1.0);
        assert_eq!(d.summary.min, 1.0);
        assert_eq!(d.summary.max, 1.0);
        assert_eq!(d.histogram, vec![0, 10]);
        let pdf = d.pdf();
        assert!((pdf[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hop_stats_on_successor_ring() {
        // On a successor-only ring, expected hops over random pairs ≈ n/2.
        let g = line_graph(32);
        let s = hop_stats(&g, Clockwise, 2000, Seed(5)).unwrap();
        assert_eq!(s.count, 2000);
        assert!(s.mean > 10.0 && s.mean < 22.0, "mean {}", s.mean);
        assert!(s.min >= 1.0);
        assert!(s.max <= 31.0);
    }

    #[test]
    fn hop_stats_is_reproducible() {
        let g = line_graph(16);
        let a = hop_stats(&g, Clockwise, 100, Seed(9)).unwrap();
        let b = hop_stats(&g, Clockwise, 100, Seed(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn hop_stats_rejects_tiny_graphs() {
        let g = GraphBuilder::with_nodes(&[NodeId::new(1)]).build();
        let _ = hop_stats(&g, Clockwise, 10, Seed(0));
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        let g = line_graph(24);
        let hops_1 = canon_par::with_threads(1, || hop_stats(&g, Clockwise, 200, Seed(3)).unwrap());
        for threads in [2, 4, 13] {
            let hops_t = canon_par::with_threads(threads, || {
                hop_stats(&g, Clockwise, 200, Seed(3)).unwrap()
            });
            assert_eq!(hops_1, hops_t, "hop_stats diverges at {threads} threads");
        }
    }
}
