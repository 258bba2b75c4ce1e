//! Graph statistics — used to validate that the synthetic stand-ins have
//! the right family shape (power-law degrees for the social-graph
//! substitutes, uniform degrees for the meshes), and the [`GraphSummary`]
//! a serving layer's introspection endpoints report.

use crate::backend::CsrBackend;
use crate::csr::Graph;

/// What an introspection endpoint reports about a resident graph: its
/// size, the two degree facts a capacity plan needs, and the backend's
/// byte counts (the axis the compressed CSR backend optimizes — serve
/// more graph per box).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphSummary {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Sum of degrees (`2m`).
    pub total_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
    /// Total resident bytes of the graph structure (offsets + adjacency).
    pub memory_bytes: usize,
    /// Resident bytes of the adjacency payload alone — what the
    /// byte-compressed backend shrinks; `memory_bytes - adjacency_bytes`
    /// is the (backend-independent) offset array.
    pub adjacency_bytes: usize,
}

impl GraphSummary {
    /// The summary of `g` — a pure function of the graph, for any
    /// [`CsrBackend`]. `O(n)`: one pass over the degrees.
    pub fn of<B: CsrBackend>(g: &B) -> Self {
        let (mut max_degree, mut isolated) = (0, 0);
        for v in 0..g.num_vertices() as u32 {
            let d = g.degree(v);
            max_degree = max_degree.max(d);
            isolated += usize::from(d == 0);
        }
        GraphSummary {
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            total_degree: g.total_degree(),
            max_degree,
            isolated,
            memory_bytes: g.memory_bytes(),
            adjacency_bytes: g.adjacency_bytes(),
        }
    }
}

/// Summary statistics of a graph's degree sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2m/n`).
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
}

/// Computes degree summary statistics. `O(n log n)` (sorts a copy of the
/// degree sequence).
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0,
            isolated: 0,
        };
    }
    let mut degs: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    degs.sort_unstable();
    DegreeStats {
        min: degs[0],
        max: degs[n - 1],
        mean: g.total_degree() as f64 / n as f64,
        median: degs[n / 2],
        isolated: degs.iter().take_while(|&&d| d == 0).count(),
    }
}

/// Histogram of degrees in power-of-two buckets: entry `i` counts
/// vertices with degree in `[2^i, 2^{i+1})`; entry 0 counts degree 0–1.
/// A straight-line decay over buckets is the power-law signature.
pub fn degree_histogram_log2(g: &Graph) -> Vec<usize> {
    let mut hist = Vec::new();
    for v in 0..g.num_vertices() as u32 {
        let b = usize::BITS as usize - g.degree(v).leading_zeros() as usize;
        if hist.len() <= b {
            hist.resize(b + 1, 0);
        }
        hist[b] += 1;
    }
    hist
}

/// Global clustering coefficient estimated by sampling `samples` wedges
/// (paths of length 2) and testing closure. Deterministic given `seed`.
/// Social graphs close far more wedges than meshes or random graphs.
pub fn clustering_coefficient_sampled(g: &Graph, samples: usize, seed: u64) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let candidates: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| g.degree(v) >= 2)
        .collect();
    if candidates.is_empty() || samples == 0 {
        return 0.0;
    }
    let mut closed = 0usize;
    for _ in 0..samples {
        let v = candidates[rng.gen_range(0..candidates.len())];
        let nbrs = g.neighbors(v);
        let i = rng.gen_range(0..nbrs.len());
        let mut j = rng.gen_range(0..nbrs.len() - 1);
        if j >= i {
            j += 1;
        }
        if g.has_edge(nbrs[i], nbrs[j]) {
            closed += 1;
        }
    }
    closed as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_on_star() {
        let g = gen::star(10);
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert_eq!(s.mean, 18.0 / 10.0);
        assert_eq!(s.median, 1);
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn isolated_vertices_counted() {
        let g = crate::Graph::from_edges(5, &[(0, 1)]);
        assert_eq!(degree_stats(&g).isolated, 3);
    }

    #[test]
    fn histogram_covers_all_vertices() {
        let g = gen::rmat_graph500(10, 8, 1);
        let hist = degree_histogram_log2(&g);
        assert_eq!(hist.iter().sum::<usize>(), g.num_vertices());
        // Power law: the tail buckets are (much) smaller than the head.
        assert!(hist[1] > *hist.last().unwrap());
    }

    #[test]
    fn clique_closes_every_wedge() {
        let g = gen::clique(8);
        assert_eq!(clustering_coefficient_sampled(&g, 500, 1), 1.0);
    }

    #[test]
    fn star_closes_no_wedge() {
        let g = gen::star(10);
        assert_eq!(clustering_coefficient_sampled(&g, 500, 1), 0.0);
    }

    /// `GraphSummary::of` against a hand count, on both backends: a
    /// star, a graph with isolated vertices, and a random local graph.
    #[test]
    fn summary_matches_a_hand_count_on_both_backends() {
        fn check<B: CsrBackend>(g: &B, max_degree: usize, isolated: usize) {
            let s = GraphSummary::of(g);
            assert_eq!(s.num_vertices, g.num_vertices());
            assert_eq!(s.num_edges, g.num_edges());
            assert_eq!(s.total_degree, 2 * g.num_edges());
            assert_eq!((s.max_degree, s.isolated), (max_degree, isolated));
            assert_eq!(s.memory_bytes, g.memory_bytes());
            assert_eq!(s.adjacency_bytes, g.adjacency_bytes());
        }
        let star = gen::star(10);
        let sparse = crate::Graph::from_edges(6, &[(0, 1), (1, 2), (1, 4)]);
        let local = gen::rand_local(2000, 6, 2);
        let degs: Vec<usize> = (0..2000).map(|v| local.degree(v)).collect();
        let local_max = *degs.iter().max().unwrap();
        let local_isolated = degs.iter().filter(|&&d| d == 0).count();
        for (g, max_degree, isolated) in [
            (&star, 9, 0),
            (&sparse, 3, 2),
            (&local, local_max, local_isolated),
        ] {
            check(g, max_degree, isolated);
            check(&crate::CsrCompressed::from_graph(g), max_degree, isolated);
        }
        // The byte fields are the backend's own: plain CSR stores 4 bytes
        // per directed edge, the byte-coded backend well under 2.
        let plain = GraphSummary::of(&local);
        let comp = GraphSummary::of(&crate::CsrCompressed::from_graph(&local));
        assert_eq!(plain.adjacency_bytes, plain.total_degree * 4);
        assert!(comp.adjacency_bytes < plain.total_degree * 2);
        assert!(comp.memory_bytes < plain.memory_bytes);
        assert_eq!(
            GraphSummary::of(&crate::Graph::from_edges(0, &[])).max_degree,
            0
        );
    }

    #[test]
    fn empty_graph_degenerates_gracefully() {
        let g = crate::Graph::from_edges(0, &[]);
        let s = degree_stats(&g);
        assert_eq!(s.mean, 0.0);
        assert_eq!(clustering_coefficient_sampled(&g, 10, 1), 0.0);
    }
}
