//! Graph statistics: the [`GraphSummary`] a serving layer's
//! introspection endpoints report.

use crate::backend::CsrBackend;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

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
}
