//! Compressed sparse row (CSR) graphs — the in-memory format Ligra uses.

/// An undirected, unweighted graph in CSR form.
///
/// Vertices are `u32` ids in `[0, n)`; each undirected edge `{u, v}` is
/// stored twice (once in each endpoint's adjacency list), matching the
/// paper's convention where `vol(S)` sums degrees and `2m` is the total
/// degree. Adjacency lists are sorted and contain no self-loops or
/// duplicates (the paper removes both from its inputs, §4).
#[derive(Clone, Debug)]
pub struct Graph {
    offsets: Box<[usize]>,
    adj: Box<[u32]>,
}

impl Graph {
    /// Builds a graph from an edge list over `n` vertices. Edges may be
    /// given in either orientation, with duplicates and self-loops — the
    /// builder symmetrizes and cleans them (like the paper's preprocessing).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
        GraphBuilder::new(n).edges(edges.iter().copied()).build()
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Total degree `Σ_v d(v) = 2m` — the paper's `vol(V)`.
    #[inline]
    pub fn total_degree(&self) -> usize {
        self.adj.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let vi = v as usize;
        &self.adj[self.offsets[vi]..self.offsets[vi + 1]]
    }

    /// Total resident bytes of the CSR arrays (offsets + adjacency).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.adj.len() * std::mem::size_of::<u32>()
    }

    /// The subgraph induced on `keep` (sorted, duplicate-free vertex ids),
    /// with vertices relabeled to `0..keep.len()` in the given order.
    /// Returns the subgraph and the mapping `new id → old id`.
    ///
    /// `O(n + vol(keep))`.
    pub fn induced_subgraph(&self, keep: &[u32]) -> (Graph, Vec<u32>) {
        debug_assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "keep must be sorted unique"
        );
        let mut b = GraphBuilder::new(keep.len());
        for (new_u, &u) in keep.iter().enumerate() {
            for &w in self.neighbors(u) {
                if let Ok(new_w) = keep.binary_search(&w) {
                    if new_u < new_w {
                        b.edge(new_u as u32, new_w as u32);
                    }
                }
            }
        }
        (b.edges([]).build(), keep.to_vec())
    }

    /// Removes a vertex set from the graph — the paper's interactive
    /// workflow ("the analyst may want to repeatedly remove local
    /// clusters from a graph", §1). Returns the remaining graph and the
    /// mapping `new id → old id`.
    pub fn remove_vertices(&self, remove: &[u32]) -> (Graph, Vec<u32>) {
        let mut gone = remove.to_vec();
        gone.sort_unstable();
        gone.dedup();
        let keep: Vec<u32> = (0..self.num_vertices() as u32)
            .filter(|v| gone.binary_search(v).is_err())
            .collect();
        self.induced_subgraph(&keep)
    }

    /// Consumes the graph, returning `(offsets, adjacency)`.
    pub fn into_raw(self) -> (Box<[usize]>, Box<[u32]>) {
        (self.offsets, self.adj)
    }

    /// Rebuilds a graph from raw CSR arrays.
    ///
    /// Intended for I/O paths that already validated the format; panics if
    /// the arrays are structurally inconsistent.
    pub fn from_raw(offsets: Box<[usize]>, adj: Box<[u32]>) -> Graph {
        assert!(!offsets.is_empty(), "offsets must have n+1 entries");
        assert_eq!(offsets[0], 0);
        assert_eq!(*offsets.last().unwrap(), adj.len());
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        let n = offsets.len() - 1;
        assert!(
            adj.iter().all(|&v| (v as usize) < n),
            "neighbor id out of range"
        );
        Graph { offsets, adj }
    }
}

/// Accumulates raw edges and produces a clean CSR [`Graph`].
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex id u32::MAX is reserved");
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds one undirected edge (either orientation).
    pub fn edge(&mut self, u: u32, v: u32) -> &mut Self {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        self.edges.push((u, v));
        self
    }

    /// Adds many undirected edges.
    pub fn edges(mut self, it: impl IntoIterator<Item = (u32, u32)>) -> Self {
        self.edges.extend(it);
        self
    }

    /// Symmetrizes, sorts, deduplicates, strips self-loops, and builds CSR.
    pub fn build(self) -> Graph {
        let GraphBuilder { n, edges } = self;
        let mut directed: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for (u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range"
            );
            if u != v {
                directed.push((u, v));
                directed.push((v, u));
            }
        }
        directed.sort_unstable();
        directed.dedup();

        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &directed {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let adj: Vec<u32> = directed.into_iter().map(|(_, v)| v).collect();
        Graph {
            offsets: offsets.into_boxed_slice(),
            adj: adj.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 2-3 tail.
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn csr_shape() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.total_degree(), 8);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn builder_cleans_duplicates_self_loops_and_orientation() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 1), (2, 1)]);
        assert_eq!(g.num_edges(), 2); // {0,1} and {1,2}
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn edges_are_stored_in_both_directions() {
        let g = triangle_plus_tail();
        assert!(g.neighbors(0).binary_search(&1).is_ok());
        assert!(g.neighbors(1).binary_search(&0).is_ok());
        assert!(g.neighbors(0).binary_search(&3).is_err());
    }

    #[test]
    fn raw_roundtrip() {
        let g = triangle_plus_tail();
        let (o, a) = g.clone().into_raw();
        let g2 = Graph::from_raw(o, a);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.neighbors(2), g.neighbors(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range() {
        Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle_plus_tail();
        let (sub, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(map, vec![0, 1, 3]);
        assert_eq!(sub.num_vertices(), 3);
        // Only edge {0,1} survives; 3's edge went to removed vertex 2.
        assert_eq!(sub.num_edges(), 1);
        assert!(sub.neighbors(0).binary_search(&1).is_ok());
        assert_eq!(sub.degree(2), 0);
    }

    #[test]
    fn remove_vertices_complement_of_induced() {
        let g = triangle_plus_tail();
        let (rest, map) = g.remove_vertices(&[2]);
        assert_eq!(map, vec![0, 1, 3]);
        assert_eq!(rest.num_edges(), 1, "removing the hub leaves only {{0,1}}");
        let (same, _) = g.remove_vertices(&[]);
        assert_eq!(same.num_edges(), g.num_edges());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(3, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(crate::stats::GraphSummary::of(&g).max_degree, 0);
        assert!(g.neighbors(1).is_empty());
    }
}
