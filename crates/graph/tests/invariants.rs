//! Property tests: every generator must emit a structurally valid CSR
//! graph (symmetric, sorted, loop-free) and conductance must stay in
//! range on arbitrary vertex sets.

use lgc_graph::{gen, CsrBackend, Graph};
use proptest::prelude::*;

/// Structural invariants every clean undirected CSR graph satisfies.
fn assert_well_formed(g: &Graph) {
    let n = g.num_vertices();
    let mut total = 0usize;
    for v in 0..n as u32 {
        let nbrs = g.neighbors(v);
        total += nbrs.len();
        // sorted, unique, in-range, no self-loops
        assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "v={v} unsorted/dup");
        assert!(
            nbrs.iter().all(|&w| (w as usize) < n && w != v),
            "v={v} bad target"
        );
        // symmetry
        for &w in nbrs {
            assert!(
                g.neighbors(w).binary_search(&v).is_ok(),
                "missing reverse edge {w}->{v}"
            );
        }
    }
    assert_eq!(total, g.total_degree());
    assert_eq!(total % 2, 0);
    assert_eq!(total / 2, g.num_edges());
}

#[test]
fn generators_are_well_formed() {
    assert_well_formed(&gen::grid_3d(5, 4, 3));
    assert_well_formed(&gen::rand_local(300, 5, 1));
    assert_well_formed(&gen::rmat_graph500(10, 8, 2));
    assert_well_formed(&gen::barabasi_albert(500, 3, 3));
    assert_well_formed(&gen::erdos_renyi(400, 0.02, 4));
    assert_well_formed(&gen::sbm(&[50, 60, 70], 0.2, 0.01, 5).0);
    assert_well_formed(&gen::path(10));
    assert_well_formed(&gen::cycle(10));
    assert_well_formed(&gen::clique(8));
    assert_well_formed(&gen::star(9));
    assert_well_formed(&gen::two_cliques_bridge(7));
    assert_well_formed(&gen::figure1_graph());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_edge_lists_build_clean_graphs(
        n in 2usize..60,
        raw in prop::collection::vec((0u32..60, 0u32..60), 0..200),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = Graph::from_edges(n, &edges);
        assert_well_formed(&g);
    }

    #[test]
    fn conductance_bounded_on_random_sets(
        seed in 0u64..50,
        pick in prop::collection::vec(any::<bool>(), 120),
    ) {
        let g = gen::rand_local(120, 4, seed);
        let set: Vec<u32> = (0..120u32).filter(|&v| pick[v as usize]).collect();
        let phi = g.conductance(&set);
        // Either a degenerate set (infinite) or a true conductance in [0, 1].
        prop_assert!(phi.is_infinite() || (0.0..=1.0).contains(&phi), "phi={phi}");
    }

    #[test]
    fn complement_has_same_boundary(seed in 0u64..20, k in 1usize..119) {
        let g = gen::rand_local(120, 4, seed);
        let set: Vec<u32> = (0..k as u32).collect();
        let comp: Vec<u32> = (k as u32..120).collect();
        prop_assert_eq!(g.boundary_size(&set), g.boundary_size(&comp));
        prop_assert_eq!(g.volume(&set) + g.volume(&comp), g.total_degree() as u64);
    }
}
