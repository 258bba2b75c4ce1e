//! Property tests: the byte-compressed CSR backend is observationally
//! identical to plain CSR on arbitrary graphs — same degrees, same
//! neighbor enumerations (in the same ascending order), same random
//! access, same set queries — while storing fewer adjacency
//! bytes on graphs with any locality.

use lgc_graph::{gen, CsrBackend, CsrCompressed, Graph};
use proptest::prelude::*;

fn assert_equivalent(g: &Graph, c: &CsrCompressed) {
    assert_eq!(c.num_vertices(), g.num_vertices());
    assert_eq!(c.num_edges(), g.num_edges());
    assert_eq!(c.total_degree(), CsrBackend::total_degree(g));
    for v in 0..g.num_vertices() as u32 {
        let want = g.neighbors(v);
        assert_eq!(c.degree(v), want.len(), "degree(v={v})");
        // Full enumeration, in the same (ascending) order.
        let mut got = Vec::with_capacity(want.len());
        c.for_each_neighbor(v, |w| got.push(w));
        assert_eq!(got.as_slice(), want, "neighbors(v={v})");
        // Ranged enumeration at every split point, and random access.
        for (k, &w) in want.iter().enumerate() {
            assert_eq!(c.neighbor_at(v, k), w, "neighbor_at({v}, {k})");
        }
        if !want.is_empty() {
            let mid = want.len() / 2;
            let mut ranged = Vec::new();
            c.for_each_neighbor_in(v, mid, want.len(), |w| ranged.push(w));
            assert_eq!(ranged.as_slice(), &want[mid..], "ranged(v={v})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary edge lists: the compressed backend answers every
    /// structural query exactly like the plain graph it was built from.
    #[test]
    fn compressed_equals_plain_on_arbitrary_graphs(
        n in 2usize..80,
        raw in prop::collection::vec((0u32..80, 0u32..80), 0..300),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = Graph::from_edges(n, &edges);
        let c = CsrCompressed::from_graph(&g);
        assert_equivalent(&g, &c);
    }

    /// Derived set queries (volume / boundary / conductance) match
    /// bitwise: they are computed from the same integers either way.
    #[test]
    fn set_queries_match_bitwise(
        seed in 0u64..50,
        pick in prop::collection::vec(any::<bool>(), 100),
    ) {
        let g = gen::rand_local(100, 4, seed);
        let c = CsrCompressed::from_graph(&g);
        let set: Vec<u32> = (0..100u32).filter(|&v| pick[v as usize]).collect();
        prop_assert_eq!(CsrBackend::volume(&c, &set), g.volume(&set));
        prop_assert_eq!(CsrBackend::boundary_size(&c, &set), g.boundary_size(&set));
        let pc = CsrBackend::conductance(&c, &set);
        let pg = g.conductance(&set);
        prop_assert!(pc == pg || (pc.is_infinite() && pg.is_infinite()));
    }

    /// Generator graphs (the realistic shapes) compress without loss and
    /// round-trip back to an identical plain graph.
    #[test]
    fn roundtrip_is_lossless_on_generators(seed in 0u64..30) {
        for g in [
            gen::rand_local(150, 5, seed),
            gen::rmat_graph500(8, 8, seed),
            gen::barabasi_albert(120, 3, seed),
        ] {
            let c = CsrCompressed::from_graph(&g);
            let back = c.to_graph();
            prop_assert_eq!(back.num_vertices(), g.num_vertices());
            for v in 0..g.num_vertices() as u32 {
                prop_assert_eq!(back.neighbors(v), g.neighbors(v));
            }
        }
    }
}
