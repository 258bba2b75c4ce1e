//! Property-based tests for the sweep cut: the parallel Theorem 1
//! implementation must agree with the sequential algorithm and with a
//! brute-force conductance oracle on arbitrary graphs and vectors — and,
//! bit for bit, on graphs big enough that its adjacency pass is split
//! into several edge chunks (one of them a star, whose hub alone covers
//! more than four) — and on supports past the fork threshold
//! (`N + vol(S_N) ≥ FORK_MIN_WORK`), the only ones on which a pool of two
//! or four threads runs anything but the one-thread code.

use plgc::cluster::{sweep_cut_par, sweep_cut_seq};
use plgc::graph::gen;
use plgc::ligra::FORK_MIN_WORK;
use plgc::{CsrBackend, CsrCompressed, Graph, Pool};
use proptest::prelude::*;

/// Arbitrary small graph + arbitrary sparse positive vector.
fn graph_and_vector() -> impl Strategy<Value = (Graph, Vec<(u32, f64)>)> {
    (
        2usize..40,
        prop::collection::vec((0u32..40, 0u32..40), 1..120),
        prop::collection::vec((0u32..40, 0.01f64..10.0), 1..25),
    )
        .prop_map(|(n, raw_edges, raw_p)| {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            let g = Graph::from_edges(n, &edges);
            let mut p: Vec<(u32, f64)> =
                raw_p.into_iter().map(|(v, m)| (v % n as u32, m)).collect();
            p.sort_unstable_by_key(|&(v, _)| v);
            p.dedup_by_key(|&mut (v, _)| v);
            (g, p)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parallel_sweep_equals_sequential((g, p) in graph_and_vector(), threads in 1usize..=4) {
        let pool = Pool::new(threads);
        let s = sweep_cut_seq(&g, &p);
        let q = sweep_cut_par(&pool, &g, &p);
        prop_assert_eq!(&s.order, &q.order);
        prop_assert_eq!(&s.conductances, &q.conductances);
        prop_assert_eq!(s.best_size, q.best_size);
        prop_assert_eq!(s.best_conductance, q.best_conductance);
    }

    #[test]
    fn sweep_conductances_match_oracle((g, p) in graph_and_vector()) {
        let s = sweep_cut_seq(&g, &p);
        for j in 1..=s.order.len() {
            let direct = g.conductance(&s.order[..j]);
            let got = s.conductances[j - 1];
            prop_assert!(
                (direct.is_infinite() && got.is_infinite())
                    || (direct - got).abs() < 1e-9,
                "prefix {}: {} vs {}", j, direct, got
            );
        }
        // The reported best really is the minimum over prefixes.
        if s.best_size > 0 {
            let min = s
                .conductances
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(s.best_conductance, min);
        }
    }

    #[test]
    fn sweep_order_is_by_normalized_mass((g, p) in graph_and_vector()) {
        let s = sweep_cut_seq(&g, &p);
        let score = |v: u32| {
            let m = p.iter().find(|&&(u, _)| u == v).unwrap().1;
            m / g.degree(v) as f64
        };
        for w in s.order.windows(2) {
            let (a, b) = (score(w[0]), score(w[1]));
            prop_assert!(a > b || (a == b && w[0] < w[1]), "order violated: {} then {}", w[0], w[1]);
        }
    }
}

/// The multi-chunk shapes: `rand_local`, `rmat_graph500`, `star`.
fn chunked_graph(shape: usize, seed: u64) -> Graph {
    match shape {
        0 => gen::rand_local(1500, 5, seed),
        1 => gen::rmat_graph500(10, 8, seed),
        // Hub degree 8999: its adjacency covers more than four chunks of
        // 2048 flattened edge slots.
        _ => gen::star(9000),
    }
}

/// A support holding about `frac` of the vertices, with masses drawn from
/// a handful of levels so that `p/d` ties (broken by vertex id) are common.
fn support(g: &Graph, frac: f64, seed: u64) -> Vec<(u32, f64)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..g.num_vertices() as u32)
        .filter_map(|v| {
            let r = next();
            ((r >> 11) as f64 / (1u64 << 53) as f64 <= frac)
                .then(|| (v, (1 + r % 6) as f64 * g.degree(v).max(1) as f64 / 64.0))
        })
        .collect()
}

/// Compares the two sweeps on a fresh pool of `threads`; returns how many
/// loops the parallel one forked.
fn assert_same_sweep<B: CsrBackend>(g: &B, p: &[(u32, f64)], threads: usize) -> u64 {
    let seq = sweep_cut_seq(g, p);
    let pool = Pool::new(threads);
    let par = sweep_cut_par(&pool, g, p);
    assert_eq!(seq.order, par.order, "order, t={threads}");
    assert_eq!(
        seq.conductances, par.conductances,
        "conductances, t={threads}"
    );
    assert_eq!(seq.best_size, par.best_size, "best index, t={threads}");
    assert_eq!(
        seq.best_conductance.to_bits(),
        par.best_conductance.to_bits()
    );
    pool.stats().loops_forked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_sweep_equals_sequential_across_chunks_threads_and_backends(
        shape in 0usize..3,
        graph_seed in 0u64..1000,
        mass_seed in 0u64..1000,
        above_half in any::<bool>(),
    ) {
        let g = chunked_graph(shape, graph_seed);
        let mut p = support(&g, if above_half { 0.85 } else { 0.15 }, mass_seed);
        if shape == 2 {
            // The hub alone is half the star's volume: it is what puts a
            // support above half, and what spans the chunks.
            p.retain(|&(v, _)| v != 0);
            if above_half {
                p.push((0, 0.5));
            }
        }
        let vol: usize = p.iter().map(|&(v, _)| g.degree(v)).sum();
        prop_assert_eq!(2 * vol > g.total_degree(), above_half, "support volume side");
        let packed = CsrCompressed::from_graph(&g);
        for threads in [1, 2, 4] {
            assert_same_sweep(&g, &p, threads);
            assert_same_sweep(&packed, &p, threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Past the fork threshold: a vector over a whole component (or most of
    /// one) of a graph big or dense enough that `N + vol(S_N)` reaches
    /// `FORK_MIN_WORK`, and one over about 6 % of a graph big enough that
    /// such a support still reaches it while `N < n/8`. Here — and, of this
    /// file's inputs, only here — the parallel sweep's sort, rank table
    /// (dense for the first input, a hash table for the second), adjacency
    /// pass and scans fork at two and four threads, and must still return
    /// the sequential sweep bit for bit; below the threshold every thread
    /// count runs the same code.
    #[test]
    fn parallel_sweep_equals_sequential_past_the_fork_threshold(
        dense in any::<bool>(),
        graph_seed in 0u64..1000,
        mass_seed in 0u64..1000,
        whole in any::<bool>(),
    ) {
        let g = if dense {
            gen::sbm(&[300; 4], 0.3, 0.01, graph_seed).0
        } else {
            gen::rand_local(10_000, 5, graph_seed)
        };
        let wide = gen::rand_local(60_000, 5, graph_seed);
        for (g, frac) in [(&g, if whole { 1.0 } else { 0.7 }), (&wide, 0.06)] {
            let component = plgc::graph::largest_component(g);
            let mut p = support(g, frac, mass_seed);
            p.retain(|&(v, _)| component.binary_search(&v).is_ok());
            let vol: usize = p.iter().map(|&(v, _)| g.degree(v)).sum();
            prop_assert!(p.len() + vol >= FORK_MIN_WORK, "N + vol = {}", p.len() + vol);
            if frac < 0.125 {
                prop_assert!(8 * p.len() < g.num_vertices(), "N = {} reaches n/8", p.len());
            }
            prop_assert_eq!(assert_same_sweep(g, &p, 1), 0, "one thread forks nothing");
            for threads in [2, 4] {
                prop_assert!(assert_same_sweep(g, &p, threads) > 0, "t={} forks", threads);
            }
            assert_same_sweep(&CsrCompressed::from_graph(g), &p, 2);
        }
    }
}
