//! Property tests for the direction-optimizing `edgeMap`: sparse push,
//! dense pull, and the spreading edge map that chooses between them must
//! cover *exactly* the same edge set as a plain sequential reference over
//! random graphs and adversarial frontier shapes (empty, full, skewed,
//! sparse), at 1/2/4 threads — and pull-mode accumulation must be bitwise
//! deterministic.

use lgc_graph::{gen, Graph};
use lgc_ligra::{
    edge_map, edge_map_dense, Absorb, DirectionParams, EdgeSpread, VertexSubset, Writer,
    FORK_MIN_WORK, NO_ADMIT,
};
use lgc_parallel::{atomic_f64_fetch_add, Bitset, Pool, UnsafeSlice};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Frontier shapes that stress different engine paths.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Empty,
    Single,
    EveryKth(u32),
    Full,
    Hubs,
}

fn graph_and_frontier() -> impl Strategy<Value = (Graph, Vec<u32>)> {
    (
        10usize..300,
        2usize..7,
        0u64..1000,
        prop_oneof![
            Just(Shape::Empty),
            Just(Shape::Single),
            (2u32..8).prop_map(Shape::EveryKth),
            Just(Shape::Full),
            Just(Shape::Hubs),
        ],
    )
        .prop_map(|(n, deg, seed, shape)| {
            let g = gen::rand_local(n.max(10), deg, seed);
            let n = g.num_vertices() as u32;
            let ids: Vec<u32> = match shape {
                Shape::Empty => vec![],
                Shape::Single => vec![seed as u32 % n],
                Shape::EveryKth(k) => (0..n).filter(|v| v % k == 0).collect(),
                Shape::Full => (0..n).collect(),
                Shape::Hubs => {
                    // The top few vertices by degree: a skewed frontier.
                    let mut by_deg: Vec<u32> = (0..n).collect();
                    by_deg.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
                    let mut top: Vec<u32> = by_deg.into_iter().take(5).collect();
                    top.sort_unstable();
                    top
                }
            };
            (g, ids)
        })
}

/// Per-CSR-edge hit counts from a sequential nested loop — the
/// independent reference no engine shares code with.
fn reference_trace(g: &Graph, ids: &[u32]) -> Vec<u64> {
    let mut want = vec![0u64; g.total_degree()];
    for &src in ids {
        let base: usize = (0..src).map(|v| g.degree(v)).sum();
        for k in 0..g.degree(src) {
            want[base + k] += 1;
        }
    }
    want
}

/// Records each engine callback into per-CSR-edge cells.
fn trace(g: &Graph, run: impl FnOnce(&(dyn Fn(u32, u32) + Sync))) -> Vec<u64> {
    let cells: Vec<AtomicU64> = (0..g.total_degree()).map(|_| AtomicU64::new(0)).collect();
    run(&|src, dst| {
        let nbrs = g.neighbors(src);
        let k = nbrs.partition_point(|&x| x < dst);
        assert_eq!(nbrs[k], dst, "callback got a non-edge");
        let base: usize = (0..src).map(|v| g.degree(v)).sum();
        cells[base + k].fetch_add(1, Ordering::Relaxed);
    });
    cells.into_iter().map(AtomicU64::into_inner).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Push and pull cover the same edges, each exactly once.
    #[test]
    fn push_and_pull_cover_identical_edges((g, ids) in graph_and_frontier(), threads in 1usize..=4) {
        let want = reference_trace(&g, &ids);
        let pool = Pool::new(threads);
        let subset = VertexSubset::from_sorted(ids.clone());
        let push = trace(&g, |f| edge_map(&pool, &g, &subset, f));
        prop_assert_eq!(&push, &want);
        let bits = Bitset::new(g.num_vertices());
        bits.set_sorted(&pool, &ids);
        let pull = trace(&g, |f| edge_map_dense(&pool, &g, &bits, f));
        prop_assert_eq!(&pull, &want);
    }

    /// The spreading edge map delivers the reference totals under every
    /// direction policy — always-push, always-pull and the default —
    /// under both absorption orders. Contributions are the integers
    /// `src + 1`, so each destination's total is exact and pins which
    /// sources reached it.
    #[test]
    fn spread_is_threshold_invariant((g, ids) in graph_and_frontier(), threads in 1usize..=4) {
        let mut want = vec![0.0f64; g.num_vertices()];
        for &src in &ids {
            for &dst in g.neighbors(src) {
                want[dst as usize] += f64::from(src + 1);
            }
        }
        let pool = Pool::new(threads);
        for params in [
            DirectionParams::push_only(),
            DirectionParams::pull_only(),
            DirectionParams::default(),
        ] {
            let mut spread = EdgeSpread::new(params);
            for order in [Absorb::PerEdge, Absorb::Sum] {
                let mut frontier = VertexSubset::from_sorted(ids.clone());
                let vol = frontier.volume(&g);
                let cells: Vec<AtomicU64> = want.iter().map(|_| AtomicU64::new(0)).collect();
                let staged = spread.stage(&pool, &g, &mut frontier, vol, |v| f64::from(v + 1));
                prop_assert_eq!(staged.direction(), params.choose(&g, ids.len(), vol));
                let absorb = |dst: u32, c, _| {
                    atomic_f64_fetch_add(&cells[dst as usize], c);
                };
                prop_assert!(!staged.absorb(order, absorb, NO_ADMIT));
                let got: Vec<f64> = cells.into_iter().map(|c| f64::from_bits(c.into_inner())).collect();
                prop_assert_eq!(&got, &want, "params {:?} {:?}", params, order);
            }
        }
    }

    /// Pull-gather sums (`Absorb::Sum` under a pinned pull) are bitwise
    /// identical across thread counts and equal to an ascending-source
    /// sequential sum. The claimed volume puts the pull on the forking lane.
    #[test]
    fn gather_bitwise_deterministic((g, ids) in graph_and_frontier(), salt in 0u64..1000) {
        let n = g.num_vertices();
        let contrib: Vec<f64> = (0..n)
            .map(|v| 1.0 / ((v as u64 * 37 + salt) as f64 + 2.0))
            .collect();
        let run = |threads: usize| -> Vec<f64> {
            let pool = Pool::new(threads);
            let mut frontier = VertexSubset::from_sorted(ids.clone());
            let vol = frontier.volume(&g).max(FORK_MIN_WORK);
            let mut out = vec![0.0f64; n];
            let view = UnsafeSlice::new(&mut out);
            let mut spread = EdgeSpread::new(DirectionParams::pull_only());
            let staged = spread.stage(&pool, &g, &mut frontier, vol, |v| contrib[v as usize]);
            let absorb = |dst: u32, sum, writer| {
                assert_eq!(writer, Writer::Exclusive);
                // SAFETY: one writer per destination.
                unsafe { view.write(dst as usize, sum) };
            };
            assert!(!staged.absorb(Absorb::Sum, absorb, NO_ADMIT));
            out
        };
        let t1 = run(1);
        prop_assert_eq!(&t1, &run(2));
        prop_assert_eq!(&t1, &run(4));
        for dst in 0..n as u32 {
            let mut want = 0.0f64;
            for &s in g.neighbors(dst) {
                if ids.binary_search(&s).is_ok() {
                    want += contrib[s as usize];
                }
            }
            prop_assert_eq!(t1[dst as usize], want, "dst {}", dst);
        }
    }

    /// Frontier round-trips: ids → bits → ids is the identity, and
    /// advancing recycles the buffer without leaking old members.
    #[test]
    fn frontier_roundtrip_and_advance((g, ids) in graph_and_frontier(), (g2, ids2) in graph_and_frontier(), threads in 1usize..=4) {
        let n = g.num_vertices().max(g2.num_vertices());
        let pool = Pool::new(threads);
        let mut f = VertexSubset::from_sorted(ids.clone());
        prop_assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), ids);
        let next: Vec<u32> = ids2.iter().copied().filter(|&v| (v as usize) < n).collect();
        f.advance(&pool, next.clone());
        prop_assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), next);
    }
}
