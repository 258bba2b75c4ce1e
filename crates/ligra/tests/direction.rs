//! Property tests for the direction-optimizing `edgeMap`: sparse push,
//! dense pull, and the spreading edge map that chooses between them must
//! cover *exactly* the same edge set as a plain sequential reference over
//! random graphs and adversarial frontier shapes (empty, full, skewed,
//! sparse), at 1/2/4 threads — and pull-mode accumulation must be bitwise
//! deterministic.

use lgc_graph::{gen, Graph};
use lgc_ligra::{
    edge_map, edge_map_dense, Absorb, Direction, DirectionParams, EdgeSpread, VertexSubset,
    FORK_MIN_WORK, NO_ADMIT,
};
use lgc_parallel::{Bitset, Pool};
use lgc_sparse::MassMap;
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
                let mut into = MassMap::new(want.len(), 0);
                spread
                    .stage(&pool, &g, &mut frontier, vol, |v| f64::from(v + 1))
                    .absorb(order, &mut into, NO_ADMIT);
                let counts = spread.take_counts();
                let pushed = params.choose(&g, ids.len(), vol) == Direction::Push;
                prop_assert_eq!((counts.push, counts.pull), (u64::from(pushed), u64::from(!pushed)));
                let got: Vec<f64> = (0..want.len() as u32).map(|v| into.get(v)).collect();
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
            let mut out = MassMap::new(n, 0);
            let mut spread = EdgeSpread::new(DirectionParams::pull_only());
            spread
                .stage(&pool, &g, &mut frontier, vol, |v| contrib[v as usize])
                .absorb(Absorb::Sum, &mut out, NO_ADMIT);
            (0..n as u32).map(|v| out.get(v)).collect()
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

    /// The next-frontier contract, once for every direction: spread into a
    /// store (dense or sparse), `absorb(order, into, Some(keep))` leaves
    /// the vertices this iteration wrote into `into` that pass
    /// `keep(v, into[v])` — the receivers, and the members when their
    /// `UpdateSelf` writes their own cell or they hold an older key — as
    /// the same sorted frontier under `push_only()`, `pull_only()` and the
    /// default. Half the cases hand in a store that carries older keys, of
    /// which some pass `keep` and some fail it: one the iteration does not
    /// touch is never kept, and one it does touch is added onto in the
    /// order's bracketing. At one thread the store is bit-identical too,
    /// with or without `keep` — `NO_ADMIT` under `PerEdge` is HK-PR's
    /// last-level flush. At two threads, on integer contributions over
    /// half-integer older values with a claimed volume past
    /// `FORK_MIN_WORK`, so every loop forks (graphs reach past one
    /// 512-destination pull chunk and one 2048-edge push chunk), the
    /// frontier and the store are still the same: those sums are exact in
    /// every bracketing. `NO_ADMIT` leaves the staged frontier as it was.
    #[test]
    fn every_direction_leaves_the_same_next_frontier(
        n in 10usize..3000,
        deg in 2usize..7,
        every in 1u64..5,
        salt in 0u64..1000,
        dense in any::<bool>(),
        self_write in any::<bool>(),
        per_edge in any::<bool>(),
        older in any::<bool>(),
    ) {
        let g = gen::rand_local(n, deg, salt);
        let n = g.num_vertices();
        let ids: Vec<u32> = (0..n as u32).filter(|&v| (u64::from(v) + salt) % every == 0).collect();
        let order = if per_edge { Absorb::PerEdge } else { Absorb::Sum };
        let frac = if dense { 0.0 } else { f64::INFINITY };
        let keep = |v: u32, m: f64| !(m.to_bits() ^ u64::from(v) ^ salt).is_multiple_of(3);
        // The keys the store carries in from before the iteration: every
        // third vertex, members and receivers among them, at half-integers.
        let stored: Vec<(u32, f64)> = (0..n as u32)
            .filter(|&v| older && (u64::from(v) * 7 + salt).is_multiple_of(3))
            .map(|v| (v, f64::from((v ^ salt as u32) % 9) + 0.5))
            .collect();
        // Runs one iteration into the store; returns the store's entries
        // (bits, ascending) and the frontier it leaves.
        let run = |pool: &Pool, params, claim: usize, keep_it: bool, contrib: &(dyn Fn(u32) -> f64 + Sync)| {
            let mut into = MassMap::with_dense_fraction(n, ids.len() + stored.len(), frac);
            for &(v, m) in &stored {
                into.set(v, m);
            }
            let mut frontier = VertexSubset::from_sorted(ids.clone());
            let vol = frontier.volume(&g).max(claim);
            let mut spread = EdgeSpread::new(params);
            let staged = spread.stage(pool, &g, &mut frontier, vol, |v| {
                if self_write {
                    into.add_exclusive(v, contrib(v) / 2.0);
                }
                contrib(v)
            });
            match keep_it {
                true => staged.absorb(order, &mut into, Some(keep)),
                false => staged.absorb(order, &mut into, NO_ADMIT),
            }
            assert!(spread.is_clear(), "the push's scratch is left clear");
            let entries: Vec<(u32, u64)> = (0..n as u32)
                .filter(|&v| into.contains(v))
                .map(|v| (v, into.get(v).to_bits()))
                .collect();
            (entries, frontier.ids(pool).to_vec())
        };
        // The reference: a sequential loop in ascending source order, which
        // sums from 0.0 and adds the sum once under `Sum`.
        let reference = |contrib: &dyn Fn(u32) -> f64| {
            let mut cells: Vec<Option<f64>> = vec![None; n];
            for &(v, m) in &stored {
                cells[v as usize] = Some(m);
            }
            let mut asked = vec![false; n];
            for &src in &ids {
                if self_write {
                    *cells[src as usize].get_or_insert(0.0) += contrib(src) / 2.0;
                }
                asked[src as usize] = cells[src as usize].is_some();
            }
            let mut sums: Vec<Option<f64>> = vec![None; n];
            for &src in &ids {
                for &dst in g.neighbors(src) {
                    let cell = match order {
                        Absorb::PerEdge => cells[dst as usize].get_or_insert(0.0),
                        Absorb::Sum => sums[dst as usize].get_or_insert(0.0),
                    };
                    *cell += contrib(src);
                    asked[dst as usize] = true;
                }
            }
            for (cell, sum) in cells.iter_mut().zip(&sums) {
                if let Some(sum) = sum {
                    *cell.get_or_insert(0.0) += sum;
                }
            }
            let entries: Vec<(u32, u64)> = (0..n as u32)
                .filter_map(|v| cells[v as usize].map(|m| (v, m.to_bits())))
                .collect();
            let next: Vec<u32> = entries
                .iter()
                .filter(|&&(v, m)| asked[v as usize] && keep(v, f64::from_bits(m)))
                .map(|&(v, _)| v)
                .collect();
            (entries, next)
        };
        let policies = [
            DirectionParams::push_only(),
            DirectionParams::pull_only(),
            DirectionParams::default(),
        ];
        let one = Pool::new(1);
        let fraction = |v: u32| 1.0 / (f64::from(v) * 3.0 + salt as f64 + 2.0);
        let want = reference(&fraction);
        for params in policies {
            prop_assert_eq!(&run(&one, params, 0, true, &fraction), &want, "{:?}", params);
            let (stored, unchanged) = run(&one, params, 0, false, &fraction);
            prop_assert_eq!(&stored, &want.0, "NO_ADMIT store, {:?}", params);
            prop_assert_eq!(&unchanged, &ids, "NO_ADMIT, {:?}", params);
        }
        let two = Pool::new(2);
        let integer = |v: u32| f64::from(v % 5 + 1) * 2.0;
        let want = reference(&integer);
        for params in policies {
            let got = run(&two, params, FORK_MIN_WORK, true, &integer);
            prop_assert_eq!(&got, &want, "forked, {:?}", params);
            let (stored, unchanged) = run(&two, params, FORK_MIN_WORK, false, &integer);
            prop_assert_eq!(&stored, &want.0, "forked NO_ADMIT store, {:?}", params);
            prop_assert_eq!(&unchanged, &ids, "forked NO_ADMIT, {:?}", params);
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
