//! Work-efficient parallel sweep cut — Theorem 1 of the paper.
//!
//! The hard part of parallelizing the sweep is computing `∂(S_j)` for all
//! `N` prefixes at once without blowing up the work. Give each support
//! vertex its *rank* in the sorted order. Adding `v_j` to `S_{j−1}` turns
//! the edges from `v_j` into `S_{j−1}` from crossing to internal and makes
//! every other edge of `v_j` crossing, so
//!
//! ```text
//! ∂(S_j) − ∂(S_{j−1}) = d(v_j) − 2·|N(v_j) ∩ S_{j−1}|
//! ```
//!
//! and `|N(v_j) ∩ S_{j−1}|` is the number of neighbours of `v_j` with a
//! lower rank. One pass over the support's `vol(S_N)` adjacency entries
//! (a rank lookup each) yields those per-vertex integers, and an inclusive
//! prefix sum over them yields every `∂(S_j)`.
//!
//! This is the count of §3.1's construction, summed in a different order.
//! The paper writes, per edge slot `(v, w)` with `rank(v) < rank(w)`, the
//! pairs `(+1, rank(v))` and `(−1, rank(w))` into an array `Z` of size
//! `2·vol(S_N)`, integer-sorts `Z` by rank and prefix-sums it; the sum of
//! the entries that land on rank `j` is `(d(v_j) − back_j) − back_j` —
//! `+1` for each forward edge of `v_j`, `−1` for each edge arriving from a
//! lower rank. Grouping by rank *before* writing anything makes the sort
//! and the `2·vol`-entry array unnecessary; the integers, and hence every
//! conductance bit, are the same. Volumes come from a prefix sum over
//! degrees, and a min-reduction picks the best prefix.
//!
//! Everything is built from the `lgc-parallel` primitives, giving
//! `O(N log N + vol(S_N))` work and polylogarithmic depth w.h.p. The
//! adjacency pass is chunked over the *flattened edge space*, not over
//! vertices, so a hub's adjacency is split across chunks instead of
//! serializing one.

use super::{eligible_entries, prefix_conductance, sweep_order_cmp, SweepCut};
use crate::workspace::Workspace;
use lgc_graph::CsrBackend;
use lgc_ligra::{lane, Checkpoint, Trip};
use lgc_parallel::{
    map_index, max_by, merge_sort_by, scan_exclusive, scan_inclusive, Pool, UnsafeSlice,
};
use lgc_sparse::MassMap;

/// Adjacency entries per chunk of the lower-rank-neighbour count.
const EDGE_GRAIN: usize = 2048;

/// Computes the sweep cut of `p` in parallel (Theorem 1).
///
/// Returns results bit-identical to [`super::sweep_cut_seq`]: the same
/// deterministic sort order, integer crossing-edge counts, and float
/// conductances computed from identical operands.
pub fn sweep_cut_par<B: CsrBackend>(pool: &Pool, g: &B, p: &[(u32, f64)]) -> SweepCut {
    match sweep_cut_par_ws(pool, g, p, &mut Workspace::new(), &Checkpoint::unlimited()) {
        Ok(sweep) => sweep,
        Err(_) => unreachable!("an unlimited checkpoint never trips"),
    }
}

/// [`sweep_cut_par`] over the engine's [`Workspace`]: the rank table is a
/// [`MassMap`] checked out of the workspace with key bound `N` and put
/// back, so it is dense (one indexed load per lookup, in buffers the
/// workspace already holds) once `N ≥ n/8` and a table sized to `N`
/// below that. Ranks are integers and lookups are keyed, never
/// enumerated, so the table's mode cannot change any output bit.
///
/// The sweep is a single fused pipeline with no iterative refinement, so
/// `cp` is consulted once on entry (its boundary): cancellation and
/// deadlines can stop a query between its diffusion and its sweep, while
/// work caps are the diffusions' domain (the sweep's work is bounded by
/// the diffusion work that produced `p`). The workspace is untouched
/// when the entry check trips.
pub(crate) fn sweep_cut_par_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    p: &[(u32, f64)],
    ws: &mut Workspace,
    cp: &Checkpoint,
) -> Result<SweepCut, Trip> {
    cp.tick(0, 0)?;
    let (mut scored, vol) = eligible_entries(g, p);
    if scored.is_empty() {
        return Ok(SweepCut::empty());
    }
    // The sweep's work is `O(N log N + vol(S_N))`: one answer from the
    // fork policy covers the sort and every pass after it.
    let n = scored.len();
    let pool = lane(pool, n, vol);
    merge_sort_by(pool, &mut scored, sweep_order_cmp);
    let order: Vec<u32> = scored.iter().map(|&(v, _)| v).collect();

    // rank[v] = 1-based position of v in the sweep order (exact in `f64`);
    // vertices outside the support read `0.0`.
    let rank = ws.take_mass(pool, g.num_vertices(), n, MassMap::DEFAULT_DENSE_FRACTION);
    pool.run(n, 1024, |s, e| {
        for (i, &v) in order[s..e].iter().enumerate() {
            rank.set(v, (s + i + 1) as f64);
        }
    });

    // Degrees in rank order; exclusive prefix sum gives each vertex's
    // slot range in the flattened edge space.
    let degs: Vec<u64> = map_index(pool, n, |i| g.degree(order[i]) as u64);
    let (edge_offsets, total_vol) = scan_exclusive(pool, &degs, 0u64, |a, b| a + b);
    let total_vol = total_vol as usize;

    // back[i] = neighbours of order[i] ranked before it. Chunk c owns
    // flattened edge slots [c·EDGE_GRAIN, (c+1)·EDGE_GRAIN): it writes the
    // count of every vertex whose adjacency *starts* in its range, and
    // hands back as `heads[c]` the count for the (at most one) vertex it
    // enters mid-adjacency, added in below.
    let n_chunks = total_vol.div_ceil(EDGE_GRAIN);
    let mut back = vec![0u64; n];
    let mut heads = vec![(0usize, 0u64); n_chunks];
    {
        let back_view = UnsafeSlice::new(&mut back);
        let heads_view = UnsafeSlice::new(&mut heads);
        pool.for_each_index(n_chunks, 1, |c| {
            let (fs, fe) = (c * EDGE_GRAIN, ((c + 1) * EDGE_GRAIN).min(total_vol));
            let mut vi = edge_offsets.partition_point(|&o| o <= fs as u64) - 1;
            let mut f = fs;
            // No checkpoint tick: a bounded walk over [fs, fe) inside a pool
            // job; the sweep ticks once, on entry.
            while f < fe {
                let rv = (vi + 1) as f64;
                let local = f - edge_offsets[vi] as usize;
                let upto = (degs[vi] as usize).min(local + (fe - f));
                let mut lower = 0u64;
                g.for_each_neighbor_in(order[vi], local, upto, |w| {
                    let rw = rank.get(w);
                    lower += u64::from(0.0 < rw && rw < rv);
                });
                // SAFETY: a vertex's adjacency starts in exactly one
                // chunk, and each chunk writes only its own head slot.
                unsafe {
                    if local == 0 {
                        back_view.write(vi, lower);
                    } else {
                        heads_view.write(c, (vi, lower));
                    }
                }
                f += upto - local;
                vi += 1;
            }
        });
    }
    for (vi, lower) in heads {
        back[vi] += lower;
    }

    // ∂(S_j) = Σ_{i ≤ j} (d(v_i) − 2·back_i); prefix volumes likewise;
    // then per-prefix conductances and a parallel min-reduction.
    let deltas: Vec<i64> = map_index(pool, n, |i| degs[i] as i64 - 2 * back[i] as i64);
    let crossing = scan_inclusive(pool, &deltas, 0i64, |a, b| a + b);
    let vol_prefix = scan_inclusive(pool, &degs, 0u64, |a, b| a + b);
    let total_degree = g.total_degree() as u64;
    let conductances: Vec<f64> = map_index(pool, n, |i| {
        debug_assert!(crossing[i] >= 0, "crossing count must be non-negative");
        prefix_conductance(crossing[i] as u64, vol_prefix[i], total_degree)
    });
    // "max" under the inverted comparator = first minimum.
    let (best_idx, best_phi) = max_by(pool, &conductances, |a, b| {
        b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
    })
    .expect("n >= 1");

    ws.put_mass(rank);
    Ok(SweepCut {
        order,
        conductances,
        best_size: best_idx + 1,
        best_conductance: best_phi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_cut_seq;
    use lgc_graph::gen;

    fn assert_same(seqr: &SweepCut, parr: &SweepCut) {
        assert_eq!(seqr.order, parr.order);
        assert_eq!(
            seqr.conductances, parr.conductances,
            "bit-identical conductances"
        );
        assert_eq!(seqr.best_size, parr.best_size);
        assert_eq!(seqr.best_conductance, parr.best_conductance);
    }

    #[test]
    fn figure1_example_parallel() {
        let g = gen::figure1_graph();
        let p = vec![(0u32, 0.40), (1, 0.30), (2, 0.30), (3, 0.20)];
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let sweep = sweep_cut_par(&pool, &g, &p);
            assert_eq!(sweep.conductances, vec![1.0, 0.5, 1.0 / 7.0, 3.0 / 5.0]);
            assert_eq!(sweep.cluster(), &[0, 1, 2]);
        }
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for (seed, threads) in [(1u64, 1usize), (2, 2), (3, 4), (4, 2)] {
            let g = gen::rand_local(500, 5, seed);
            let p: Vec<(u32, f64)> = (0..120u32)
                .map(|i| ((i * 13) % 500, 1.0 / ((i % 17) as f64 + 1.5)))
                .collect();
            // Dedup keys (map collapses duplicates deterministically).
            let mut p = p;
            p.sort_unstable_by_key(|&(v, _)| v);
            p.dedup_by_key(|&mut (v, _)| v);
            let pool = Pool::new(threads);
            assert_same(&sweep_cut_seq(&g, &p), &sweep_cut_par(&pool, &g, &p));
        }
    }

    #[test]
    fn matches_sequential_on_power_law_graph() {
        let g = gen::rmat_graph500(10, 8, 7);
        let p: Vec<(u32, f64)> = (0..200u32)
            .map(|i| (i * 5, ((i + 1) as f64).recip()))
            .collect();
        let pool = Pool::new(4);
        assert_same(&sweep_cut_seq(&g, &p), &sweep_cut_par(&pool, &g, &p));
    }

    #[test]
    fn single_vertex_support() {
        let g = gen::cycle(10);
        let pool = Pool::new(2);
        let sweep = sweep_cut_par(&pool, &g, &[(3, 1.0)]);
        assert_eq!(sweep.order, vec![3]);
        assert_eq!(sweep.best_size, 1);
        assert_eq!(sweep.best_conductance, 1.0); // 2 crossing / min(2, 18)
    }

    #[test]
    fn empty_support() {
        let g = gen::cycle(5);
        let pool = Pool::new(2);
        let sweep = sweep_cut_par(&pool, &g, &[]);
        assert_eq!(sweep.best_size, 0);
        assert!(sweep.best_conductance.is_infinite());
    }

    #[test]
    fn warm_rank_table_survives_mode_flips() {
        // One workspace, supports alternating below and above n/8, each
        // past the fork threshold: the rank table is checked out sparse,
        // dense, sparse, … from the same stack, and every sweep must still
        // equal the sequential one.
        let g = gen::rand_local(60_000, 5, 3);
        let n = g.num_vertices();
        let pool = Pool::new(2);
        let mut ws = Workspace::new();
        for (round, frac) in [0.06, 0.5, 0.1, 1.0, 0.11, 0.3].into_iter().enumerate() {
            let step = (1.0 / frac) as usize;
            let p: Vec<(u32, f64)> = (0..n)
                .step_by(step)
                .map(|v| (v as u32, 1.0 / ((v + round) % 7 + 1) as f64))
                .collect();
            assert_eq!(8 * p.len() < n, frac < 0.125, "round {round}");
            let forked = pool.stats().loops_forked;
            let parr = sweep_cut_par_ws(&pool, &g, &p, &mut ws, &Checkpoint::unlimited())
                .unwrap_or_else(|_| unreachable!("an unlimited checkpoint never trips"));
            assert!(pool.stats().loops_forked > forked, "round {round} forks");
            assert_same(&sweep_cut_seq(&g, &p), &parr);
        }
    }

    #[test]
    fn support_larger_than_half_the_graph() {
        // Exercises the min(vol, 2m - vol) branch on the far side.
        let g = gen::two_cliques_bridge(6);
        let p: Vec<(u32, f64)> = (0..10u32).map(|v| (v, 0.1)).collect();
        let pool = Pool::new(2);
        assert_same(&sweep_cut_seq(&g, &p), &sweep_cut_par(&pool, &g, &p));
    }
}
