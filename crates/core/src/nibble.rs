//! Nibble — the Spielman–Teng truncated lazy random walk (§3.2).
//!
//! Starting from mass 1 on the seed, each iteration keeps half of every
//! *active* vertex's mass in place and spreads the other half uniformly
//! over its neighbors; a vertex is active while its mass is at least
//! `ε·d(v)` (mass below the threshold is truncated from propagation —
//! that is what keeps the walk local). The algorithm runs for up to `T`
//! iterations, returning the previous vector if the frontier empties
//! (the paper's modification that skips the per-iteration sweep).
//!
//! The parallel version (Figure 3) processes the whole frontier with
//! `vertexMap`/`edgeMap` per iteration: Theorem 2 gives `O(T/ε)` work and
//! `O(T log(1/ε))` depth.

use crate::budget::InvalidParams;
use crate::driver::drive;
use crate::result::{Diffusion, DiffusionStats};
use crate::seed::Seed;
use crate::workspace::Workspace;
use lgc_graph::CsrBackend;
use lgc_ligra::{lane, Absorb, Checkpoint, Tripped, VertexSubset, Writer};
use lgc_parallel::Pool;
use lgc_sparse::{MassMap, SparseVec};

/// Parameters for Nibble.
#[derive(Clone, Copy, Debug)]
pub struct NibbleParams {
    /// Maximum number of lazy-walk iterations `T`.
    pub t_max: usize,
    /// Truncation threshold `ε` (a vertex stays active while
    /// `p[v] ≥ ε·d(v)`). Smaller ε explores more of the graph.
    pub eps: f64,
}

impl Default for NibbleParams {
    /// The paper's Table 3 setting: `T = 20`, `ε = 10⁻⁸`.
    fn default() -> Self {
        NibbleParams {
            t_max: 20,
            eps: 1e-8,
        }
    }
}

impl NibbleParams {
    /// Any finite `ε` is a defined (if useless) truncation; `NaN`/`±∞`
    /// are not thresholds at all.
    pub(crate) fn check(&self) -> Result<(), InvalidParams> {
        InvalidParams::require(self.eps.is_finite(), "eps", "must be finite")
    }
}

/// Sequential Nibble.
pub fn nibble_seq<B: CsrBackend>(g: &B, seed: &Seed, params: &NibbleParams) -> Diffusion {
    let eps = params.eps;
    let mut stats = DiffusionStats::default();

    let mut p = SparseVec::new_f64();
    for &x in seed.vertices() {
        p.set(x, seed.mass_per_vertex());
    }
    let mut frontier: Vec<u32> = active_seed(g, seed, eps);

    for step in 1..=params.t_max {
        if frontier.is_empty() {
            break;
        }
        stats.iterations = step as u64;
        stats.pushes += frontier.len() as u64;

        // Two phases in the same order as Figure 3's vertexMap-then-
        // edgeMap, so the single-threaded parallel version accumulates
        // in the identical order (bit-equal outputs).
        let mut p_new = SparseVec::with_capacity(0.0, frontier.len() * 2);
        for &v in &frontier {
            p_new.add(v, p.get(v) / 2.0); // UpdateSelf
        }
        for &v in &frontier {
            let share = p.get(v) / (2.0 * g.degree(v) as f64);
            g.for_each_neighbor(v, |w| {
                p_new.add(w, share); // UpdateNgh
                stats.edges_traversed += 1;
            });
            stats.pushed_volume += g.degree(v) as u64;
        }

        // New frontier: touched vertices with enough mass (sorted for
        // deterministic iteration order).
        let mut next: Vec<u32> = p_new
            .iter()
            .filter(|&(v, m)| m >= eps * g.degree(v) as f64)
            .map(|(v, _)| v)
            .collect();
        next.sort_unstable();

        if next.is_empty() {
            // Frontier died: return the *previous* vector (line 15 of
            // Figure 3 breaks before `p = p'`).
            return finish_seq(p.entries_sorted(), stats);
        }
        p = p_new;
        frontier = next;
    }
    finish_seq(p.entries_sorted(), stats)
}

/// Parallel Nibble (Figure 3): per iteration one spreading edge map
/// ([`lgc_ligra::EdgeSpread`]) — `UpdateSelf` banks the kept half
/// `p[v]/2` and sends the share `p[v]/(2·d(v))`, computed once per vertex,
/// along every edge — and one filter, `p'[v] ≥ ε·d(v)` over the vertices
/// the step touched. A pull applies it to each destination as soon as its
/// shares have landed (the edge map's `admit`) and hands the next step a
/// dense frontier with its size and volume tallied; after a push the next
/// frontier is filtered straight off `p_new`'s backend as a sorted list (no
/// intermediate entries vector). Mass vectors live in adaptive
/// [`MassMap`]s.
pub fn nibble_par<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &NibbleParams,
) -> Diffusion {
    // An unlimited checkpoint never trips, so the `Err` case is unreachable.
    let (ws, cp) = (&mut Workspace::new(), &Checkpoint::unlimited());
    nibble_par_ws(pool, g, seed, params, ws, cp).unwrap_or_else(|t| t.partial)
}

/// [`nibble_par`] over a recyclable [`Workspace`]: both mass maps, the
/// frontier (with both of its bitsets) and the edge map's buffer come out
/// of `ws` instead of being allocated; checkouts are re-fitted to match
/// fresh allocations exactly, so warm runs are bit-identical.
///
/// The loop is the shared frontier driver's (`driver::drive`), which
/// consults `cp` once per lazy-walk iteration; on a trip the loop
/// stops at that boundary and the mass settled so far is returned as the
/// `Err` payload, with every workspace buffer already recycled.
pub(crate) fn nibble_par_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &NibbleParams,
    ws: &mut Workspace,
    cp: &Checkpoint,
) -> Result<Diffusion, Tripped<Diffusion>> {
    let eps = params.eps;
    let n = g.num_vertices();

    let mut p = ws.take_mass(
        pool,
        n,
        seed.vertices().len(),
        MassMap::DEFAULT_DENSE_FRACTION,
    );
    for &x in seed.vertices() {
        p.set(x, seed.mass_per_vertex());
    }
    let mut frontier = ws.take_frontier();
    frontier.advance(pool, active_seed(g, seed, eps));
    let mut p_new = ws.take_mass(pool, n, 16, MassMap::DEFAULT_DENSE_FRACTION);

    let iteration = |pool: &Pool, k: usize, vol: usize, frontier: &mut VertexSubset| {
        // One lazy-walk step over at most `k + vol` touched vertices. A
        // destination may already hold its own kept half (banked by its own
        // call alone: a plain add), so neighbor shares are absorbed per
        // edge: that is the sequential accumulation order, bit for bit.
        //
        // Frontier = {v : p'[v] ≥ ε·d(v)} among the touched vertices —
        // the members, which kept a half, and the receivers. A pull decides
        // each as the last of its shares lands; after a push they are
        // filtered directly over the mass store's backend (ascending).
        p_new.reset(pool, k + vol);
        let active = |v: u32, m: f64| m >= eps * g.degree(v) as f64;
        let emitted = ws
            .spread
            .stage(pool, g, frontier, vol, |v| {
                let pv = p.get(v);
                p_new.add_exclusive(v, pv / 2.0);
                // Degree-0 vertices never reach the frontier in practice
                // (they spread nothing); guard the division anyway.
                match g.degree(v) {
                    0 => 0.0,
                    d => pv / (2.0 * d as f64),
                }
            })
            .absorb(
                Absorb::PerEdge,
                |dst, share, writer| match writer {
                    Writer::Shared => p_new.add(dst, share),
                    Writer::Exclusive => p_new.add_exclusive(dst, share),
                },
                Some(|dst, _| active(dst, p_new.get(dst))),
            );
        if !emitted {
            frontier.advance(pool, p_new.filter_keys(pool, active));
        }
        // An empty filter means the walk died: stop *before* the swap,
        // returning the previous vector (line 15 of Figure 3).
        if frontier.is_empty() {
            return false;
        }
        std::mem::swap(&mut p, &mut p_new);
        true
    };
    let (stats, tripped) = drive(pool, g, cp, params.t_max, &mut frontier, iteration);
    // The tail asks the fork policy with the entries it is about to pack.
    let pool = lane(pool, p.len(), 0);
    let entries = p.entries(pool);
    ws.put_mass(p);
    ws.put_mass(p_new);
    ws.put_frontier(pool, frontier);
    Tripped::outcome(tripped, finish(pool, entries, stats))
}

/// The seed vertices that meet the activity threshold initially.
fn active_seed<B: CsrBackend>(g: &B, seed: &Seed, eps: f64) -> Vec<u32> {
    let m0 = seed.mass_per_vertex();
    seed.vertices()
        .iter()
        .copied()
        .filter(|&v| m0 >= eps * g.degree(v) as f64)
        .collect()
}

/// Packages the final vector (parallel sort), recording the truncated
/// mass.
fn finish(pool: &Pool, entries: Vec<(u32, f64)>, stats: DiffusionStats) -> Diffusion {
    let mut d = Diffusion::from_entries_par(pool, entries, stats);
    d.stats.residual_mass = (1.0 - d.total_mass()).max(0.0);
    d
}

/// Packages the sequential algorithm's final vector.
fn finish_seq(entries: Vec<(u32, f64)>, stats: DiffusionStats) -> Diffusion {
    let mut d = Diffusion::from_entries(entries, stats);
    d.stats.residual_mass = (1.0 - d.total_mass()).max(0.0);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;

    fn max_rel_diff(a: &Diffusion, b: &Diffusion) -> f64 {
        assert_eq!(a.p.len(), b.p.len(), "support mismatch");
        a.p.iter()
            .zip(&b.p)
            .map(|(&(va, ma), &(vb, mb))| {
                assert_eq!(va, vb);
                (ma - mb).abs() / ma.max(mb).max(f64::MIN_POSITIVE)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn mass_is_conserved_while_frontier_is_everything() {
        // With ε tiny and few iterations, no truncation happens: the lazy
        // walk conserves total mass exactly 1 (dyadic arithmetic).
        let g = gen::clique(8);
        let d = nibble_seq(
            &g,
            &Seed::single(0),
            &NibbleParams {
                t_max: 3,
                eps: 1e-12,
            },
        );
        assert!(
            (d.total_mass() - 1.0).abs() < 1e-12,
            "mass {}",
            d.total_mass()
        );
    }

    #[test]
    fn seed_keeps_half_mass_after_one_step() {
        let g = gen::star(5);
        let d = nibble_seq(
            &g,
            &Seed::single(0),
            &NibbleParams {
                t_max: 1,
                eps: 1e-9,
            },
        );
        assert_eq!(d.mass_of(0), 0.5);
        for leaf in 1..5 {
            assert_eq!(d.mass_of(leaf), 0.125);
        }
    }

    #[test]
    fn empty_frontier_returns_previous_vector() {
        // Huge ε: the seed is active initially but every vertex falls
        // below threshold after one spread. Per Figure 3 the loop breaks
        // *before* `p = p'`, returning the previous vector p₀.
        let g = gen::clique(10); // degree 9
        let eps = 0.06; // seed: 1 ≥ 0.54 ✓; after: 0.5 < 0.54, others 1/18 < 0.54
        let d = nibble_seq(&g, &Seed::single(0), &NibbleParams { t_max: 20, eps });
        assert_eq!(d.stats.iterations, 1);
        assert_eq!(
            d.p,
            vec![(0, 1.0)],
            "p_{{i-1}} is returned, not the dying p_i"
        );
        let pool = Pool::new(2);
        let dp = nibble_par(
            &pool,
            &g,
            &Seed::single(0),
            &NibbleParams { t_max: 20, eps },
        );
        assert_eq!(dp.p, vec![(0, 1.0)]);
    }

    #[test]
    fn seed_below_threshold_returns_initial_vector() {
        let g = gen::star(100); // center degree 99
        let params = NibbleParams { t_max: 5, eps: 0.5 }; // 1 < 0.5·99
        let d = nibble_seq(&g, &Seed::single(0), &params);
        assert_eq!(d.p, vec![(0, 1.0)]);
        assert_eq!(d.stats.iterations, 0);
        let pool = Pool::new(2);
        let dp = nibble_par(&pool, &g, &Seed::single(0), &params);
        assert_eq!(dp.p, vec![(0, 1.0)]);
    }

    #[test]
    fn parallel_single_thread_is_bit_identical() {
        let g = gen::rand_local(400, 5, 11);
        let params = NibbleParams {
            t_max: 10,
            eps: 1e-6,
        };
        let pool = Pool::new(1);
        let a = nibble_seq(&g, &Seed::single(7), &params);
        let b = nibble_par(&pool, &g, &Seed::single(7), &params);
        assert_eq!(a.p, b.p);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn parallel_multi_thread_matches_to_rounding() {
        let g = gen::rmat_graph500(10, 8, 5);
        let params = NibbleParams {
            t_max: 12,
            eps: 1e-7,
        };
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        let a = nibble_seq(&g, &seed, &params);
        for threads in [2, 4] {
            let pool = Pool::new(threads);
            let b = nibble_par(&pool, &g, &seed, &params);
            assert!(max_rel_diff(&a, &b) < 1e-9, "threads={threads}");
            assert_eq!(a.stats.iterations, b.stats.iterations);
            assert_eq!(a.stats.pushes, b.stats.pushes);
        }
    }

    #[test]
    fn multi_vertex_seed_spreads_from_all() {
        let g = gen::cycle(20);
        let seed = Seed::set(vec![0, 10]);
        let d = nibble_seq(
            &g,
            &seed,
            &NibbleParams {
                t_max: 1,
                eps: 1e-9,
            },
        );
        assert_eq!(d.mass_of(0), 0.25);
        assert_eq!(d.mass_of(10), 0.25);
        assert_eq!(d.mass_of(1), 0.125);
        assert_eq!(d.mass_of(11), 0.125);
    }

    #[test]
    fn stays_local_on_large_graph() {
        // Theorem 2: per-iteration work is O(1/ε) — with moderate ε the
        // support must stay far below n.
        let g = gen::grid_3d(20, 20, 20); // 8000 vertices
        let d = nibble_seq(
            &g,
            &Seed::single(0),
            &NibbleParams {
                t_max: 5,
                eps: 1e-4,
            },
        );
        assert!(d.support_size() < 2000, "support {}", d.support_size());
    }
}
