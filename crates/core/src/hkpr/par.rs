//! Parallel HK-PR (Figure 7): level-synchronous processing of the
//! Kloster–Gleich queue.
//!
//! All `(·, j)` entries are processed in one iteration — legitimate
//! because pushes only write level `j+1` — so the parallel algorithm
//! applies *exactly the same updates* as the sequential one and returns
//! the same vector (Theorem 4).

use super::HkprParams;
use crate::driver::drive;
use crate::result::Diffusion;
use crate::seed::Seed;
use crate::workspace::Workspace;
use lgc_graph::CsrBackend;
use lgc_ligra::{lane, Absorb, Checkpoint, Tripped, VertexSubset, Writer, NO_ADMIT};
use lgc_parallel::{map_index, Pool};
use lgc_sparse::MassMap;

/// Parallel deterministic heat-kernel PageRank.
/// Work `O(N² + N·e^t/ε)`, depth `O(N·t·log(1/ε))` w.h.p. (Theorem 4).
///
/// Each level is one spreading edge map ([`lgc_ligra::EdgeSpread`],
/// which also chooses the direction): `UpdateSelf` banks the level-`j`
/// residual and computes the per-neighbor contribution once per vertex,
/// `UpdateNgh` forwards it to level `j+1`. Both traversal directions apply
/// the level-synchronous update set in the sequential order, which keeps
/// Theorem 4's bit-equality with [`super::hkpr_seq`] at one thread. The
/// next level's queue is the receivers above the admission threshold: a
/// pull puts that test to each destination as its sum lands (the edge map's
/// `admit`) and hands the next level a dense frontier with its size and
/// volume tallied — between two pulled levels no key list is filtered and
/// no degree is re-read; after a push the queue is filtered off `r_next`'s
/// backend as a sorted list. Mass vectors are adaptive [`MassMap`]s.
pub fn hkpr_par<B: CsrBackend>(pool: &Pool, g: &B, seed: &Seed, params: &HkprParams) -> Diffusion {
    // An unlimited checkpoint never trips, so the `Err` case is unreachable.
    let (ws, cp) = (&mut Workspace::new(), &Checkpoint::unlimited());
    hkpr_par_ws(pool, g, seed, params, ws, cp).unwrap_or_else(|t| t.partial)
}

/// [`hkpr_par`] over a recyclable [`Workspace`]: the three mass maps, the
/// frontier (with both of its bitsets) and the edge map's buffer come out
/// of `ws` instead of being allocated; checkouts are re-fitted to match
/// fresh allocations exactly, so warm runs are bit-identical.
///
/// The loop is the shared frontier driver's (`driver::drive`), which
/// consults `cp` once per level; on a trip the loop stops at that
/// boundary and the banked (and `e^{−t}`-scaled) mass is returned as the
/// `Err` payload, with every workspace buffer already recycled.
pub(crate) fn hkpr_par_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &HkprParams,
    ws: &mut Workspace,
    cp: &Checkpoint,
) -> Result<Diffusion, Tripped<Diffusion>> {
    params.validate();
    let n = g.num_vertices();
    let n_levels = params.n_levels;
    let psi = super::psi_table(params.t, n_levels);

    let frac = MassMap::DEFAULT_DENSE_FRACTION;
    let mut r = ws.take_mass(pool, n, seed.vertices().len() * 2, frac);
    for &x in seed.vertices() {
        r.set(x, seed.mass_per_vertex());
    }
    let mut r_next = ws.take_mass(pool, n, 16, frac);
    let mut p = ws.take_mass(pool, n, 16, frac);
    // Level-0 entries are enqueued unconditionally, like the sequential
    // algorithm's initial queue.
    let mut frontier = ws.take_frontier();
    frontier.advance(pool, seed.vertices().to_vec());

    let mut j = 0usize;
    let iteration = |pool: &Pool, k: usize, vol: usize, frontier: &mut VertexSubset| {
        let last_round = j + 1 == n_levels;

        // UpdateSelf: bank the level-j residual and send each neighbor
        // `r/d` on the final flush, `t·r/((j+1)·d)` otherwise (evaluated
        // in exactly that order, for bit-identical results). Only v's own
        // call touches p[v] here, so the add is plain.
        p.reserve_more(pool, k);
        let scale = params.t / (j + 1) as f64;
        let staged = ws.spread.stage(pool, g, frontier, vol, |v| {
            let rv = r.get(v);
            p.add_exclusive(v, rv);
            match g.degree(v) {
                0 => 0.0,
                d if last_round => rv / d as f64,
                d => scale * rv / d as f64,
            }
        });

        if last_round {
            // Flush the shares straight into p, per edge: p's cells are
            // not fresh, and this is the order the sequential flush adds
            // them in.
            p.reserve_more(pool, vol);
            staged.absorb(Absorb::PerEdge, |dst, c, w| add_as(w, &p, dst, c), NO_ADMIT);
            return false;
        }

        // UpdateNgh: forward to level j+1. Only edge destinations land
        // here, so vol bounds the touched keys; the cells are fresh, so a
        // register sum brackets exactly like the per-edge order.
        //
        // Next frontier: the level-(j+1) entries — the receivers — above
        // the admission threshold (equivalent to the sequential crossing
        // test because the accumulation is monotone). A pull decides each
        // as its sum lands; after a push they are filtered off the mass
        // store's backend, which hands the keys back ascending.
        r_next.reset(pool, vol.max(1));
        let above = |w: u32, m: f64| m >= params.threshold(&psi, j + 1, g.degree(w));
        let emitted = staged.absorb(
            Absorb::Sum,
            |dst, c, w| add_as(w, &r_next, dst, c),
            Some(|dst, received| received && above(dst, r_next.get(dst))),
        );
        if !emitted {
            frontier.advance(pool, r_next.filter_keys(pool, above));
        }
        std::mem::swap(&mut r, &mut r_next);
        j += 1;
        true
    };
    let (stats, tripped) = drive(pool, g, cp, usize::MAX, &mut frontier, iteration);

    // Same e^{−t} normalization as the sequential version (see there). The
    // tail asks the fork policy with the entries it is about to pack.
    let pool = lane(pool, p.len(), 0);
    let scale = (-params.t).exp();
    let entries: Vec<(u32, f64)> = {
        let packed = p.entries(pool);
        map_index(pool, packed.len(), |i| {
            let (v, m) = packed[i];
            (v, m * scale)
        })
    };
    ws.put_mass(r);
    ws.put_mass(r_next);
    ws.put_mass(p);
    ws.put_frontier(pool, frontier);
    let mut d = Diffusion::from_entries_par(pool, entries, stats);
    d.stats.residual_mass = (1.0 - d.total_mass()).max(0.0);
    Tripped::outcome(tripped, d)
}

/// Adds `x` to `m[dst]`: atomically for a shared writer, with a plain
/// load/add/store for the exclusive one.
#[inline]
fn add_as(writer: Writer, m: &MassMap, dst: u32, x: f64) {
    match writer {
        Writer::Shared => m.add(dst, x),
        Writer::Exclusive => m.add_exclusive(dst, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hkpr::hkpr_seq;
    use lgc_graph::gen;

    fn assert_close(a: &Diffusion, b: &Diffusion, tol: f64) {
        assert_eq!(a.p.len(), b.p.len(), "support sizes differ");
        for (&(va, ma), &(vb, mb)) in a.p.iter().zip(&b.p) {
            assert_eq!(va, vb);
            let rel = (ma - mb).abs() / ma.max(mb);
            assert!(rel < tol, "vertex {va}: {ma} vs {mb}");
        }
    }

    #[test]
    fn single_thread_parallel_is_bit_identical_on_star() {
        let g = gen::star(6);
        let params = HkprParams {
            t: 2.0,
            n_levels: 5,
            eps: 1e-8,
        };
        let a = hkpr_seq(&g, &Seed::single(0), &params);
        let pool = Pool::new(1);
        let b = hkpr_par(&pool, &g, &Seed::single(0), &params);
        assert_eq!(a.p, b.p);
    }

    #[test]
    fn parallel_matches_sequential_vector() {
        let g = gen::rmat_graph500(10, 8, 6);
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        let params = HkprParams {
            t: 8.0,
            n_levels: 15,
            eps: 1e-6,
        };
        let a = hkpr_seq(&g, &seed, &params);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let b = hkpr_par(&pool, &g, &seed, &params);
            assert_close(&a, &b, 1e-10);
            assert_eq!(
                a.stats.pushes, b.stats.pushes,
                "same queue entries processed"
            );
        }
    }

    #[test]
    fn levels_bounded_by_n() {
        let g = gen::rand_local(1000, 5, 7);
        let pool = Pool::new(2);
        let params = HkprParams {
            t: 10.0,
            n_levels: 8,
            eps: 1e-9,
        };
        let d = hkpr_par(&pool, &g, &Seed::single(0), &params);
        assert!(d.stats.iterations <= 8);
    }

    #[test]
    fn last_level_flushes_to_neighbors() {
        let g = gen::path(3);
        let pool = Pool::new(2);
        // N=1: p[seed]=1 plus each neighbor rv/d, scaled by e^{−t}.
        let t = 1.0;
        let d = hkpr_par(
            &pool,
            &g,
            &Seed::single(1),
            &HkprParams {
                t,
                n_levels: 1,
                eps: 1e-9,
            },
        );
        let s = (-t).exp();
        assert_eq!(d.mass_of(1), s);
        assert_eq!(d.mass_of(0), 0.5 * s);
        assert_eq!(d.mass_of(2), 0.5 * s);
    }

    #[test]
    fn multi_seed_splits_mass() {
        let g = gen::cycle(12);
        let pool = Pool::new(2);
        let d = hkpr_par(
            &pool,
            &g,
            &Seed::set(vec![0, 6]),
            &HkprParams {
                t: 2.0,
                n_levels: 6,
                eps: 1e-7,
            },
        );
        // Symmetry: masses around each seed mirror each other.
        assert!((d.mass_of(0) - d.mass_of(6)).abs() < 1e-12);
        assert!((d.mass_of(1) - d.mass_of(7)).abs() < 1e-12);
    }
}
