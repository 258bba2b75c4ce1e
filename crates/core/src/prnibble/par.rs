//! Parallel PageRank-Nibble (Figures 5–6 of the paper).
//!
//! Each iteration pushes *every* vertex whose residual met the threshold
//! at the start of the iteration, reading residuals from the iteration's
//! start (the paper's synchronous `r`/`r'` scheme — the asynchronous
//! single-vector variant leaks mass under races, §3.3). Untouched
//! residuals carry over between iterations ("r′ is set to r at the
//! beginning of an iteration"); we implement the carry-over without
//! copying `r` by summing only the *neighbor contributions* per destination
//! (in a register or the edge map's scratch) and adding each sum to `r`
//! once, after the frontier's self-updates, which keeps the work of an
//! iteration `O(|frontier| + vol(frontier))` exactly as Theorem 3 charges
//! it.

use super::PrNibbleParams;
use crate::driver::drive;
use crate::result::Diffusion;
use crate::seed::Seed;
use crate::workspace::Workspace;
use lgc_graph::CsrBackend;
use lgc_ligra::{lane, union_sorted, Absorb, Checkpoint, Tripped, VertexSubset};
use lgc_parallel::{filter_map_index, Pool};
use lgc_sparse::MassMap;

/// Parallel PR-Nibble. Work `O(1/(α·ε))` w.h.p. (Theorem 3), regardless
/// of the iteration count; depth is one `edgeMap` + filter per iteration.
///
/// With `params.beta < 1`, only the top `β`-fraction of eligible vertices
/// (by `r[v]/d(v)`) is pushed per iteration (§3.3's variant).
///
/// Each iteration is one spreading edge map ([`lgc_ligra::EdgeSpread`],
/// which also chooses the direction) sending `cₙ·r[v]/d(v)` along every
/// frontier edge and adding each destination's sum to `r` once, and one
/// filter: the eligible set `{v : r[v] ≥ ε·d(v)}` is carried from iteration
/// to iteration — it can only gain vertices that just received mass and lose
/// ones that were just pushed — so the edge map's `keep` asks exactly those.
/// The direction decides only the shape the next frontier comes back in:
///
/// * a **push** sums each receiver's contributions in the edge map's
///   scratch, delivers the receivers to `r` in ascending order and asks
///   each of them and each pushed vertex the eligibility test as it lands;
///   the next frontier is a sorted id list. Push frontiers are the small
///   ones, so the list is too.
/// * a **pull** owns each destination: it adds the register sum to `r`
///   directly and applies the test to that destination then and there. The
///   next frontier leaves the gather as a bitset with its size and volume
///   tallied, and the next pull stages and gathers off that bitset — no
///   receiver set, no id list and no degree walk between two pulls.
///
/// Mass vectors live in [`MassMap`]s, direct-indexed dense arrays from the
/// first key at the default `params.dense_frac = 0`; a positive fraction
/// starts them as hash tables that upgrade once the per-iteration key bound
/// crosses `params.dense_frac · n` (as does `1/8` in an engine whose
/// workspace budget cannot hold dense stores for each of its threads).
///
/// The two mass maps, the frontier (with both of its bitsets) and the edge
/// map's buffer come out of `ws` instead of being allocated — and every
/// checkout is re-fitted to be observationally identical to a fresh
/// allocation, so warm runs return the same bits as cold ones. The loop is
/// the shared frontier driver's (`driver::drive`), which consults `cp` once
/// per push iteration; on a trip the loop stops at that boundary and the
/// settled `p` is returned as the `Err` payload, with every workspace
/// buffer already recycled (a frontier that is dense-native at that
/// boundary is wiped by words on its way back). Reached as
/// [`crate::LocalDiffusion::diffuse`] on [`crate::Algorithm::PrNibble`].
pub(crate) fn prnibble_par<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &PrNibbleParams,
    ws: &mut Workspace,
    cp: &Checkpoint,
) -> Result<Diffusion, Tripped<Diffusion>> {
    params.validate();
    let (c_bank, cr, cn) = params.rule.coefficients(params.alpha);
    let eps = params.eps;
    let n = g.num_vertices();

    let mut r = ws.take_mass(pool, n, seed.vertices().len() * 2, params.dense_frac);
    for &x in seed.vertices() {
        r.set(x, seed.mass_per_vertex());
    }
    let mut p = ws.take_mass(pool, n, 16, params.dense_frac);

    // Between iterations the frontier holds the eligible set: the vertices
    // known to satisfy r[v] ≥ ε·d(v).
    let is_eligible = |v: u32, m: f64| {
        let d = g.degree(v);
        d > 0 && m >= eps * d as f64
    };
    let mut frontier = ws.take_frontier();
    let seeds = seed.vertices().iter().copied();
    frontier.advance(pool, seeds.filter(|&v| is_eligible(v, r.get(v))).collect());
    // At β = 1 the frontier *is* the eligible set. Below, the frontier is
    // narrowed to the selected part before each iteration and the whole set
    // is kept here meanwhile.
    let push_all = params.beta >= 1.0;
    let mut eligible: Vec<u32> = Vec::new();
    let narrow = |frontier: &mut VertexSubset, eligible: &mut Vec<u32>, r: &MassMap| {
        if !push_all && !frontier.is_empty() {
            *eligible = frontier.ids(pool).to_vec();
            frontier.advance(pool, select_top(g, r, eligible, params.beta));
        }
    };
    narrow(&mut frontier, &mut eligible, &r);

    let iteration = |pool: &Pool, k: usize, vol: usize, frontier: &mut VertexSubset| {
        // Phase 1 (UpdateSelf; read r, write p and r[v]): bank the
        // α-fraction, leave the post-push self-residual, and send
        // `cₙ·r[v]/d(v)` to every neighbor. Both writes are plain: only v's
        // own call touches v's cells (neighbors get the staged value, never
        // r), and r's cell already exists — v was eligible, so
        // r[v] ≥ ε·d(v) > 0 — so no insert runs beside the other calls'
        // reads.
        p.reserve_more(pool, k);
        let staged = ws.spread.stage(pool, g, frontier, vol, |v| {
            let rv = r.get(v);
            p.add_exclusive(v, c_bank * rv);
            r.set(v, cr * rv);
            cn * rv / g.degree(v) as f64
        });

        // Phases 2–4 (UpdateNgh and the filter): the edge map adds each
        // destination's sum to r once and puts the test to every receiver
        // and to every vertex just pushed, on the thread that delivered to
        // it. Nobody else can have become eligible: an r that no one touched
        // still fails the test. The edge map sizes r (by vol before a pull,
        // by the receivers before a push delivers): the capacity history
        // decides the slot order `r.l1_norm` sums in, so it is part of the
        // result bits.
        staged.absorb(Absorb::Sum, &mut r, Some(is_eligible));
        // ... or, below β = 1, still passes it: the eligible vertices that
        // were neither selected nor reached were not asked, so what the edge
        // map kept goes through a merge with the whole set and the test.
        if !push_all {
            let cands = union_sorted(&eligible, frontier.ids(pool));
            let next = filter_map_index(pool, cands.len(), |i| {
                is_eligible(cands[i], r.get(cands[i])).then_some(cands[i])
            });
            frontier.advance(pool, next);
        }
        narrow(frontier, &mut eligible, &r);
        true
    };
    let (mut stats, tripped) = drive(pool, g, cp, usize::MAX, &mut frontier, iteration);

    // The tail sums `r` and packs and sorts `p`: it asks the fork policy
    // with the entries it is about to handle.
    let pool = lane(pool, p.len(), r.len());
    stats.residual_mass = r.l1_norm(pool);
    let entries = p.entries(pool);
    ws.put_mass(r);
    ws.put_mass(p);
    ws.put_frontier(pool, frontier);
    let d = Diffusion::from_entries_par(pool, entries, stats);
    Tripped::outcome(tripped, d)
}

/// Top `β`-fraction of `eligible` by `r[v]/d(v)`, for `β < 1`, ascending.
///
/// Partial selection, not a full sort: `select_nth_unstable_by` places
/// the `take` best-scored vertices (under a total order — score
/// descending, vertex id ascending on ties, and scores are never NaN
/// since `d > 0`) in the prefix in `O(k)` expected time instead of
/// `O(k log k)`. The selected *set* is deterministic because the
/// comparator never declares two distinct vertices equal.
fn select_top<B: CsrBackend>(g: &B, r: &MassMap, eligible: &[u32], beta: f64) -> Vec<u32> {
    let take = ((eligible.len() as f64 * beta).ceil() as usize).clamp(1, eligible.len());
    let mut scored: Vec<(u32, f64)> = eligible
        .iter()
        .map(|&v| (v, r.get(v) / g.degree(v) as f64))
        .collect();
    if take < scored.len() {
        scored.select_nth_unstable_by(take - 1, |a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(take);
    }
    let mut top: Vec<u32> = scored.iter().map(|&(v, _)| v).collect();
    top.sort_unstable();
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prnibble::{prnibble_seq, PushRule};
    use crate::sweep::{sweep_cut_par, sweep_cut_seq};
    use crate::{Algorithm, LocalDiffusion};
    use lgc_graph::gen;

    #[test]
    fn mass_conservation_parallel() {
        // |p|₁ + |r|₁ = 1 exactly (up to fp associativity) in every
        // configuration — the invariant behind Theorem 3.
        let g = gen::rmat_graph500(10, 8, 9);
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        for rule in [PushRule::Original, PushRule::Optimized] {
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let params = PrNibbleParams {
                    alpha: 0.05,
                    eps: 1e-6,
                    rule,
                    beta: 1.0,
                    ..Default::default()
                };
                let d =
                    Algorithm::PrNibble(params).diffuse(&pool, &g, &seed, &mut Workspace::new());
                let total = d.total_mass() + d.stats.residual_mass;
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "{rule:?} t={threads}: |p|+|r| = {total}"
                );
            }
        }
    }

    #[test]
    fn theorem3_work_bound_holds_in_parallel() {
        let g = gen::rmat_graph500(10, 8, 2);
        let params = PrNibbleParams {
            alpha: 0.02,
            eps: 1e-5,
            ..Default::default()
        };
        let pool = Pool::new(4);
        let d =
            Algorithm::PrNibble(params).diffuse(&pool, &g, &Seed::single(5), &mut Workspace::new());
        let bound = 1.0 / (params.alpha * params.eps);
        assert!((d.stats.pushed_volume as f64) <= bound);
    }

    #[test]
    fn parallel_does_more_pushes_but_fewer_iterations() {
        // Table 1's observation: the parallel version pushes a little
        // more (stale residuals) but needs far fewer iterations.
        let g = gen::rand_local(3000, 5, 4);
        let params = PrNibbleParams {
            alpha: 0.01,
            eps: 1e-6,
            ..Default::default()
        };
        let seq = prnibble_seq(&g, &Seed::single(0), &params);
        let pool = Pool::new(2);
        let par =
            Algorithm::PrNibble(params).diffuse(&pool, &g, &Seed::single(0), &mut Workspace::new());
        assert!(par.stats.pushes >= seq.stats.pushes);
        assert!(
            (par.stats.pushes as f64) < 2.0 * seq.stats.pushes as f64,
            "paper: at most ~1.6x more pushes; got {} vs {}",
            par.stats.pushes,
            seq.stats.pushes
        );
        assert!(par.stats.iterations < par.stats.pushes / 2);
    }

    #[test]
    fn parallel_and_sequential_find_same_quality_cluster() {
        let g = gen::two_cliques_bridge(12);
        let params = PrNibbleParams {
            alpha: 0.05,
            eps: 1e-8,
            ..Default::default()
        };
        let seq_d = prnibble_seq(&g, &Seed::single(1), &params);
        let pool = Pool::new(2);
        let par_d =
            Algorithm::PrNibble(params).diffuse(&pool, &g, &Seed::single(1), &mut Workspace::new());
        let seq_cut = sweep_cut_seq(&g, &seq_d.p);
        let par_cut = sweep_cut_par(&pool, &g, &par_d.p);
        // The diffusion vectors differ (stale residuals in the parallel
        // push schedule), but both must recover the planted clique.
        let as_set = |c: &[u32]| {
            let mut v = c.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(as_set(seq_cut.cluster()), as_set(par_cut.cluster()));
        assert!((seq_cut.best_conductance - par_cut.best_conductance).abs() < 1e-12);
    }

    #[test]
    fn beta_fraction_still_terminates_and_conserves_mass() {
        let g = gen::rand_local(1000, 5, 6);
        let pool = Pool::new(2);
        for beta in [0.25, 0.5, 0.9] {
            let params = PrNibbleParams {
                alpha: 0.05,
                eps: 1e-6,
                beta,
                ..Default::default()
            };
            let d = Algorithm::PrNibble(params).diffuse(
                &pool,
                &g,
                &Seed::single(0),
                &mut Workspace::new(),
            );
            let total = d.total_mass() + d.stats.residual_mass;
            assert!((total - 1.0).abs() < 1e-9, "beta={beta}: {total}");
            assert!(d.support_size() > 0);
        }
    }

    #[test]
    fn beta_one_equals_standard_variant() {
        let g = gen::rand_local(500, 5, 2);
        let pool = Pool::new(1);
        let base = PrNibbleParams {
            alpha: 0.03,
            eps: 1e-6,
            ..Default::default()
        };
        let a =
            Algorithm::PrNibble(base).diffuse(&pool, &g, &Seed::single(0), &mut Workspace::new());
        let b = Algorithm::PrNibble(PrNibbleParams { beta: 1.0, ..base }).diffuse(
            &pool,
            &g,
            &Seed::single(0),
            &mut Workspace::new(),
        );
        assert_eq!(a.p, b.p);
    }

    #[test]
    fn multi_seed_parallel() {
        let g = gen::two_cliques_bridge(10);
        let pool = Pool::new(2);
        let d = Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.1,
            eps: 1e-7,
            ..Default::default()
        })
        .diffuse(&pool, &g, &Seed::set(vec![0, 1, 2]), &mut Workspace::new());
        let in_cluster: f64 = d.p.iter().filter(|&&(v, _)| v < 10).map(|&(_, m)| m).sum();
        assert!(in_cluster > 0.5);
    }
}
