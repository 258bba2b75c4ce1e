//! The evolving set process (ESP) of Andersen & Peres — the §5 extension.
//!
//! The paper: "We implemented this algorithm but found the behavior of
//! the algorithm to vary widely as the random choices in each iteration
//! can lead to very different sets. We note that the algorithm can be
//! parallelized work-efficiently by using data-parallel operations."
//! This module provides that implementation: starting from `S = {seed}`,
//! each step draws a uniform threshold `U ∈ (0, 1]` and replaces `S` with
//! `S' = {v : p(v, S) ≥ U}` where `p(v, S)` is the lazy-walk transition
//! probability into `S`:
//!
//! ```text
//! p(v, S) = ½·1[v ∈ S] + ½·|N(v) ∩ S| / d(v)
//! ```
//!
//! Only `S` and its boundary can have `p(v, S) > 0`, so each step costs
//! `O(vol(S))`: one `edgeMap` counts `|N(v) ∩ S|` and applies the
//! threshold as it lands each count. The count is a spread of
//! contributions ≡ 1.0 over `S`'s edges ([`lgc_ligra::EdgeSpread`], which
//! also chooses the direction) into a [`MassMap`] checked out of the
//! workspace like the diffusions' stores — integer-valued sums, exact
//! below 2⁵³, so the sequential and parallel versions, both traversal
//! directions and both store modes agree bit for bit and follow the same
//! random trajectory.
//! The lowest-conductance set seen is tracked and returned. The parallel
//! form scores each `S′` from the frontier that holds it: one pass over
//! its `vol(S′)` adjacency entries, each neighbor tested against `S′`'s
//! own bitset, on the fork policy's lane for `|S′| + vol(S′)`; the set is
//! copied out only when it is a new best. The sequential reference scores
//! by [`CsrBackend::conductance`]; both count the same integers.
//!
//! Each step is one iteration of the shared frontier driver, with `S` as
//! the frontier, so a step is charged like any other diffusion's iteration:
//! `|S|` pushes and `vol(S)` edges, the counters its checkpoint ticks on
//! and its [`DiffusionStats`] report. The edge map also hands back the next
//! set, as every diffusion's does: each member of `S` writes its own key
//! (count `0`) into the counter as it stages, so `keep(v, count)` is asked
//! of exactly `S ∪ N(S)`, and it reads `1[v ∈ S]` from `S`'s sorted member
//! list.

use crate::budget::InvalidParams;
use crate::driver::drive;
use crate::result::{Diffusion, DiffusionStats};
use crate::seed::Seed;
use crate::workspace::Workspace;
use lgc_graph::{cut_conductance, CsrBackend};
use lgc_ligra::{lane, Absorb, Checkpoint, Tripped, VertexSubset};
use lgc_parallel::{map_chunks, Pool};
use lgc_sparse::{MassMap, SparseVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for the evolving set process.
#[derive(Clone, Copy, Debug)]
pub struct EvolvingParams {
    /// Maximum number of set-evolution steps.
    pub max_steps: usize,
    /// Stop early once a set with conductance ≤ this target is found
    /// (`0.0` disables early stopping).
    pub target_conductance: f64,
    /// RNG seed for the threshold draws.
    pub rng_seed: u64,
}

impl Default for EvolvingParams {
    fn default() -> Self {
        EvolvingParams {
            max_steps: 50,
            target_conductance: 0.0,
            rng_seed: 1,
        }
    }
}

impl EvolvingParams {
    pub(crate) fn check(&self) -> Result<(), InvalidParams> {
        let phi = self.target_conductance;
        InvalidParams::require(phi.is_finite(), "target_conductance", "must be finite")
    }
}

/// Result of an evolving-set run.
#[derive(Clone, Debug)]
pub struct EvolvingResult {
    /// Best (lowest-conductance) set observed, sorted by vertex id.
    pub best_set: Vec<u32>,
    /// Its conductance.
    pub best_conductance: f64,
    /// Steps actually executed.
    pub steps: usize,
    /// Size of the set at each step (diagnostic: the paper observed the
    /// trajectory "varies widely").
    pub sizes: Vec<usize>,
    /// The work of the steps executed: `iterations` = `steps`, `pushes` =
    /// `Σ|S|` and `pushed_volume` = `edges_traversed` = `Σ vol(S)` over the
    /// sets stepped from — what a work budget caps.
    pub stats: DiffusionStats,
}

impl EvolvingResult {
    /// The best set as a membership-indicator [`Diffusion`]: mass
    /// `1/|S|` per member (total mass 1), with the run's `stats`.
    ///
    /// This is how the ESP fits the [`crate::LocalDiffusion`] surface —
    /// it selects a set rather than computing a mass vector, so the
    /// indicator is the honest translation (and sweeping it is
    /// meaningless; [`crate::ClusterResult::from_evolving`] reports the
    /// set directly instead).
    pub fn indicator(&self) -> Diffusion {
        let mass = 1.0 / self.best_set.len().max(1) as f64;
        Diffusion::from_entries(
            self.best_set.iter().map(|&v| (v, mass)).collect(),
            self.stats,
        )
    }
}

/// `p(v, S)` for the lazy walk, from an exact `|N(v) ∩ S|` count.
#[inline]
fn transition(is_member: bool, neighbors_inside: u64, degree: usize) -> f64 {
    let lazy = if is_member { 0.5 } else { 0.0 };
    if degree == 0 {
        lazy
    } else {
        lazy + 0.5 * neighbors_inside as f64 / degree as f64
    }
}

/// Sequential evolving set process.
pub fn evolving_set_seq<B: CsrBackend>(
    g: &B,
    seed: &Seed,
    params: &EvolvingParams,
) -> EvolvingResult {
    let mut rng = StdRng::seed_from_u64(params.rng_seed);
    let mut current: Vec<u32> = seed.vertices().to_vec();
    let mut best = (current.clone(), g.conductance(&current));
    let mut sizes = vec![current.len()];
    let mut stats = DiffusionStats::default();

    for _ in 0..params.max_steps {
        if best.1 <= params.target_conductance {
            return finish(best, stats, sizes);
        }
        let vol: u64 = current.iter().map(|&v| g.degree(v) as u64).sum();
        stats.iterations += 1;
        stats.pushes += current.len() as u64;
        stats.pushed_volume += vol;
        stats.edges_traversed += vol;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..=1.0);
        // Exact |N(v) ∩ S| counts for everything adjacent to S.
        let mut inside = SparseVec::new_f64();
        for &v in &current {
            g.for_each_neighbor(v, |w| inside.add(w, 1.0));
        }
        // Candidates: S ∪ N(S) (members with no S-neighbor still qualify
        // through the lazy self-loop ½ ≥ u half the time).
        let mut cands: Vec<u32> = inside.iter().map(|(v, _)| v).collect();
        cands.extend_from_slice(&current);
        cands.sort_unstable();
        cands.dedup();
        let next: Vec<u32> = cands
            .into_iter()
            .filter(|&v| {
                let member = current.binary_search(&v).is_ok();
                transition(member, inside.get(v) as u64, g.degree(v)) >= u
            })
            .collect();
        sizes.push(next.len());
        if next.is_empty() || next.len() == g.num_vertices() {
            return finish(best, stats, sizes);
        }
        let phi = g.conductance(&next);
        if phi < best.1 {
            best = (next.clone(), phi);
        }
        current = next;
    }
    finish(best, stats, sizes)
}

/// Parallel evolving set process: membership counting is one `edgeMap`
/// accumulating exact integers, which applies the threshold test as its
/// `keep`.
/// Follows the identical random trajectory as [`evolving_set_seq`] for
/// the same `rng_seed` (the counts are exact, so no float-order drift).
pub fn evolving_set_par<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &EvolvingParams,
) -> EvolvingResult {
    // An unlimited checkpoint never trips, so the `Err` case is unreachable.
    let (ws, cp) = (&mut Workspace::new(), &Checkpoint::unlimited());
    evolving_set_par_ws(pool, g, seed, params, ws, cp).unwrap_or_else(|t| t.partial)
}

/// [`evolving_set_par`] over a recyclable workspace: the neighbor
/// counter (a mass map), the set frontier and the edge map's buffer come
/// out of `ws` instead of being allocated. The trajectory is count-exact,
/// so neither workspace reuse, nor the per-step direction choice, nor the
/// counter's store mode can perturb it.
///
/// Each step is an iteration of the shared frontier driver
/// (`driver::drive`), which consults `cp` once per step with the `Σ|S|`
/// and `Σ vol(S)` counters; on a trip the walk stops at that boundary and
/// the best-so-far result is returned as the `Err` payload, with the
/// workspace buffers already recycled.
pub(crate) fn evolving_set_par_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &EvolvingParams,
    ws: &mut Workspace,
    cp: &Checkpoint,
) -> Result<EvolvingResult, Tripped<EvolvingResult>> {
    let mut rng = StdRng::seed_from_u64(params.rng_seed);
    let n = g.num_vertices();
    let mut current = ws.take_frontier();
    current.advance(pool, seed.vertices().to_vec());
    let phi = conductance(pool, g, &mut current);
    let mut best = (current.ids(pool).to_vec(), phi);
    let mut sizes = vec![current.len()];
    let mut inside = ws.take_mass(pool, n, 16, MassMap::DEFAULT_DENSE_FRACTION);

    // A step runs while the best set misses the target: a seed set that
    // meets it takes none.
    let target = params.target_conductance;
    let max_steps = if best.1 <= target {
        0
    } else {
        params.max_steps
    };
    // The driver hands each step the lane for `S`; `S′` is scored on the
    // lane for its own size, asked of the whole `pool`.
    let step = |step_pool: &Pool, k: usize, vol: usize, current: &mut VertexSubset| {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..=1.0);
        inside.reset(step_pool, k + vol);
        let members = current.ids(step_pool).to_vec();
        // Exact |N(v) ∩ S| counts for everything adjacent to S: every
        // member sends 1.0 along each of its edges, and holds a key of
        // `inside` itself, so the edge map asks `keep` of exactly S ∪ N(S)
        // (members with no S-neighbor still qualify through the lazy
        // self-loop ½ ≥ u half the time) and leaves S′ in `current`.
        let staged = ws.spread.stage(step_pool, g, current, vol, |v| {
            inside.set(v, 0.0);
            1.0
        });
        let keep = |v: u32, m: f64| {
            let member = members.binary_search(&v).is_ok();
            transition(member, m as u64, g.degree(v)) >= u
        };
        staged.absorb(Absorb::Sum, &mut inside, Some(keep));
        sizes.push(current.len());
        if current.is_empty() || current.len() == n {
            return false;
        }
        let phi = conductance(pool, g, current);
        if phi < best.1 {
            best = (current.ids(pool).to_vec(), phi);
        }
        best.1 > target
    };
    let (stats, tripped) = drive(pool, g, cp, max_steps, &mut current, step);
    ws.put_mass(inside);
    ws.put_frontier(pool, current);
    Tripped::outcome(tripped, finish(best, stats, sizes))
}

/// Adjacency entries a chunk of [`conductance`]'s boundary pass covers,
/// on average.
const EDGE_GRAIN: usize = 4096;

/// `φ(S)` of the set `set` holds, from its own frontier: one pass over its
/// `vol(S)` adjacency entries, each neighbor tested against the set's
/// bitset, on the pool the fork policy picks for `|S| + vol(S)`. The
/// counts are the integers [`CsrBackend::conductance`] counts, so the
/// bits are its bits.
fn conductance<B: CsrBackend>(pool: &Pool, g: &B, set: &mut VertexSubset) -> f64 {
    let vol = set.volume(g);
    let pool = lane(pool, set.len(), vol);
    let (ids, bits) = set.ids_and_bits(pool, g.num_vertices());
    let grain = (EDGE_GRAIN * ids.len()).div_ceil(vol.max(1));
    let cuts = map_chunks(pool, ids.len(), grain, |s, e| {
        let mut cut = 0u64;
        for &v in &ids[s..e] {
            g.for_each_neighbor(v, |w| cut += u64::from(!bits.contains(w)));
        }
        cut
    });
    cut_conductance(cuts.iter().sum(), vol as u64, g.total_degree() as u64)
}

fn finish(best: (Vec<u32>, f64), stats: DiffusionStats, sizes: Vec<usize>) -> EvolvingResult {
    EvolvingResult {
        best_set: best.0,
        best_conductance: best.1,
        steps: stats.iterations as usize,
        sizes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;
    use lgc_ligra::DirectionParams;

    #[test]
    fn transition_probability_formula() {
        assert_eq!(transition(true, 0, 4), 0.5);
        assert_eq!(transition(true, 4, 4), 1.0);
        assert_eq!(transition(false, 2, 4), 0.25);
        assert_eq!(transition(true, 0, 0), 0.5);
        assert_eq!(transition(false, 0, 3), 0.0);
    }

    #[test]
    fn finds_planted_clique_cut() {
        // The process is randomized and the paper observes its behavior
        // "varies widely with the random choices", so assert over a small
        // ensemble of seeds: at least one run must find the planted cut.
        let g = gen::two_cliques_bridge(10);
        let best = (0..64u64)
            .map(|rng_seed| {
                let params = EvolvingParams {
                    max_steps: 100,
                    rng_seed,
                    ..Default::default()
                };
                evolving_set_seq(&g, &Seed::single(0), &params).best_conductance
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best <= 0.25, "best phi over 64 runs = {best}");
    }

    #[test]
    fn parallel_matches_sequential_trajectory() {
        let g = gen::rand_local(300, 5, 11);
        let params = EvolvingParams {
            max_steps: 30,
            rng_seed: 9,
            ..Default::default()
        };
        let a = evolving_set_seq(&g, &Seed::single(3), &params);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let b = evolving_set_par(&pool, &g, &Seed::single(3), &params);
            assert_eq!(a.sizes, b.sizes, "threads={threads}");
            assert_eq!(a.best_set, b.best_set);
            assert_eq!(a.best_conductance, b.best_conductance);
            assert_eq!(a.stats, b.stats);
        }
    }

    /// The parallel process scores each set on its own frontier bits
    /// (`conductance`) and the sequential reference by
    /// `CsrBackend::conductance`; on four 300-vertex blocks from a
    /// 600-vertex seed — `|S| + vol(S)` past `FORK_MIN_WORK` — both follow
    /// one trajectory to one best set with one φ, at every thread count,
    /// and the boundary pass forks wherever the pool has workers.
    #[test]
    fn frontier_scoring_matches_the_reference_past_the_fork_threshold() {
        let (g, _) = gen::sbm(&[300; 4], 0.3, 0.01, 5);
        let seed = Seed::set((0..600).collect());
        let vol: usize = seed.vertices().iter().map(|&v| g.degree(v)).sum();
        assert!(seed.vertices().len() + vol >= lgc_ligra::FORK_MIN_WORK);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let mut set = VertexSubset::from_sorted(seed.vertices().to_vec());
            let forked = pool.stats().loops_forked;
            let phi = conductance(&pool, &g, &mut set);
            assert_eq!(phi.to_bits(), g.conductance(seed.vertices()).to_bits());
            assert_eq!(
                pool.stats().loops_forked > forked,
                threads > 1,
                "t={threads}: the boundary pass forks"
            );
            for rng_seed in [1u64, 2, 3] {
                let params = EvolvingParams {
                    max_steps: 8,
                    rng_seed,
                    ..Default::default()
                };
                let want = evolving_set_seq(&g, &seed, &params);
                assert!(want.steps > 0, "rng_seed={rng_seed}: the process stepped");
                let got = evolving_set_par(&pool, &g, &seed, &params);
                assert_eq!(got.sizes, want.sizes, "t={threads} rng_seed={rng_seed}");
                assert_eq!(got.best_set, want.best_set);
                assert_eq!(
                    got.best_conductance.to_bits(),
                    want.best_conductance.to_bits()
                );
                assert_eq!(
                    got.best_conductance.to_bits(),
                    g.conductance(&got.best_set).to_bits()
                );
            }
        }
    }

    /// A step is charged `|S|` pushes and `vol(S)` edges for the set `S`
    /// it steps from (the parallel form's stats equal these:
    /// `parallel_matches_sequential_trajectory`).
    #[test]
    fn stats_count_the_sets_stepped_from() {
        let g = gen::rand_local(2000, 5, 7);
        let params = EvolvingParams {
            max_steps: 19,
            rng_seed: 3,
            ..Default::default()
        };
        let res = evolving_set_seq(&g, &Seed::single(0), &params);
        let pushes: usize = res.sizes[..res.steps].iter().sum();
        assert!(res.steps > 0);
        assert_eq!(res.stats.iterations, res.steps as u64);
        assert_eq!(res.stats.pushes, pushes as u64);
        assert!(res.stats.edges_traversed >= res.stats.pushes);
        assert_eq!(res.stats.pushed_volume, res.stats.edges_traversed);
        assert_eq!(res.indicator().stats, res.stats);
    }

    /// The counting pass is direction-invariant: pinned pull, pinned
    /// push, the auto heuristic, and the sequential reference all follow
    /// the same random trajectory bit-for-bit (the counts are exact
    /// integers), at every thread count.
    #[test]
    fn pull_direction_keeps_the_trajectory() {
        // two_cliques_bridge drives the set toward high volume, so the
        // auto heuristic genuinely flips direction mid-run; rand_local
        // keeps it mostly pushing. Both must agree with the reference.
        let graphs = [gen::two_cliques_bridge(16), gen::rand_local(300, 5, 7)];
        for g in &graphs {
            for rng_seed in [1u64, 5, 9] {
                let base = EvolvingParams {
                    max_steps: 25,
                    rng_seed,
                    ..Default::default()
                };
                let want = evolving_set_seq(g, &Seed::single(0), &base);
                for dir in [
                    DirectionParams::push_only(),
                    DirectionParams::pull_only(),
                    DirectionParams::default(),
                ] {
                    for threads in [1, 2, 4] {
                        let pool = Pool::new(threads);
                        let got = evolving_set_par_ws(
                            &pool,
                            g,
                            &Seed::single(0),
                            &base,
                            &mut Workspace::with_policy(dir),
                            &Checkpoint::unlimited(),
                        )
                        .unwrap_or_else(|_| unreachable!("an unlimited checkpoint never trips"));
                        assert_eq!(got.sizes, want.sizes, "{dir:?} t={threads}");
                        assert_eq!(got.best_set, want.best_set);
                        assert_eq!(got.best_conductance, want.best_conductance);
                    }
                }
            }
        }
    }

    #[test]
    fn early_stop_at_target() {
        // Randomized trajectory: some seed in the ensemble must reach the
        // (loose) target and stop before exhausting its step budget.
        let g = gen::two_cliques_bridge(8);
        let hit = (0..64u64).any(|rng_seed| {
            let params = EvolvingParams {
                max_steps: 1000,
                target_conductance: 0.5,
                rng_seed,
            };
            let res = evolving_set_seq(&g, &Seed::single(0), &params);
            res.steps < 1000 && res.best_conductance <= 0.5
        });
        assert!(hit, "no run out of 64 stopped early at target 0.5");
    }

    #[test]
    fn indicator_is_a_unit_mass_membership_vector() {
        let g = gen::two_cliques_bridge(6);
        let res = evolving_set_seq(&g, &Seed::single(0), &EvolvingParams::default());
        let d = res.indicator();
        assert_eq!(d.support_size(), res.best_set.len());
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(d.stats.iterations, res.steps as u64);
        for &v in &res.best_set {
            assert!(d.mass_of(v) > 0.0);
        }
    }

    #[test]
    fn workspace_reuse_keeps_the_trajectory() {
        // Interleave two different runs over one recycled workspace; each
        // must match its fresh-workspace twin exactly (integer counts ⇒
        // bit-equal trajectories).
        let g = gen::rand_local(250, 5, 4);
        let pool = Pool::new(2);
        let mut ws = Workspace::new();
        for rng_seed in [1u64, 8, 1, 8] {
            let params = EvolvingParams {
                max_steps: 20,
                rng_seed,
                ..Default::default()
            };
            let warm = evolving_set_par_ws(
                &pool,
                &g,
                &Seed::single(2),
                &params,
                &mut ws,
                &Checkpoint::unlimited(),
            )
            .unwrap();
            let cold = evolving_set_par(&pool, &g, &Seed::single(2), &params);
            assert_eq!(warm.best_set, cold.best_set, "rng_seed={rng_seed}");
            assert_eq!(warm.sizes, cold.sizes);
            assert_eq!(warm.best_conductance, cold.best_conductance);
        }
    }

    /// The neighbor counter comes out of the workspace's shared mass-map
    /// pool. After a PR-Nibble query has run every map of that pool dense
    /// (`dense_frac = 0`), the process still returns a cold run's result,
    /// bit for bit: for a seed set with `vol(S) ≥ n/8` and for one below
    /// it.
    #[test]
    fn a_counter_from_a_dense_left_pool_keeps_the_result() {
        use crate::prnibble::{prnibble_par, PrNibbleParams};
        let g = gen::rand_local(2000, 5, 7);
        let n = g.num_vertices();
        let pool = Pool::new(2);
        let wide = Seed::set((0..n as u32).step_by(4).collect());
        let narrow = Seed::single(0);
        let vol = |s: &Seed| s.vertices().iter().map(|&v| g.degree(v)).sum::<usize>();
        assert!(vol(&wide) >= n / 8 && vol(&narrow) < n / 8);
        let all_dense = PrNibbleParams {
            dense_frac: 0.0,
            ..Default::default()
        };
        let cp = Checkpoint::unlimited();
        for seed in [&wide, &narrow] {
            let params = EvolvingParams {
                max_steps: 20,
                rng_seed: 4,
                ..Default::default()
            };
            let mut ws = Workspace::new();
            prnibble_par(&pool, &g, &Seed::single(9), &all_dense, &mut ws, &cp).unwrap();
            let warm = evolving_set_par_ws(&pool, &g, seed, &params, &mut ws, &cp).unwrap();
            let cold = evolving_set_par(&pool, &g, seed, &params);
            assert_eq!(warm.best_set, cold.best_set);
            assert_eq!(
                warm.best_conductance.to_bits(),
                cold.best_conductance.to_bits()
            );
            assert_eq!((warm.steps, &warm.sizes), (cold.steps, &cold.sizes));
            assert_eq!(warm.stats, cold.stats);
            assert!(warm.steps > 0, "the process stepped");
        }
    }

    #[test]
    fn trajectory_is_recorded_and_runs_vary_with_seed() {
        let g = gen::rand_local(200, 5, 3);
        let run = |rng_seed| {
            evolving_set_seq(
                &g,
                &Seed::single(0),
                &EvolvingParams {
                    max_steps: 20,
                    rng_seed,
                    ..Default::default()
                },
            )
            .sizes
        };
        let (a, b) = (run(1), run(2));
        assert_eq!(a[0], 1);
        // The paper's observation: different random choices give very
        // different trajectories.
        assert_ne!(a, b);
    }
}
