//! Sequential HK-PR: the literal Kloster–Gleich queue over
//! `(vertex, level)` pairs (§3.4's description), with the residual in an
//! `unordered_map`-style table exactly as the paper's sequential baseline.

use super::HkprParams;
use crate::result::{Diffusion, DiffusionStats};
use crate::seed::Seed;
use lgc_graph::CsrBackend;
use lgc_sparse::SparseVec;
use std::collections::VecDeque;

/// Sequential deterministic heat-kernel PageRank.
///
/// Explores `O(N·e^t/ε)` edges; the returned vector is identical (up to
/// float-addition order) to the parallel algorithm because updates flow
/// strictly level-by-level.
#[expect(
    clippy::disallowed_types,
    reason = "the sequential baseline's `unordered_map` residual keyed by (vertex, level): inserted and looked up, never iterated, so its order never reaches the result"
)]
pub fn hkpr_seq<B: CsrBackend>(g: &B, seed: &Seed, params: &HkprParams) -> Diffusion {
    use std::collections::HashMap;
    params.validate();
    let n_levels = params.n_levels;
    let psi = super::psi_table(params.t, n_levels);
    let thresholds: Vec<_> = (0..=n_levels).map(|j| params.threshold(&psi, j)).collect();
    let mut stats = DiffusionStats::default();

    let mut p = SparseVec::new_f64();
    let mut r: HashMap<(u32, usize), f64> = HashMap::new();
    let mut queue: VecDeque<(u32, usize)> = VecDeque::new();
    for &x in seed.vertices() {
        r.insert((x, 0), seed.mass_per_vertex());
        queue.push_back((x, 0));
    }

    while let Some((v, j)) = queue.pop_front() {
        let rv = r[&(v, j)];
        stats.pushes += 1;
        stats.iterations += 1;
        let d = g.degree(v);
        p.add(v, rv);
        if d == 0 {
            continue;
        }
        stats.pushed_volume += d as u64;
        let mass = params.t * rv / ((j + 1) as f64 * d as f64);
        g.for_each_neighbor(v, |w| {
            stats.edges_traversed += 1;
            if j + 1 == n_levels {
                // Final level: flush straight into p.
                p.add(w, rv / d as f64);
            } else {
                let thr = thresholds[j + 1].at(g.degree(w));
                let slot = r.entry((w, j + 1)).or_insert(0.0);
                if *slot < thr && *slot + mass >= thr {
                    queue.push_back((w, j + 1));
                }
                *slot += mass;
            }
        });
    }

    // The push process accumulates the *unnormalized* Taylor sum
    // (level j carries ≈ t^j/j! mass); scaling by e^{−t} recovers the
    // heat-kernel probability vector h. Scaling is uniform, so the sweep
    // order is unaffected.
    let scale = (-params.t).exp();
    let entries: Vec<(u32, f64)> = p
        .entries_sorted()
        .into_iter()
        .map(|(v, m)| (v, m * scale))
        .collect();
    let mut d = Diffusion::from_entries(entries, stats);
    d.stats.residual_mass = (1.0 - d.total_mass()).max(0.0);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;

    #[test]
    fn mass_stays_near_one() {
        // p approximates the heat-kernel distribution: |p|₁ ≤ 1 and the
        // deficit shrinks with ε.
        let g = gen::rand_local(500, 5, 3);
        let d = hkpr_seq(
            &g,
            &Seed::single(0),
            &HkprParams {
                t: 5.0,
                n_levels: 15,
                eps: 1e-6,
            },
        );
        let mass = d.total_mass();
        // The last-level flush banks the *full* residual r/d(v) (the
        // paper's rule), so the scaled mass may exceed 1 by a hair.
        assert!(mass > 0.8 && mass <= 1.01, "mass {mass}");
    }

    #[test]
    fn tighter_eps_gives_more_mass_and_support() {
        let g = gen::rmat_graph500(10, 8, 1);
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        let loose = hkpr_seq(
            &g,
            &seed,
            &HkprParams {
                t: 10.0,
                n_levels: 20,
                eps: 1e-3,
            },
        );
        let tight = hkpr_seq(
            &g,
            &seed,
            &HkprParams {
                t: 10.0,
                n_levels: 20,
                eps: 1e-7,
            },
        );
        assert!(tight.support_size() >= loose.support_size());
        assert!(tight.total_mass() >= loose.total_mass() - 1e-12);
    }

    #[test]
    fn one_level_spreads_once() {
        // N = 1: the seed's mass goes to p[seed], neighbors get the
        // level-1 flush rv/d; everything scaled by e^{−t}.
        let g = gen::star(5);
        let t = 1.0;
        let d = hkpr_seq(
            &g,
            &Seed::single(0),
            &HkprParams {
                t,
                n_levels: 1,
                eps: 1e-9,
            },
        );
        let s = (-t).exp();
        assert_eq!(d.mass_of(0), s);
        for leaf in 1..5 {
            assert_eq!(d.mass_of(leaf), 0.25 * s);
        }
    }

    #[test]
    fn isolated_seed_banks_level_zero_only() {
        // A degree-0 seed cannot forward mass to any level: only the
        // level-0 term e^{−t}·1 is banked (degenerate but well-defined).
        let g = lgc_graph::Graph::from_edges(3, &[(1, 2)]);
        let params = HkprParams::default();
        let d = hkpr_seq(&g, &Seed::single(0), &params);
        assert_eq!(d.p, vec![(0, (-params.t).exp())]);
    }

    #[test]
    fn mass_concentrates_in_seeded_clique() {
        let g = gen::two_cliques_bridge(10);
        let d = hkpr_seq(&g, &Seed::single(0), &HkprParams::default());
        let inside: f64 = d.p.iter().filter(|&&(v, _)| v < 10).map(|&(_, m)| m).sum();
        let outside: f64 = d.p.iter().filter(|&&(v, _)| v >= 10).map(|&(_, m)| m).sum();
        assert!(inside > 5.0 * outside, "inside={inside} outside={outside}");
    }

    #[test]
    fn work_scales_with_one_over_eps() {
        // Theorem 4: edges explored ≤ O(N·e^t/ε) — check monotonicity.
        let g = gen::rand_local(2000, 5, 5);
        let run = |eps| {
            hkpr_seq(
                &g,
                &Seed::single(0),
                &HkprParams {
                    t: 3.0,
                    n_levels: 10,
                    eps,
                },
            )
            .stats
            .edges_traversed
        };
        assert!(run(1e-6) >= run(1e-4));
    }
}
