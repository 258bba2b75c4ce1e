//! Network community profile (NCP) plots — §4, Figure 12.
//!
//! An NCP plot (Leskovec et al.) shows, for each cluster size `k`, the
//! best (lowest) conductance over all clusters of that size the method
//! could find. The paper generates NCPs for billion-edge graphs by
//! running PR-Nibble from many random seeds across a grid of `(α, ε)`
//! settings and taking, for every sweep prefix, the minimum conductance
//! seen at that prefix size. This module reproduces that procedure.

use crate::prnibble::{prnibble_par_ws, PrNibbleParams, PushRule};
use crate::seed::Seed;
use crate::sweep::sweep_cut_par_ws;
use crate::workspace::Workspace;
use lgc_graph::CsrBackend;
use lgc_ligra::QueryBudget;
use lgc_parallel::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for NCP generation.
#[derive(Clone, Debug)]
pub struct NcpParams {
    /// Number of random seed vertices to diffuse from.
    pub num_seeds: usize,
    /// Teleportation values to sweep (the paper varies α).
    pub alphas: Vec<f64>,
    /// Thresholds to sweep (the paper varies ε).
    pub epsilons: Vec<f64>,
    /// RNG seed for choosing the diffusion seeds.
    pub rng_seed: u64,
    /// Budget over the *whole* grid scan (deadline, cumulative work
    /// caps, cancellation). Checked between grid points and cooperatively
    /// inside each run; on a trip the profile built so far is returned —
    /// an NCP is a min-envelope, so a truncated scan is still a valid
    /// (just sparser) profile. Default: unlimited.
    pub budget: QueryBudget,
}

impl Default for NcpParams {
    fn default() -> Self {
        NcpParams {
            num_seeds: 100,
            alphas: vec![0.1, 0.01],
            epsilons: vec![1e-4, 1e-5, 1e-6],
            rng_seed: 7,
            budget: QueryBudget::unlimited(),
        }
    }
}

/// One point of the profile: the best conductance observed among all
/// clusters of exactly `size` vertices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NcpPoint {
    /// Cluster size (number of vertices).
    pub size: usize,
    /// Minimum conductance over every sweep prefix of that size.
    pub conductance: f64,
}

/// Computes the network community profile with PR-Nibble diffusions.
///
/// Every sweep prefix of every run contributes a candidate `(size, φ)`;
/// the result keeps the minimum per size, sorted by size. Runs use the
/// parallel algorithms internally (the paper's setting: one analyst
/// query at a time, each as fast as possible).
pub fn ncp_prnibble<B: CsrBackend>(pool: &Pool, g: &B, params: &NcpParams) -> Vec<NcpPoint> {
    ncp_prnibble_ws(pool, g, params, &mut Workspace::new())
}

/// [`ncp_prnibble`] over a recyclable [`Workspace`]: one workspace
/// serves the whole `seeds × α × ε` grid — hundreds of back-to-back
/// diffusion + sweep queries, the highest-leverage consumer of buffer
/// recycling (each grid point would otherwise rebuild its mass arenas,
/// frontier bitsets, and sweep rank table from scratch).
pub(crate) fn ncp_prnibble_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    params: &NcpParams,
    ws: &mut Workspace,
) -> Vec<NcpPoint> {
    let n = g.num_vertices();
    assert!(n > 0, "empty graph has no profile");
    let mut rng = StdRng::seed_from_u64(params.rng_seed);
    let mut best: Vec<f64> = Vec::new(); // index = size - 1

    // One checkpoint governs the whole grid: cumulative work from
    // completed runs is subtracted from the caps handed to each inner
    // run (`after_work`), so the budget bounds the scan, not each point.
    let cp = params.budget.arm();
    let mut total_pushes = 0u64;
    let mut total_edges = 0u64;

    'grid: for _ in 0..params.num_seeds {
        let seed = loop {
            let v = rng.gen_range(0..n as u32);
            if g.degree(v) > 0 {
                break v;
            }
            // Graphs of isolated vertices only: bail out with a flat profile.
            if g.num_edges() == 0 {
                return Vec::new();
            }
            // Rejection sampling on mostly-isolated graphs can draw many
            // dead vertices; keep the retry loop under the same budget
            // clock as the grid itself.
            if cp.tick(total_pushes, total_edges).is_err() {
                break 'grid;
            }
        };
        for &alpha in &params.alphas {
            for &eps in &params.epsilons {
                if cp.tick(total_pushes, total_edges).is_err() {
                    break 'grid;
                }
                let p = PrNibbleParams {
                    alpha,
                    eps,
                    rule: PushRule::Optimized,
                    beta: 1.0,
                    ..Default::default()
                };
                let sub = cp.after_work(total_pushes, total_edges);
                let Ok(d) = prnibble_par_ws(pool, g, &Seed::single(seed), &p, ws, &sub) else {
                    break 'grid;
                };
                total_pushes += d.stats.pushes;
                total_edges += d.stats.edges_traversed;
                let Ok(sweep) = sweep_cut_par_ws(pool, g, &d.p, ws, &sub) else {
                    break 'grid;
                };
                for (i, &phi) in sweep.conductances.iter().enumerate() {
                    if phi.is_finite() {
                        if best.len() <= i {
                            best.resize(i + 1, f64::INFINITY);
                        }
                        if phi < best[i] {
                            best[i] = phi;
                        }
                    }
                }
            }
        }
    }

    best.into_iter()
        .enumerate()
        .filter(|&(_, phi)| phi.is_finite())
        .map(|(i, phi)| NcpPoint {
            size: i + 1,
            conductance: phi,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;

    #[test]
    fn profile_dips_at_planted_community_size() {
        // SBM with 40-vertex blocks: the NCP must dip sharply at the
        // planted scale. (The *global* minimum may legitimately sit at a
        // union of blocks — merging two blocks removes their mutual cut
        // — so assert the dip at size ≈ 40 rather than the argmin.)
        let (g, _) = gen::sbm(&[40, 40, 40, 40], 0.4, 0.01, 3);
        let pool = Pool::new(2);
        let params = NcpParams {
            num_seeds: 16,
            alphas: vec![0.05],
            epsilons: vec![1e-5, 1e-6],
            rng_seed: 1,
            ..Default::default()
        };
        let points = ncp_prnibble(&pool, &g, &params);
        assert!(!points.is_empty());
        let min_phi_in = |lo: usize, hi: usize| {
            points
                .iter()
                .filter(|p| (lo..=hi).contains(&p.size))
                .map(|p| p.conductance)
                .fold(f64::INFINITY, f64::min)
        };
        let planted = min_phi_in(30, 50);
        let sub_scale = min_phi_in(5, 15);
        assert!(planted < 0.12, "no dip at the planted scale: φ={planted}");
        assert!(
            planted < 0.5 * sub_scale,
            "dip not pronounced: φ(≈40)={planted} vs φ(5–15)={sub_scale}"
        );
    }

    #[test]
    fn points_are_sorted_and_bounded() {
        let g = gen::rand_local(300, 5, 5);
        let pool = Pool::new(2);
        let params = NcpParams {
            num_seeds: 4,
            alphas: vec![0.1],
            epsilons: vec![1e-4],
            rng_seed: 2,
            ..Default::default()
        };
        let points = ncp_prnibble(&pool, &g, &params);
        assert!(points.windows(2).all(|w| w[0].size < w[1].size));
        assert!(points.iter().all(|p| (0.0..=1.0).contains(&p.conductance)));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::rand_local(200, 5, 8);
        let pool = Pool::new(2);
        let params = NcpParams {
            num_seeds: 3,
            alphas: vec![0.1],
            epsilons: vec![1e-4],
            rng_seed: 11,
            ..Default::default()
        };
        let a = ncp_prnibble(&pool, &g, &params);
        let b = ncp_prnibble(&pool, &g, &params);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.size, y.size);
            assert!((x.conductance - y.conductance).abs() < 1e-9);
        }
    }
}
