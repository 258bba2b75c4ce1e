//! Network community profile (NCP) plots — §4, Figure 12.
//!
//! An NCP plot (Leskovec et al.) shows, for each cluster size `k`, the
//! best (lowest) conductance over all clusters of that size the method
//! could find. The paper generates NCPs for billion-edge graphs by
//! running PR-Nibble from many random seeds across a grid of `(α, ε)`
//! settings and taking, for every sweep prefix, the minimum conductance
//! seen at that prefix size. Here that grid is a list of ordinary
//! [`Query`]s, run as a batch ([`Engine::run_batch`]) and folded.

use crate::engine::{Engine, Query};
use crate::prnibble::PrNibbleParams;
use crate::seed::Seed;
use crate::Algorithm;
use lgc_graph::CsrBackend;
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
}

impl Default for NcpParams {
    fn default() -> Self {
        NcpParams {
            num_seeds: 100,
            alphas: vec![0.1, 0.01],
            epsilons: vec![1e-4, 1e-5, 1e-6],
            rng_seed: 7,
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

/// The seed × α × ε grid of PR-Nibble queries (the paper's optimized push
/// rule, full frontier), seed-major. Seeds are drawn uniformly among the
/// vertices with an edge; a graph without edges has an empty grid.
pub(crate) fn grid<B: CsrBackend>(g: &B, params: &NcpParams) -> Vec<Query> {
    if g.num_edges() == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(params.rng_seed);
    let mut queries = Vec::new();
    for _ in 0..params.num_seeds {
        // No checkpoint tick: rejection sampling of a seed vertex (some
        // vertex has an edge) draws vertices and runs no diffusion.
        let seed = loop {
            let v = rng.gen_range(0..g.num_vertices() as u32);
            if g.degree(v) > 0 {
                break v;
            }
        };
        for &alpha in &params.alphas {
            for &eps in &params.epsilons {
                let p = PrNibbleParams {
                    alpha,
                    eps,
                    ..Default::default()
                };
                queries.push(Query::new(Seed::single(seed), Algorithm::PrNibble(p)));
            }
        }
    }
    queries
}

/// Folds one sweep's prefix conductances into the envelope, whose entry
/// `k - 1` is the least φ seen at prefix size `k` so far (`min` skips NaN).
fn fold(envelope: &mut Vec<f64>, conductances: &[f64]) {
    envelope.resize(envelope.len().max(conductances.len()), f64::INFINITY);
    for (best, &phi) in envelope.iter_mut().zip(conductances) {
        *best = best.min(phi);
    }
}

/// The envelope as a profile: one point per size that saw a finite φ,
/// sorted by size.
fn points(envelope: Vec<f64>) -> Vec<NcpPoint> {
    (1..)
        .zip(envelope)
        .filter(|&(_, conductance)| conductance.is_finite())
        .map(|(size, conductance)| NcpPoint { size, conductance })
        .collect()
}

impl<B: CsrBackend> Engine<'_, B> {
    /// Computes a network community profile (§4): the PR-Nibble grid runs
    /// through [`Engine::run_batch`] four points per pool thread at a time,
    /// each chunk folded before the next runs. Its points are batch items —
    /// one-thread bits at any width, booked in [`Engine::lifecycle_stats`],
    /// panicking on an `(α, ε)` pair failing [`Algorithm::check`].
    pub fn ncp(&self, params: &NcpParams) -> Vec<NcpPoint> {
        let mut envelope = Vec::new();
        for chunk in grid(self.g, params).chunks(4 * self.num_threads()) {
            for res in self.run_batch(chunk) {
                fold(&mut envelope, &res.sweep.conductances);
            }
        }
        points(envelope)
    }
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
        let params = NcpParams {
            num_seeds: 16,
            alphas: vec![0.05],
            epsilons: vec![1e-5, 1e-6],
            rng_seed: 1,
        };
        let points = Engine::builder(&g).threads(2).build().ncp(&params);
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
        let params = NcpParams {
            num_seeds: 4,
            alphas: vec![0.1],
            epsilons: vec![1e-4],
            rng_seed: 2,
        };
        let points = Engine::builder(&g).threads(2).build().ncp(&params);
        assert!(points.windows(2).all(|w| w[0].size < w[1].size));
        assert!(points.iter().all(|p| (0.0..=1.0).contains(&p.conductance)));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::rand_local(200, 5, 8);
        let params = NcpParams {
            num_seeds: 3,
            alphas: vec![0.1],
            epsilons: vec![1e-4],
            rng_seed: 11,
        };
        let a = Engine::builder(&g).threads(2).build().ncp(&params);
        let b = Engine::builder(&g).threads(2).build().ncp(&params);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.size, y.size);
            assert_eq!(x.conductance.to_bits(), y.conductance.to_bits());
        }
    }
}
