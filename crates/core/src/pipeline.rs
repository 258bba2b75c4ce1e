//! Refinement and whole-graph pipelines on top of the engine.
//!
//! The paper's diffusions answer *one* local query; this module composes
//! them into the two higher-level workloads the local-clustering
//! literature builds on top (Fountoulakis–Gleich–Mahoney survey, §5):
//!
//! * [`Engine::improve`] — MQI max-flow refinement of any sweep
//!   cut ([`lgc_flow`]), with lifecycle counters and an optional
//!   [`QueryBudget`] whose checkpoint ticks inside the flow solver's
//!   phase loop.
//! * [`Engine::compute_embedding`] — per-seed geomspace ρ sweep of
//!   PR-Nibble queries fanned out through
//!   [`try_run_batch`](Engine::try_run_batch) (so the whole grid rides the
//!   engine's warm workspace pool), each cut refined, keeping the
//!   minimum-conductance envelope. The actually-achieved grid is
//!   recorded in [`RhoGrid`] — a budget trip mid-sweep truncates the
//!   envelope *visibly*, never silently.
//! * [`Engine::find_k_clusters`] — embeddings for every vertex,
//!   agglomerated into `k` groups by pairwise embedding distance
//!   (average linkage): the first whole-graph workload, and the reason
//!   the per-graph workspace amortization exists.
//!
//! Everything here inherits the engine's determinism contract: batched
//! diffusions are bit-identical to 1-thread runs, refinement is
//! sequential and canonical, and every tie-break below is explicit — so
//! pipeline outputs are bit-identical across thread counts and storage
//! backends.

use crate::budget::{PartialResult, QueryError};
use crate::engine::{Engine, Query};
use crate::result::ClusterResult;
use crate::seed::Seed;
use crate::{Algorithm, PrNibbleParams};
use lgc_flow::RefinedCut;
use lgc_graph::CsrBackend;
use lgc_ligra::QueryBudget;

/// Parameters for [`Engine::compute_embedding`] /
/// [`Engine::find_k_clusters`].
#[derive(Clone, Debug)]
pub struct PipelineParams {
    /// PR-Nibble teleport probability α for every grid query.
    pub alpha: f64,
    /// Smallest truncation threshold ρ in the sweep (most exploration).
    pub rho_min: f64,
    /// Largest truncation threshold ρ in the sweep (least exploration).
    pub rho_max: f64,
    /// Number of geometrically spaced grid points across
    /// `[rho_min, rho_max]`.
    pub nsamples: usize,
    /// Whether to MQI-refine each grid cut before taking the envelope.
    pub refine: bool,
    /// Per-grid-point budget (merged over the engine default): each
    /// diffusion *and* its refinement runs under a fresh checkpoint, so
    /// one oversized point trips alone and the rest of the grid
    /// completes.
    pub budget: QueryBudget,
}

impl Default for PipelineParams {
    /// α = 0.05 with 8 grid points across ρ ∈ [10⁻⁶, 10⁻²], refinement
    /// on, no budget.
    fn default() -> Self {
        PipelineParams {
            alpha: 0.05,
            rho_min: 1e-6,
            rho_max: 1e-2,
            nsamples: 8,
            refine: true,
            budget: QueryBudget::unlimited(),
        }
    }
}

impl PipelineParams {
    /// The requested grid: `nsamples` geometrically spaced ρ values,
    /// descending from `rho_max` to `rho_min` (coarse → fine, matching
    /// the envelope's "later grid point wins ties" rule below).
    pub fn rho_grid(&self) -> Vec<f64> {
        let n = self.nsamples;
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![self.rho_max];
        }
        let ratio = self.rho_min / self.rho_max;
        (0..n)
            .map(|i| self.rho_max * ratio.powf(i as f64 / (n - 1) as f64))
            .collect()
    }
}

/// The ρ grid a [`compute_embedding`](Engine::compute_embedding)
/// call actually completed — `NcpResult`-style metadata so a budget trip
/// mid-sweep is visible, never silent. A truncated sweep is still a
/// valid minimum-conductance envelope over `achieved`.
#[derive(Clone, Debug, PartialEq)]
pub struct RhoGrid {
    /// Every grid point requested, descending.
    pub requested: Vec<f64>,
    /// The points whose diffusion *and* refinement both completed.
    pub achieved: Vec<f64>,
    /// `true` iff any point was lost to a budget trip (its refinement
    /// partial, if any, still feeds the envelope).
    pub truncated: bool,
}

/// One seed's embedding: its minimum-conductance (refined) cut across
/// the ρ grid, the diffusion mass vector that produced it, plus the
/// grid bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct Embedding {
    /// The seed vertex.
    pub seed: u32,
    /// The winning cut, ascending vertex ids (empty if no grid point
    /// produced a cut).
    pub cluster: Vec<u32>,
    /// The winning grid point's diffusion vector (`(vertex, mass)`
    /// pairs, ascending by vertex; empty if no grid point completed).
    /// This — not the cut indicator — is what pairwise distances are
    /// computed over: the mass stays concentrated near the seed even
    /// when the minimum-φ cut is a union of communities, which is what
    /// makes the agglomeration in
    /// [`find_k_clusters`](Engine::find_k_clusters) robust to the
    /// NCP dip (bigger sets genuinely have lower conductance).
    pub mass: Vec<(u32, f64)>,
    /// φ of the winning cut (`+∞` if none).
    pub conductance: f64,
    /// The grid ρ that produced the winning cut (`0.0` if none).
    pub rho: f64,
    /// Whether refinement strictly improved the winning cut.
    pub refined: bool,
    /// What the sweep actually covered.
    pub grid: RhoGrid,
}

impl Embedding {
    /// Cosine similarity between two embeddings' diffusion mass vectors
    /// (scale-invariant, so no normalization is needed). Falls back to
    /// the cluster-indicator cosine `|A∩B| / √(|A|·|B|)` when either
    /// mass vector is empty, and to 0 when either embedding is empty
    /// altogether.
    pub fn similarity(&self, other: &Embedding) -> f64 {
        if !self.mass.is_empty() && !other.mass.is_empty() {
            // Sorted-merge sparse dot product.
            let (mut i, mut j, mut dot) = (0usize, 0usize, 0.0f64);
            while i < self.mass.len() && j < other.mass.len() {
                match self.mass[i].0.cmp(&other.mass[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        dot += self.mass[i].1 * other.mass[j].1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            let norm = |m: &[(u32, f64)]| m.iter().map(|&(_, x)| x * x).sum::<f64>().sqrt();
            return dot / (norm(&self.mass) * norm(&other.mass));
        }
        if self.cluster.is_empty() || other.cluster.is_empty() {
            return 0.0;
        }
        // Sorted-merge intersection count.
        let (mut i, mut j, mut both) = (0usize, 0usize, 0u64);
        while i < self.cluster.len() && j < other.cluster.len() {
            match self.cluster[i].cmp(&other.cluster[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    both += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        both as f64 / ((self.cluster.len() as f64) * (other.cluster.len() as f64)).sqrt()
    }
}

/// `k` clusters over the whole graph, from
/// [`Engine::find_k_clusters`].
#[derive(Clone, Debug, PartialEq)]
pub struct KClusters {
    /// Per-vertex cluster label in `0..k`; `u32::MAX` for isolated
    /// (degree-0) vertices, which are never seeded.
    pub assignment: Vec<u32>,
    /// The clusters: `clusters[label]` is the ascending vertex list.
    /// Ordered by smallest member, so labels are canonical.
    pub clusters: Vec<Vec<u32>>,
    /// One embedding per seeded vertex, ascending by seed.
    pub embeddings: Vec<Embedding>,
}

impl<B: CsrBackend> Engine<'_, B> {
    /// MQI max-flow refinement of a sweep cut: returns a subset of the
    /// result's cluster with conductance ≤ the input's, deterministically
    /// (see [`lgc_flow::improve`]).
    pub fn improve(&self, result: &ClusterResult) -> RefinedCut {
        self.improve_set(&result.cluster)
    }

    /// [`Engine::improve`] on a bare vertex set (any order, duplicates
    /// tolerated) — the analyst-supplied-cut form.
    pub fn improve_set(&self, cluster: &[u32]) -> RefinedCut {
        let refined = lgc_flow::improve(self.graph(), cluster);
        self.core.counters.note_refined(refined.improved());
        refined
    }

    /// The governed form of [`Engine::improve`]: refinement runs under
    /// `budget` (merged over the engine's default), with checkpoint
    /// ticks in the flow solver's phase loop. On a trip the error's
    /// [`PartialResult`] carries the *unrefined* input cut — always
    /// still a valid cluster.
    pub fn try_improve(
        &self,
        result: &ClusterResult,
        budget: &QueryBudget,
    ) -> Result<RefinedCut, QueryError> {
        let counters = &self.core.counters;
        let cp = budget.or(&self.core.default_budget).arm();
        match lgc_flow::improve_guarded(self.graph(), &result.cluster, &cp) {
            Ok(refined) => {
                counters.note_refined(refined.improved());
                Ok(refined)
            }
            Err(tripped) => {
                counters.note_trip(tripped.trip);
                // The typed partial carries the *unrefined* input cut:
                // the caller keeps a valid cluster either way.
                Err(QueryError::Tripped(tripped.map(|_| {
                    Box::new(PartialResult {
                        diffusion: Some(result.diffusion.clone()),
                        sweep: Some(result.sweep.clone()),
                        stats: result.diffusion.stats,
                    })
                })))
            }
        }
    }

    /// Per-seed embedding: a geomspace ρ sweep of PR-Nibble queries
    /// (batched through [`Engine::try_run_batch`], so a grid point the
    /// budget trips — or an in-flight cap sheds — is lost alone and
    /// visibly), each sweep cut refined with [`Engine::improve`], keeping
    /// the minimum-conductance cut. See [`PipelineParams`].
    pub fn compute_embedding(&self, seed: u32, params: &PipelineParams) -> Embedding {
        let requested = params.rho_grid();
        let queries: Vec<Query> = requested
            .iter()
            .map(|&rho| {
                Query::new(
                    Seed::single(seed),
                    Algorithm::PrNibble(PrNibbleParams {
                        alpha: params.alpha,
                        eps: rho,
                        ..PrNibbleParams::default()
                    }),
                )
                .with_budget(params.budget.clone())
            })
            .collect();
        // One batched fan-out over the warm workspace pool; items are
        // bit-identical to 1-thread runs, so the envelope below is
        // thread-count independent.
        let results = self.try_run_batch(&queries);

        let counters = &self.core.counters;
        let mut achieved = Vec::with_capacity(requested.len());
        let mut truncated = false;
        // Envelope state; `<=` so later (finer ρ) grid points win ties.
        struct Best {
            cluster: Vec<u32>,
            mass: Vec<(u32, f64)>,
            phi: f64,
            rho: f64,
            refined: bool,
        }
        let mut best: Option<Best> = None;
        for (&rho, item) in requested.iter().zip(results) {
            let result = match item {
                Ok(r) => r,
                Err(_) => {
                    truncated = true;
                    continue;
                }
            };
            let (cluster, phi, refined_strictly, completed) = if params.refine {
                let cp = params.budget.or(&self.core.default_budget).arm();
                match lgc_flow::improve_guarded(self.graph(), &result.cluster, &cp) {
                    Ok(r) => {
                        let strict = r.improved();
                        counters.note_refined(strict);
                        (r.cluster, r.conductance, strict, true)
                    }
                    // A tripped refinement still yields its last
                    // completed iterate — a valid cut, never worse than
                    // the unrefined input — but the point is not
                    // "achieved".
                    Err(t) => {
                        counters.note_trip(t.trip);
                        let r = t.partial;
                        let strict = r.improved();
                        (r.cluster, r.conductance, strict, false)
                    }
                }
            } else {
                (result.cluster.clone(), result.conductance, false, true)
            };
            if completed {
                achieved.push(rho);
            } else {
                truncated = true;
            }
            if best.as_ref().is_none_or(|b| phi <= b.phi) {
                best = Some(Best {
                    cluster,
                    mass: result.diffusion.p,
                    phi,
                    rho,
                    refined: refined_strictly,
                });
            }
        }
        let best = best.unwrap_or(Best {
            cluster: Vec::new(),
            mass: Vec::new(),
            phi: f64::INFINITY,
            rho: 0.0,
            refined: false,
        });
        Embedding {
            seed,
            cluster: best.cluster,
            mass: best.mass,
            conductance: best.phi,
            rho: best.rho,
            refined: best.refined,
            grid: RhoGrid {
                requested,
                achieved,
                truncated,
            },
        }
    }

    /// Whole-graph `k`-clustering: computes an [`Embedding`] for every
    /// non-isolated vertex, then agglomerates seeds into `k` groups by
    /// average-linkage on pairwise embedding distance (1 − cosine
    /// similarity of the winning diffusion mass vectors — see
    /// [`Embedding::similarity`]).
    ///
    /// Deterministic: seeds ascend, merges tie-break on the smallest
    /// `(i, j)` pair, and labels are canonicalized by smallest member.
    ///
    /// # Panics
    ///
    /// If `k == 0` or the graph has fewer than `k` non-isolated
    /// vertices.
    pub fn find_k_clusters(&self, k: usize, params: &PipelineParams) -> KClusters {
        let g = self.graph();
        let n = g.num_vertices();
        let seeds: Vec<u32> = (0..n as u32).filter(|&v| g.degree(v) > 0).collect();
        assert!(k > 0, "find_k_clusters: k must be positive");
        assert!(
            seeds.len() >= k,
            "find_k_clusters: only {} non-isolated vertices for k = {k}",
            seeds.len()
        );
        let embeddings: Vec<Embedding> = seeds
            .iter()
            .map(|&s| self.compute_embedding(s, params))
            .collect();

        // Dense pairwise distance matrix over seeds.
        let m = seeds.len();
        let mut dist = vec![0.0f64; m * m];
        for i in 0..m {
            for j in (i + 1)..m {
                let d = 1.0 - embeddings[i].similarity(&embeddings[j]);
                dist[i * m + j] = d;
                dist[j * m + i] = d;
            }
        }

        // Average-linkage agglomeration (Lance–Williams) down to k
        // groups: repeatedly merge the closest active pair, folding the
        // absorbed row into the survivor by cluster-size weights.
        let mut active: Vec<bool> = vec![true; m];
        let mut size: Vec<usize> = vec![1; m];
        let mut members: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
        for _ in 0..(m - k) {
            let (mut bi, mut bj, mut bd) = (usize::MAX, usize::MAX, f64::INFINITY);
            for i in 0..m {
                if !active[i] {
                    continue;
                }
                for j in (i + 1)..m {
                    if active[j] && dist[i * m + j] < bd {
                        (bi, bj, bd) = (i, j, dist[i * m + j]);
                    }
                }
            }
            let (wi, wj) = (size[bi] as f64, size[bj] as f64);
            for x in 0..m {
                if active[x] && x != bi && x != bj {
                    let d = (wi * dist[bi * m + x] + wj * dist[bj * m + x]) / (wi + wj);
                    dist[bi * m + x] = d;
                    dist[x * m + bi] = d;
                }
            }
            active[bj] = false;
            size[bi] += size[bj];
            let absorbed = std::mem::take(&mut members[bj]);
            members[bi].extend(absorbed);
        }

        // Canonical labels: clusters ordered by smallest vertex.
        let mut clusters: Vec<Vec<u32>> = members
            .into_iter()
            .zip(active)
            .filter(|(_, alive)| *alive)
            .map(|(idxs, _)| {
                let mut vs: Vec<u32> = idxs.into_iter().map(|i| seeds[i]).collect();
                vs.sort_unstable();
                vs
            })
            .collect();
        clusters.sort_by_key(|c| c[0]);
        let mut assignment = vec![u32::MAX; n];
        for (label, cluster) in clusters.iter().enumerate() {
            for &v in cluster {
                assignment[v as usize] = label as u32;
            }
        }
        KClusters {
            assignment,
            clusters,
            embeddings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use lgc_graph::gen;

    #[test]
    fn rho_grid_is_descending_geomspace() {
        let p = PipelineParams {
            rho_min: 1e-5,
            rho_max: 1e-2,
            nsamples: 4,
            ..PipelineParams::default()
        };
        let grid = p.rho_grid();
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0], 1e-2);
        assert!((grid[3] - 1e-5).abs() < 1e-18);
        assert!(grid.windows(2).all(|w| w[0] > w[1]));
        // Geometric: constant ratio.
        let r0 = grid[1] / grid[0];
        let r1 = grid[2] / grid[1];
        assert!((r0 - r1).abs() < 1e-12);
    }

    #[test]
    fn embedding_on_two_cliques_finds_the_clique() {
        let g = gen::two_cliques_bridge(10);
        let engine = Engine::new(&g);
        let emb = engine.compute_embedding(3, &PipelineParams::default());
        assert_eq!(emb.cluster, (0..10).collect::<Vec<u32>>());
        assert!(!emb.grid.truncated);
        assert_eq!(emb.grid.achieved, emb.grid.requested);
        assert_eq!(emb.conductance, g.conductance(&emb.cluster));
    }

    #[test]
    fn find_k_clusters_recovers_two_cliques() {
        let g = gen::two_cliques_bridge(8);
        let engine = Engine::new(&g);
        let kc = engine.find_k_clusters(2, &PipelineParams::default());
        assert_eq!(kc.clusters.len(), 2);
        assert_eq!(kc.clusters[0], (0..8).collect::<Vec<u32>>());
        assert_eq!(kc.clusters[1], (8..16).collect::<Vec<u32>>());
        assert!(kc.assignment.iter().all(|&l| l < 2));
    }

    #[test]
    fn zero_budget_truncates_the_grid_visibly() {
        let g = gen::two_cliques_bridge(8);
        let engine = Engine::new(&g);
        let params = PipelineParams {
            budget: QueryBudget::unlimited().with_max_edges_traversed(0),
            ..PipelineParams::default()
        };
        let emb = engine.compute_embedding(1, &params);
        assert!(emb.grid.truncated);
        assert!(emb.grid.achieved.is_empty());
        assert!(emb.cluster.is_empty());
        assert!(emb.mass.is_empty());
        assert!(emb.conductance.is_infinite());
    }
}
