//! The correctness oracle every library result (and every decoded server
//! response) goes through. It shares no code with the sweep it checks:
//! conductance is recounted edge by edge from the returned vertex set.

use lgc_core::{Algorithm, ClusterResult};
use lgc_graph::CsrBackend;

/// What a result is checked against besides its own internal consistency.
#[derive(Clone, Copy, Debug, Default)]
pub struct Expect {
    /// Conductance of the sequential reference (`*_seq` diffusion +
    /// `sweep_cut_seq`) for the same query, when one is available.
    pub phi_ref: Option<f64>,
}

/// Slack allowed over the sequential reference's conductance.
pub const PHI_SLACK: f64 = 1.05;

/// Reusable membership bitmap for [`Oracle::check`].
pub struct Oracle {
    member: Vec<bool>,
}

/// `φ(S)` by brute force, or `None` if `set` lists a vertex twice.
/// `member` must be all-false on entry and is all-false again on return.
fn recount<B: CsrBackend>(g: &B, set: &[u32], member: &mut [bool]) -> Option<f64> {
    let mut repeated = false;
    for &v in set {
        repeated |= std::mem::replace(&mut member[v as usize], true);
    }
    let (mut cut, mut vol) = (0u64, 0u64);
    for &v in set {
        vol += g.degree(v) as u64;
        g.for_each_neighbor(v, |w| cut += u64::from(!member[w as usize]));
    }
    for &v in set {
        member[v as usize] = false;
    }
    if repeated {
        return None;
    }
    let denom = vol.min(g.total_degree() as u64 - vol);
    Some(if denom == 0 {
        f64::INFINITY
    } else {
        cut as f64 / denom as f64
    })
}

/// `P[Poisson(t) = k]`.
fn poisson_pmf(t: f64, k: usize) -> f64 {
    (1..=k).fold((-t).exp(), |pmf, i| pmf * t / i as f64)
}

impl Oracle {
    pub fn new(num_vertices: usize) -> Self {
        Oracle {
            member: vec![false; num_vertices],
        }
    }

    /// Checks one result; `Err` says which check failed.
    pub fn check<B: CsrBackend>(
        &mut self,
        g: &B,
        algo: &Algorithm,
        res: &ClusterResult,
        expect: &Expect,
    ) -> Result<(), String> {
        if res.cluster.is_empty() {
            return Err("empty cluster".into());
        }
        let Some(phi) = recount(g, &res.cluster, &mut self.member) else {
            return Err("cluster lists a vertex twice".into());
        };
        let same = phi == res.conductance || (phi - res.conductance).abs() <= 1e-12;
        if !same {
            return Err(format!(
                "conductance {} reported, {} recounted",
                res.conductance, phi
            ));
        }
        // Mass conservation. The deterministic heat kernel defines its
        // residual as `max(0, 1 − |p|)`, and flushes its last Taylor level
        // into `p` without that level's `t/N` factor, so `|p|` alone can
        // exceed 1 — by at most the mass level N−1 can hold.
        let total = res.diffusion.total_mass() + res.diffusion.stats.residual_mass;
        let overshoot = match algo {
            Algorithm::Hkpr(p) => poisson_pmf(p.t, p.n_levels - 1),
            _ => 0.0,
        };
        if total < 1.0 - 1e-9 || total > 1.0 + overshoot + 1e-9 {
            return Err(format!("|p|+residual = {total}, not 1"));
        }
        if let Algorithm::PrNibble(p) = algo {
            // Theorem 3: total pushed volume is at most 1/(αε).
            let bound = 1.0 / (p.alpha * p.eps);
            if res.diffusion.stats.pushed_volume as f64 > bound {
                return Err(format!(
                    "pushed volume {} exceeds 1/(αε) = {bound}",
                    res.diffusion.stats.pushed_volume
                ));
            }
        }
        if let Some(phi_ref) = expect.phi_ref {
            if res.conductance > PHI_SLACK * phi_ref {
                return Err(format!(
                    "conductance {} is worse than {PHI_SLACK} × the sequential reference {phi_ref}",
                    res.conductance
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_core::{find_cluster, HkprParams, PrNibbleParams, Seed};
    use lgc_graph::gen;
    use lgc_parallel::Pool;

    fn prn() -> Algorithm {
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.1,
            eps: 1e-4,
            ..Default::default()
        })
    }

    fn good() -> (lgc_graph::Graph, ClusterResult) {
        let g = gen::two_cliques_bridge(12);
        let r = find_cluster(&Pool::new(1), &g, &Seed::single(3), &prn());
        (g, r)
    }

    #[test]
    fn accepts_a_correct_result() {
        let (g, r) = good();
        let mut o = Oracle::new(g.num_vertices());
        let expect = Expect {
            phi_ref: Some(r.conductance),
        };
        assert_eq!(o.check(&g, &prn(), &r, &expect), Ok(()));
        // The bitmap is clean again: a second check gives the same answer.
        assert_eq!(o.check(&g, &prn(), &r, &expect), Ok(()));
    }

    #[test]
    fn fires_on_a_corrupted_conductance() {
        let (g, mut r) = good();
        r.conductance *= 1.0 + 1e-9;
        let err = Oracle::new(g.num_vertices())
            .check(&g, &prn(), &r, &Expect::default())
            .unwrap_err();
        assert!(err.contains("recounted"), "{err}");
    }

    #[test]
    fn fires_on_a_dropped_cluster_vertex() {
        let (g, mut r) = good();
        r.cluster.pop();
        let err = Oracle::new(g.num_vertices())
            .check(&g, &prn(), &r, &Expect::default())
            .unwrap_err();
        assert!(err.contains("recounted"), "{err}");
    }

    #[test]
    fn fires_on_an_empty_cluster_and_on_leaked_mass() {
        let (g, r) = good();
        let mut o = Oracle::new(g.num_vertices());
        let mut empty = r.clone();
        empty.cluster.clear();
        assert!(o.check(&g, &prn(), &empty, &Expect::default()).is_err());
        let mut twice = r.clone();
        twice.cluster.push(r.cluster[0]);
        let err = o.check(&g, &prn(), &twice, &Expect::default()).unwrap_err();
        assert!(err.contains("twice"), "{err}");
        // The bitmap is clean again after a rejected set.
        assert_eq!(o.check(&g, &prn(), &r, &Expect::default()), Ok(()));
        let mut leaky = r.clone();
        leaky.diffusion.p[0].1 += 1e-6;
        let err = o.check(&g, &prn(), &leaky, &Expect::default()).unwrap_err();
        assert!(err.contains("not 1"), "{err}");
    }

    #[test]
    fn fires_on_a_broken_work_bound_and_a_worse_cut() {
        let (g, r) = good();
        let mut o = Oracle::new(g.num_vertices());
        let mut busy = r.clone();
        busy.diffusion.stats.pushed_volume = 100_001; // 1/(0.1 · 1e-4) = 1e5
        assert!(o.check(&g, &prn(), &busy, &Expect::default()).is_err());
        let better_ref = Expect {
            phi_ref: Some(r.conductance / 1.06),
        };
        let err = o.check(&g, &prn(), &r, &better_ref).unwrap_err();
        assert!(err.contains("sequential reference"), "{err}");
    }

    #[test]
    fn heat_kernel_may_overshoot_only_by_its_last_level() {
        assert!((poisson_pmf(10.0, 19) - 3.73e-3).abs() < 1e-5);
        assert!(poisson_pmf(5.0, 19) < 1.1e-6);
        let g = gen::grid_3d(8, 8, 8);
        let algo = Algorithm::Hkpr(HkprParams {
            t: 5.0,
            eps: 1e-4,
            ..Default::default()
        });
        let r = find_cluster(&Pool::new(1), &g, &Seed::single(3), &algo);
        let mut o = Oracle::new(g.num_vertices());
        assert_eq!(o.check(&g, &algo, &r, &Expect::default()), Ok(()));
        let mut over = r.clone();
        over.diffusion.p[0].1 += 1e-5;
        assert!(o.check(&g, &algo, &over, &Expect::default()).is_err());
    }
}
