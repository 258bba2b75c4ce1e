//! PageRank-Nibble — Andersen, Chung, Lang's approximate personalized
//! PageRank by residual pushes (§3.3).
//!
//! Two vectors: `p` (the PageRank estimate, returned to the sweep) and
//! `r` (the residual). A *push* at `v` moves an `α`-fraction of `r[v]`
//! into `p[v]` and spreads the rest to `v`'s neighbors; vertices push
//! while `r[v] ≥ ε·d(v)`. The paper contributes:
//!
//! * an **optimized push rule** that empties the residual each push
//!   (`p[v] += 2α/(1+α)·r[v]`, neighbors get `(1−α)/(1+α)·r[v]/d(v)`,
//!   `r[v] = 0`), 1.4–6.4× faster sequentially (Figure 4) with the same
//!   `O(1/(αε))` work bound and conductance guarantees;
//! * a **work-efficient parallel version** (Figures 5–6) that pushes the
//!   whole frontier per iteration using residuals from the start of the
//!   iteration (Theorem 3: total work stays `O(1/(αε))` because every
//!   push still removes a `2α/(1+α)` fraction of its residual from `|r|₁`);
//! * a **β-fraction variant** that pushes only the top `β` fraction of
//!   eligible vertices by `r[v]/d(v)`, trading extra iterations for less
//!   wasted work.

mod par;
mod seq;

pub(crate) use par::prnibble_par;
pub use seq::prnibble_seq;

use crate::budget::InvalidParams;

/// Which push rule to use (§3.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PushRule {
    /// The original ACL rule: `p[v] += α·r[v]`; neighbors share
    /// `(1−α)·r[v]/2`; `r[v] = (1−α)·r[v]/2`.
    Original,
    /// The paper's aggressive rule: `p[v] += 2α/(1+α)·r[v]`; neighbors
    /// share `(1−α)/(1+α)·r[v]`; `r[v] = 0`. Default (it is what the
    /// paper benchmarks).
    #[default]
    Optimized,
}

impl PushRule {
    /// `(self-to-p, self-residual-keep, per-unit-neighbor-share)`
    /// coefficients for a push of residual `rv` at a degree-`d` vertex:
    /// `p += c_p·rv`, new self-residual `= c_r·rv`, each neighbor gets
    /// `c_n·rv/d`.
    #[inline]
    pub(crate) fn coefficients(self, alpha: f64) -> (f64, f64, f64) {
        match self {
            PushRule::Original => (alpha, (1.0 - alpha) / 2.0, (1.0 - alpha) / 2.0),
            PushRule::Optimized => {
                let c = 1.0 + alpha;
                (2.0 * alpha / c, 0.0, (1.0 - alpha) / c)
            }
        }
    }
}

/// Parameters for PageRank-Nibble.
#[derive(Clone, Copy, Debug)]
pub struct PrNibbleParams {
    /// Teleportation probability `α ∈ (0, 1)`.
    pub alpha: f64,
    /// Push threshold `ε` (push while `r[v] ≥ ε·d(v)`).
    pub eps: f64,
    /// Push rule (original ACL or the paper's optimized rule).
    pub rule: PushRule,
    /// Fraction of eligible vertices pushed per parallel iteration
    /// (§3.3's β optimization). `1.0` = the standard algorithm; only
    /// affects the parallel algorithm.
    pub beta: f64,
    /// Support fraction of `n` at which the parallel algorithm's mass
    /// vectors upgrade from hash tables to direct-indexed dense arrays
    /// (`lgc_sparse::MassMap`'s heuristic). The default `0.0` runs them
    /// dense from the first key; a value in `(0, 1]` starts them as hash
    /// tables that upgrade once the per-iteration key bound reaches that
    /// fraction, and values `> 1.0` (e.g. `f64::INFINITY`) keep them hash
    /// tables. An engine whose workspace budget cannot hold dense stores
    /// for each of its threads raises it to `1/8`. Only affects the
    /// parallel algorithm, and never `p` or the sweep: only the summation
    /// order of `residual_mass`.
    pub dense_frac: f64,
}

impl Default for PrNibbleParams {
    /// The paper's Table 1/3 setting: `α = 0.01`, `ε = 10⁻⁷`,
    /// optimized rule, full frontier; dense mass storage.
    fn default() -> Self {
        PrNibbleParams {
            alpha: 0.01,
            eps: 1e-7,
            rule: PushRule::Optimized,
            beta: 1.0,
            dense_frac: lgc_sparse::MassMap::DEFAULT_DENSE_FRACTION,
        }
    }
}

impl PrNibbleParams {
    pub(crate) fn check(&self) -> Result<(), InvalidParams> {
        let require = InvalidParams::require;
        let (a, b) = (self.alpha, self.beta);
        require(a > 0.0 && a < 1.0, "alpha", "must be in (0,1)")?;
        InvalidParams::positive(self.eps, "eps")?;
        require(b > 0.0 && b <= 1.0, "beta", "must be in (0,1]")?;
        // +∞ is the documented "never go dense"; only NaN and negatives
        // are meaningless.
        require(self.dense_frac >= 0.0, "dense_frac", "must be ≥ 0")
    }

    pub(crate) fn validate(&self) {
        self.check().expect("PrNibbleParams");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficient_mass_accounting() {
        // A push must not create mass: c_p + c_r + c_n == 1.
        for rule in [PushRule::Original, PushRule::Optimized] {
            for alpha in [0.01, 0.1, 0.5, 0.99] {
                let (cp, cr, cn) = rule.coefficients(alpha);
                assert!((cp + cr + cn - 1.0).abs() < 1e-14, "{rule:?} α={alpha}");
                assert!(cp > 0.0 && cn > 0.0);
            }
        }
    }

    #[test]
    fn optimized_rule_pushes_more_into_p() {
        let (cp_orig, ..) = PushRule::Original.coefficients(0.1);
        let (cp_opt, cr_opt, _) = PushRule::Optimized.coefficients(0.1);
        assert!(
            cp_opt > cp_orig,
            "aggressive rule converts more residual per push"
        );
        assert_eq!(cr_opt, 0.0, "optimized rule empties the residual");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        PrNibbleParams {
            alpha: 1.5,
            ..Default::default()
        }
        .validate();
    }
}
