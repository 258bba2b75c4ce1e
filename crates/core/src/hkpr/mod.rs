//! Deterministic heat-kernel PageRank — Kloster & Gleich's `hk-relax`
//! (§3.4 of the paper).
//!
//! The heat-kernel vector `h = e^{−t} Σ_k (t^k/k!) P^k s` is approximated
//! by its degree-`N` Taylor truncation, solved by a residual-push process
//! over `(vertex, level)` pairs: pushing `(v, j)` banks `r[(v,j)]` into
//! `p[v]` and forwards `t·r/( (j+1)·d(v) )` to each neighbor at level
//! `j+1`, with a level-dependent admission threshold
//! `e^{−t}·ε·d(w) / (2N·ψ_{j+1}(t))` controlled by the tail weights
//! [`psi_table`]. The residual it is compared against is the unnormalized
//! Taylor sum: the `e^{−t}` factor of `h` is applied once, to the final
//! vector. Kloster–Gleich's threshold on that residual is
//! `e^t·ε·d(w) / (2N·ψ_{j+1}(t))`, `e^{2t}` times this one (≈ 4.9·10⁸ at
//! `t = 10`), so this implementation admits far more entries than theirs.
//!
//! Updates only flow from level `j` to level `j+1`, which is exactly what
//! makes the algorithm parallelizable level-synchronously (Figure 7)
//! *with bit-equal output semantics*: the parallel version processes all
//! queue entries of one level per iteration (Theorem 4: `O(N² + N·e^t/ε)`
//! work, `O(N·t·log(1/ε))` depth).

mod par;
mod seq;

pub(crate) use par::hkpr_par;
pub use seq::hkpr_seq;

use crate::budget::InvalidParams;

/// Parameters for deterministic heat-kernel PageRank.
#[derive(Clone, Copy, Debug)]
pub struct HkprParams {
    /// Diffusion time `t` (larger spreads mass further).
    pub t: f64,
    /// Taylor truncation degree `N` (the number of levels), at most 2¹⁶:
    /// it sizes the ψ table.
    pub n_levels: usize,
    /// Accuracy `ε` of the approximation (admission threshold scale).
    pub eps: f64,
}

impl Default for HkprParams {
    /// The paper's Table 3 setting: `t = 10`, `N = 20`, `ε = 10⁻⁷`.
    fn default() -> Self {
        HkprParams {
            t: 10.0,
            n_levels: 20,
            eps: 1e-7,
        }
    }
}

/// Cap on the level count: [`psi_table`] allocates `N + 1` entries
/// before the first checkpoint tick, and a remote client controls `N`.
const MAX_LEVELS: usize = 1 << 16;

impl HkprParams {
    pub(crate) fn check(&self) -> Result<(), InvalidParams> {
        let require = InvalidParams::require;
        InvalidParams::positive(self.t, "t")?;
        require(self.n_levels >= 1, "n_levels", "must be at least 1")?;
        require(
            self.n_levels <= MAX_LEVELS,
            "n_levels",
            "must be at most 2^16",
        )?;
        InvalidParams::positive(self.eps, "eps")
    }

    pub(crate) fn validate(&self) {
        self.check().expect("HkprParams");
    }

    /// Admission threshold for level `j` entries, as a function of the
    /// degree `d`: `e^{−t}·ε·d / (2N·ψ_j)`, compared against the
    /// unnormalized residual (see the module docs for how it relates to
    /// Kloster–Gleich's). The factors that do not depend on `d` are
    /// computed here, once per level.
    pub(crate) fn threshold(&self, psi: &[f64], j: usize) -> Threshold {
        Threshold {
            num: (-self.t).exp() * self.eps,
            den: 2.0 * self.n_levels as f64 * psi[j],
        }
    }
}

/// One level's admission threshold: `num·d / den` at a degree-`d` vertex,
/// with `num = e^{−t}·ε` and `den = 2N·ψ_j`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Threshold {
    num: f64,
    den: f64,
}

impl Threshold {
    /// The threshold at a degree-`degree` vertex. `(num·d) / den` is the
    /// evaluation order of `e^{−t}·ε·d / (2N·ψ_j)` written out in one line,
    /// so hoisting the two factors moves no bit.
    #[inline]
    pub(crate) fn at(self, degree: usize) -> f64 {
        self.num * degree as f64 / self.den
    }
}

/// The tail weights `ψ_k(t) = Σ_{m=0}^{N−k} k!/(m+k)! · t^m` for
/// `k = 0..=N`.
///
/// The paper computes them in `O(N²)` with prefix sums; the backward
/// recurrence `ψ_N = 1`, `ψ_k = 1 + t/(k+1)·ψ_{k+1}` gives the same
/// values in `O(N)` (each term of `ψ_{k+1}` multiplied by `t/(k+1)`
/// yields the corresponding `m ≥ 1` term of `ψ_k`).
pub fn psi_table(t: f64, n: usize) -> Vec<f64> {
    let mut psi = vec![1.0; n + 1];
    for k in (0..n).rev() {
        psi[k] = 1.0 + t / (k as f64 + 1.0) * psi[k + 1];
    }
    psi
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct evaluation of the definition, for cross-checking.
    fn psi_direct(t: f64, n: usize, k: usize) -> f64 {
        let mut sum = 0.0;
        let mut term = 1.0; // m = 0: k!/(0+k)! t^0 = 1
        for m in 0..=(n - k) {
            if m > 0 {
                term *= t / (k + m) as f64; // k!/(m+k)! t^m built incrementally
            }
            sum += term;
        }
        sum
    }

    #[test]
    fn psi_recurrence_matches_definition() {
        for &t in &[0.5, 1.0, 5.0, 10.0] {
            for &n in &[1usize, 3, 10, 20] {
                let table = psi_table(t, n);
                #[allow(clippy::needless_range_loop)]
                for k in 0..=n {
                    let want = psi_direct(t, n, k);
                    assert!(
                        (table[k] - want).abs() / want < 1e-12,
                        "t={t} n={n} k={k}: {} vs {want}",
                        table[k]
                    );
                }
            }
        }
    }

    #[test]
    fn psi_is_decreasing_in_k() {
        let psi = psi_table(7.0, 15);
        assert!(psi.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(*psi.last().unwrap(), 1.0);
    }

    #[test]
    fn psi0_approaches_exp_t_for_large_n() {
        // ψ_0 = Σ_{m=0}^{N} t^m/m! → e^t.
        let t = 3.0;
        let psi = psi_table(t, 40);
        assert!((psi[0] - t.exp()).abs() < 1e-9);
    }

    #[test]
    fn threshold_scales_with_degree_and_level() {
        let params = HkprParams::default();
        let psi = psi_table(params.t, params.n_levels);
        let t1 = params.threshold(&psi, 1).at(10);
        let t2 = params.threshold(&psi, 1).at(20);
        assert!((t2 / t1 - 2.0).abs() < 1e-12, "linear in degree");
        // Later levels have smaller ψ ⇒ larger thresholds (harder entry).
        let tl = params.threshold(&psi, params.n_levels).at(10);
        assert!(tl > t1);
    }

    /// Hoisting the degree-free factors moves no bit: the level's
    /// threshold equals the one-line formula exactly, for every level and
    /// a spread of degrees and parameters.
    #[test]
    fn hoisted_threshold_is_the_one_line_formula_bit_for_bit() {
        for (t, n_levels, eps) in [(10.0, 20, 1e-7), (2.5, 7, 3e-5), (0.3, 40, 0.9)] {
            let params = HkprParams { t, n_levels, eps };
            let psi = psi_table(t, n_levels);
            for (j, &psi_j) in psi.iter().enumerate() {
                let level = params.threshold(&psi, j);
                for d in [0usize, 1, 2, 3, 7, 100, 12_345, 1 << 40] {
                    let formula = (-t).exp() * eps * d as f64 / (2.0 * n_levels as f64 * psi_j);
                    assert_eq!(level.at(d).to_bits(), formula.to_bits(), "j={j} d={d}");
                }
            }
        }
    }
}
