//! Sweep cut rounding (§3.1 of the paper).
//!
//! Given a diffusion vector `p`, sort its support `{v₁, …, v_N}` by
//! `p[v]/d(v)` non-increasing and return the prefix `S_j = {v₁, …, v_j}`
//! with minimum conductance. [`sweep_cut_seq`] is the standard incremental
//! algorithm (`O(N log N + vol(S_N))` work); [`sweep_cut_par`] is the
//! paper's Theorem 1 — the same work, `O(log vol(S_N))` depth, built from
//! a parallel sort, a per-vertex count of lower-ranked neighbours, and
//! prefix sums. Both return bit-identical results (same total order, same
//! float operations), which the test suite checks.

mod par;
mod seq;

pub use par::sweep_cut_par;
pub(crate) use par::sweep_cut_par_ws;
pub use seq::sweep_cut_seq;

use std::cmp::Ordering;

/// The result of a sweep cut.
#[derive(Clone, Debug)]
pub struct SweepCut {
    /// Support of `p` sorted by `p[v]/d(v)` non-increasing
    /// (ties broken by vertex id, so the order is a deterministic total
    /// order shared by the sequential and parallel implementations).
    pub order: Vec<u32>,
    /// `conductances[j]` = φ(S_{j+1}), the conductance of the first
    /// `j + 1` vertices of `order`.
    pub conductances: Vec<f64>,
    /// Size of the best prefix (1-based; 0 only when the support is empty).
    pub best_size: usize,
    /// φ of the best prefix (`+∞` when the support is empty).
    pub best_conductance: f64,
}

impl SweepCut {
    /// The minimum-conductance prefix set.
    pub fn cluster(&self) -> &[u32] {
        &self.order[..self.best_size]
    }

    pub(crate) fn empty() -> Self {
        SweepCut {
            order: Vec::new(),
            conductances: Vec::new(),
            best_size: 0,
            best_conductance: f64::INFINITY,
        }
    }
}

/// The shared comparator: non-increasing `p/d`, ties by ascending vertex
/// id. Using the *same* total order in both implementations makes their
/// outputs comparable bit-for-bit.
pub(crate) fn sweep_order_cmp(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(Ordering::Equal)
        .then(a.0.cmp(&b.0))
}

/// Filters a diffusion vector down to sweep-eligible entries — positive
/// mass and positive degree (an isolated vertex has no defined `p/d` and
/// cannot change any cut) — scored `p/d`, and returns them with their
/// volume `vol(S_N)`. Reads each degree once.
pub(crate) fn eligible_entries<B: lgc_graph::CsrBackend>(
    g: &B,
    p: &[(u32, f64)],
) -> (Vec<(u32, f64)>, usize) {
    let mut vol = 0;
    let scored = p
        .iter()
        .filter_map(|&(v, m)| {
            let d = g.degree(v);
            (m > 0.0 && d > 0).then(|| {
                vol += d;
                (v, m / d as f64)
            })
        })
        .collect();
    (scored, vol)
}
