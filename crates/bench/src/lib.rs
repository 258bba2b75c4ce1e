//! What `repro` is built from: the stand-in graph suite (Table 2
//! analogue), timing helpers, and the paper's Table 1 claim, the
//! deterministic half of its Figure 4 claim and its Figure 10 premise as
//! checks.
//!
//! The paper's evaluation graphs (SNAP social networks, Twitter, Yahoo
//! web — up to 6.4B edges) cannot be shipped or held in this container.
//! Each stand-in keeps the *family* (power-law social graph, citation
//! preferential attachment, mesh, …) at a scale where every experiment
//! finishes on a laptop. Sizes are chosen so the diffusions touch tens of
//! thousands of vertices — the regime the paper says parallelism pays
//! off in.

// Reproduction code needs no unsafe; keep it that way.
#![forbid(unsafe_code)]
// Atomic orderings and hash containers only where a file says why.
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

use lgc_core::SweepCut;
use lgc_graph::{gen, Graph};
use std::time::Instant;

/// One evaluation graph: a name tying it to the paper's Table 2 row and
/// the generated stand-in.
pub struct SuiteGraph {
    /// Stand-in name (paper graph it replaces).
    pub name: &'static str,
    /// The paper's original graph this stands in for.
    pub replaces: &'static str,
    /// The generated graph.
    pub graph: Graph,
}

/// Builds the full graph suite (Table 2 analogue). `quick` shrinks every
/// graph ~4× for smoke runs.
pub fn suite(quick: bool) -> Vec<SuiteGraph> {
    let s = |full: u32, quick_scale: u32| if quick { quick_scale } else { full };
    let n = |full: usize, q: usize| if quick { q } else { full };
    vec![
        SuiteGraph {
            name: "soc-lj-sim",
            replaces: "soc-LJ (4.8M v, 42.9M e)",
            graph: gen::rmat_graph500(s(14, 12), 10, 1),
        },
        SuiteGraph {
            name: "cit-patents-sim",
            replaces: "cit-Patents (6.0M v, 16.5M e)",
            graph: gen::barabasi_albert(n(40_000, 10_000), 3, 2),
        },
        SuiteGraph {
            name: "com-orkut-sim",
            replaces: "com-Orkut (3.1M v, 117.2M e)",
            graph: gen::rmat_graph500(s(13, 11), 24, 3),
        },
        SuiteGraph {
            name: "nlpkkt-sim",
            replaces: "nlpkkt240 (28.0M v, 373.2M e)",
            graph: gen::grid_3d(n(40, 20), n(40, 20), n(40, 20)),
        },
        SuiteGraph {
            name: "twitter-sim",
            replaces: "Twitter (41.7M v, 1.20B e)",
            graph: gen::rmat_graph500(s(15, 12), 12, 4),
        },
        SuiteGraph {
            name: "friendster-sim",
            replaces: "com-friendster (124.8M v, 1.81B e)",
            graph: gen::rmat_graph500(s(15, 12), 16, 5),
        },
        SuiteGraph {
            name: "yahoo-sim",
            replaces: "Yahoo (1.41B v, 6.43B e)",
            graph: gen::rmat_graph500(s(16, 13), 8, 6),
        },
        SuiteGraph {
            name: "randLocal",
            replaces: "randLocal (10M v, 49.1M e)",
            graph: gen::rand_local(n(300_000, 50_000), 5, 7),
        },
        SuiteGraph {
            name: "3D-grid",
            replaces: "3D-grid (9.9M v, 29.8M e)",
            graph: gen::grid_3d(n(64, 24), n(64, 24), n(64, 24)),
        },
    ]
}

/// A deterministic seed vertex inside the largest component.
pub fn suite_seed(g: &Graph) -> u32 {
    lgc_graph::largest_component(g)[0]
}

/// The box's hardware parallelism (1 if unknown) — the width `repro`
/// gives its pools, and the largest thread count it prints a column for.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The paper's Table 1 claim for one graph: parallel PR-Nibble does at
/// most 1.6× the pushes of the sequential algorithm, in fewer iterations
/// than the sequential algorithm does pushes. `Err` says which half broke.
pub fn table1_claim(seq_pushes: u64, par_pushes: u64, par_iterations: u64) -> Result<(), String> {
    let ratio = par_pushes as f64 / seq_pushes.max(1) as f64;
    if ratio > 1.6 {
        return Err(format!(
            "parallel pushes are {ratio:.2}x sequential ({par_pushes} vs {seq_pushes}); bound 1.6x"
        ));
    }
    if par_iterations >= seq_pushes {
        return Err(format!(
            "{par_iterations} parallel iterations are not below {seq_pushes} sequential pushes"
        ));
    }
    Ok(())
}

/// The deterministic half of the paper's Figure 4 claim for one graph:
/// sequential PR-Nibble under the optimized push rule does no more pushes
/// than under the original rule, and finds a cluster at least as good, to
/// within 0.01 in conductance. (The figure's speedup is a time, which is
/// not checked.) `Err` says which half broke.
pub fn fig4_claim(
    orig_pushes: u64,
    opt_pushes: u64,
    phi_orig: f64,
    phi_opt: f64,
) -> Result<(), String> {
    if opt_pushes > orig_pushes {
        return Err(format!(
            "the optimized rule pushes {opt_pushes} times, the original {orig_pushes}"
        ));
    }
    if phi_opt.is_nan() || phi_opt > phi_orig + 0.01 {
        return Err(format!(
            "optimized conductance {phi_opt:.5} exceeds the original {phi_orig:.5} + 0.01"
        ));
    }
    Ok(())
}

/// The premise of the paper's Figure 10 for one thread count: the parallel
/// sweep finds the sequential sweep's cut — the same members and the same
/// conductance bits — so the figure times one computation two ways. `Err`
/// says which half differs.
pub fn fig10_claim(seq: &SweepCut, par: &SweepCut) -> Result<(), String> {
    let members = |cut: &SweepCut| {
        let mut members = cut.cluster().to_vec();
        members.sort_unstable();
        members
    };
    if members(seq) != members(par) {
        return Err(format!(
            "the parallel cut's {} members are not the sequential cut's {}",
            par.best_size, seq.best_size
        ));
    }
    if seq.best_conductance.to_bits() != par.best_conductance.to_bits() {
        return Err(format!(
            "parallel conductance {:e} is not the sequential {:e}",
            par.best_conductance, seq.best_conductance
        ));
    }
    Ok(())
}

/// Times a closure, returning `(result, seconds)`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Times a closure several times, returning the result of the last run
/// and the *minimum* wall-clock across runs (lowest-noise estimator on a
/// shared machine).
pub fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let (r, s) = time(&mut f);
        best = best.min(s);
        last = Some(r);
    }
    (last.unwrap(), best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_builds_and_is_nontrivial() {
        let graphs = suite(true);
        assert_eq!(graphs.len(), 9);
        for sg in &graphs {
            assert!(sg.graph.num_edges() > 1000, "{} too small", sg.name);
            let seed = suite_seed(&sg.graph);
            assert!(sg.graph.degree(seed) > 0, "{}: disconnected seed", sg.name);
        }
    }

    #[test]
    fn table1_claim_fires_on_either_half() {
        assert!(table1_claim(1000, 1590, 40).is_ok());
        let e = table1_claim(1000, 1700, 40).unwrap_err();
        assert!(e.contains("1.70x"), "{e}");
        let e = table1_claim(1000, 1200, 1000).unwrap_err();
        assert!(e.contains("iterations"), "{e}");
    }

    #[test]
    fn fig4_claim_fires_on_either_half() {
        assert!(fig4_claim(1000, 400, 0.2, 0.209).is_ok());
        assert!(fig4_claim(1000, 1000, 0.2, 0.1).is_ok());
        let e = fig4_claim(1000, 1001, 0.2, 0.2).unwrap_err();
        assert!(e.contains("1001"), "{e}");
        let e = fig4_claim(1000, 400, 0.2, 0.211).unwrap_err();
        assert!(e.contains("conductance"), "{e}");
        assert!(fig4_claim(1000, 400, 0.2, f64::NAN).is_err());
    }

    #[test]
    fn fig10_claim_fires_on_either_half() {
        let cut = |order: Vec<u32>, best_size, best_conductance| SweepCut {
            conductances: vec![best_conductance; order.len()],
            order,
            best_size,
            best_conductance,
        };
        let seq = cut(vec![4, 2, 9], 2, 0.25);
        assert!(fig10_claim(&seq, &cut(vec![2, 4, 9], 2, 0.25)).is_ok());
        let e = fig10_claim(&seq, &cut(vec![4, 9, 2], 2, 0.25)).unwrap_err();
        assert!(e.contains("members"), "{e}");
        let next_up = f64::from_bits(0.25f64.to_bits() + 1);
        let e = fig10_claim(&seq, &cut(vec![4, 2, 9], 2, next_up)).unwrap_err();
        assert!(e.contains("conductance"), "{e}");
    }

    #[test]
    fn timing_helpers_run() {
        let (v, s) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
        let (v, s) = time_best_of(3, || 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
    }
}
