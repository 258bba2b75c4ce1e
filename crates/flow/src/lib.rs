//! Max-flow cluster refinement — the MQI stage the diffusions lack.
//!
//! The paper's diffusions (Nibble, PR-Nibble, HK-PR, NEXP, ESP) *find*
//! low-conductance cuts but never *improve* them. The local-clustering
//! literature pairs every spectral method with a flow-based
//! post-processing stage: Lang & Rao's **MQI** (*Max-flow Quotient-cut
//! Improvement*) takes any cut `S` with `vol(S) ≤ vol(V)/2` and returns
//! a subset `S' ⊆ S` with conductance ≤ the input — provably, not
//! heuristically. This crate implements that stage from scratch:
//!
//! * [`improve`] / [`improve_guarded`] — iterated MQI on any vertex set,
//!   generic over [`CsrBackend`], with [`Checkpoint`] ticks threaded
//!   into the flow solver's phase loop so deadlines, cancellation, and
//!   work caps cover refinement end to end.
//! * a private hand-rolled Dinic max-flow solver (`dinic` module) — no
//!   external crates, no recursion, deterministic arc order.
//!
//! # The MQI network
//!
//! For the current set `S` with cut `c = |∂S|` and volume `a = vol(S)`,
//! build a network over `S ∪ {s, t}`:
//!
//! * `s → v` with capacity `c·d(v)` for every `v ∈ S`,
//! * `v → t` with capacity `a·bdry(v)` (edges `v` sends out of `S`),
//! * each internal edge `{u, w}` of `S` with capacity `a` both ways.
//!
//! Any source-side set `{s} ∪ S'` then cuts `a·|∂S'| − c·vol(S') + c·a`
//! arcs' worth of capacity, so the max flow is below the trivial `c·a`
//! **iff** some `S' ⊆ S` has `|∂S'|/vol(S') < c/a` — i.e. iff a strictly
//! better-conductance subset exists — and the residual-reachable side of
//! the min cut *is* such a subset. Iterating (`S ← S'`, rebuild,
//! re-solve) strictly shrinks the set and strictly lowers conductance,
//! so it terminates; the final set is returned as a [`RefinedCut`].
//!
//! Sets past half the total volume are returned unchanged (MQI refines
//! the small side; the result is still monotone), as are degenerate sets
//! (empty, zero-volume, or already cut-free).
//!
//! # Determinism
//!
//! Everything here is sequential and a pure function of the input set
//! and graph: the set is canonicalized (sorted, deduped), the network is
//! built in ascending vertex order, Dinic scans arcs in insertion order,
//! and the min-cut side is the residual-reachable set. Plain and
//! compressed backends enumerate neighbors identically, so refinement is
//! bit-identical across backends — and trivially across thread counts.

// Flow refinement is pure safe graph algorithms; keep it that way.
#![forbid(unsafe_code)]
// Atomic orderings and hash containers only where a file says why.
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

mod dinic;

use dinic::{FlowNetwork, FlowWork};
use lgc_graph::{cut_conductance, induced_cut_subgraph, CsrBackend, CutSubgraph};
use lgc_ligra::{Checkpoint, Trip, Tripped};

/// Work performed by one [`improve`] call, in the flow solver's own
/// units (MQI iterations, Dinic phases, augmenting paths, residual arcs
/// scanned). `augmentations`/`arcs_scanned` are also what the
/// [`Checkpoint`] sees as its push/edge counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// MQI iterations that strictly improved the cut (0 ⇒ the input was
    /// already flow-optimal or gated out).
    pub iterations: u32,
    /// Dinic BFS phases across all iterations.
    pub phases: u64,
    /// Augmenting paths pushed across all iterations.
    pub augmentations: u64,
    /// Residual arcs scanned across all iterations.
    pub arcs_scanned: u64,
}

/// A refined cut: a subset of the input set whose conductance is ≤ the
/// input's, plus the integers it was computed from.
#[derive(Clone, Debug, PartialEq)]
pub struct RefinedCut {
    /// The refined vertex set, ascending global ids. Always a subset of
    /// the (deduped) input set.
    pub cluster: Vec<u32>,
    /// `φ(cluster) = |∂S'| / min(vol(S'), 2m − vol(S'))` — guaranteed
    /// `≤ initial_conductance`.
    pub conductance: f64,
    /// Conductance of the input set, recomputed here from the same
    /// integers the sweep uses (bit-identical to the sweep's value).
    pub initial_conductance: f64,
    /// `|∂S'|` of the refined set.
    pub cut_edges: u64,
    /// `vol(S')` of the refined set.
    pub volume: u64,
    /// Flow-solver work counters.
    pub stats: RefineStats,
}

impl RefinedCut {
    /// Whether refinement strictly lowered the conductance.
    pub fn improved(&self) -> bool {
        self.conductance < self.initial_conductance
    }
}

fn product(x: u64, y: u64) -> u64 {
    x.checked_mul(y)
        .expect("MQI capacity overflows u64: graph too large for flow refinement")
}

/// Builds the MQI network for the current iterate and solves it.
/// Returns the max flow and the solved network (for cut extraction).
fn solve_mqi(
    sub: &CutSubgraph,
    c: u64,
    a: u64,
    cp: &Checkpoint,
    work: &mut FlowWork,
) -> Result<(u64, FlowNetwork), Trip> {
    let k = sub.vertices.len();
    let (s, t) = (k as u32, k as u32 + 1);
    let mut net = FlowNetwork::new(k + 2);
    for lu in 0..k {
        net.add_arc(s, lu as u32, product(c, sub.parent_degree[lu] as u64));
        let bdry = sub.boundary[lu] as u64;
        if bdry > 0 {
            net.add_arc(lu as u32, t, product(a, bdry));
        }
    }
    for lu in 0..k as u32 {
        sub.graph.for_each_neighbor(lu, |lw| {
            if lu < lw {
                net.add_undirected(lu, lw, a);
            }
        });
    }
    let flow = net.max_flow(s, t, cp, work)?;
    Ok((flow, net))
}

/// Iterated MQI refinement of `cluster` under a cooperative
/// [`Checkpoint`].
///
/// Returns a [`RefinedCut`] whose conductance is ≤ the input set's,
/// deterministically (see the crate docs). On a checkpoint trip the
/// error's partial is the last *completed* MQI iterate — at worst the
/// canonicalized input set itself — so it is always a valid cut with
/// conductance ≤ the input's.
pub fn improve_guarded<B: CsrBackend>(
    g: &B,
    cluster: &[u32],
    cp: &Checkpoint,
) -> Result<RefinedCut, Tripped<RefinedCut>> {
    let total = g.total_degree() as u64;
    let mut current: Vec<u32> = cluster.to_vec();
    current.sort_unstable();
    current.dedup();

    let mut sub = induced_cut_subgraph(g, &current);
    let (mut c, mut a) = (sub.cut_size(), sub.volume());
    let initial = cut_conductance(c, a, total);
    let mut stats = RefineStats::default();
    let done = |set: Vec<u32>, c: u64, a: u64, stats: RefineStats| RefinedCut {
        cluster: set,
        conductance: cut_conductance(c, a, total),
        initial_conductance: initial,
        cut_edges: c,
        volume: a,
        stats,
    };

    // Gates: degenerate sets have nothing to refine; sets past half the
    // volume are conductance-scored by their complement, which MQI does
    // not model — both come back unchanged (monotone: φ is equal).
    if current.is_empty() || c == 0 || a == 0 || a * 2 > total {
        return Ok(done(current, c, a, stats));
    }

    loop {
        let mut work = FlowWork {
            phases: stats.phases,
            augmentations: stats.augmentations,
            arcs_scanned: stats.arcs_scanned,
        };
        let solved = solve_mqi(&sub, c, a, cp, &mut work);
        stats.phases = work.phases;
        stats.augmentations = work.augmentations;
        stats.arcs_scanned = work.arcs_scanned;
        let (flow, net) = match solved {
            Ok(r) => r,
            // The last completed iterate is the best valid cut so far.
            Err(trip) => {
                return Err(Tripped {
                    trip,
                    partial: done(current, c, a, stats),
                })
            }
        };
        // Max flow meeting the trivial `c·a` bound certifies that no
        // subset beats φ = c/a: the iterate is MQI-optimal.
        if flow == product(c, a) {
            return Ok(done(current, c, a, stats));
        }
        let side = net.source_side(sub.vertices.len() as u32);
        let next: Vec<u32> = side
            .iter()
            .filter(|&&local| (local as usize) < sub.vertices.len())
            .map(|&local| sub.vertices[local as usize])
            .collect();
        debug_assert!(
            !next.is_empty() && next.len() < current.len(),
            "MQI cut side must be a proper non-empty subset"
        );
        current = next;
        stats.iterations += 1;
        sub = induced_cut_subgraph(g, &current);
        c = sub.cut_size();
        a = sub.volume();
    }
}

/// [`improve_guarded`] with an unlimited checkpoint — runs to the
/// MQI-optimal subset unconditionally.
pub fn improve<B: CsrBackend>(g: &B, cluster: &[u32]) -> RefinedCut {
    match improve_guarded(g, cluster, &Checkpoint::unlimited()) {
        Ok(r) => r,
        // Unlimited checkpoints never trip in production; under the
        // fault-injection harness the partial iterate is still valid.
        Err(t) => t.partial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;
    use lgc_ligra::QueryBudget;

    #[test]
    fn sloppy_two_clique_cut_is_repaired() {
        // Two 12-cliques joined by the bridge {0, 12}. Nine vertices of
        // clique A (without the bridge endpoint 0) plus three of clique
        // B: cut 55, vol 133. MQI strips the intruders, leaving the nine
        // A-vertices: cut 27, vol 99.
        let g = gen::two_cliques_bridge(12);
        let sloppy: Vec<u32> = (3..15).collect();
        let refined = improve(&g, &sloppy);
        assert_eq!(refined.initial_conductance, g.conductance(&sloppy));
        assert_eq!(refined.cluster, (3..12).collect::<Vec<u32>>());
        assert_eq!(refined.cut_edges, 27);
        assert_eq!(refined.volume, 99);
        assert!(refined.improved());
        assert_eq!(refined.conductance, g.conductance(&refined.cluster));
        assert!(refined.stats.iterations >= 1);
    }

    #[test]
    fn optimal_cut_is_a_fixed_point() {
        let g = gen::two_cliques_bridge(8);
        let clique: Vec<u32> = (0..8).collect();
        let refined = improve(&g, &clique);
        assert_eq!(refined.cluster, clique);
        assert_eq!(refined.conductance, refined.initial_conductance);
        assert!(!refined.improved());
        assert_eq!(refined.stats.iterations, 0);
    }

    #[test]
    fn oversized_and_degenerate_sets_pass_through() {
        let g = gen::two_cliques_bridge(6);
        // Past half the volume: returned unchanged.
        let big: Vec<u32> = (0..9).collect();
        let r = improve(&g, &big);
        assert_eq!(r.cluster, big);
        assert_eq!(r.conductance, r.initial_conductance);
        // Empty set.
        let e = improve(&g, &[]);
        assert!(e.cluster.is_empty());
        assert!(e.conductance.is_infinite());
        // Cut-free whole side of a disconnected graph.
        let two = gen::two_cliques_bridge(4);
        let comp: Vec<u32> = (0..two.num_vertices() as u32).collect();
        let w = improve(&two, &comp);
        assert_eq!(w.cluster, comp);
    }

    #[test]
    fn input_order_and_duplicates_are_canonicalized() {
        let g = gen::two_cliques_bridge(12);
        let a: Vec<u32> = (3..15).collect();
        let mut b: Vec<u32> = a.iter().rev().copied().collect();
        b.push(7);
        assert_eq!(improve(&g, &a), improve(&g, &b));
    }

    #[test]
    fn tripped_refinement_returns_the_input_cut() {
        let g = gen::two_cliques_bridge(12);
        let sloppy: Vec<u32> = (3..15).collect();
        let cp = QueryBudget::unlimited().with_max_edges_traversed(0).arm();
        let err = improve_guarded(&g, &sloppy, &cp).expect_err("zero edge budget must trip");
        assert!(matches!(err.trip, Trip::WorkBudget));
        assert_eq!(err.partial.cluster, sloppy);
        assert_eq!(err.partial.conductance, g.conductance(&sloppy));
        assert_eq!(err.partial.conductance, err.partial.initial_conductance);
    }

    #[test]
    fn termination_certificate_verified_by_brute_force() {
        // When `improve` stops, `max_flow == c·a` certifies that no
        // subset of the *final* set has strictly lower conductance.
        // Check that certificate exhaustively, and monotonicity vs the
        // input, on small SBM slices.
        let (g, _) = gen::sbm(&[6, 6], 0.9, 0.25, 11);
        let total = g.total_degree() as u64;
        for seed_lo in 0..3u32 {
            let set: Vec<u32> = (seed_lo..seed_lo + 8).collect();
            if g.volume(&set) * 2 > total {
                continue;
            }
            let refined = improve(&g, &set);
            assert!(refined.conductance <= g.conductance(&set));
            assert!(refined.cluster.iter().all(|v| set.contains(v)));
            assert!(refined.cluster.len() <= 16, "test assumes small sets");
            for mask in 1u32..(1 << refined.cluster.len()) {
                let subset: Vec<u32> = refined
                    .cluster
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &v)| v)
                    .collect();
                assert!(
                    refined.conductance <= g.conductance(&subset),
                    "subset {subset:?} beats the certified optimum"
                );
            }
        }
    }
}
