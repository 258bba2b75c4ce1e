//! Sequential sweep cut: sort, then incrementally maintain `vol(S)` and
//! `∂(S)` while inserting vertices in order (§3.1's sequential algorithm).

use super::{eligible_entries, sweep_order_cmp, SweepCut};
use lgc_graph::{cut_conductance, CsrBackend};
use lgc_sparse::SparseMap;

/// Computes the sweep cut of `p` sequentially.
///
/// `O(N log N)` for the sort plus `O(vol(S_N))` for the incremental
/// boundary maintenance, using a sparse membership set so the work stays
/// local (never `O(|V|)`).
pub fn sweep_cut_seq<B: CsrBackend>(g: &B, p: &[(u32, f64)]) -> SweepCut {
    let (mut scored, _) = eligible_entries(g, p);
    if scored.is_empty() {
        return SweepCut::empty();
    }
    scored.sort_by(sweep_order_cmp);

    let n = scored.len();
    let total_degree = g.total_degree() as u64;
    let mut members: SparseMap<bool> = SparseMap::with_capacity(false, n);
    let mut vol = 0u64;
    let mut crossing = 0u64;
    let mut conductances = Vec::with_capacity(n);
    let mut best = (f64::INFINITY, 0usize);

    for (i, &(v, _)) in scored.iter().enumerate() {
        vol += g.degree(v) as u64;
        // Each edge (v, w): if w already in S it was counted as crossing
        // when w entered — it becomes internal now; otherwise it crosses.
        g.for_each_neighbor(v, |w| {
            if members.get(w) {
                crossing -= 1;
            } else {
                crossing += 1;
            }
        });
        members.set(v, true);
        let phi = cut_conductance(crossing, vol, total_degree);
        conductances.push(phi);
        if phi < best.0 {
            best = (phi, i + 1);
        }
    }

    SweepCut {
        order: scored.into_iter().map(|(v, _)| v).collect(),
        conductances,
        best_size: best.1,
        best_conductance: best.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;

    /// The worked example of Figure 1 / §3.1: sweeping {A, B, C, D} in
    /// order must yield conductances [1, 1/2, 1/7, 3/5] and pick {A,B,C}.
    #[test]
    fn figure1_worked_example() {
        let g = gen::figure1_graph();
        // Masses chosen so p/d orders exactly A, B, C, D.
        let p = vec![(0u32, 0.40), (1, 0.30), (2, 0.30), (3, 0.20)];
        let sweep = sweep_cut_seq(&g, &p);
        assert_eq!(sweep.order, vec![0, 1, 2, 3]);
        assert_eq!(sweep.conductances, vec![1.0, 0.5, 1.0 / 7.0, 3.0 / 5.0]);
        assert_eq!(sweep.best_size, 3);
        assert_eq!(sweep.cluster(), &[0, 1, 2]);
        assert_eq!(sweep.best_conductance, 1.0 / 7.0);
    }

    #[test]
    fn conductances_match_direct_computation() {
        let g = gen::rand_local(300, 5, 2);
        let p: Vec<(u32, f64)> = (0..40u32)
            .map(|v| (v * 7 % 300, 1.0 / (v as f64 + 2.0)))
            .collect();
        let sweep = sweep_cut_seq(&g, &p);
        for j in 1..=sweep.order.len() {
            let direct = g.conductance(&sweep.order[..j]);
            let got = sweep.conductances[j - 1];
            assert!(
                (direct.is_infinite() && got.is_infinite()) || (direct - got).abs() < 1e-12,
                "prefix {j}: direct {direct} vs sweep {got}"
            );
        }
    }

    #[test]
    fn empty_and_zero_mass_inputs() {
        let g = gen::cycle(5);
        assert_eq!(sweep_cut_seq(&g, &[]).best_size, 0);
        let sweep = sweep_cut_seq(&g, &[(0, 0.0)]);
        assert_eq!(sweep.best_size, 0);
        assert!(sweep.best_conductance.is_infinite());
    }

    #[test]
    fn isolated_vertices_are_skipped() {
        let g = lgc_graph::Graph::from_edges(4, &[(0, 1), (1, 2)]);
        // Vertex 3 is isolated: it has no p/d score and is dropped.
        let sweep = sweep_cut_seq(&g, &[(0, 0.5), (3, 0.9)]);
        assert_eq!(sweep.order, vec![0]);
    }

    #[test]
    fn planted_cluster_is_found() {
        let g = gen::two_cliques_bridge(8);
        // Uniform mass over the first clique.
        let p: Vec<(u32, f64)> = (0..8u32).map(|v| (v, 0.125)).collect();
        let sweep = sweep_cut_seq(&g, &p);
        assert_eq!(sweep.best_size, 8);
        let mut cluster = sweep.cluster().to_vec();
        cluster.sort_unstable();
        assert_eq!(cluster, (0..8).collect::<Vec<u32>>());
        assert!((sweep.best_conductance - 1.0 / 57.0).abs() < 1e-12);
    }

    #[test]
    fn ties_break_by_vertex_id() {
        let g = gen::clique(4);
        let p = vec![(2u32, 0.25), (0, 0.25), (3, 0.25)];
        let sweep = sweep_cut_seq(&g, &p);
        assert_eq!(sweep.order, vec![0, 2, 3], "equal p/d ⇒ ascending ids");
    }

    #[test]
    fn whole_graph_prefix_never_wins() {
        let g = gen::cycle(6);
        let p: Vec<(u32, f64)> = (0..6u32).map(|v| (v, 1.0 / 6.0)).collect();
        let sweep = sweep_cut_seq(&g, &p);
        assert!(sweep.conductances[5].is_infinite());
        assert!(sweep.best_size < 6);
    }
}
