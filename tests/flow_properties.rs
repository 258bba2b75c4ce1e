//! Properties of the max-flow refinement stage ([`plgc::flow`]) and the
//! pipelines built on it:
//!
//! * **Monotone**: for every algorithm × backend × thread count sampled,
//!   `improve` returns a cut with conductance ≤ the sweep cut's — MQI
//!   never makes a query's answer worse.
//! * **Deterministic**: refinement of the same set, and whole
//!   `compute_embedding` sweeps, are *bitwise* identical across 1–4
//!   threads and across the plain/compressed CSR backends.
//! * **Budget-aware**: a refinement tripped by a [`QueryBudget`] comes
//!   back as a typed error whose [`PartialResult`] carries the
//!   *unrefined* input cut — the caller keeps a valid cluster either way.
//! * **Useful**: `find_k_clusters` recovers planted SBM partitions
//!   exactly, at any thread count.

use plgc::cluster as lgc;
use plgc::{
    Algorithm, CsrBackend, Engine, PipelineParams, Pool, Query, QueryBudget, QueryError, Seed,
    Trip, Tripped,
};
use proptest::prelude::*;

fn small_graph() -> impl Strategy<Value = (plgc::Graph, Vec<u32>)> {
    (30usize..200, 0u64..1000).prop_map(|(n, s)| {
        let g = plgc::graph::gen::rand_local(n.max(30), 4, s);
        let comp = plgc::graph::largest_component(&g);
        let seeds: Vec<u32> = comp
            .iter()
            .step_by((comp.len() / 8).max(1))
            .copied()
            .collect();
        (g, seeds)
    })
}

/// One query spec: `(algorithm index, seed index, parameter tweak)`.
fn query_specs() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    proptest::collection::vec((0usize..5, 0usize..8, 0u64..3), 3..7)
}

fn make_algo(kind: usize, tweak: u64) -> Algorithm {
    match kind {
        0 => Algorithm::Nibble(lgc::NibbleParams {
            t_max: 6 + tweak as usize,
            eps: 1e-6,
        }),
        1 => Algorithm::PrNibble(lgc::PrNibbleParams {
            alpha: 0.03 * (tweak + 1) as f64,
            eps: 1e-5,
            ..Default::default()
        }),
        2 => Algorithm::Hkpr(lgc::HkprParams {
            t: 2.0 + tweak as f64,
            n_levels: 8,
            eps: 1e-5,
        }),
        3 => Algorithm::RandHkpr(lgc::RandHkprParams {
            walks: 1_000 + 500 * tweak as usize,
            max_len: 8,
            rng_seed: tweak,
            ..Default::default()
        }),
        _ => Algorithm::Evolving(lgc::EvolvingParams {
            max_steps: 10 + 5 * tweak as usize,
            rng_seed: tweak,
            ..Default::default()
        }),
    }
}

/// A small pipeline grid so the debug-mode suite stays fast.
fn quick_pipeline() -> PipelineParams {
    PipelineParams {
        rho_min: 1e-4,
        rho_max: 1e-2,
        nsamples: 4,
        ..PipelineParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The refinement contract: for every sampled algorithm, backend,
    /// and thread count, `engine.improve` never worsens conductance,
    /// and the conductance it reports is the graph's own measure of the
    /// returned set.
    #[test]
    fn refinement_never_worsens_conductance(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
        compressed in any::<bool>(),
    ) {
        let c;
        let (plain_engine, packed_engine) = if compressed {
            c = plgc::CsrCompressed::from_graph(&g);
            (None, Some(Engine::builder(&c).pool(Pool::new(threads)).build()))
        } else {
            (Some(Engine::builder(&g).threads(threads).build()), None)
        };
        for (kind, si, tweak) in specs {
            let q = Query::new(
                Seed::single(seeds[si % seeds.len()]),
                make_algo(kind, tweak),
            );
            let (result, refined) = match (&plain_engine, &packed_engine) {
                (Some(e), _) => {
                    let r = e.run(&q);
                    let f = e.improve(&r);
                    (r, f)
                }
                (_, Some(e)) => {
                    let r = e.run(&q);
                    let f = e.improve(&r);
                    (r, f)
                }
                _ => unreachable!(),
            };
            prop_assert!(
                refined.conductance <= result.conductance,
                "{:?}: refined {} > sweep {}",
                q.algo,
                refined.conductance,
                result.conductance
            );
            prop_assert_eq!(refined.initial_conductance, result.conductance);
            prop_assert_eq!(refined.conductance, g.conductance(&refined.cluster));
            // The refined set is a subset of the input cut.
            let mut input = result.cluster.clone();
            input.sort_unstable();
            prop_assert!(refined
                .cluster
                .iter()
                .all(|v| input.binary_search(v).is_ok()));
        }
    }

    /// Refinement of the same set, and whole embedding sweeps, are
    /// bitwise identical across thread counts and storage backends:
    /// MQI is sequential and canonical, the batched grid is
    /// bit-identical to 1-thread runs, and both backends enumerate
    /// neighbors in the same order.
    #[test]
    fn refinement_and_embeddings_are_bitwise_deterministic(
        (g, seeds) in small_graph(),
        threads in 2usize..=4,
    ) {
        let c = plgc::CsrCompressed::from_graph(&g);
        let base = Engine::builder(&g).threads(1).build();
        let wide = Engine::builder(&g).threads(threads).build();
        let packed = Engine::builder(&c).pool(Pool::new(threads)).build();
        let params = quick_pipeline();
        for &seed in seeds.iter().take(3) {
            let result = base.run(&Query::new(
                Seed::single(seed),
                Algorithm::PrNibble(lgc::PrNibbleParams::default()),
            ));
            let a = base.improve(&result);
            let b = wide.improve_set(&result.cluster);
            let d = packed.improve_set(&result.cluster);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&a, &d);

            let e1 = base.compute_embedding(seed, &params);
            let e2 = wide.compute_embedding(seed, &params);
            let e3 = packed.compute_embedding(seed, &params);
            prop_assert_eq!(&e1, &e2);
            prop_assert_eq!(&e1, &e3);
        }
    }

    /// A budget-tripped refinement is a typed error, not a panic and
    /// not a silent fallback: `try_improve` under a zero work budget
    /// returns a [`Trip::WorkBudget`] [`QueryError::Tripped`] whose
    /// [`PartialResult`] is the *unrefined* input cut, while the plain
    /// `improve` of the same cut genuinely refines it.
    #[test]
    fn tripped_refinement_returns_the_unrefined_cut(k in 6u32..14) {
        let g = plgc::graph::gen::two_cliques_bridge(k as usize);
        let engine = Engine::builder(&g).threads(2).build();
        let result = engine.run(&Query::new(
            Seed::single(3),
            Algorithm::PrNibble(lgc::PrNibbleParams::default()),
        ));
        prop_assert!(!result.cluster.is_empty());

        let zero = QueryBudget::unlimited().with_max_edges_traversed(0);
        let err = engine
            .try_improve(&result, &zero)
            .expect_err("flow must trip under a zero work budget");
        prop_assert_eq!(err.trip(), Some(Trip::WorkBudget));
        prop_assert!(matches!(err, QueryError::Tripped(Tripped { trip: Trip::WorkBudget, .. })));
        let partial = err.partial().expect("trip errors carry a partial");
        let sweep = partial.sweep.as_ref().expect("refinement partial keeps the sweep");
        prop_assert_eq!(sweep.cluster(), &result.cluster[..]);
        prop_assert_eq!(sweep.best_conductance, result.conductance);
        let diffusion = partial.diffusion.as_ref().expect("and the diffusion");
        prop_assert_eq!(&diffusion.p, &result.diffusion.p);

        // The same input refines fine without the budget (monotone, and
        // strictly better on the sloppy bridge set below).
        let refined = engine.improve(&result);
        prop_assert!(refined.conductance <= result.conductance);
        let sloppy: Vec<u32> = (3..k + 3).collect();
        let repaired = engine.improve_set(&sloppy);
        prop_assert!(repaired.conductance < g.conductance(&sloppy));
    }

    /// End-to-end pipeline acceptance: `find_k_clusters` recovers a
    /// planted 3-block SBM partition exactly, at any thread count.
    #[test]
    fn find_k_clusters_recovers_planted_blocks(
        sbm_seed in 0u64..1000,
        threads in 1usize..=4,
    ) {
        let (g, labels) = plgc::graph::gen::sbm(&[20, 20, 20], 0.45, 0.01, sbm_seed);
        // Skip the rare unidentifiable realization (~1% of draws): a
        // disconnected graph (isolated vertices are unseedable by
        // design), or one where some vertex has at least as many
        // neighbors in a foreign block as in its own — such a vertex is
        // structurally ambiguous, and no conductance-based method can
        // be required to side with the generator's label for it.
        let identifiable = (0..g.num_vertices() as u32).all(|v| {
            let mut per = [0usize; 3];
            g.for_each_neighbor(v, |u| per[labels[u as usize] as usize] += 1);
            let own = labels[v as usize] as usize;
            per.iter().enumerate().all(|(b, &c)| b == own || c < per[own])
        });
        if !identifiable || plgc::graph::largest_component(&g).len() != g.num_vertices() {
            continue;
        }
        let engine = Engine::builder(&g).threads(threads).build();
        let kc = engine.find_k_clusters(3, &quick_pipeline());
        prop_assert_eq!(kc.clusters.len(), 3);
        for (label, cluster) in kc.clusters.iter().enumerate() {
            let expected: Vec<u32> = (label as u32 * 20..(label as u32 + 1) * 20).collect();
            prop_assert_eq!(cluster, &expected);
        }
        for (v, &l) in kc.assignment.iter().enumerate() {
            prop_assert!(kc.clusters[l as usize].contains(&(v as u32)));
        }
    }
}
