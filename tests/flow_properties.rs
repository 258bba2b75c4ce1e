//! Properties of the max-flow refinement stage ([`plgc::flow`]):
//!
//! * **Monotone**: for every algorithm × backend × thread count sampled,
//!   `improve` returns a cut with conductance ≤ the sweep cut's — MQI
//!   never makes a query's answer worse.
//! * **Deterministic**: refinement of the same set is *bitwise*
//!   identical across 1, 2 and 4 threads and across the
//!   plain/compressed CSR backends.
//! * **Budget-aware**: a refinement tripped by a [`QueryBudget`] comes
//!   back as a typed error whose [`PartialResult`] carries the
//!   *unrefined* input cut — the caller keeps a valid cluster either way
//!   — and books no query counter. Under a budget it does not exhaust,
//!   `try_improve` returns exactly `improve`'s cut and books the same
//!   refinement counters.

use plgc::cluster as lgc;
use plgc::{
    Algorithm, CsrBackend, Engine, Pool, Query, QueryBudget, QueryError, Seed, Trip, Tripped,
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

    /// Refinement of the same set is bitwise identical across thread
    /// counts and storage backends: MQI is sequential and canonical, and
    /// both backends enumerate neighbors in the same order.
    #[test]
    fn refinement_is_bitwise_deterministic((g, seeds) in small_graph()) {
        let c = plgc::CsrCompressed::from_graph(&g);
        let base = Engine::builder(&g).threads(1).build();
        let engines: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|t| {
                (
                    Engine::builder(&g).threads(t).build(),
                    Engine::builder(&c).pool(Pool::new(t)).build(),
                )
            })
            .collect();
        for &seed in seeds.iter().take(3) {
            let result = base.run(&Query::new(
                Seed::single(seed),
                Algorithm::PrNibble(lgc::PrNibbleParams::default()),
            ));
            let a = base.improve(&result);
            for (plain, packed) in &engines {
                prop_assert_eq!(&a, &plain.improve(&result));
                prop_assert_eq!(&a, &plain.improve_set(&result.cluster));
                prop_assert_eq!(&a, &packed.improve_set(&result.cluster));
            }
        }
    }

    /// The governed refinement is the plain one when its budget does not
    /// bind: `try_improve` under an unlimited budget returns `improve`'s
    /// cut bit-for-bit, and each call books one `refined` (and, when the
    /// cut got strictly better, one `refine_improved`) and no query
    /// counter.
    #[test]
    fn unbudgeted_try_improve_matches_improve(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let engine = Engine::builder(&g).threads(threads).build();
        for (kind, si, tweak) in specs {
            let q = Query::new(Seed::single(seeds[si % seeds.len()]), make_algo(kind, tweak));
            let result = engine.run(&q);
            let before = engine.lifecycle_stats();
            let plain = engine.improve(&result);
            let governed = engine
                .try_improve(&result, &QueryBudget::unlimited())
                .expect("an unlimited budget never trips");
            prop_assert_eq!(&plain, &governed);
            let after = engine.lifecycle_stats();
            prop_assert_eq!(after.refined, before.refined + 2);
            prop_assert_eq!(
                after.refine_improved,
                before.refine_improved + 2 * u64::from(plain.improved())
            );
            prop_assert_eq!(after.admitted, before.admitted);
            prop_assert_eq!(after.completed, before.completed);
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
        // A refinement is not a query: its trip leaves the lifecycle law
        // intact (one query admitted, one completed, none tripped).
        let s = engine.lifecycle_stats();
        prop_assert_eq!(s.admitted, s.completed + s.work_tripped + s.deadline_tripped + s.cancelled);

        // The same input refines fine without the budget (monotone, and
        // strictly better on the sloppy bridge set below).
        let refined = engine.improve(&result);
        prop_assert!(refined.conductance <= result.conductance);
        let sloppy: Vec<u32> = (3..k + 3).collect();
        let repaired = engine.improve_set(&sloppy);
        prop_assert!(repaired.conductance < g.conductance(&sloppy));
    }
}
