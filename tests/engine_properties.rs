//! Workspace-reuse properties: a warm [`Engine`] must be observationally
//! identical to fresh free-function runs — interleaved repeated queries
//! (mixed algorithms, mixed seeds, 1–4 threads) against random graphs.
//!
//! Exactness tiers, by what the machine can promise:
//!
//! * **1 thread** — every pipeline is fully deterministic, so warm vs
//!   cold is compared *bit-for-bit* (vector, stats, cluster, φ).
//! * **>1 threads** — the push engines accumulate `f64` with atomic
//!   adds in scheduler order, so even two cold runs differ in ulps;
//!   rand-HK-PR (per-walk RNG streams) and the evolving-set process
//!   (integer counts) stay exactly reproducible and are still compared
//!   bit-for-bit, while the float diffusions are held to a tight `ℓ₁`
//!   tolerance.

use plgc::cluster as lgc;
use plgc::{
    Algorithm, ClusterResult, CsrBackend, Engine, LocalDiffusion, Pool, Query, QueryBudget, Seed,
    Service, Workspace,
};
use proptest::prelude::*;

fn small_graph() -> impl Strategy<Value = (plgc::Graph, Vec<u32>)> {
    small_graph_of(30..250)
}

fn small_graph_of(n: std::ops::Range<usize>) -> impl Strategy<Value = (plgc::Graph, Vec<u32>)> {
    (n, 0u64..1000).prop_map(|(n, s)| {
        let g = plgc::graph::gen::rand_local(n, 4, s);
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
    proptest::collection::vec((0usize..5, 0usize..8, 0u64..3), 4..10)
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

/// Whether this algorithm's parallel run is exactly reproducible at any
/// thread count (integer/RNG-stream determinism).
fn exact_at_any_threads(algo: &Algorithm) -> bool {
    matches!(algo, Algorithm::RandHkpr(_) | Algorithm::Evolving(_))
}

/// `ℓ₁` distance between two sparse diffusion vectors (union of supports).
fn l1_distance(a: &lgc::Diffusion, b: &lgc::Diffusion) -> f64 {
    let mut dist = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < a.p.len() || j < b.p.len() {
        match (a.p.get(i), b.p.get(j)) {
            (Some(&(va, ma)), Some(&(vb, mb))) if va == vb => {
                dist += (ma - mb).abs();
                i += 1;
                j += 1;
            }
            (Some(&(va, ma)), Some(&(vb, _))) if va < vb => {
                dist += ma.abs();
                i += 1;
            }
            (Some(_), Some(&(_, mb))) => {
                dist += mb.abs();
                j += 1;
            }
            (Some(&(_, ma)), None) => {
                dist += ma.abs();
                i += 1;
            }
            (None, Some(&(_, mb))) => {
                dist += mb.abs();
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    dist
}

fn assert_bitwise(got: &ClusterResult, want: &ClusterResult, what: &str) {
    assert_eq!(got.diffusion.p, want.diffusion.p, "{what}");
    assert_eq!(got.diffusion.stats, want.diffusion.stats, "{what}");
    assert_eq!(got.cluster, want.cluster, "{what}");
    assert_eq!(got.sweep.conductances, want.sweep.conductances, "{what}");
}

/// One executor behind every entry point: `run` ≡ `try_run` ≡ the
/// matching `run_batch` item. `want` holds the 1-thread runs of
/// `queries`. Batch items run on one thread each, so they match `want`
/// bitwise whatever the engine's thread count. Every governed `try_run`
/// completes; it and `run` match `want` bitwise wherever the machine can
/// promise it (`exact`, or an integer/RNG-exact algorithm), and within
/// the float diffusions' `ℓ₁` tolerance elsewhere. A clone is the same
/// engine.
fn assert_entry_points_agree<B: CsrBackend>(
    engine: &Engine<'_, B>,
    queries: &[Query],
    want: &[ClusterResult],
    exact: bool,
) {
    let batch = engine.run_batch(queries);
    for (i, (q, want)) in queries.iter().zip(want).enumerate() {
        assert_bitwise(&batch[i], want, "run_batch item");
        let tried = engine.clone().try_run(q).unwrap();
        if exact || exact_at_any_threads(&q.algo) {
            assert_bitwise(&engine.run(q), want, "run");
            assert_bitwise(&tried, want, "try_run");
        } else {
            assert!(
                l1_distance(&tried.diffusion, &want.diffusion) < 1e-9,
                "try_run"
            );
            assert!(
                (tried.conductance - want.conductance).abs() < 1e-9,
                "try_run"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole contract: interleaved repeated `engine.run` calls
    /// over one warm workspace match fresh free-function runs.
    #[test]
    fn warm_engine_matches_cold_free_function_runs(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let engine = Engine::builder(&g).threads(threads).build();
        let pool = Pool::new(threads);
        for (kind, si, tweak) in specs {
            let seed = Seed::single(seeds[si % seeds.len()]);
            let algo = make_algo(kind, tweak);
            let warm = engine.run(&Query::new(seed.clone(), algo.clone()));
            let cold = lgc::find_cluster(&pool, &g, &seed, &algo);
            if threads == 1 || exact_at_any_threads(&algo) {
                prop_assert_eq!(&warm.diffusion.p, &cold.diffusion.p);
                prop_assert_eq!(warm.diffusion.stats, cold.diffusion.stats);
                prop_assert_eq!(&warm.cluster, &cold.cluster);
                prop_assert_eq!(warm.conductance, cold.conductance);
                prop_assert_eq!(&warm.sweep.conductances, &cold.sweep.conductances);
            } else {
                prop_assert!(l1_distance(&warm.diffusion, &cold.diffusion) < 1e-9);
                prop_assert!((warm.conductance - cold.conductance).abs() < 1e-9);
            }
        }
    }

    /// `engine.diffuse` (no sweep) under the same interleaving: equal to a
    /// cold `LocalDiffusion::diffuse` over a fresh workspace, and to the
    /// free `evolving_set_par` for the evolving set.
    #[test]
    fn warm_engine_diffuse_matches_par_free_functions(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let engine = Engine::builder(&g).threads(threads).build();
        let pool = Pool::new(threads);
        for (kind, si, tweak) in specs {
            let seed = Seed::single(seeds[si % seeds.len()]);
            let algo = make_algo(kind, tweak);
            let warm = engine.diffuse(&seed, &algo);
            let cold = match &algo {
                Algorithm::Evolving(p) => {
                    lgc::evolving_set_par(&pool, &g, &seed, p).indicator()
                }
                _ => algo.diffuse(&pool, &g, &seed, &mut Workspace::new()),
            };
            if threads == 1 || exact_at_any_threads(&algo) {
                prop_assert_eq!(&warm.p, &cold.p);
            } else {
                prop_assert!(l1_distance(&warm, &cold) < 1e-9);
            }
        }
    }

    /// Backend equivalence, same exactness tiers as warm-vs-cold: every
    /// diffusion over the byte-compressed CSR backend matches plain CSR
    /// — bitwise at 1 thread (and at any thread count for the
    /// integer/RNG-exact algorithms), tight ℓ₁ for the float pushes at
    /// >1 threads (where even two plain runs differ in ulps).
    #[test]
    fn compressed_backend_matches_plain(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let c = plgc::CsrCompressed::from_graph(&g);
        let plain = Engine::builder(&g).threads(threads).build();
        let packed = Engine::builder(&c).pool(Pool::new(threads)).build();
        for (kind, si, tweak) in specs {
            let seed = Seed::single(seeds[si % seeds.len()]);
            let algo = make_algo(kind, tweak);
            let q = Query::new(seed, algo);
            let a = plain.run(&q);
            let b = packed.run(&q);
            if threads == 1 || exact_at_any_threads(&q.algo) {
                prop_assert_eq!(&a.diffusion.p, &b.diffusion.p, "{:?}", q.algo);
                prop_assert_eq!(a.diffusion.stats, b.diffusion.stats);
                prop_assert_eq!(&a.cluster, &b.cluster);
                prop_assert_eq!(a.conductance, b.conductance);
                prop_assert_eq!(&a.sweep.conductances, &b.sweep.conductances);
            } else {
                prop_assert!(l1_distance(&a.diffusion, &b.diffusion) < 1e-9);
                prop_assert!((a.conductance - b.conductance).abs() < 1e-9);
            }
        }
    }

    /// With the traversal pinned to dense pulls, every destination sums
    /// its sources sequentially in ascending order — so compressed vs
    /// plain is *bitwise* identical at any thread count (the decode
    /// order guarantee the compressed backend exists to preserve).
    #[test]
    fn pull_pinned_queries_are_bitwise_equal_across_backends(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let c = plgc::CsrCompressed::from_graph(&g);
        let pin = plgc::DirectionParams::pull_only();
        let plain = Engine::builder(&g).threads(threads).direction(pin).build();
        let packed = Engine::builder(&c)
            .pool(Pool::new(threads))
            .direction(pin)
            .build();
        for (kind, si, tweak) in specs {
            let seed = Seed::single(seeds[si % seeds.len()]);
            let q = Query::new(seed, make_algo(kind, tweak));
            let a = plain.run(&q);
            let b = packed.run(&q);
            prop_assert_eq!(&a.diffusion.p, &b.diffusion.p, "{:?}", q.algo);
            prop_assert_eq!(a.diffusion.stats, b.diffusion.stats);
            prop_assert_eq!(&a.cluster, &b.cluster);
            prop_assert_eq!(a.conductance, b.conductance);
            prop_assert_eq!(&a.sweep.conductances, &b.sweep.conductances);
        }
    }

    /// Batch contract: every item of a mixed-algorithm batch is
    /// bit-identical to a 1-thread engine run of the same query, at any
    /// batch pool size.
    #[test]
    fn run_batch_items_equal_one_thread_engine_runs(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let queries: Vec<Query> = specs
            .iter()
            .map(|&(kind, si, tweak)| {
                Query::new(Seed::single(seeds[si % seeds.len()]), make_algo(kind, tweak))
            })
            .collect();
        let batch = Engine::builder(&g).threads(threads).build().run_batch(&queries);
        let engine = Engine::builder(&g).threads(1).build();
        for (q, got) in queries.iter().zip(&batch) {
            let want = engine.run(q);
            prop_assert_eq!(&got.diffusion.p, &want.diffusion.p);
            prop_assert_eq!(got.diffusion.stats, want.diffusion.stats);
            prop_assert_eq!(&got.cluster, &want.cluster);
            prop_assert_eq!(got.conductance, want.conductance);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The dense regime: a graph small enough (n ≤ 2 000) and thresholds
    /// tight enough that the support covers the component, so every mass
    /// map of every float diffusion upgrades to its dense backend within
    /// a few iterations. Cold run, warm re-run and the compressed backend
    /// agree bitwise at 1 thread, and — with the traversal pinned to
    /// pulls, whose sums are thread-count-invariant — at every thread
    /// count, with the 1-thread run.
    #[test]
    fn dense_regime_is_deterministic_across_threads_backends_and_reuse(
        (g, seeds) in small_graph_of(400..2000),
        si in 0usize..8,
    ) {
        let c = plgc::CsrCompressed::from_graph(&g);
        let seed = Seed::single(seeds[si % seeds.len()]);
        let algos = [
            Algorithm::Nibble(lgc::NibbleParams { t_max: 12, eps: 1e-7 }),
            Algorithm::PrNibble(lgc::PrNibbleParams { alpha: 0.05, eps: 1e-7, ..Default::default() }),
            Algorithm::Hkpr(lgc::HkprParams { t: 5.0, n_levels: 12, eps: 1e-7 }),
        ];
        // The default policy, then pulls only.
        for pin in [plgc::DirectionParams::default(), plgc::DirectionParams::pull_only()] {
            let pinned = pin == plgc::DirectionParams::pull_only();
            let reference = Engine::builder(&g).threads(1).direction(pin).build();
            // All five algorithms, for the entry-point identities.
            let five: Vec<Query> = algos
                .iter()
                .cloned()
                .chain([make_algo(3, 1), make_algo(4, 1)])
                .map(|algo| Query::new(seed.clone(), algo))
                .collect();
            let five_want: Vec<ClusterResult> = five.iter().map(|q| reference.run(q)).collect();
            for threads in [1usize, 2, 4] {
                let plain = Engine::builder(&g).threads(threads).direction(pin).build();
                let packed = Engine::builder(&c).pool(Pool::new(threads)).direction(pin).build();
                assert_entry_points_agree(&plain, &five, &five_want, threads == 1 || pinned);
                assert_entry_points_agree(&packed, &five, &five_want, threads == 1 || pinned);
                for algo in &algos {
                    let q = Query::new(seed.clone(), algo.clone());
                    let want = reference.run(&q);
                    prop_assert!(
                        want.diffusion.support_size() * 4 >= g.num_vertices(),
                        "{:?} stayed local: {} of {}", algo, want.diffusion.support_size(), g.num_vertices()
                    );
                    // Twice per engine: the second run is on warm buffers.
                    for got in [plain.run(&q), plain.run(&q), packed.run(&q), packed.run(&q)] {
                        if threads == 1 || pinned {
                            prop_assert_eq!(&got.diffusion.p, &want.diffusion.p, "{:?} t={}", algo, threads);
                            prop_assert_eq!(got.diffusion.stats, want.diffusion.stats);
                            prop_assert_eq!(&got.cluster, &want.cluster);
                            prop_assert_eq!(&got.sweep.conductances, &want.sweep.conductances);
                        } else {
                            prop_assert!(l1_distance(&got.diffusion, &want.diffusion) < 1e-9);
                            prop_assert!((got.conductance - want.conductance).abs() < 1e-9);
                        }
                    }
                }
            }
        }
    }
}

fn prnibble(eps: f64) -> Algorithm {
    Algorithm::PrNibble(lgc::PrNibbleParams {
        alpha: 0.05,
        eps,
        ..Default::default()
    })
}

/// Conservation law of the lifecycle counters: every query — single or
/// batch item, fallible or not — is admitted once and ends in exactly
/// one of completed / tripped, and the in-flight gate drains.
#[test]
fn every_admitted_query_completes_or_trips_exactly_once() {
    let g = plgc::graph::gen::rand_local(400, 5, 11);
    let engine = Engine::builder(&g).threads(2).build();
    let ok = |v| Query::new(Seed::single(v), prnibble(1e-5));
    let capped = |v| {
        Query::new(Seed::single(v), prnibble(1e-7))
            .with_budget(QueryBudget::unlimited().with_max_edges_traversed(5))
    };
    let bad_seed = ok(g.num_vertices() as u32);
    let bad_param = Query::new(Seed::single(0), prnibble(f64::NAN));

    engine.run(&ok(0));
    engine.run(&capped(1)); // `run` ignores budgets: completes
    assert!(engine.try_run(&ok(2)).is_ok());
    assert!(engine.try_run(&capped(3)).unwrap_err().partial().is_some());
    assert!(engine.try_run(&bad_seed).is_err());
    match engine.try_run(&bad_param) {
        Err(plgc::QueryError::InvalidParams(e)) => assert_eq!(e.param, "eps"),
        other => panic!("expected InvalidParams, got {other:?}"),
    }
    let batch: Vec<Query> = (4..10).map(ok).chain((10..13).map(capped)).collect();
    assert_eq!(engine.run_batch(&batch).len(), 9);
    let mut mixed = batch.clone();
    mixed.push(bad_seed.clone());
    mixed.push(bad_param.clone());
    let tried: Vec<_> = mixed.iter().map(|q| engine.try_run(q)).collect();
    assert_eq!(tried.iter().filter(|r| r.is_ok()).count(), 6);

    let s = engine.lifecycle_stats();
    let tripped = s.work_tripped + s.deadline_tripped + s.cancelled;
    // Admitted: 4 of the first six calls (`run` ×2, `try_run` of ok(2)
    // and capped(3)), the 9 `run_batch` items, and 9 of the 11 `try_run`
    // calls over `mixed`. The four malformed calls never pass admission.
    assert_eq!(s.admitted, 4 + 9 + 9);
    // Work trips: `run` and `run_batch` ignore budgets, so only the
    // governed calls on capped queries trip: capped(3) and the three
    // capped items of `mixed`.
    assert_eq!(
        s.work_tripped,
        1 + 3,
        "try_run(capped) + 3 capped try_run calls over `mixed`"
    );
    assert_eq!(s.admitted, s.completed + tripped);
    assert_eq!(s.invalid, 4);
    // Arrivals: 6 single calls, 9 batch items, 11 `try_run` calls over
    // `mixed` — each admitted, shed or rejected as invalid.
    assert_eq!(s.admitted + s.shed() + s.invalid, 26);
    assert_eq!(s.in_flight, 0);
}

/// A clone of an engine, and every `Service::engine(name)` over one
/// registered graph, are the same engine: they share warm workspaces and
/// counters.
#[test]
fn clones_and_service_engines_share_workspaces_and_counters() {
    let g = plgc::graph::gen::rand_local(300, 5, 4);
    let q = Query::new(Seed::single(7), prnibble(1e-5));

    let engine = Engine::builder(&g).threads(1).build();
    let twin = engine.clone();
    let want = engine.run(&q);
    assert_eq!(
        twin.warm_workspaces(),
        1,
        "the clone sees the parked workspace"
    );
    assert_bitwise(&twin.try_run(&q).unwrap(), &want, "clone");
    assert_eq!(engine.warm_workspaces(), 1, "and reused it");
    assert_eq!(engine.lifecycle_stats().completed, 2);
    assert_eq!(engine.lifecycle_stats(), twin.lifecycle_stats());
    assert_eq!(engine.summary(), twin.summary());

    let svc = Service::builder()
        .pool(Pool::shared(1))
        .add_graph("g", g.clone())
        .build();
    let (a, b) = (svc.engine("g").unwrap(), svc.engine("g").unwrap());
    assert_bitwise(&a.run(&q), &want, "service engine");
    let b = b.as_plain().unwrap();
    assert_eq!(b.warm_workspaces(), 1);
    assert_bitwise(
        &b.run_batch(std::slice::from_ref(&q))[0],
        &want,
        "batch of one",
    );
    assert_eq!(b.warm_workspaces(), 1);
    assert_eq!(svc.lifecycle("g").unwrap().completed, 2);
    assert_eq!(a.as_plain().unwrap().lifecycle_stats(), b.lifecycle_stats());
}

/// `Engine::summary` and `Service::summary` are `GraphSummary::of` the
/// graph they serve, on both backends (whose byte fields differ).
#[test]
fn engine_and_service_summaries_are_the_graphs_on_both_backends() {
    use plgc::{CsrCompressed, GraphSummary};
    let g = plgc::graph::gen::rand_local(300, 5, 4);
    let c = CsrCompressed::from_graph(&g);
    let (plain, packed) = (GraphSummary::of(&g), GraphSummary::of(&c));
    assert_ne!(plain, packed);

    assert_eq!(Engine::builder(&g).threads(1).build().summary(), plain);
    let engine = Engine::builder(&c).threads(1).build();
    assert_eq!(engine.summary(), packed);
    assert_eq!(engine.summary(), packed, "the memoised answer is the same");

    let svc = Service::builder()
        .pool(Pool::shared(1))
        .add_graph("plain", g.clone())
        .add_graph("packed", c.clone())
        .build();
    assert_eq!(svc.summary("plain"), Some(plain));
    assert_eq!(svc.summary("packed"), Some(packed));
    assert_eq!(svc.summary("absent"), None);
}

/// HK-PR at `n_levels = 64` — the longest ψ table a query in this suite
/// computes for itself — through a warm engine (twice), a cold engine and
/// `find_cluster` is bitwise one result.
#[test]
fn hkpr_at_64_levels_is_one_result_warm_cold_and_free() {
    let g = plgc::graph::gen::rand_local(400, 5, 12);
    let q = Query::new(
        Seed::single(17),
        Algorithm::Hkpr(lgc::HkprParams {
            t: 12.0,
            n_levels: 64,
            eps: 1e-5,
        }),
    );
    let want = lgc::find_cluster(&Pool::new(1), &g, &q.seed, &q.algo);
    assert!(want.diffusion.stats.iterations > 8, "a run of many levels");
    let warm = Engine::builder(&g).threads(1).build();
    warm.run(&Query::new(Seed::single(3), prnibble(1e-5)));
    assert_bitwise(&warm.run(&q), &want, "warm engine, first use");
    assert_bitwise(&warm.run(&q), &want, "warm engine, repeat");
    let cold = Engine::builder(&g).threads(1).build();
    assert_bitwise(&cold.run(&q), &want, "cold engine");
}

fn prn(alpha: f64, eps: f64) -> Algorithm {
    Algorithm::PrNibble(lgc::PrNibbleParams {
        alpha,
        eps,
        ..Default::default()
    })
}

/// The fork policy reads counts only, so these hold exactly: a lone small
/// query on a 2-wide engine offers the pool no loop — every iteration runs
/// as the one-thread code, and the result is the one-thread result down to
/// `residual_mass` — while a saturating query forks.
#[test]
fn a_lone_small_query_forks_nothing_and_a_saturating_one_forks() {
    let g = plgc::graph::gen::grid_3d(16, 16, 16);
    let q = Query::new(Seed::single(0), prn(0.1, 1e-4));
    let engine = Engine::builder(&g).threads(2).build();
    let got = engine.run(&q);
    let s = engine.lifecycle_stats();
    let iterations = got.diffusion.stats.iterations;
    assert!(iterations > 1);
    assert_eq!(engine.pool().stats().loops_forked, 0);
    assert_eq!(s.iterations_solo, iterations);
    assert_eq!(s.iterations_push + s.iterations_pull, iterations);
    assert_eq!((s.iterations_pull, s.iterations_dense_out), (0, 0));
    let one = Engine::builder(&g).threads(1).build();
    assert_bitwise(&got, &one.run(&q), "2-wide, every step below the threshold");
    assert_eq!(one.lifecycle_stats().iterations_solo, iterations);
    // rand-HK-PR asks the same policy, with `walks` and `walks × max_len`.
    let q = Query::new(Seed::single(0), make_algo(3, 2));
    assert!(matches!(q.algo, Algorithm::RandHkpr(p) if p.walks == 2_000 && p.max_len == 8));
    let got = engine.run(&q);
    assert_eq!(engine.pool().stats().loops_forked, 0);
    assert_bitwise(&got, &one.run(&q), "rand-HK-PR below the threshold");

    let g = plgc::graph::gen::rand_local(20_000, 5, 3);
    let q = Query::new(Seed::single(0), prn(0.01, 1e-7));
    let engine = Engine::builder(&g).threads(2).build();
    let got = engine.run(&q);
    let s = engine.lifecycle_stats();
    assert!(engine.pool().stats().loops_forked >= 1);
    // Forked pushes add in scheduler order: tight ℓ₁, not bitwise.
    let want = Engine::builder(&g).threads(1).build().run(&q);
    assert!(l1_distance(&got.diffusion, &want.diffusion) < 1e-9);
    assert!((got.conductance - want.conductance).abs() < 1e-9);
    assert!(got.diffusion.support_size() * 2 > g.num_vertices());
    assert!(0 < s.iterations_solo && s.iterations_solo < got.diffusion.stats.iterations);
    assert!(s.iterations_pull > 0, "a saturating frontier crosses `m`");
    // Every pull of PR-Nibble hands the next iteration a dense frontier.
    assert_eq!(s.iterations_dense_out, s.iterations_pull, "{s:?}");
}

/// An NCP is a batch: its grid points run as `run_batch` items on the
/// workerless pool, so on an input whose diffusions fork when run alone,
/// the profile is the same bits at every pool width, and every grid point
/// books `admitted` and `completed`.
#[test]
fn ncp_is_the_same_bits_at_any_width_and_books_every_grid_point() {
    let (g, _) = plgc::graph::gen::sbm(&[300; 4], 0.3, 0.01, 5);
    let lone = Engine::builder(&g).threads(2).build();
    lone.run(&Query::new(Seed::single(0), prn(0.01, 1e-6)));
    assert!(lone.pool().stats().loops_forked >= 1, "past FORK_MIN_WORK");
    let params = plgc::NcpParams {
        num_seeds: 3,
        alphas: vec![0.1, 0.01],
        epsilons: vec![1e-4, 1e-6],
        rng_seed: 5,
    };
    let grid = (params.num_seeds * params.alphas.len() * params.epsilons.len()) as u64;
    let profile = |threads| {
        let engine = Engine::builder(&g).threads(threads).build();
        let points = engine.ncp(&params);
        let s = engine.lifecycle_stats();
        assert_eq!((s.admitted, s.completed), (grid, grid), "T={threads}");
        points
            .iter()
            .map(|p| (p.size, p.conductance.to_bits()))
            .collect::<Vec<_>>()
    };
    let one = profile(1);
    assert!(one.len() > 300, "the profile spans the planted scale");
    for threads in [2, 4] {
        assert_eq!(profile(threads), one, "T={threads}");
    }
}

/// Conservation law of the iteration counters: `push + pull` is the sum of
/// `stats.iterations` over the frontier-diffusion queries the engine ran —
/// single or batch item, completed or tripped, with a sweep or without —
/// and `solo` is part of it. rand-HK-PR walks have no frontier and count
/// nothing.
#[test]
fn iteration_counters_add_up_to_the_iterations_run() {
    let g = plgc::graph::gen::rand_local(8_000, 5, 11);
    let engine = Engine::builder(&g).threads(2).build();
    let mut iterations = 0;
    let frontier_kinds = [0, 1, 2, 4];
    for (i, kind) in frontier_kinds.into_iter().enumerate() {
        let q = Query::new(Seed::single(i as u32 * 31), make_algo(kind, 1));
        iterations += engine.run(&q).diffusion.stats.iterations;
        iterations += engine.diffuse(&q.seed, &q.algo).stats.iterations;
    }
    engine.run(&Query::new(Seed::single(5), make_algo(3, 1)));
    let capped = Query::new(Seed::single(9), prnibble(1e-7))
        .with_budget(QueryBudget::unlimited().with_max_edges_traversed(2_000));
    let tripped = engine.try_run(&capped).unwrap_err();
    iterations += tripped.partial().unwrap().stats.iterations;
    let batch: Vec<Query> = (0..6u32)
        .map(|i| Query::new(Seed::single(i * 17), prnibble(1e-6)))
        .collect();
    for item in engine.run_batch(&batch) {
        iterations += item.diffusion.stats.iterations;
    }
    // Saturating: iterations on both sides of the threshold, both directions.
    iterations += engine
        .run(&Query::new(Seed::single(1), prn(0.01, 1e-8)))
        .diffusion
        .stats
        .iterations;

    let s = engine.lifecycle_stats();
    assert_eq!(s.iterations_push + s.iterations_pull, iterations);
    assert!(s.iterations_push > 0 && s.iterations_pull > 0, "{s:?}");
    assert!(
        0 < s.iterations_solo && s.iterations_solo < iterations,
        "{s:?}"
    );
    assert!(
        0 < s.iterations_dense_out && s.iterations_dense_out <= s.iterations_pull,
        "{s:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One query, iterations on both sides of the fork threshold: a 2- and
    /// a 4-wide engine return the one-thread result bit for bit, cold and
    /// warm, over both backends. The traversal is pinned to pulls, whose
    /// sums do not depend on the thread count (a forked *push* adds in
    /// scheduler order); `residual_mass` is summed in key order over a
    /// dense store (in slot order only in an engine whose budget keeps its
    /// stores hashed) and stays tiered.
    #[test]
    fn queries_straddling_the_fork_threshold_return_the_one_thread_bits(
        (g, seeds) in small_graph_of(12_000..20_000),
        si in 0usize..8,
    ) {
        let c = plgc::CsrCompressed::from_graph(&g);
        let seed = Seed::single(seeds[si % seeds.len()]);
        let pin = plgc::DirectionParams::pull_only();
        let algos = [
            Algorithm::Nibble(lgc::NibbleParams { t_max: 12, eps: 1e-7 }),
            prn(0.1, 1e-6),
            Algorithm::Hkpr(lgc::HkprParams { t: 5.0, n_levels: 10, eps: 1e-6 }),
        ];
        for algo in algos {
            let q = Query::new(seed.clone(), algo);
            let reference = Engine::builder(&g).threads(1).direction(pin).build();
            let want = reference.run(&q);
            let s = reference.lifecycle_stats();
            prop_assert!(
                0 < s.iterations_solo && s.iterations_solo < want.diffusion.stats.iterations,
                "{:?} does not straddle: {} of {} iterations solo",
                q.algo, s.iterations_solo, want.diffusion.stats.iterations
            );
            // Every iteration pulls, and every pull emits the next frontier
            // but the one with none to derive: HK-PR's flush of level N.
            let flushed = matches!(q.algo, Algorithm::Hkpr(p)
                if want.diffusion.stats.iterations == p.n_levels as u64);
            prop_assert_eq!(s.iterations_pull, want.diffusion.stats.iterations);
            prop_assert_eq!(s.iterations_dense_out + u64::from(flushed), s.iterations_pull);
            for threads in [2usize, 4] {
                let plain = Engine::builder(&g).threads(threads).direction(pin).build();
                let packed = Engine::builder(&c).pool(Pool::new(threads)).direction(pin).build();
                // Twice per engine: the second run is on warm buffers.
                for got in [plain.run(&q), plain.run(&q), packed.run(&q), packed.run(&q)] {
                    prop_assert_eq!(&got.diffusion.p, &want.diffusion.p, "{:?} t={}", q.algo, threads);
                    prop_assert_eq!(&got.cluster, &want.cluster);
                    prop_assert_eq!(got.conductance, want.conductance);
                    prop_assert_eq!(&got.sweep.conductances, &want.sweep.conductances);
                    let (a, b) = (got.diffusion.stats, want.diffusion.stats);
                    prop_assert_eq!(
                        (a.iterations, a.pushes, a.pushed_volume, a.edges_traversed),
                        (b.iterations, b.pushes, b.pushed_volume, b.edges_traversed)
                    );
                    prop_assert!((a.residual_mass - b.residual_mass).abs() < 1e-12);
                }
                prop_assert_eq!(plain.lifecycle_stats().iterations_solo, 2 * s.iterations_solo);
                prop_assert_eq!(plain.lifecycle_stats().iterations_dense_out, 2 * s.iterations_dense_out);
            }
        }
    }
}
