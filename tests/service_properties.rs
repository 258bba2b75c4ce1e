//! Concurrency properties of the [`Service`]: any number of OS threads
//! hammering one service (shared pool, several graphs, mixed algorithms,
//! warm recycled workspaces) must be observationally
//! invisible — every result bit-identical to the same query on a cold
//! engine.
//!
//! Exactness tiers mirror `tests/engine_properties.rs`:
//!
//! * **shared pool of 1 thread** (the concurrency comes entirely from
//!   the callers) — every algorithm is fully deterministic, so every
//!   result is compared *bit-for-bit* against a cold 1-thread engine;
//! * **shared pool of >1 threads** — rand-HK-PR and the evolving-set
//!   process stay exactly reproducible (RNG-stream / integer-count
//!   determinism) and are still compared bit-for-bit, while the float
//!   diffusions are held to a tight `ℓ₁` tolerance.

use plgc::cluster as lgc;
use plgc::{Algorithm, BoundaryHook, Engine, Pool, Query, QueryBudget, Seed, Service};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

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

/// A two-tenant service: one power-law-ish graph, one locally-clustered
/// one, both deterministic from the strategy's seed.
fn build_service(threads: usize, g_seed: u64) -> Service {
    let (sbm, _) = plgc::graph::gen::sbm(&[30, 30, 30, 30], 0.3, 0.01, g_seed);
    Service::builder()
        .pool(Pool::shared(threads))
        .add_graph("sbm", sbm)
        .add_graph("local", plgc::graph::gen::rand_local(200, 4, g_seed))
        .build()
}

/// One client's schedule: `(graph idx, algorithm kind, seed vertex
/// tweak, param tweak)` per query.
fn schedules() -> impl Strategy<Value = Vec<Vec<(usize, usize, u32, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..2, 0usize..5, 0u32..60, 0u64..3), 2..6),
        2..5, // number of concurrent client threads
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline contract: N OS threads × mixed algorithms × 2 graphs
    /// through one shared-1-thread-pool Service, every result bitwise
    /// equal to a fresh cold 1-thread Engine run of the same query.
    #[test]
    fn concurrent_mixed_queries_are_bitwise_cold(
        clients in schedules(),
        g_seed in 0u64..500,
    ) {
        let svc = build_service(1, g_seed);
        let names = ["sbm", "local"];
        // Hammer the service concurrently, collecting (query, result).
        let answered: Vec<(usize, Query, lgc::ClusterResult)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter()
                    .map(|schedule| {
                        let svc = &svc;
                        scope.spawn(move || {
                            schedule
                                .iter()
                                .map(|&(gi, kind, vtweak, ptweak)| {
                                    let g = svc.graph(names[gi]).unwrap();
                                    let v = vtweak % g.num_vertices() as u32;
                                    let q = Query::new(
                                        Seed::single(v),
                                        make_algo(kind, ptweak),
                                    );
                                    let res = svc.engine(names[gi]).unwrap().run(&q);
                                    (gi, q, res)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
        // Every answer matches its cold twin bit-for-bit.
        for (gi, q, got) in answered {
            let g = svc.graph(names[gi]).unwrap();
            let engine = Engine::builder(g.as_ref()).threads(1).build();
            let want = engine.run(&q);
            prop_assert_eq!(&got.diffusion.p, &want.diffusion.p, "{:?}", q.algo);
            prop_assert_eq!(got.diffusion.stats, want.diffusion.stats);
            prop_assert_eq!(&got.cluster, &want.cluster);
            prop_assert_eq!(got.conductance, want.conductance);
            prop_assert_eq!(&got.sweep.conductances, &want.sweep.conductances);
        }
    }

    /// Same hammering over a multi-thread shared pool: the RNG-stream /
    /// integer-count algorithms stay bitwise; float diffusions hold a
    /// tight ℓ₁ bound (their push phase accumulates in scheduler order,
    /// so even two cold runs differ in ulps).
    #[test]
    fn concurrent_queries_over_parallel_pool(
        clients in schedules(),
        g_seed in 0u64..500,
    ) {
        let svc = build_service(2, g_seed);
        let names = ["sbm", "local"];
        let answered: Vec<(usize, Query, lgc::ClusterResult)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter()
                    .map(|schedule| {
                        let svc = &svc;
                        scope.spawn(move || {
                            schedule
                                .iter()
                                .map(|&(gi, kind, vtweak, ptweak)| {
                                    let g = svc.graph(names[gi]).unwrap();
                                    let v = vtweak % g.num_vertices() as u32;
                                    let q = Query::new(
                                        Seed::single(v),
                                        make_algo(kind, ptweak),
                                    );
                                    let res = svc.engine(names[gi]).unwrap().run(&q);
                                    (gi, q, res)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
        for (gi, q, got) in answered {
            let g = svc.graph(names[gi]).unwrap();
            let cold = lgc::find_cluster(&Pool::new(2), g.as_ref(), &q.seed, &q.algo);
            if exact_at_any_threads(&q.algo) {
                prop_assert_eq!(&got.diffusion.p, &cold.diffusion.p);
                prop_assert_eq!(&got.cluster, &cold.cluster);
                prop_assert_eq!(got.conductance, cold.conductance);
            } else {
                prop_assert!(l1_distance(&got.diffusion, &cold.diffusion) < 1e-9);
                prop_assert!((got.conductance - cold.conductance).abs() < 1e-9);
            }
        }
    }

    /// An HK-PR parameter schedule with repeats runs through one engine;
    /// every result, first use of a `(t, N)` or repeat, is bit-identical
    /// to a cold fresh-engine run.
    #[test]
    fn repeated_hkpr_params_through_one_engine_match_a_fresh_engine(
        specs in proptest::collection::vec((0usize..3, 0usize..3, 0u32..40), 4..12),
        g_seed in 0u64..500,
    ) {
        let g = plgc::graph::gen::rand_local(250, 4, g_seed);
        let engine = Engine::builder(&g).threads(1).build();
        let ts = [2.0, 4.5, 7.0];
        let levels = [6, 10, 14];
        for &(ti, li, v) in &specs {
            let algo = Algorithm::Hkpr(lgc::HkprParams {
                t: ts[ti],
                n_levels: levels[li],
                eps: 1e-5,
            });
            let q = Query::new(Seed::single(v % 250), algo);
            let warm = engine.run(&q);
            let cold = Engine::builder(&g).threads(1).build().run(&q);
            prop_assert_eq!(&warm.diffusion.p, &cold.diffusion.p);
            prop_assert_eq!(warm.diffusion.stats, cold.diffusion.stats);
            prop_assert_eq!(&warm.cluster, &cold.cluster);
            prop_assert_eq!(&warm.sweep.conductances, &cold.sweep.conductances);
        }
    }
}

/// The `i`-th query a boundary hook runs: PR-Nibble, HK-PR, Nibble and
/// rand-HK-PR in turn, each small enough that every step stays below
/// `FORK_MIN_WORK` — so it returns the one-thread bits at any width.
fn nested_query(i: usize, n: usize) -> Query {
    let algo = match i % 4 {
        0 => Algorithm::PrNibble(lgc::PrNibbleParams {
            alpha: 0.1,
            eps: 1e-3,
            ..Default::default()
        }),
        1 => Algorithm::Hkpr(lgc::HkprParams {
            t: 2.0,
            n_levels: 6,
            eps: 0.5,
        }),
        2 => Algorithm::Nibble(lgc::NibbleParams {
            t_max: 6,
            eps: 1e-4,
        }),
        _ => Algorithm::RandHkpr(lgc::RandHkprParams {
            walks: 500,
            max_len: 8,
            rng_seed: i as u64,
            ..Default::default()
        }),
    };
    Query::new(Seed::single((i * 37 % n) as u32), algo)
}

/// Runs `outer` on `svc`'s graph `"g"` twice through `try_run`: as is,
/// then with a budget hook that runs the next [`nested_query`] on the same
/// graph, to completion, at every tick — what `lgc-server` does to a bulk
/// query. Checks that the hook moved no bit of the outer result (`exact`),
/// or no more than the tiered rule allows; that it ran once per tick; that
/// every nested result is a direct run's; and that the lifecycle counters
/// balance across both levels.
fn check_hooked_query(svc: &Arc<Service>, outer: &Query, exact: bool) {
    let engine = svc.engine("g").unwrap();
    let plain = engine.try_run(outer).expect("the plain run completes");
    let nested = Arc::new(Mutex::new(Vec::new()));
    let hook = {
        let (svc, nested) = (Arc::clone(svc), Arc::clone(&nested));
        BoundaryHook::new(move || {
            let n = svc.graph("g").unwrap().num_vertices();
            let q = nested_query(nested.lock().unwrap().len(), n);
            let got = svc.engine("g").unwrap().try_run(&q);
            nested
                .lock()
                .unwrap()
                .push((q, got.expect("a nested query completes")));
        })
    };
    let hooked = engine
        .try_run(
            &outer
                .clone()
                .with_budget(QueryBudget::unlimited().with_hook(hook)),
        )
        .expect("the hooked run completes");
    let nested = std::mem::take(&mut *nested.lock().unwrap());

    if exact {
        assert_eq!(&hooked.diffusion.p, &plain.diffusion.p, "{:?}", outer.algo);
        assert_eq!(hooked.diffusion.stats, plain.diffusion.stats);
        assert_eq!(&hooked.cluster, &plain.cluster);
        assert_eq!(hooked.conductance, plain.conductance);
        assert_eq!(&hooked.sweep.conductances, &plain.sweep.conductances);
    } else {
        assert!(l1_distance(&hooked.diffusion, &plain.diffusion) < 1e-9);
        assert!((hooked.conductance - plain.conductance).abs() < 1e-9);
    }
    // One run per tick: one before each frontier iteration, one at the sweep.
    match outer.algo {
        Algorithm::RandHkpr(_) => assert!(nested.len() >= 2),
        _ => assert_eq!(nested.len() as u64, hooked.diffusion.stats.iterations + 1),
    }
    let g = svc.graph("g").unwrap();
    let direct = Engine::builder(g.as_ref()).threads(1).build();
    for (q, got) in &nested {
        let want = direct.run(q);
        assert_eq!(&got.diffusion.p, &want.diffusion.p, "nested {:?}", q.algo);
        assert_eq!(got.diffusion.stats, want.diffusion.stats);
        assert_eq!(&got.cluster, &want.cluster);
        assert_eq!(&got.sweep.conductances, &want.sweep.conductances);
    }
    let s = svc.lifecycle("g").unwrap();
    let tripped = s.cancelled + s.deadline_tripped + s.work_tripped;
    assert_eq!(s.admitted, 2 + nested.len() as u64);
    assert_eq!(s.admitted, s.completed + tripped);
    assert_eq!(s.in_flight, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// At one thread a hook that runs whole queries between the
    /// iterations of PR-Nibble, HK-PR, Nibble and rand-HK-PR leaves every
    /// bit of their results where it was.
    #[test]
    fn a_hook_running_queries_at_every_tick_moves_no_bit(
        n in 30usize..250,
        g_seed in 0u64..500,
        kind in 0usize..4,
        tweak in 0u64..3,
        v in 0u32..250,
    ) {
        let svc = Arc::new(
            Service::builder()
                .pool(Pool::shared(1))
                .add_graph("g", plgc::graph::gen::rand_local(n, 4, g_seed))
                .build(),
        );
        let outer = Query::new(Seed::single(v % n as u32), make_algo(kind, tweak));
        check_hooked_query(&svc, &outer, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same at two threads, on queries whose iterations fork: the
    /// nested queries run on the outer one's thread, between its forked
    /// loops. Tiered: rand-HK-PR bitwise, the float pushes within `ℓ₁`.
    #[test]
    fn a_hook_between_forked_iterations_keeps_the_tiered_contract(
        n in 12_000usize..20_000,
        g_seed in 0u64..500,
    ) {
        let g = plgc::graph::gen::rand_local(n, 5, g_seed);
        let seed = Seed::single(plgc::graph::largest_component(&g)[0]);
        let outers = [
            Algorithm::Nibble(lgc::NibbleParams { t_max: 12, eps: 1e-7 }),
            Algorithm::PrNibble(lgc::PrNibbleParams { alpha: 0.1, eps: 1e-6, ..Default::default() }),
            Algorithm::Hkpr(lgc::HkprParams { t: 5.0, n_levels: 10, eps: 1e-6 }),
            Algorithm::RandHkpr(lgc::RandHkprParams { walks: 40_000, ..Default::default() }),
        ];
        for algo in outers {
            let svc = Arc::new(
                Service::builder()
                    .pool(Pool::shared(2))
                    .add_graph("g", g.clone())
                    .build(),
            );
            let outer = Query::new(seed.clone(), algo);
            check_hooked_query(&svc, &outer, exact_at_any_threads(&outer.algo));
            prop_assert!(svc.pool().stats().loops_forked > 0, "{:?} never forked", outer.algo);
        }
    }
}

/// A served tenant's workspace byte budget is derived from its graph's
/// resident bytes (never below 32 MiB), so governed queries over small
/// tenants — every algorithm, twice over a warm pool — are never
/// refused for scratch, and each answer is bit-identical to a cold
/// engine's.
#[test]
fn served_tenants_run_under_the_derived_workspace_budget() {
    let svc = build_service(1, 5);
    for round in 0..2u64 {
        for name in ["sbm", "local"] {
            let engine = svc.engine(name).unwrap();
            let cold = Engine::builder(svc.graph(name).unwrap().as_ref())
                .threads(1)
                .build();
            for kind in 0..5 {
                let q = Query::new(Seed::single(11 * kind as u32), make_algo(kind, round));
                let got = engine.try_run(&q).expect("derived budget admits");
                let want = cold.run(&q);
                assert_eq!(got.diffusion.p, want.diffusion.p);
                assert_eq!(got.cluster, want.cluster);
            }
        }
    }
    for name in ["sbm", "local"] {
        let stats = svc.lifecycle(name).unwrap();
        assert_eq!(stats.shed_workspace, 0);
        assert_eq!(stats.admitted, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.in_flight, 0);
    }
}

/// Service survives being shared the boring way too: behind an `Arc`,
/// queried from detached threads, with warm workspaces accumulating.
#[test]
fn arc_shared_service_across_spawned_threads() {
    let svc = Arc::new(build_service(1, 42));
    let handles: Vec<_> = (0..4u32)
        .map(|i| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let name = if i % 2 == 0 { "sbm" } else { "local" };
                let engine = svc.engine(name).unwrap();
                let q = Query::new(
                    Seed::single(i * 13 % 120),
                    Algorithm::PrNibble(lgc::PrNibbleParams::default()),
                );
                let got = engine.run(&q);
                let cold = Engine::builder(svc.graph(name).unwrap().as_ref())
                    .threads(1)
                    .build()
                    .run(&q);
                assert_eq!(got.diffusion.p, cold.diffusion.p);
                assert_eq!(got.cluster, cold.cluster);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // A follow-up query on a warm service still matches cold.
    for n in ["sbm", "local"] {
        let q = Query::new(
            Seed::single(0),
            Algorithm::Nibble(lgc::NibbleParams::default()),
        );
        let got = svc.engine(n).unwrap().run(&q);
        let cold = Engine::builder(svc.graph(n).unwrap().as_ref())
            .threads(1)
            .build()
            .run(&q);
        assert_eq!(got.diffusion.p, cold.diffusion.p);
    }
}

/// The shared pool's width is a budget of threads, not a fleet per
/// caller: while a second caller is inside a query for the whole run, a
/// 2-wide pool has no thread to lend, so no loop of any of the five
/// algorithms forks and each takes the one-thread form of every
/// primitive — bit-identical to a 1-thread engine, on both backends.
/// Once the second caller leaves, a lone query forks again.
#[test]
fn beside_a_second_caller_a_query_is_the_one_thread_query() {
    let g = plgc::graph::gen::rand_local(30_000, 5, 11);
    let packed = plgc::CsrCompressed::from_graph(&g);
    let svc = Service::builder()
        .pool(Pool::shared(2))
        .add_graph("plain", g.clone())
        .add_graph("packed", packed)
        .build();
    let queries: Vec<Query> = [
        Algorithm::Nibble(lgc::NibbleParams {
            t_max: 30,
            eps: 1e-8,
        }),
        Algorithm::PrNibble(lgc::PrNibbleParams {
            alpha: 0.01,
            eps: 1e-7,
            ..Default::default()
        }),
        Algorithm::Hkpr(lgc::HkprParams {
            t: 10.0,
            n_levels: 20,
            eps: 1e-7,
        }),
        Algorithm::RandHkpr(lgc::RandHkprParams {
            walks: 40_000,
            ..Default::default()
        }),
        Algorithm::Evolving(lgc::EvolvingParams {
            max_steps: 60,
            rng_seed: 3,
            ..Default::default()
        }),
    ]
    .into_iter()
    .map(|algo| Query::new(Seed::single(17), algo))
    .collect();
    let one = Engine::builder(&g).threads(1).build();
    let pool = svc.pool();

    let second = pool.enter();
    let beside: Vec<lgc::ClusterResult> = std::thread::scope(|scope| {
        let run_all = || {
            let both = ["plain", "packed"].map(|name| svc.engine(name).unwrap());
            let runs = queries.iter().flat_map(|q| both.iter().map(|e| e.run(q)));
            runs.collect()
        };
        scope.spawn(run_all).join().unwrap()
    });
    let stats = pool.stats();
    assert_eq!(stats.loops_forked, 0, "{stats:?}");
    assert!(stats.loops_inline_no_spare > 0, "{stats:?}");
    for (got, q) in beside.chunks(2).zip(&queries) {
        let want = one.run(q);
        for got in got {
            assert_eq!(got.diffusion.p, want.diffusion.p, "{:?}", q.algo);
            assert_eq!(got.diffusion.stats, want.diffusion.stats, "{:?}", q.algo);
            assert_eq!(got.sweep.conductances, want.sweep.conductances);
            assert_eq!(got.cluster, want.cluster);
        }
    }

    drop(second);
    svc.engine("plain").unwrap().run(&queries[1]);
    let alone = pool.stats();
    assert!(alone.loops_forked > 0, "{alone:?}");
    assert_eq!(alone.loops_inline(), stats.loops_inline(), "{alone:?}");
    assert_eq!(alone.callers, 0);
}
