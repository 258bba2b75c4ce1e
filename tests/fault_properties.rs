//! Query-lifecycle fault harness: budgets, cancellation, deadlines, and
//! deterministic trips at arbitrary checkpoint ticks (a budget's
//! [`plgc::FaultPlan`]) — across all five algorithms, both CSR backends,
//! and 1–4 threads.
//!
//! The contracts under test:
//!
//! * **No panics.** A tripped query returns a typed
//!   [`plgc::QueryError`] whose variant matches the trip cause, carrying
//!   a [`plgc::PartialResult`] of only-completed work.
//! * **Full pool recovery.** The workspace checkout a tripped query used
//!   is recycled like any other: the engine's warm count grows, and the
//!   next query checks it out normally.
//! * **Post-fault bitwise determinism.** A warm query issued right after
//!   a trip is identical to the same query on a cold fresh engine —
//!   bit-for-bit at one thread (and for the integer/RNG-deterministic
//!   algorithms at any thread count), within a tight `ℓ₁` tolerance for
//!   the float diffusions above one thread.
//! * **Work-budget trips are deterministic**: bit-identical across the
//!   plain and byte-compressed backends, because they fire on the
//!   deterministic work counters.
//!
//! `FAULT_PROPTEST_CASES` elevates the per-property case count (CI runs
//! the suite with more cases than the local default).

use plgc::cluster as lgc;
use plgc::{
    Algorithm, CancelToken, CsrCompressed, Engine, Query, QueryBudget, QueryError, Seed, Trip,
    Tripped,
};
use proptest::prelude::*;
use std::time::Duration;

/// Per-property case count: `FAULT_PROPTEST_CASES` or the local default.
fn cases(default: u32) -> u32 {
    std::env::var("FAULT_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

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

/// Post-fault recovery check: the engine that just served a tripped
/// query must answer `q` exactly like a cold fresh engine at the same
/// thread count.
fn assert_recovered<B: plgc::CsrBackend>(
    engine: &Engine<'_, B>,
    g: &B,
    q: &Query,
    threads: usize,
    ctx: &str,
) {
    let warm = engine.try_run(q).unwrap_or_else(|e| {
        panic!("{ctx}: unbudgeted query failed after recovery: {e}");
    });
    let cold = Engine::builder(g).threads(threads).build().run(q);
    if threads == 1 || exact_at_any_threads(&q.algo) {
        assert_eq!(warm.diffusion.p, cold.diffusion.p, "{ctx}: bitwise");
        assert_eq!(warm.diffusion.stats, cold.diffusion.stats, "{ctx}");
        assert_eq!(warm.cluster, cold.cluster, "{ctx}");
        assert_eq!(warm.conductance, cold.conductance, "{ctx}");
    } else {
        assert!(
            l1_distance(&warm.diffusion, &cold.diffusion) < 1e-9,
            "{ctx}: ℓ₁ drift above tolerance"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// A pre-cancelled token trips every algorithm at its first
    /// checkpoint: typed error, zero-iteration partial, and the engine
    /// (with its recycled workspace) then answers the same query
    /// bit-identically to a cold one.
    #[test]
    fn pre_cancelled_token_trips_first_tick_and_recovers(
        (g, seeds) in small_graph(),
        kind in 0usize..5,
        tweak in 0u64..3,
        threads in 1usize..=4,
    ) {
        let engine = Engine::builder(&g).threads(threads).build();
        let token = CancelToken::new();
        token.cancel();
        let q = Query::new(Seed::single(seeds[0]), make_algo(kind, tweak));
        let cancelled = q
            .clone()
            .with_budget(QueryBudget::unlimited().with_cancel(token));
        match engine.try_run(&cancelled) {
            Err(QueryError::Tripped(Tripped { trip: Trip::Cancelled, partial })) => {
                prop_assert_eq!(partial.stats.iterations, 0, "no iteration completed");
            }
            other => prop_assert!(false, "expected Cancelled, got {:?}", other.err()),
        }
        prop_assert!(engine.warm_workspaces() >= 1, "checkout recycled");
        assert_recovered(&engine, &g, &q, threads, "post-cancel");
        let stats = engine.lifecycle_stats();
        prop_assert_eq!(stats.cancelled, 1);
        prop_assert_eq!(stats.in_flight, 0);
    }

    /// An already-expired deadline trips at the first checkpoint, and a
    /// mid-flight cancellation from another OS thread stops the query
    /// without corrupting the pool.
    #[test]
    fn zero_deadline_trips_and_recovers(
        (g, seeds) in small_graph(),
        kind in 0usize..5,
        threads in 1usize..=2,
    ) {
        let engine = Engine::builder(&g).threads(threads).build();
        let q = Query::new(Seed::single(seeds[0]), make_algo(kind, 1));
        let expired = q
            .clone()
            .with_budget(QueryBudget::unlimited().with_deadline(Duration::ZERO));
        match engine.try_run(&expired) {
            Err(QueryError::Tripped(Tripped { trip: Trip::Deadline, partial })) => {
                prop_assert_eq!(partial.stats.iterations, 0);
            }
            other => prop_assert!(false, "expected a deadline trip, got {:?}", other.err()),
        }
        assert_recovered(&engine, &g, &q, threads, "post-deadline");
    }

    /// Work-budget trips fire on the deterministic counters, so the
    /// outcome — trip-or-complete, the partial vector, and its stats —
    /// is bit-identical across the plain and byte-compressed backends.
    #[test]
    fn work_budget_trips_bitwise_identical_across_backends(
        (g, seeds) in small_graph(),
        kind in 0usize..5,
        tweak in 0u64..3,
        cap in 0u64..2000,
    ) {
        let compact = CsrCompressed::from_graph(&g);
        let plain = Engine::builder(&g).threads(1).build();
        let packed = Engine::builder(&compact).threads(1).build();
        let q = Query::new(Seed::single(seeds[0]), make_algo(kind, tweak))
            .with_budget(QueryBudget::unlimited().with_max_edges_traversed(cap));
        let a = plain.try_run(&q);
        let b = packed.try_run(&q);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.diffusion.p, y.diffusion.p);
                prop_assert_eq!(x.diffusion.stats, y.diffusion.stats);
                prop_assert_eq!(x.cluster, y.cluster);
            }
            (
                Err(QueryError::Tripped(Tripped { trip: Trip::WorkBudget, partial: x })),
                Err(QueryError::Tripped(Tripped { trip: Trip::WorkBudget, partial: y })),
            ) => {
                prop_assert_eq!(x.stats, y.stats, "trip at the same boundary");
                let (dx, dy) = (x.diffusion.as_ref().unwrap(), y.diffusion.as_ref().unwrap());
                prop_assert_eq!(&dx.p, &dy.p, "identical partial vectors");
                let (sx, sy) = (x.sweep.as_ref().unwrap(), y.sweep.as_ref().unwrap());
                prop_assert_eq!(&sx.conductances, &sy.conductances, "identical best-so-far cut");
            }
            (a, b) => prop_assert!(
                false,
                "backends disagreed on the trip: plain={:?} compressed={:?}",
                a.err(),
                b.err()
            ),
        }
        // Both engines keep answering unbudgeted queries bitwise-cold.
        let q = Query::new(Seed::single(seeds[0]), make_algo(kind, tweak));
        assert_recovered(&plain, &g, &q, 1, "post-work-trip plain");
        assert_recovered(&packed, &compact, &q, 1, "post-work-trip compressed");
    }

    /// Poisoned queries (bad seed, starved budget) issued through
    /// `try_run` among healthy ones fail alone with typed errors, while
    /// the healthy answers on the same engine match `run_batch` over
    /// 1–4 threads bit-for-bit (batch items run on one-thread sub-pools).
    #[test]
    fn batch_isolates_poisoned_queries(
        (g, seeds) in small_graph(),
        threads in 1usize..=4,
        tweak in 0u64..3,
    ) {
        let engine = Engine::builder(&g).threads(1).build();
        let batch = Engine::builder(&g).threads(threads).build();
        let good: Vec<Query> = (0..4)
            .map(|i| Query::new(Seed::single(seeds[i % seeds.len()]), make_algo(i, tweak)))
            .collect();
        let mut queries = good.clone();
        let bad_seed = g.num_vertices() as u32 + 7;
        queries.insert(1, Query::new(Seed::single(bad_seed), make_algo(0, 0)));
        let starved = CancelToken::new();
        starved.cancel();
        queries.insert(
            3,
            Query::new(Seed::single(seeds[0]), make_algo(4, tweak))
                .with_budget(QueryBudget::unlimited().with_cancel(starved)),
        );
        let out: Vec<_> = queries.iter().map(|q| engine.try_run(q)).collect();
        match &out[1] {
            Err(QueryError::InvalidSeed(e)) => {
                prop_assert_eq!(e.vertex, bad_seed);
                prop_assert_eq!(e.num_vertices, g.num_vertices());
            }
            other => prop_assert!(false, "expected InvalidSeed, got {:?}", other),
        }
        prop_assert!(matches!(out[3], Err(QueryError::Tripped(Tripped { trip: Trip::Cancelled, .. }))));
        let want = batch.run_batch(&good);
        prop_assert_eq!(want.len(), good.len());
        for (got, want) in out
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 1 && i != 3)
            .map(|(_, r)| r)
            .zip(&want)
        {
            let got = got.as_ref().expect("healthy query completed");
            prop_assert_eq!(&got.diffusion.p, &want.diffusion.p);
            prop_assert_eq!(&got.cluster, &want.cluster);
        }
    }
}

/// Seed and parameter validation happen at admission: no work, no
/// workspace, typed error — on single queries and NCP-style multi-vertex
/// seeds alike — and each rejection is booked in `invalid`.
#[test]
fn invalid_seed_rejected_at_admission() {
    let g = plgc::graph::gen::cycle(16);
    let engine = Engine::builder(&g).threads(1).build();
    let q = Query::new(
        Seed::set(vec![3, 99, 5]),
        Algorithm::Nibble(lgc::NibbleParams::default()),
    );
    match engine.try_run(&q) {
        Err(QueryError::InvalidSeed(e)) => {
            assert_eq!(e.vertex, 99);
            assert_eq!(e.num_vertices, 16);
            assert!(e.to_string().contains("99"));
        }
        other => panic!("expected InvalidSeed, got {other:?}"),
    }
    let nan_eps = Query::new(
        Seed::single(3),
        Algorithm::Nibble(lgc::NibbleParams {
            eps: f64::NAN,
            ..Default::default()
        }),
    );
    match engine.try_run(&nan_eps) {
        Err(QueryError::InvalidParams(e)) => assert_eq!(e.param, "eps"),
        other => panic!("expected InvalidParams, got {other:?}"),
    }
    assert_eq!(engine.warm_workspaces(), 0, "no workspace was checked out");
    let stats = engine.lifecycle_stats();
    assert_eq!(stats.invalid, 2);
    assert_eq!(stats.admitted, 0);
}

/// The engine has no concurrency gate of its own (the server's
/// connection cap and class queues are the only admission layer): more
/// concurrent `try_run` callers than pool threads are all admitted and
/// completed, none shed, each answer bit-identical to a cold engine's.
#[test]
fn concurrent_callers_are_never_shed_by_the_engine() {
    let g = plgc::graph::gen::rand_local(200, 4, 3);
    let engine = Engine::builder(&g).threads(1).build();
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let (engine, g) = (&engine, &g);
            s.spawn(move || {
                for i in 0..5u32 {
                    let q = Query::new(
                        Seed::single(17 * t + 5 * i),
                        make_algo(((t + i) % 5) as usize, u64::from(i % 3)),
                    );
                    let got = engine.try_run(&q).expect("the engine sheds no caller");
                    let cold = Engine::builder(g).threads(1).build().run(&q);
                    assert_eq!(got.diffusion.p, cold.diffusion.p);
                    assert_eq!(got.cluster, cold.cluster);
                }
            });
        }
    });
    let stats = engine.lifecycle_stats();
    assert_eq!(stats.admitted, 20);
    assert_eq!(stats.completed, 20);
    assert_eq!(stats.shed(), 0);
    assert_eq!(stats.shed_rate(), 0.0);
    assert_eq!(stats.invalid, 0);
    assert_eq!(stats.in_flight, 0);
}

mod fault_injected {
    use super::*;
    use plgc::{BoundaryHook, FaultPlan, Pool};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// The error variant a [`Trip`] kind must surface as.
    fn matches_kind(err: &QueryError, kind: Trip) -> bool {
        err.trip() == Some(kind)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(24)))]

        /// The core fault sweep: trip each algorithm at a random
        /// checkpoint tick, on either backend, at 1–4 threads. No
        /// panics, the right error variant, only-completed-work stats,
        /// full pool recovery, and post-fault bitwise determinism.
        #[test]
        fn random_tick_faults_never_corrupt_the_engine(
            (g, seeds) in small_graph(),
            kind in 0usize..5,
            tweak in 0u64..3,
            after_ticks in 0u64..20,
            trip_kind in 0usize..3,
            threads in 1usize..=4,
            compressed in 0usize..2,
        ) {
            let trip = [Trip::Deadline, Trip::WorkBudget, Trip::Cancelled][trip_kind];
            let plan = FaultPlan { after_ticks, kind: trip };
            let q = Query::new(Seed::single(seeds[0]), make_algo(kind, tweak));
            let faulty = q
                .clone()
                .with_budget(QueryBudget::unlimited().with_fault(plan));
            if compressed == 1 {
                let packed = CsrCompressed::from_graph(&g);
                let engine = Engine::builder(&packed).threads(threads).build();
                check_fault(&engine, &packed, &q, &faulty, trip, threads);
            } else {
                let engine = Engine::builder(&g).threads(threads).build();
                check_fault(&engine, &g, &q, &faulty, trip, threads);
            }
        }

        /// Injected faults through the *service* front door: a
        /// multi-tenant pool survives interleaved faulty and healthy
        /// queries, with per-graph counters attributing every trip.
        #[test]
        fn service_survives_interleaved_faults(
            (g, seeds) in small_graph(),
            specs in proptest::collection::vec((0usize..5, 0u64..3, 0u64..12, 0usize..3), 3..8),
        ) {
            let svc = plgc::Service::builder()
                .pool(Pool::shared(2))
                .add_graph("g", g.clone())
                .build();
            let engine = svc.engine("g").unwrap();
            let mut trips = 0u64;
            for &(kind, tweak, after_ticks, trip_kind) in &specs {
                let trip = [Trip::Deadline, Trip::WorkBudget, Trip::Cancelled][trip_kind];
                let q = Query::new(Seed::single(seeds[0]), make_algo(kind, tweak));
                let faulty = q.clone().with_budget(
                    QueryBudget::unlimited()
                        .with_fault(FaultPlan { after_ticks, kind: trip }),
                );
                if let Err(e) = engine.try_run(&faulty) {
                    prop_assert!(matches_kind(&e, trip), "wrong variant: {:?}", e);
                    trips += 1;
                }
                // A healthy query right after every fault.
                prop_assert!(engine.try_run(&q).is_ok());
            }
            let stats = svc.lifecycle("g").unwrap();
            prop_assert_eq!(
                stats.cancelled + stats.deadline_tripped + stats.work_tripped,
                trips
            );
            prop_assert_eq!(stats.in_flight, 0);
        }
    }

    /// A trip at an iteration boundary between two pulls finds the frontier
    /// dense-native: a bitset and two tallies, no id list to wipe it by. It
    /// goes back to the workspace wiped by words, and the next query on
    /// that warm workspace is bit for bit a cold engine's — at two threads
    /// as well, the traversal being pinned to pulls. (In a debug build
    /// `Workspace::put_frontier` asserts the wipe itself.)
    #[test]
    fn a_trip_between_two_pulls_leaves_a_clean_workspace() {
        let g = plgc::graph::gen::sbm(&[300; 4], 0.3, 0.01, 5).0;
        let pull = plgc::DirectionParams::pull_only();
        for algo in pulling_algos() {
            let q = Query::new(Seed::single(7), algo);
            for threads in [1, 2] {
                let fresh = || Engine::builder(&g).threads(threads).direction(pull).build();
                let cold = fresh().run(&q);
                for after_ticks in [2, 3, 6] {
                    let ctx = format!("{:?} T={threads} after {after_ticks}", q.algo);
                    let plan = FaultPlan {
                        after_ticks,
                        kind: Trip::WorkBudget,
                    };
                    let faulty = q
                        .clone()
                        .with_budget(QueryBudget::unlimited().with_fault(plan));
                    let engine = fresh();
                    let err = engine
                        .try_run(&faulty)
                        .expect_err("the plan outlives no query");
                    assert!(matches_kind(&err, Trip::WorkBudget), "{ctx}: {err:?}");
                    let ran = err.partial().expect("a mid-run trip").stats.iterations;
                    let s = engine.lifecycle_stats();
                    assert!(ran >= 2 && ran < cold.diffusion.stats.iterations, "{ctx}");
                    assert_eq!(
                        s.iterations_dense_out, ran,
                        "{ctx}: tripped on a dense frontier"
                    );
                    assert_eq!(engine.warm_workspaces(), 1, "{ctx}: checkout recycled");

                    let warm = engine.run(&q);
                    assert_eq!(warm.diffusion.p, cold.diffusion.p, "{ctx}");
                    assert_eq!(warm.diffusion.stats, cold.diffusion.stats, "{ctx}");
                    assert_eq!(warm.cluster, cold.cluster, "{ctx}");
                    assert_eq!(warm.conductance, cold.conductance, "{ctx}");
                }
            }
        }
    }

    /// A trip at the boundary right after a push finds the push's scratch
    /// delivered and all-zero, and the workspace goes back clean (in a debug
    /// build `WorkspacePool::restore` asserts the scratch itself, after the
    /// tripped query and after the warm one). The traversal is pinned to
    /// pushes. At one thread the next query on the warm workspace is bit
    /// for bit a cold engine's. At two threads the wider pushes fork, whose
    /// atomic adds are not bitwise, so there the warm query is only asked
    /// to run past the tripped boundary.
    #[test]
    fn a_trip_right_after_a_push_leaves_a_clean_workspace() {
        let g = plgc::graph::gen::sbm(&[300; 4], 0.3, 0.01, 5).0;
        let push = plgc::DirectionParams::push_only();
        for algo in pulling_algos() {
            let q = Query::new(Seed::single(7), algo);
            for threads in [1, 2] {
                let fresh = || Engine::builder(&g).threads(threads).direction(push).build();
                let cold = fresh().run(&q);
                for after_ticks in [1, 2, 5] {
                    let ctx = format!("{:?} T={threads} after {after_ticks}", q.algo);
                    let plan = FaultPlan {
                        after_ticks,
                        kind: Trip::WorkBudget,
                    };
                    let faulty = q
                        .clone()
                        .with_budget(QueryBudget::unlimited().with_fault(plan));
                    let engine = fresh();
                    let err = engine
                        .try_run(&faulty)
                        .expect_err("the plan outlives no query");
                    assert!(matches_kind(&err, Trip::WorkBudget), "{ctx}: {err:?}");
                    let ran = err.partial().expect("a mid-run trip").stats.iterations;
                    let s = engine.lifecycle_stats();
                    assert!(ran >= 1 && ran < cold.diffusion.stats.iterations, "{ctx}");
                    assert_eq!(s.iterations_push, ran, "{ctx}: every iteration pushed");
                    assert_eq!(engine.warm_workspaces(), 1, "{ctx}: checkout recycled");

                    let warm = engine.run(&q);
                    assert!(warm.diffusion.stats.iterations > ran, "{ctx}");
                    if threads == 1 {
                        assert_eq!(warm.cluster, cold.cluster, "{ctx}");
                        assert_eq!(warm.diffusion.p, cold.diffusion.p, "{ctx}");
                        assert_eq!(warm.diffusion.stats, cold.diffusion.stats, "{ctx}");
                        assert_eq!(warm.conductance, cold.conductance, "{ctx}");
                    }
                }
            }
        }
    }

    /// PR-Nibble, HK-PR and Nibble sized to run many pulls on
    /// `sbm(&[300; 4], 0.3, 0.01, 5)`.
    fn pulling_algos() -> [Algorithm; 3] {
        [
            Algorithm::PrNibble(lgc::PrNibbleParams {
                alpha: 0.01,
                eps: 1e-7,
                ..Default::default()
            }),
            Algorithm::Hkpr(lgc::HkprParams {
                t: 10.0,
                n_levels: 20,
                eps: 1e-6,
            }),
            Algorithm::Nibble(lgc::NibbleParams {
                t_max: 14,
                eps: 1e-8,
            }),
        ]
    }

    /// Two trips stopped the same query at the same boundary: the same
    /// trip, the same counters, the same partial vector and best-so-far cut.
    fn assert_same_trip(got: &QueryError, want: &QueryError, ctx: &str) {
        assert_eq!(got.trip(), want.trip(), "{ctx}");
        let (got, want) = (got.partial().unwrap(), want.partial().unwrap());
        assert_eq!(got.stats, want.stats, "{ctx}");
        let p = |r: &plgc::PartialResult| r.diffusion.as_ref().map(|d| d.p.clone());
        assert_eq!(p(got), p(want), "{ctx}");
        let sweep = |r: &plgc::PartialResult| r.sweep.as_ref().map(|s| s.conductances.clone());
        assert_eq!(sweep(got), sweep(want), "{ctx}");
        assert_eq!(got.cluster(), want.cluster(), "{ctx}");
    }

    /// A boundary hook that cancels its own query's token: the tick that
    /// ran it sees the cancellation (the hook runs before the trip tests),
    /// so the query stops at that boundary — exactly where a `Cancelled`
    /// fault plan at the same tick stops it, partial and all. Its workspace
    /// goes back clean: the next warm query is a cold engine's bit for bit,
    /// at two threads as well, the traversal being pinned to pulls.
    #[test]
    fn a_hook_cancelling_its_query_trips_it_at_that_boundary() {
        let g = plgc::graph::gen::sbm(&[300; 4], 0.3, 0.01, 5).0;
        let pull = plgc::DirectionParams::pull_only();
        for algo in pulling_algos() {
            let q = Query::new(Seed::single(7), algo);
            for threads in [1, 2] {
                let fresh = || Engine::builder(&g).threads(threads).direction(pull).build();
                let cold = fresh().run(&q);
                for at_tick in [0, 2, 6] {
                    let ctx = format!("{:?} T={threads} at tick {at_tick}", q.algo);
                    let plan = FaultPlan {
                        after_ticks: at_tick,
                        kind: Trip::Cancelled,
                    };
                    let planned = fresh()
                        .try_run(
                            &q.clone()
                                .with_budget(QueryBudget::unlimited().with_fault(plan)),
                        )
                        .expect_err("the plan outlives no query");

                    let token = CancelToken::new();
                    let ticks = Arc::new(AtomicU64::new(0));
                    let hook = {
                        let (token, ticks) = (token.clone(), Arc::clone(&ticks));
                        BoundaryHook::new(move || {
                            if ticks.fetch_add(1, Ordering::Relaxed) == at_tick {
                                token.cancel();
                            }
                        })
                    };
                    let budget = QueryBudget::unlimited().with_cancel(token).with_hook(hook);
                    let engine = fresh();
                    let err = engine
                        .try_run(&q.clone().with_budget(budget))
                        .expect_err("cancelled by its own hook");
                    assert!(
                        matches!(
                            err,
                            QueryError::Tripped(Tripped {
                                trip: Trip::Cancelled,
                                ..
                            })
                        ),
                        "{ctx}: {err:?}"
                    );
                    assert_eq!(ticks.load(Ordering::Relaxed), at_tick + 1, "{ctx}");
                    assert_same_trip(&err, &planned, &ctx);
                    assert_eq!(engine.warm_workspaces(), 1, "{ctx}: checkout recycled");

                    let warm = engine.run(&q);
                    assert_eq!(warm.diffusion.p, cold.diffusion.p, "{ctx}");
                    assert_eq!(warm.diffusion.stats, cold.diffusion.stats, "{ctx}");
                    assert_eq!(warm.cluster, cold.cluster, "{ctx}");
                    assert_eq!(warm.conductance, cold.conductance, "{ctx}");
                }
            }
        }
    }

    /// Running the hook consumes no fault-plan tick: with a hook that runs
    /// a whole query (under a checkpoint of its own) at every tick, a plan
    /// trips the same iteration, with the same partial, as without one —
    /// and the hook ran at that tick too.
    #[test]
    fn a_hook_consumes_no_fault_plan_ticks() {
        let g = plgc::graph::gen::sbm(&[300; 4], 0.3, 0.01, 5).0;
        let pull = plgc::DirectionParams::pull_only();
        let nested = Arc::new(
            plgc::Service::builder()
                .pool(Pool::shared(1))
                .add_graph("n", plgc::graph::gen::rand_local(200, 4, 3))
                .build(),
        );
        for algo in pulling_algos() {
            let q = Query::new(Seed::single(7), algo);
            for threads in [1, 2] {
                let fresh = || Engine::builder(&g).threads(threads).direction(pull).build();
                for after_ticks in [0, 3, 6] {
                    let ctx = format!("{:?} T={threads} after {after_ticks}", q.algo);
                    let plan = FaultPlan {
                        after_ticks,
                        kind: Trip::WorkBudget,
                    };
                    let faulty = QueryBudget::unlimited().with_fault(plan);
                    let plain = fresh()
                        .try_run(&q.clone().with_budget(faulty.clone()))
                        .expect_err("the plan outlives no query");

                    let runs = Arc::new(AtomicU64::new(0));
                    let hook = {
                        let (nested, runs) = (Arc::clone(&nested), Arc::clone(&runs));
                        BoundaryHook::new(move || {
                            let inner = Query::new(Seed::single(5), make_algo(1, 0));
                            let engine = nested.engine("n").unwrap();
                            engine.try_run(&inner).expect("the nested query completes");
                            runs.fetch_add(1, Ordering::Relaxed);
                        })
                    };
                    let hooked = fresh()
                        .try_run(&q.clone().with_budget(faulty.with_hook(hook)))
                        .expect_err("the plan outlives no query");
                    assert_same_trip(&hooked, &plain, &ctx);
                    assert_eq!(runs.load(Ordering::Relaxed), after_ticks + 1, "{ctx}");
                }
            }
        }
    }

    /// One fault sweep instance; factored out so both backends share it.
    fn check_fault<B: plgc::CsrBackend>(
        engine: &Engine<'_, B>,
        g: &B,
        q: &Query,
        faulty: &Query,
        trip: Trip,
        threads: usize,
    ) {
        match engine.try_run(faulty) {
            Ok(_) => {
                // The plan outlived the query: every checkpoint passed.
                // The instrumentation must not have perturbed the run.
            }
            Err(e) => {
                assert!(matches_kind(&e, trip), "wrong variant for {trip:?}: {e:?}");
                let partial = e.partial().expect("mid-run trips carry partials");
                if let Some(d) = &partial.diffusion {
                    assert_eq!(d.stats.iterations, partial.stats.iterations);
                }
            }
        }
        assert!(engine.warm_workspaces() >= 1, "checkout recycled");
        assert_recovered(engine, g, q, threads, "post-fault");
        assert_eq!(engine.lifecycle_stats().in_flight, 0);
    }
}
