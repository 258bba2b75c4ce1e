//! Loopback integration: a real `TcpListener` on 127.0.0.1, concurrent
//! client threads across mixed tenants, and the core contract — every
//! response is **bitwise equal** to a direct engine run of the same
//! query. Also exercises the typed-error paths: malformed frames,
//! unknown tenants, deadline trips with partial results, and
//! connection accounting (no leaks after clients hang up, no refusal of
//! a full window refilled on reply), and an interactive query overtaking
//! running bulk queries at their iteration boundaries.
//!
//! The service runs on a 1-thread pool, where all five algorithms are
//! fully deterministic, so bitwise comparison is exact by contract.

use lgc_core::{
    find_cluster, Algorithm, EvolvingParams, HkprParams, NibbleParams, PrNibbleParams, Query,
    QueryBudget, RandHkprParams, Seed, Service, Trip, Tripped,
};
use lgc_graph::{gen, Graph};
use lgc_parallel::Pool;
use lgc_server::client::{Client, Response};
use lgc_server::{Priority, SchedulerMode, Server, ServerConfig, WireError, RETRY_AFTER_FLOOR};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("cliques", gen::two_cliques_bridge(12)),
        ("local", gen::rand_local(300, 5, 3)),
        ("mesh", gen::grid_3d(6, 6, 3)),
    ]
}

fn one_thread_service() -> Service {
    let mut svc = Service::builder().pool(Pool::shared(1)).build();
    for (name, g) in graphs() {
        svc.add_graph(name, g);
    }
    svc
}

fn algos() -> Vec<Algorithm> {
    vec![
        Algorithm::Nibble(NibbleParams {
            t_max: 8,
            eps: 1e-6,
        }),
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.05,
            eps: 1e-6,
            ..Default::default()
        }),
        Algorithm::Hkpr(HkprParams {
            t: 3.0,
            n_levels: 8,
            eps: 1e-5,
        }),
        Algorithm::RandHkpr(RandHkprParams {
            walks: 2_000,
            max_len: 8,
            rng_seed: 42,
            ..Default::default()
        }),
        Algorithm::Evolving(EvolvingParams {
            max_steps: 20,
            rng_seed: 7,
            ..Default::default()
        }),
    ]
}

#[test]
fn concurrent_clients_get_bitwise_equal_results() {
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Direct reference runs on an identical 1-thread pool.
    let reference: Vec<(&str, Graph)> = graphs();

    let n_clients = 4;
    let handles: Vec<_> = (0..n_clients)
        .map(|c| {
            let reference: Vec<(&str, Graph)> =
                reference.iter().map(|(n, g)| (*n, g.clone())).collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let pool = Pool::new(1);
                for (i, algo) in algos().into_iter().enumerate() {
                    // Each client hits a different tenant/seed mix.
                    let (tenant, graph) = &reference[(c + i) % reference.len()];
                    let seed = Seed::single(((c * 31 + i * 7) % graph.num_vertices()) as u32);
                    let query = Query::new(seed.clone(), algo.clone());
                    let class = if i % 2 == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Bulk
                    };
                    let got = client
                        .query(tenant, class, &query)
                        .expect("transport ok")
                        .expect("query ok");
                    let want = find_cluster(&pool, graph, &seed, &algo);
                    // Bitwise equality, field by field.
                    assert_eq!(got.cluster, want.cluster, "{tenant}/{i}");
                    assert_eq!(
                        got.conductance.to_bits(),
                        want.conductance.to_bits(),
                        "{tenant}/{i}"
                    );
                    assert_eq!(got.diffusion.p.len(), want.diffusion.p.len());
                    for (a, b) in got.diffusion.p.iter().zip(&want.diffusion.p) {
                        assert_eq!(a.0, b.0);
                        assert_eq!(a.1.to_bits(), b.1.to_bits());
                    }
                    assert_eq!(got.diffusion.stats, want.diffusion.stats);
                    assert_eq!(got.sweep.order, want.sweep.order);
                    assert_eq!(got.sweep.best_size, want.sweep.best_size);
                    assert_eq!(
                        got.sweep.best_conductance.to_bits(),
                        want.sweep.best_conductance.to_bits()
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // All client sockets are gone; the server must notice every close.
    let metrics = server.metrics();
    for _ in 0..400 {
        if metrics.connections_closed.load(Ordering::Relaxed)
            == metrics.connections_opened.load(Ordering::Relaxed)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        metrics.connections_opened.load(Ordering::Relaxed),
        n_clients as u64
    );
    assert_eq!(
        metrics.connections_closed.load(Ordering::Relaxed),
        n_clients as u64
    );
    assert_eq!(metrics.protocol_errors.load(Ordering::Relaxed), 0);
    server.shutdown();
}

#[test]
fn control_requests_list_ping_metrics() {
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    // LIST is sorted regardless of registration order.
    assert_eq!(client.list().unwrap(), vec!["cliques", "local", "mesh"]);
    // Run one query, then check it shows up on the metrics page.
    let q = Query::new(Seed::single(0), Algorithm::PrNibble(Default::default()));
    client
        .query("cliques", Priority::Interactive, &q)
        .unwrap()
        .unwrap();
    let page = client.metrics().unwrap();
    for needle in [
        "lgc_queries_total{tenant=\"cliques\",class=\"interactive\",outcome=\"completed\"} 1",
        "lgc_query_latency_seconds{tenant=\"cliques\",class=\"interactive\",quantile=\"0.99\"}",
        "lgc_lifecycle_total{tenant=\"cliques\",event=\"completed\"} 1",
        "lgc_iterations_dense_out_total{tenant=\"cliques\"} ",
        "lgc_queue_cap{class=\"interactive\"}",
        "lgc_graph_memory_bytes{tenant=\"mesh\"}",
    ] {
        assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
    }
    server.shutdown();
}

#[test]
fn typed_errors_for_bad_requests() {
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(Seed::single(0), Algorithm::Nibble(Default::default()));

    // Unknown tenant.
    match client.query("absent", Priority::Interactive, &q) {
        Ok(Err(WireError::UnknownGraph { tenant })) => assert_eq!(tenant, "absent"),
        other => panic!("expected UnknownGraph, got {other:?}"),
    }
    // Out-of-range seed: typed InvalidSeed from the engine.
    let bad = Query::new(Seed::single(1 << 20), Algorithm::Nibble(Default::default()));
    match client.query("cliques", Priority::Interactive, &bad) {
        Ok(Err(WireError::InvalidSeed { vertex, .. })) => assert_eq!(vertex, 1 << 20),
        other => panic!("expected InvalidSeed, got {other:?}"),
    }
    // The connection is still healthy after both typed errors.
    client.ping().unwrap();
    // A malformed query payload inside a well-formed frame: typed
    // Unsupported, connection stays open.
    use lgc_server::frame::{write_frame, FrameKind};
    let mut raw = Vec::new();
    write_frame(&mut raw, FrameKind::Query, 99, &[0xFF, 0x01, 0x02]).unwrap();
    client.send_raw(&raw).unwrap();
    let frame = client.recv_raw().unwrap();
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(frame.id, 99);
    match lgc_server::wire::decode_error(&frame.payload).unwrap() {
        WireError::Unsupported { .. } => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
    client.ping().unwrap();
    server.shutdown();
}

/// Parameters are client-controlled bytes too: frames that decode fine
/// but carry values no diffusion is defined on, or counts that would size
/// an unbounded allocation, are answered with a typed
/// `InvalidParams` error each time (more hostile frames than there are
/// executors, so a panicking executor could not hide), and the same
/// connection keeps serving.
#[test]
fn hostile_params_get_typed_errors_and_the_connection_survives() {
    let config = ServerConfig::default();
    let executors = config.executors;
    let server = Server::bind(Arc::new(one_thread_service()), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let hostile = [
        (
            "eps",
            Algorithm::PrNibble(PrNibbleParams {
                eps: f64::NAN,
                ..Default::default()
            }),
        ),
        (
            "alpha",
            Algorithm::PrNibble(PrNibbleParams {
                alpha: 0.0,
                ..Default::default()
            }),
        ),
        (
            "t",
            Algorithm::Hkpr(HkprParams {
                t: f64::NEG_INFINITY,
                ..Default::default()
            }),
        ),
        (
            "t",
            Algorithm::RandHkpr(RandHkprParams {
                t: f64::NAN,
                ..Default::default()
            }),
        ),
        (
            "walks",
            Algorithm::RandHkpr(RandHkprParams {
                walks: 0,
                ..Default::default()
            }),
        ),
        (
            "eps",
            Algorithm::Nibble(NibbleParams {
                eps: f64::INFINITY,
                ..Default::default()
            }),
        ),
        // Counts that size an allocation before the first checkpoint tick:
        // a capacity overflow and two unserviceable reservations.
        (
            "walks",
            Algorithm::RandHkpr(RandHkprParams {
                walks: 1 << 60,
                ..Default::default()
            }),
        ),
        (
            "max_len",
            Algorithm::RandHkpr(RandHkprParams {
                max_len: usize::MAX,
                ..Default::default()
            }),
        ),
        (
            "n_levels",
            Algorithm::Hkpr(HkprParams {
                n_levels: 1 << 60,
                ..Default::default()
            }),
        ),
    ];
    for round in 0..=executors / hostile.len() {
        for (field, algo) in &hostile {
            let q = Query::new(Seed::single(1), algo.clone());
            match client.query("local", Priority::Interactive, &q) {
                Ok(Err(WireError::InvalidParams { param, .. })) => assert_eq!(param, *field),
                other => panic!("round {round}, {algo:?}: expected InvalidParams, got {other:?}"),
            }
        }
    }
    client.ping().unwrap();
    let good = Query::new(Seed::single(1), algos()[1].clone());
    let got = client
        .query("local", Priority::Interactive, &good)
        .expect("transport ok")
        .expect("a healthy query after the hostile ones");
    let want = find_cluster(&Pool::new(1), &graphs()[1].1, &good.seed, &good.algo);
    assert_eq!(got.cluster, want.cluster);
    server.shutdown();
}

#[test]
fn deadline_trip_returns_partial_over_the_wire() {
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // An already-expired deadline trips at the first checkpoint.
    let q = Query::new(
        Seed::single(1),
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.01,
            eps: 1e-9,
            ..Default::default()
        }),
    )
    .with_budget(QueryBudget::unlimited().with_deadline(Duration::ZERO));
    match client.query("local", Priority::Interactive, &q) {
        Ok(Err(WireError::Tripped(Tripped {
            trip: Trip::Deadline,
            partial,
        }))) => {
            // The partial's counters made it across the wire intact.
            assert_eq!(partial.stats.iterations, 0);
        }
        other => panic!("expected a deadline trip, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn connection_cap_sheds_pipelined_flood() {
    // One connection, in-flight cap 2, a flood of pipelined submits:
    // some complete, the overflow is shed with QueueFull + retry hint,
    // and nothing panics or deadlocks.
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig {
            conn_inflight_cap: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(Seed::single(3), Algorithm::Hkpr(Default::default()));
    let flood = 24;
    for _ in 0..flood {
        client.submit("local", Priority::Interactive, &q).unwrap();
    }
    let mut ok = 0u32;
    let mut shed = 0u32;
    for _ in 0..flood {
        match client.recv_response().unwrap().1 {
            Response::Result(_) => ok += 1,
            Response::Error(WireError::QueueFull {
                cap, retry_after, ..
            }) => {
                assert_eq!(cap, 2);
                assert!(retry_after.unwrap() >= RETRY_AFTER_FLOOR);
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + shed, flood);
    assert!(ok >= 2, "at least the in-cap queries complete (got {ok})");
    assert!(shed > 0, "the flood must overflow a cap of 2");
    let m = server.metrics();
    assert_eq!(m.shed_connection_cap.load(Ordering::Relaxed), shed as u64);
    server.shutdown();
}

#[test]
fn full_window_refilled_on_reply_is_never_refused() {
    // A client that keeps exactly `conn_inflight_cap` requests in flight
    // and sends the next one the instant a reply arrives: the server
    // frees a slot before the reply reaches the writer, so the refill
    // always finds room.
    let config = ServerConfig::default();
    let window = config.conn_inflight_cap;
    let server = Server::bind(Arc::new(one_thread_service()), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(
        Seed::single(3),
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.1,
            eps: 1e-4,
            ..Default::default()
        }),
    );
    let total = 4_000;
    for _ in 0..window {
        client.submit("local", Priority::Interactive, &q).unwrap();
    }
    for answered in 0..total {
        match client.recv_response().unwrap().1 {
            Response::Result(_) => {}
            other => panic!("reply {answered} with a full window in flight: {other:?}"),
        }
        if answered + window < total {
            client.submit("local", Priority::Interactive, &q).unwrap();
        }
    }
    assert_eq!(
        server.metrics().shed_connection_cap.load(Ordering::Relaxed),
        0
    );
    server.shutdown();
}

#[test]
fn bulk_queries_inherit_the_server_bulk_budget() {
    // Server bulk budget with an instant deadline: a bulk query with no
    // budget of its own must trip; an interactive one sails through.
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig {
            bulk_budget: QueryBudget::unlimited().with_deadline(Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(Seed::single(1), Algorithm::PrNibble(Default::default()));
    match client.query("cliques", Priority::Bulk, &q) {
        Ok(Err(WireError::Tripped(Tripped {
            trip: Trip::Deadline,
            ..
        }))) => {}
        other => panic!("expected a bulk deadline trip, got {other:?}"),
    }
    client
        .query("cliques", Priority::Interactive, &q)
        .unwrap()
        .expect("interactive query must not inherit the bulk budget");
    server.shutdown();
}

/// Sum of the metric lines on `page` that start with `prefix`.
fn metric(page: &str, prefix: &str) -> u64 {
    page.lines()
        .filter(|l| l.starts_with(prefix))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// Both executors busy with a long bulk query each: in priority mode an
/// interactive query sent now is run by one of them at a bulk query's next
/// iteration boundary, so its reply comes back before either bulk reply.
/// Under FIFO no hook is attached: it waits for an executor, behind a bulk
/// reply. Either way every interactive query answered was dispatched once,
/// by an executor's pop or at a boundary.
#[test]
fn an_interactive_query_overtakes_running_bulk_queries_at_a_boundary() {
    let long = |v| {
        Query::new(
            Seed::single(v),
            Algorithm::PrNibble(PrNibbleParams {
                alpha: 0.005,
                eps: 1e-7,
                ..Default::default()
            }),
        )
    };
    let short = Query::new(Seed::single(3), algos()[1].clone());
    let interactive = |at: &str| {
        format!("lgc_dispatched_total{{tenant=\"big\",class=\"interactive\",at=\"{at}\"}}")
    };
    for mode in [SchedulerMode::Priority, SchedulerMode::Fifo] {
        let mut svc = Service::builder().pool(Pool::shared(1)).build();
        svc.add_graph("big", gen::rand_local(40_000, 5, 9));
        let config = ServerConfig {
            mode,
            ..ServerConfig::default()
        };
        assert_eq!(config.executors, 2);
        let server = Server::bind(Arc::new(svc), "127.0.0.1:0", config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut control = Client::connect(server.local_addr()).unwrap();
        client.submit("big", Priority::Bulk, &long(1)).unwrap();
        client.submit("big", Priority::Bulk, &long(2)).unwrap();
        let both_in = std::time::Instant::now();
        while metric(
            &control.metrics().unwrap(),
            "lgc_engine_in_flight{tenant=\"big\"}",
        ) < 2
        {
            assert!(
                both_in.elapsed() < Duration::from_secs(60),
                "{mode:?}: the two bulk queries never overlapped"
            );
        }
        let sent = client.submit("big", Priority::Interactive, &short).unwrap();
        let replies: Vec<_> = (0..3)
            .map(|_| match client.recv_response().unwrap() {
                (id, Response::Result(res)) => (id, res),
                other => panic!("{mode:?}: expected a result, got {other:?}"),
            })
            .collect();
        let order: Vec<u32> = replies.iter().map(|r| r.0).collect();
        let page = control.metrics().unwrap();
        let at_boundary = metric(&page, &interactive("boundary"));
        match mode {
            SchedulerMode::Priority => {
                assert_eq!(order[0], sent, "{mode:?}: {order:?}");
                assert_eq!(at_boundary, 1, "{page}");
            }
            SchedulerMode::Fifo => {
                assert_ne!(order[0], sent, "{mode:?}: {order:?}");
                assert_eq!(at_boundary, 0, "{page}");
            }
        }
        // One more with the executors idle: an executor's own pop, and the
        // bits the boundary run returned.
        let alone = client
            .query("big", Priority::Interactive, &short)
            .unwrap()
            .unwrap();
        let (_, overtaking) = replies.iter().find(|r| r.0 == sent).unwrap();
        assert_eq!(overtaking.diffusion.p, alone.diffusion.p, "{mode:?}");
        assert_eq!(
            overtaking.diffusion.stats, alone.diffusion.stats,
            "{mode:?}"
        );
        assert_eq!(
            overtaking.sweep.conductances, alone.sweep.conductances,
            "{mode:?}"
        );
        let page = control.metrics().unwrap();
        let answered = metric(
            &page,
            "lgc_queries_total{tenant=\"big\",class=\"interactive\",outcome=\"completed\"}",
        ) + metric(
            &page,
            "lgc_queries_total{tenant=\"big\",class=\"interactive\",outcome=\"error\"}",
        );
        let dispatched = metric(&page, &interactive("executor"));
        assert_eq!(answered, 2, "{page}");
        assert_eq!(
            dispatched + metric(&page, &interactive("boundary")),
            answered,
            "{page}"
        );
        server.shutdown();
    }
}

/// Two executors over one 2-wide pool: while both hold a long bulk query
/// the pool has no thread to lend, so their loops run inline (each
/// executor *is* a thread of the width) and the page says so; a lone
/// query afterwards gets the worker back.
#[test]
fn pool_counters_show_inline_loops_under_load_and_forks_alone() {
    let mut svc = Service::builder().pool(Pool::shared(2)).build();
    svc.add_graph("big", gen::rand_local(40_000, 5, 9));
    let server = Server::bind(Arc::new(svc), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let long = |v| {
        Query::new(
            Seed::single(v),
            Algorithm::PrNibble(PrNibbleParams {
                alpha: 0.005,
                eps: 1e-7,
                ..Default::default()
            }),
        )
    };
    const INLINE: &str = "lgc_pool_loops_total{mode=\"inline\"";
    const FORKED: &str = "lgc_pool_loops_total{mode=\"forked\"}";

    let mut bulk = Client::connect(server.local_addr()).unwrap();
    let mut control = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        metric(&control.metrics().unwrap(), "lgc_pool_loops_total"),
        0
    );
    bulk.submit("big", Priority::Bulk, &long(1)).unwrap();
    bulk.submit("big", Priority::Bulk, &long(2)).unwrap();
    // Both in flight at once, seen from the control connection (answered
    // by its reader thread, not by an executor). From here until the
    // first of the two finishes every loop is refused a helper.
    let both_in = std::time::Instant::now();
    let inline_then = loop {
        let page = control.metrics().unwrap();
        if metric(&page, "lgc_pool_callers") == 2 {
            break metric(&page, INLINE);
        }
        assert!(
            both_in.elapsed() < Duration::from_secs(60),
            "the two bulk queries never overlapped:\n{page}"
        );
    };
    for _ in 0..2 {
        match bulk.recv_response().unwrap().1 {
            Response::Result(_) => {}
            other => panic!("expected a result, got {other:?}"),
        }
    }
    let loaded = control.metrics().unwrap();
    assert!(metric(&loaded, INLINE) > inline_then, "{loaded}");
    assert_eq!(metric(&loaded, "lgc_pool_callers"), 0, "{loaded}");

    bulk.query("big", Priority::Bulk, &long(3))
        .unwrap()
        .unwrap();
    let alone = control.metrics().unwrap();
    assert!(metric(&alone, FORKED) > metric(&loaded, FORKED), "{alone}");
    assert_eq!(metric(&alone, INLINE), metric(&loaded, INLINE), "{alone}");
    // The three saturating queries pulled, and every pull but (at most) the
    // last of each handed the next one its frontier as a bitset.
    let pulls = metric(&alone, "lgc_iterations_total{tenant=\"big\",dir=\"pull\"}");
    let dense_out = metric(&alone, "lgc_iterations_dense_out_total{tenant=\"big\"}");
    assert!(
        pulls > 3 && dense_out <= pulls && dense_out + 3 >= pulls,
        "{alone}"
    );
    server.shutdown();
}
