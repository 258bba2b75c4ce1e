//! A multi-tenant query server **simulation** — in-process, no sockets:
//! the workload the [`Service`] was designed for, with several resident
//! graphs, one shared thread pool, and many concurrent client threads
//! issuing mixed-algorithm local-cluster queries.
//!
//! For the real network front door — a TCP listener speaking the
//! length-prefixed binary protocol, with priority scheduling, bounded
//! queues, and a Prometheus-style metrics endpoint — see the
//! `lgc-server` binary and [`plgc::server`] (protocol spec in
//! `crates/server/PROTOCOL.md`). This example keeps everything in one
//! process so the Service/Engine mechanics stay easy to read.
//!
//! Three tenants register their graphs (a social-network stand-in, a
//! planted-community SBM, a mesh-like local graph); a fleet of client
//! threads then drains a deterministic stream of queries — each client
//! grabbing the tenant's engine (an `Arc` bump) per request and calling
//! `&self` methods, no mutex around any engine, no per-graph worker fleet. At
//! the end the server prints per-tenant traffic, latency percentiles,
//! and lifecycle counters.
//!
//! Tenants also pick their storage/memory trade-offs: the big "social"
//! graph is stored on the byte-compressed CSR backend (same bits out,
//! fewer bytes resident).
//!
//! Limits ride on the queries: every "social" query carries a deadline
//! and every "communities" query a deterministic work cap
//! ([`Query::with_budget`]). Clients call `try_run`, and the server
//! closes with a per-tenant robustness report — admitted / completed /
//! shed / tripped / invalid and the shed rate — straight from
//! [`Service::lifecycle`] counters.
//!
//! ```sh
//! cargo run --release --example server
//! ```

use plgc::cluster as lgc;
use plgc::{Algorithm, Pool, Query, QueryBudget, Seed, Service};
use std::time::{Duration, Instant};

/// Queries per client thread.
const QUERIES_PER_CLIENT: usize = 40;
/// Client threads (OS threads issuing queries concurrently).
const CLIENTS: usize = 4;

/// The deterministic "request log": client `c`'s `i`-th request, with
/// the tenant's limits on it: a wall-clock deadline on "social" and a
/// deterministic work cap on "communities" (a heavier query comes back
/// as a typed `QueryError::Tripped` carrying its best-so-far cut).
fn request(tenants: &[String], c: usize, i: usize) -> (String, Query) {
    let tenant = &tenants[(c + i) % tenants.len()];
    let v = ((c * 131 + i * 17) % 500) as u32;
    let algo = match i % 4 {
        0 => Algorithm::PrNibble(lgc::PrNibbleParams {
            alpha: 0.05,
            eps: 1e-5,
            ..Default::default()
        }),
        1 => Algorithm::Hkpr(lgc::HkprParams {
            t: 5.0,
            n_levels: 10,
            eps: 1e-5,
        }),
        2 => Algorithm::Nibble(lgc::NibbleParams {
            t_max: 10,
            eps: 1e-6,
        }),
        _ => Algorithm::RandHkpr(lgc::RandHkprParams {
            walks: 3_000,
            rng_seed: (c * 1000 + i) as u64,
            ..Default::default()
        }),
    };
    let budget = match tenant.as_str() {
        "social" => QueryBudget::unlimited().with_deadline(Duration::from_millis(250)),
        "communities" => QueryBudget::unlimited().with_max_edges_traversed(2_000_000),
        _ => QueryBudget::unlimited(),
    };
    let query = Query::new(Seed::single(v), algo).with_budget(budget);
    (tenant.clone(), query)
}

fn main() {
    // One pool for the whole process, machine-sized.
    let pool = Pool::shared(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let (sbm, _) = plgc::graph::gen::sbm(&[100; 8], 0.15, 0.002, 3);
    // The biggest tenant stores its adjacency byte-compressed; queries
    // over it return the same bits as plain CSR.
    let social = plgc::CsrCompressed::from_graph(&plgc::graph::gen::rmat_graph500(12, 8, 7));
    let service = Service::builder()
        .pool(pool)
        .add_graph("social", social)
        .add_graph("communities", sbm)
        .add_graph("mesh", plgc::graph::gen::rand_local(4_000, 6, 1))
        .build();
    let tenants = service.graph_names();
    println!("tenants:");
    for name in &tenants {
        let s = service.summary(name).unwrap();
        println!(
            "  {name:<12} {:>6} vertices {:>8} edges (max degree {}) — {} graph bytes, {:.2} adjacency B/edge",
            s.num_vertices,
            s.num_edges,
            s.max_degree,
            s.memory_bytes,
            s.adjacency_bytes as f64 / (2 * s.num_edges).max(1) as f64
        );
    }
    println!(
        "pool: {} threads shared by all tenants; {CLIENTS} clients × {QUERIES_PER_CLIENT} queries\n",
        service.pool().num_threads()
    );

    // The client fleet: each thread drains its slice of the request log,
    // timing every query.
    let t0 = Instant::now();
    let per_client: Vec<Vec<(String, f64, usize)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                let tenants = &tenants;
                scope.spawn(move || {
                    let mut log = Vec::with_capacity(QUERIES_PER_CLIENT);
                    for i in 0..QUERIES_PER_CLIENT {
                        let (tenant, query) = request(tenants, c, i);
                        let engine = service.engine(&tenant).expect("tenant registered");
                        let q0 = Instant::now();
                        // The governed path: typed errors instead of
                        // unbounded work.
                        let cluster_len = match &engine.try_run(&query) {
                            Ok(res) => res.cluster.len(),
                            // A tripped query still reports its
                            // best-so-far cut, billable work and all.
                            Err(e) => e
                                .partial()
                                .and_then(|p| p.cluster())
                                .map_or(0, <[u32]>::len),
                        };
                        log.push((tenant, q0.elapsed().as_secs_f64(), cluster_len));
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    // Per-tenant traffic report.
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10}",
        "tenant", "queries", "mean ms", "p95 ms", "max ms"
    );
    for name in &tenants {
        let mut lats: Vec<f64> = per_client
            .iter()
            .flatten()
            .filter(|(t, _, _)| t == name)
            .map(|&(_, l, _)| l)
            .collect();
        lats.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = lats.iter().sum::<f64>() / lats.len().max(1) as f64;
        let p95 = lats[(lats.len() * 95 / 100).min(lats.len().saturating_sub(1))];
        let max = lats.last().copied().unwrap_or(0.0);
        println!(
            "{name:<12} {:>8} {:>10.2} {:>10.2} {:>10.2}",
            lats.len(),
            mean * 1e3,
            p95 * 1e3,
            max * 1e3
        );
    }
    let total = CLIENTS * QUERIES_PER_CLIENT;
    println!(
        "\n{total} queries in {:.2}s — {:.0} queries/s across {} graphs on one pool",
        wall,
        total as f64 / wall,
        service.num_graphs()
    );

    // Robustness: per-tenant lifecycle counters — who was admitted, who
    // was shed at the door, whose budget tripped mid-flight.
    println!(
        "\n{:<12} {:>9} {:>10} {:>6} {:>8} {:>6} {:>10}",
        "tenant", "admitted", "completed", "shed", "tripped", "invalid", "shed rate"
    );
    for name in &tenants {
        let s = service.lifecycle(name).unwrap();
        println!(
            "{name:<12} {:>9} {:>10} {:>6} {:>8} {:>6} {:>9.1}%",
            s.admitted,
            s.completed,
            s.shed(),
            s.deadline_tripped + s.work_tripped + s.cancelled,
            s.invalid,
            s.shed_rate() * 100.0
        );
    }
}
