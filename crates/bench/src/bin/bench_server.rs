//! `bench_server` — drives a real `lgc-server` over loopback TCP and
//! records sustained throughput + tail latency to `BENCH_server.json`.
//!
//! ```sh
//! cargo run --release -p lgc-bench --bin bench_server              # full
//! cargo run --release -p lgc-bench --bin bench_server -- --quick  # CI smoke
//! ```
//!
//! Two sections:
//!
//! * **`classes`** — per tenant class, a closed-loop client fleet
//!   hammers one tenant for a fixed window; rows record sustained `qps`
//!   and end-to-end `p50/p95/p99` client-observed latency (TCP + codec
//!   + queue + engine), plus how many requests the server shed.
//!
//! * **`priority`** — the scheduler A/B the two-class design exists
//!   for: a bulk fleet (more clients than executors, so the queue has
//!   standing depth) saturates the server while a low-rate interactive
//!   client measures its own tail. The same workload runs under
//!   `priority` scheduling and under `fifo`; `int_p99_protect` =
//!   fifo-p99 / priority-p99 is the factor by which head-of-line
//!   privilege shrinks the interactive tail (> 1 means protected).
//!
//! Latency numbers recorded here are wall-clock on whatever machine ran
//! the bench (CI boxes are noisy); the protection *ratio* is the
//! portable result.

use lgc_core::{Algorithm, PrNibbleParams, Query, QueryBudget, Seed, Service};
use lgc_graph::gen;
use lgc_parallel::Pool;
use lgc_server::client::Client;
use lgc_server::{Priority, SchedulerMode, Server, ServerConfig, WireError};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interactive-style query: a quick, high-eps PR-Nibble point lookup.
fn interactive_query(seed: u32) -> Query {
    Query::new(
        Seed::single(seed),
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.1,
            eps: 1e-4,
            ..Default::default()
        }),
    )
}

/// Bulk-style query: a low-eps scan that touches much more of the
/// graph per call.
fn bulk_query(seed: u32) -> Query {
    Query::new(
        Seed::single(seed),
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.01,
            eps: 1e-7,
            ..Default::default()
        }),
    )
}

/// Executor threads of every server under test. The query pool is sized
/// to the box (`Pool::with_default_threads`), never above it; both are
/// written to the output beside `hardware_threads`.
const EXECUTORS: usize = 2;

fn build_service(scale: usize) -> Service {
    let mut svc = Service::builder()
        .pool(Arc::new(Pool::with_default_threads()))
        .build();
    svc.add_graph("social", gen::rand_local(4_000 * scale, 6, 11));
    svc.add_graph("mesh", gen::grid_3d(14 * scale, 14 * scale, 4));
    svc
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct LoadResult {
    latencies_ms: Vec<f64>,
    completed: u64,
    shed: u64,
    elapsed: Duration,
}

/// Closed-loop fleet: each of `clients` threads runs query-after-query
/// against `tenant` for `window`; shed responses are counted, not
/// retried (sustained qps under load shedding is the honest number).
fn closed_loop(
    addr: SocketAddr,
    tenant: &'static str,
    class: Priority,
    make_query: fn(u32) -> Query,
    n_vertices: u32,
    clients: usize,
    window: Duration,
) -> LoadResult {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies = Vec::new();
                let (mut completed, mut shed) = (0u64, 0u64);
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let seed = (c as u32).wrapping_mul(2_654_435_761).wrapping_add(i) % n_vertices;
                    i += 1;
                    let t0 = Instant::now();
                    match client.query(tenant, class, &make_query(seed)) {
                        Ok(Ok(_)) => {
                            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                            completed += 1;
                        }
                        Ok(Err(e)) if e.is_retryable() => {
                            shed += 1;
                            if let Some(d) = e.retry_after() {
                                std::thread::sleep(d.min(Duration::from_millis(5)));
                            }
                        }
                        Ok(Err(e)) => panic!("unexpected typed error: {e}"),
                        Err(e) => panic!("transport error: {e}"),
                    }
                }
                (latencies, completed, shed)
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut all = LoadResult {
        latencies_ms: Vec::new(),
        completed: 0,
        shed: 0,
        elapsed: Duration::ZERO,
    };
    for h in handles {
        let (lat, completed, shed) = h.join().unwrap();
        all.latencies_ms.extend(lat);
        all.completed += completed;
        all.shed += shed;
    }
    all.elapsed = start.elapsed();
    all.latencies_ms.sort_by(|a, b| a.total_cmp(b));
    all
}

struct ClassRow {
    tenant: &'static str,
    class: Priority,
    clients: usize,
    res: LoadResult,
}

impl ClassRow {
    fn to_json_line(&self) -> String {
        let l = &self.res.latencies_ms;
        let mut s = String::new();
        let _ = write!(
            s,
            "    {{\"tenant\": \"{}\", \"class\": \"{}\", \"clients\": {}, \"queries\": {}, \"shed\": {}, \"qps\": {:.0}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}",
            self.tenant,
            self.class.label(),
            self.clients,
            self.res.completed,
            self.res.shed,
            self.res.completed as f64 / self.res.elapsed.as_secs_f64(),
            percentile(l, 0.50),
            percentile(l, 0.95),
            percentile(l, 0.99),
        );
        s
    }
}

struct MixedResult {
    interactive: Vec<f64>,
    bulk_completed: u64,
    elapsed: Duration,
}

/// The mixed workload: `bulk_clients` closed-loop bulk threads saturate
/// the executors while one interactive client issues a query every
/// `think` and records its own latency.
fn mixed_load(
    addr: SocketAddr,
    bulk_clients: usize,
    think: Duration,
    window: Duration,
    n_vertices: u32,
) -> MixedResult {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let bulk: Vec<_> = (0..bulk_clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut completed = 0u64;
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let seed = (c as u32).wrapping_mul(40_503).wrapping_add(i) % n_vertices;
                    i += 1;
                    match client.query("social", Priority::Bulk, &bulk_query(seed)) {
                        Ok(Ok(_)) => completed += 1,
                        // Budget trips still count as useful bulk
                        // progress; sheds back off briefly.
                        Ok(Err(WireError::DeadlineExceeded(_)))
                        | Ok(Err(WireError::WorkBudgetExceeded(_))) => completed += 1,
                        Ok(Err(e)) if e.is_retryable() => {
                            std::thread::sleep(Duration::from_millis(1))
                        }
                        Ok(Err(e)) => panic!("unexpected bulk error: {e}"),
                        Err(e) => panic!("bulk transport error: {e}"),
                    }
                }
                completed
            })
        })
        .collect();
    // Interactive prober on this thread.
    let mut client = Client::connect(addr).expect("connect");
    let mut interactive = Vec::new();
    let mut i = 0u32;
    while start.elapsed() < window {
        let seed = i.wrapping_mul(97) % n_vertices;
        i += 1;
        let t0 = Instant::now();
        match client.query("social", Priority::Interactive, &interactive_query(seed)) {
            Ok(Ok(_)) => interactive.push(t0.elapsed().as_secs_f64() * 1e3),
            Ok(Err(e)) if e.is_retryable() => {}
            Ok(Err(e)) => panic!("unexpected interactive error: {e}"),
            Err(e) => panic!("interactive transport error: {e}"),
        }
        std::thread::sleep(think);
    }
    stop.store(true, Ordering::Relaxed);
    let bulk_completed: u64 = bulk.into_iter().map(|h| h.join().unwrap()).sum();
    interactive.sort_by(|a, b| a.total_cmp(b));
    MixedResult {
        interactive,
        bulk_completed,
        elapsed: start.elapsed(),
    }
}

fn run_mixed(mode: SchedulerMode, scale: usize, window: Duration) -> MixedResult {
    let service = Arc::new(build_service(scale));
    let n = service.graph("social").unwrap().num_vertices() as u32;
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            mode,
            executors: EXECUTORS,
            // Bound each bulk slice so a queued interactive job never
            // waits behind an unboundedly long scan.
            bulk_budget: QueryBudget::unlimited().with_max_edges_traversed(2_000_000),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    // More bulk clients than executors => standing queue depth, which
    // is the regime where scheduling policy matters.
    let res = mixed_load(server.local_addr(), 4, Duration::from_millis(15), window, n);
    server.shutdown();
    res
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out = opt("--out").unwrap_or_else(|| "BENCH_server.json".to_string());
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { 1 } else { 2 };
    let window = if quick {
        Duration::from_millis(1500)
    } else {
        Duration::from_secs(6)
    };

    // ---- classes section: per-class closed-loop fleets ----
    eprintln!("# classes: closed-loop per-tenant fleets (window {window:?})");
    let service = Arc::new(build_service(scale));
    let social_n = service.graph("social").unwrap().num_vertices() as u32;
    let mesh_n = service.graph("mesh").unwrap().num_vertices() as u32;
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            executors: EXECUTORS,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut class_rows = Vec::new();
    for (tenant, class, make, n, clients) in [
        (
            "social",
            Priority::Interactive,
            interactive_query as fn(u32) -> Query,
            social_n,
            2,
        ),
        ("social", Priority::Bulk, bulk_query, social_n, 2),
        ("mesh", Priority::Interactive, interactive_query, mesh_n, 2),
    ] {
        eprintln!("#   {tenant}/{} x{clients}", class.label());
        let res = closed_loop(addr, tenant, class, make, n, clients, window);
        class_rows.push(ClassRow {
            tenant,
            class,
            clients,
            res,
        });
    }
    // Keep the metrics page exercised end-to-end in the bench path.
    let metrics_page = Client::connect(addr)
        .expect("connect")
        .metrics()
        .expect("metrics");
    assert!(metrics_page.contains("lgc_queries_total"));
    server.shutdown();

    // ---- priority section: the scheduler A/B ----
    eprintln!("# priority A/B: interactive tail under bulk saturation");
    eprintln!("#   mode=priority");
    let prio = run_mixed(SchedulerMode::Priority, scale, window);
    eprintln!("#   mode=fifo");
    let fifo = run_mixed(SchedulerMode::Fifo, scale, window);
    let prio_p99 = percentile(&prio.interactive, 0.99);
    let fifo_p99 = percentile(&fifo.interactive, 0.99);
    let protect = fifo_p99 / prio_p99;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"server\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"window_s\": {:.3},", window.as_secs_f64());
    let cores = lgc_bench::hardware_threads();
    let _ = writeln!(json, "  \"hardware_threads\": {cores},");
    let _ = writeln!(json, "  \"pool_threads\": {cores},");
    let _ = writeln!(json, "  \"executors\": {EXECUTORS},");
    let _ = writeln!(json, "  \"classes\": [");
    for (i, row) in class_rows.iter().enumerate() {
        let comma = if i + 1 < class_rows.len() { "," } else { "" };
        let _ = writeln!(json, "{}{comma}", row.to_json_line());
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"priority\": [");
    for (mode, r, comma) in [("priority", &prio, ","), ("fifo", &fifo, ",")] {
        let l = &r.interactive;
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{mode}\", \"interactive_queries\": {}, \"bulk_completed\": {}, \"bulk_qps\": {:.1}, \"int_p50_ms\": {:.3}, \"int_p95_ms\": {:.3}, \"int_p99_ms\": {:.3}}}{comma}",
            l.len(),
            r.bulk_completed,
            r.bulk_completed as f64 / r.elapsed.as_secs_f64(),
            percentile(l, 0.50),
            percentile(l, 0.95),
            percentile(l, 0.99),
        );
    }
    let _ = writeln!(
        json,
        "    {{\"mode\": \"summary\", \"int_p99_protect\": {protect:.3}}}"
    );
    json.push_str("  ]\n}\n");

    std::fs::write(&out, &json).expect("write output");
    eprintln!("# wrote {out}");
    eprintln!(
        "# interactive p99: priority {prio_p99:.2} ms vs fifo {fifo_p99:.2} ms (protect {protect:.2}x)"
    );
}
