//! The `lgc-server` binary: serves generated demo graphs over the
//! length-prefixed TCP protocol (see `crates/server/PROTOCOL.md`).
//!
//! ```text
//! lgc-server [--listen ADDR] [--threads N] [--executors N] [--fifo]
//!            [--scale S] [--metrics-once]
//! ```
//!
//! The binary serves generated graphs only (loading a file is
//! `lgc_graph::io`'s job, for a caller building its own `Service`):
//! `social` (SBM with planted communities), `local` (bounded-degree
//! random-local), and `mesh` (3-D grid), each sized by `--scale`.
//! `--metrics-once` renders the Prometheus-style metrics page for the
//! freshly built service and exits — the CI smoke path and a quick way
//! to eyeball the export format without a client.

// Atomic orderings and hash containers only where a file says why.
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
// The server degrades instead of dying: no panicking calls outside tests.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use lgc_core::{QueryBudget, Service};
use lgc_graph::gen;
use lgc_server::{sched::SchedulerMode, Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: String,
    threads: Option<usize>,
    executors: usize,
    fifo: bool,
    scale: usize,
    metrics_once: bool,
}

const USAGE: &str = "usage: lgc-server [--listen ADDR] [--threads N] [--executors N] \
                     [--fifo] [--scale S] [--metrics-once]";

/// `Ok(None)` is `--help`: the caller prints [`USAGE`] and exits 0.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        listen: "127.0.0.1:7311".to_string(),
        threads: None,
        executors: 2,
        fifo: false,
        scale: 1,
        metrics_once: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--executors" => {
                args.executors = value("--executors")?
                    .parse()
                    .map_err(|e| format!("--executors: {e}"))?
            }
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--fifo" => args.fifo = true,
            "--metrics-once" => args.metrics_once = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.scale == 0 {
        return Err("--scale must be >= 1".to_string());
    }
    Ok(Some(args))
}

fn build_service(threads: Option<usize>, scale: usize) -> Service {
    let mut b = Service::builder();
    if let Some(t) = threads {
        b = b.threads(t);
    }
    let mut svc = b.build();
    let (social, _planted) = gen::sbm(&[400 * scale, 300 * scale, 300 * scale], 0.02, 0.001, 7);
    svc.add_graph("social", social);
    svc.add_graph("local", gen::rand_local(2_000 * scale, 6, 11));
    svc.add_graph("mesh", gen::grid_3d(12 * scale, 12 * scale, 4));
    svc
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let service = Arc::new(build_service(args.threads, args.scale));

    let config = ServerConfig {
        mode: if args.fifo {
            SchedulerMode::Fifo
        } else {
            SchedulerMode::Priority
        },
        executors: args.executors,
        // Trip any one bulk scan that runs past these limits. (A budget
        // only stops a scan; what lets interactive traffic past a running
        // one is the boundary hook priority mode attaches.)
        bulk_budget: QueryBudget::unlimited()
            .with_deadline(Duration::from_secs(30))
            .with_max_edges_traversed(50_000_000),
        ..ServerConfig::default()
    };

    if args.metrics_once {
        // Render the metrics page for the freshly built service (zero
        // traffic, zero queue depth) and exit: the CI smoke path.
        let server = match Server::bind(Arc::clone(&service), "127.0.0.1:0", config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bind failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", server.metrics_text());
        server.shutdown();
        return ExitCode::SUCCESS;
    }

    let server = match Server::bind(service, args.listen.as_str(), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "lgc-server listening on {} ({} tenants, {} executors, {} scheduling)",
        server.local_addr(),
        server.service().num_graphs(),
        args.executors,
        if args.fifo { "fifo" } else { "priority" }
    );
    // Serve until killed: park this thread forever.
    loop {
        std::thread::park();
    }
}
