//! `lgc-server`: a TCP front door for the local-clustering
//! [`Service`] — the serving layer ROADMAP item 2 asks for, built
//! entirely on `std::net` (no async runtime, no external deps).
//!
//! # Architecture
//!
//! ```text
//!  client ──TCP──▶ reader thread ──▶ two-class Scheduler ──pop──▶ executor pool
//!                     │                 (interactive ▶ bulk,          │
//!                     │                  bounded, sheds)              ▼
//!                     │                        ▲            ServiceEngine::try_run
//!                     │                        │                      │
//!                     │           try_pop(interactive) ◀── bulk query's boundary
//!                     │           and run it on the spot    hook, every tick
//!                     │                                               │
//!  client ◀──TCP── writer thread ◀── mpsc ◀────────────────────────────┘
//! ```
//!
//! Each accepted connection gets a **reader** thread (decodes
//! [`frame`]s, answers control requests inline, enqueues queries) and a
//! **writer** thread (serializes responses from an mpsc channel, so
//! executors never block on a slow client socket). Queries from every
//! connection funnel into one bounded two-class [`sched::Scheduler`];
//! a small **executor** pool pops jobs — every queued interactive query
//! ahead of any bulk query — and runs them through
//! [`ServiceEngine::try_run`](lgc_core::ServiceEngine::try_run) — the engine's one executor,
//! which supplies the engine-side governance (seed and parameter
//! validation, the workspace byte budget, deadlines, cooperative
//! cancellation).
//!
//! Executors are not pre-emptive, so in [`SchedulerMode::Priority`] a
//! bulk query yields instead: its budget carries a [`BoundaryHook`] that
//! the query's checkpoint runs at every iteration boundary, on the
//! executor's own thread. The hook takes each queued interactive job
//! ([`Scheduler::try_pop`]) and runs it exactly as an executor would —
//! its own workspace, its own budget (with no hook: nesting is one level
//! deep), its reply on its own connection — then the bulk query resumes,
//! its stores untouched, so no result bit moves. The thread count stays
//! the pool's width. `lgc_dispatched_total{at="boundary"}` counts these
//! runs. [`SchedulerMode::Fifo`] attaches no hook.
//!
//! Admission is the server's: two gates shed at enqueue, each with the
//! typed, retryable [`WireError::QueueFull`] carrying a `retry_after`
//! hint (never below [`RETRY_AFTER_FLOOR`]):
//!
//! 1. **per-connection in-flight cap** — one client cannot occupy the
//!    whole server;
//! 2. **per-class bounded queue** ([`INTERACTIVE_QUEUE_CAP`],
//!    [`BULK_QUEUE_CAP`]) — overload sheds at enqueue instead of
//!    queueing unboundedly.
//!
//! At most [`executors`](ServerConfig::executors) queries run at once.
//! Past the gates the engine refuses a query only when the tenant's
//! workspace byte budget cannot admit its checkout — the retryable
//! [`WireError::WorkspaceBudgetExceeded`], with no hint.
//!
//! Queries the engine refuses outright — an out-of-range seed, a
//! parameter no diffusion is defined on — come back as the non-retryable
//! [`WireError::InvalidSeed`] / [`WireError::InvalidParams`]; the
//! connection stays usable.
//!
//! A disconnecting client cancels its queued and running queries via
//! the connection's [`CancelToken`], so abandoned work stops at the
//! next diffusion checkpoint instead of running to completion.
//!
//! Bulk queries additionally inherit the server's
//! [`bulk_budget`](ServerConfig::bulk_budget) (field-wise, per-query
//! budgets win). A budget only trips a query — it bounds how long one
//! bulk scan may run, returning its partial; the boundary hook above is
//! what lets interactive traffic past a scan that is running.

// The serving layer needs no unsafe; keep it that way.
#![forbid(unsafe_code)]
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

pub mod client;
pub mod frame;
pub mod metrics;
pub mod sched;
pub mod wire;

mod conn;

pub use sched::{PushError, Scheduler, SchedulerMode};
pub use wire::{Priority, QueryRequest, WireError, WirePartial};

use lgc_core::{BoundaryHook, CancelToken, QueryBudget, Service};
use metrics::ServerMetrics;
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[expect(
    clippy::disallowed_types,
    reason = "the shutdown flag (swapped with acq-rel, read with acquire), releasing a connection's in-flight slot, and relaxed bumps of the serving counters"
)]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Floor for the [`WireError::QueueFull`] retry-after hint. The hint is
/// the (tenant, class) slot's mean latency, which does not exist at cold
/// start (no completions yet) and can round to zero right after a first
/// sub-microsecond completion; a client honoring a zero backoff would
/// busy-spin against a full gate. 100 µs is well under any real
/// diffusion latency but long enough to turn a retry storm into a
/// polite poll.
pub const RETRY_AFTER_FLOOR: Duration = Duration::from_micros(100);

/// Bound of the interactive class queue.
pub const INTERACTIVE_QUEUE_CAP: usize = 64;

/// Bound of the bulk class queue (deeper: bulk tolerates waiting).
pub const BULK_QUEUE_CAP: usize = 256;

/// Tuning knobs for [`Server::bind`]. `Default` is sized for a small
/// deployment and for tests; every field is independent.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Scheduling policy ([`SchedulerMode::Priority`] by default;
    /// [`SchedulerMode::Fifo`] is what `lgc-server --fifo` selects).
    pub mode: SchedulerMode,
    /// Executor threads popping the scheduler. Each one inside a query
    /// counts against the service pool's width
    /// ([`Pool::enter`](lgc_parallel::Pool::enter)), so with as many busy
    /// executors as the pool is wide every query runs on its executor
    /// alone, and a lone query still forks across the pool. More
    /// executors than the pool is wide oversubscribe the machine.
    pub executors: usize,
    /// Max queries a single connection may have queued + executing.
    pub conn_inflight_cap: usize,
    /// Default budget merged (field-wise, query wins) into every
    /// bulk-class query: a limit that trips a bulk query past it, with
    /// its partial result. It does not make bulk queries yield — in
    /// priority mode the server's boundary hook does that, whatever
    /// this holds. `unlimited()` disables the merge.
    pub bulk_budget: QueryBudget,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            mode: SchedulerMode::Priority,
            executors: 2,
            conn_inflight_cap: 32,
            bulk_budget: QueryBudget::unlimited(),
        }
    }
}

/// One response frame traveling from an executor (or the reader's
/// inline control handling) to a connection's writer thread.
pub(crate) type Outgoing = (frame::FrameKind, u32, Vec<u8>);

/// A query admitted past the connection gates, waiting in (or popped
/// from) the scheduler.
pub(crate) struct Job {
    pub(crate) req: QueryRequest,
    pub(crate) frame_id: u32,
    /// Enqueue time: recorded latency includes queue wait, which is
    /// exactly where the priority policy shows up.
    pub(crate) enqueued: Instant,
    pub(crate) reply: mpsc::Sender<Outgoing>,
    /// The owning connection's token — cancelled on disconnect.
    pub(crate) cancel: CancelToken,
    /// The owning connection's in-flight count, decremented when the
    /// job leaves the system (response sent or job abandoned).
    pub(crate) conn_inflight: Arc<AtomicUsize>,
}

/// State shared by the listener, every connection, and every executor.
pub(crate) struct Shared {
    pub(crate) service: Arc<Service>,
    pub(crate) sched: Scheduler<Job>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) config: ServerConfig,
    pub(crate) shutting_down: AtomicBool,
}

impl Shared {
    /// Renders the metrics page with live queue depths.
    pub(crate) fn metrics_page(&self) -> String {
        let depths = [Priority::Interactive, Priority::Bulk]
            .map(|c| (self.sched.depth(c), self.sched.cap(c)));
        self.metrics.render(&self.service, depths)
    }

    /// Retry hint for server-side sheds: the observed mean latency of
    /// the (tenant, class) slot, floored at [`RETRY_AFTER_FLOOR`].
    pub(crate) fn retry_after(&self, tenant: &str, class: Priority) -> Duration {
        self.metrics
            .class(tenant, class)
            .latency
            .mean()
            .unwrap_or(RETRY_AFTER_FLOOR)
            .max(RETRY_AFTER_FLOOR)
    }
}

/// Entry point: binds a listener and spawns the serving threads.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `service` with `config`. Returns immediately; the
    /// returned handle owns every spawned thread and tears the server
    /// down on [`RunningServer::shutdown`] or drop.
    pub fn bind(
        service: Arc<Service>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let executors = config.executors.max(1);
        let shared = Arc::new(Shared {
            service,
            sched: Scheduler::new(config.mode, INTERACTIVE_QUEUE_CAP, BULK_QUEUE_CAP),
            metrics: ServerMetrics::default(),
            config,
            shutting_down: AtomicBool::new(false),
        });

        // Startup spawn failures surface as the bind error they are
        // instead of panicking half-initialized.
        let mut exec_threads: Vec<JoinHandle<()>> = Vec::with_capacity(executors);
        for i in 0..executors {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("lgc-exec-{i}"))
                .spawn(move || executor_loop(&shared))?;
            exec_threads.push(handle);
        }

        let conn_streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let accept_shared = Arc::clone(&shared);
            let conn_streams = Arc::clone(&conn_streams);
            let conn_threads = Arc::clone(&conn_threads);
            let spawned = thread::Builder::new()
                .name("lgc-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if accept_shared.shutting_down.load(Ordering::Acquire) {
                            break;
                        }
                        let stream = match stream {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        accept_shared
                            .metrics
                            .connections_opened
                            .fetch_add(1, Ordering::Relaxed);
                        if let Ok(clone) = stream.try_clone() {
                            conn_streams.lock().push(clone);
                        }
                        let shared2 = Arc::clone(&accept_shared);
                        match thread::Builder::new()
                            .name("lgc-conn".into())
                            .spawn(move || conn::handle_connection(&shared2, stream))
                        {
                            Ok(handle) => conn_threads.lock().push(handle),
                            // Spawn failure (fd/thread exhaustion): the
                            // moved closure — and with it the socket — is
                            // dropped, refusing the connection; the accept
                            // loop itself stays alive.
                            Err(_) => continue,
                        }
                    }
                });
            match spawned {
                Ok(t) => t,
                Err(e) => {
                    // Unblock and join the executors before reporting the
                    // bind failure, so no thread outlives the error.
                    shared.sched.shutdown();
                    for t in exec_threads {
                        let _ = t.join();
                    }
                    return Err(e);
                }
            }
        };

        Ok(RunningServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            exec_threads,
            conn_streams,
            conn_threads,
        })
    }
}

/// Handle to a live server: address, metrics, and teardown. Dropping
/// it shuts the server down (all threads joined, sockets closed).
pub struct RunningServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    exec_threads: Vec<JoinHandle<()>>,
    conn_streams: Arc<Mutex<Vec<TcpStream>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl RunningServer {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served [`Service`].
    pub fn service(&self) -> &Arc<Service> {
        &self.shared.service
    }

    /// Server-side metrics registry (shared with every connection).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Renders the metrics page exactly as a `METRICS` request would.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_page()
    }

    /// Stops accepting, cancels and drains in-flight work, closes every
    /// connection, and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Close every connection socket: readers see EOF, cancel their
        // tokens, and exit; writers drain and follow.
        for s in self.conn_streams.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Refuse new work, fail anything still queued back to (now
        // likely gone) clients, and let executors drain to None.
        self.shared.sched.shutdown();
        for (_, job) in self.shared.sched.drain() {
            job.conn_inflight.fetch_sub(1, Ordering::AcqRel);
            let _ = job.reply.send((
                frame::FrameKind::Error,
                job.frame_id,
                wire::encode_error(&WireError::ShuttingDown),
            ));
        }
        for t in self.exec_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.conn_threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Executor: pop → govern → run → reply, until shutdown + drained.
fn executor_loop(shared: &Arc<Shared>) {
    while let Some((class, job)) = shared.sched.pop() {
        run_job(shared, class, job, false);
    }
}

/// What a bulk query runs at each of its iteration boundaries in priority
/// mode: every interactive job queued by then, through [`run_job`] as an
/// executor would, before the bulk query takes its next iteration. The
/// nested queries carry no hook, so nesting stops at one level.
fn boundary_hook(shared: &Arc<Shared>) -> BoundaryHook {
    let shared = Arc::clone(shared);
    BoundaryHook::new(move || {
        while let Some(job) = shared.sched.try_pop(Priority::Interactive) {
            run_job(&shared, Priority::Interactive, job, true);
        }
    })
}

/// Runs `job` and replies; `at_boundary` says a bulk query's boundary
/// hook took it rather than an executor's pop.
fn run_job(shared: &Arc<Shared>, class: Priority, job: Job, at_boundary: bool) {
    // Whatever happens in `execute`, the job leaves the connection's
    // in-flight count when this function returns.
    struct InflightGuard<'a>(&'a AtomicUsize);
    impl Drop for InflightGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let guard = InflightGuard(&job.conn_inflight);
    let Some((kind, payload)) = execute(shared, class, &job, at_boundary) else {
        return;
    };
    // Free the slot *before* the reply is handed to the writer: a client
    // that refills its window the instant a reply arrives must find the
    // slot it just got back.
    drop(guard);
    let _ = job.reply.send((kind, job.frame_id, payload));
}

/// Runs `job`'s query and encodes the reply (`None`: nobody to answer).
fn execute(
    shared: &Arc<Shared>,
    class: Priority,
    job: &Job,
    at_boundary: bool,
) -> Option<(frame::FrameKind, Vec<u8>)> {
    let slot = shared.metrics.class(&job.req.tenant, class);
    let runs = if at_boundary {
        &slot.boundary_runs
    } else {
        &slot.dispatched
    };
    runs.fetch_add(1, Ordering::Relaxed);
    if job.cancel.is_cancelled() {
        // The connection is gone; there is nobody to answer.
        return None;
    }
    let Some(engine) = shared.service.engine(&job.req.tenant) else {
        // Tenant existed at enqueue but was removed since.
        slot.errored.fetch_add(1, Ordering::Relaxed);
        let gone = WireError::UnknownGraph {
            tenant: job.req.tenant.clone(),
        };
        return Some((frame::FrameKind::Error, wire::encode_error(&gone)));
    };

    let mut query = job.req.query.clone();
    if class == Priority::Bulk {
        query.budget = query.budget.or(&shared.config.bulk_budget);
        if shared.config.mode == SchedulerMode::Priority {
            query.budget.hook = Some(boundary_hook(shared));
        }
    }
    query.budget.cancel = Some(job.cancel.clone());

    let outcome = engine.try_run(&query);
    let latency = job.enqueued.elapsed();
    Some(match outcome {
        Ok(res) => {
            slot.latency.record(latency);
            slot.completed.fetch_add(1, Ordering::Relaxed);
            (frame::FrameKind::Result, wire::encode_result(&res))
        }
        Err(e) => {
            let w = WireError::from_query_error(&e);
            slot.errored.fetch_add(1, Ordering::Relaxed);
            if w.is_retryable() {
                slot.shed.fetch_add(1, Ordering::Relaxed);
            }
            (frame::FrameKind::Error, wire::encode_error(&w))
        }
    })
}
