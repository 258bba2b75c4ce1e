//! Parallel Local Graph Clustering — umbrella crate.
//!
//! A Rust reproduction of *"Parallel Local Graph Clustering"* (Shun,
//! Roosta-Khorasani, Fountoulakis, Mahoney; VLDB 2016), grown into a
//! query-serving system. The paper's five local diffusions — Nibble,
//! PR-Nibble, deterministic and randomized heat-kernel PageRank, and the
//! evolving-set process — are one family over the same frontier
//! framework, and one process serves them all, against any number of
//! resident graphs, from any number of threads.
//!
//! # Quickstart: the [`Service`]
//!
//! Register your graphs into a [`Service`] over one shared thread
//! [`Pool`]; query through `&self` engines from as many OS threads as
//! you like. Each graph keeps a checkout pool of warm workspaces (mass
//! arenas, frontier bitsets, sweep tables) and nothing else between
//! queries — a query reads the graph and its own parameters:
//!
//! ```
//! use plgc::{Algorithm, PrNibbleParams, Query, Seed, Service};
//! use plgc::Pool;
//!
//! let service = Service::builder()
//!     .pool(Pool::shared(2))
//!     .add_graph("social", plgc::graph::gen::two_cliques_bridge(16))
//!     .add_graph("mesh", plgc::graph::gen::grid_3d(6, 6, 4))
//!     .build();
//!
//! // An engine is an `Arc` bump and queries through `&self` — grab one per request.
//! let engine = service.engine("social").unwrap();
//! let result = engine.run(&Query::new(
//!     Seed::single(0),
//!     Algorithm::PrNibble(PrNibbleParams::default()),
//! ));
//! assert_eq!(result.cluster.len(), 16);
//! assert!(result.conductance < 0.01);
//!
//! // Concurrent clients just query; scratch is checked out per query.
//! std::thread::scope(|s| {
//!     for name in ["social", "mesh"] {
//!         let service = &service;
//!         s.spawn(move || {
//!             let engine = service.engine(name).unwrap();
//!             engine.run(&Query::new(
//!                 Seed::single(1),
//!                 Algorithm::PrNibble(PrNibbleParams::default()),
//!             ))
//!         });
//!     }
//! });
//! ```
//!
//! # Single graph: the [`Engine`]
//!
//! One graph, same machinery, no registry — an [`Engine`] borrows the
//! graph and owns (or [shares](EngineBuilder::shared_pool)) its pool.
//! All query methods take `&self`:
//!
//! ```
//! use plgc::{Algorithm, Engine, HkprParams, Query, Seed};
//!
//! let g = plgc::graph::gen::two_cliques_bridge(16);
//! let engine = Engine::builder(&g).threads(2).build();
//! let hk = engine.run(&Query::new(
//!     Seed::single(0),
//!     Algorithm::Hkpr(HkprParams::default()),
//! ));
//! assert_eq!(hk.cluster.len(), 16);
//! ```
//!
//! [`Algorithm`] implements the [`LocalDiffusion`] trait (seed →
//! diffusion over a shared [`Workspace`]), engine and service
//! results are bit-identical to the free-function pipeline — warm
//! workspace checkouts are observationally invisible, a contract
//! enforced from multiple OS threads by
//! `tests/service_properties.rs` — and [`Engine::run_batch`] fans any
//! mix of queries across the pool with per-worker workspaces that stay
//! warm across calls (deterministic, thread-count independent);
//! [`Engine::ncp`] runs its seed × α × ε grid as such a batch.
//!
//! A query decides per iteration whether its loops see the pool's
//! workers: below `|F| + vol(F) =` [`ligra::FORK_MIN_WORK`] the iteration
//! runs as the one-thread code, at or above it the loops are offered to
//! the pool. A lone point query therefore costs what it costs at one
//! thread, whatever the engine's width, and returns the one-thread bits;
//! "The fork policy" on [`ligra::EdgeSpread`] has the rule and its
//! calibration.
//!
//! Without an engine, a one-shot diffusion is [`LocalDiffusion::diffuse`]
//! over a fresh [`Workspace`] (`Algorithm::PrNibble(p).diffuse(&pool, &g,
//! &seed, &mut Workspace::new())`), the identical code path. The free
//! functions left are [`find_cluster`], [`evolving_set_par`] (the one
//! source of the evolving set's trajectory), [`sweep_cut_par`] and the
//! `*_seq` references.
//!
//! # Storage backends and memory budgets
//!
//! Graph storage is pluggable behind the [`CsrBackend`] trait: plain CSR
//! ([`Graph`], one `u32` per directed edge) or byte-compressed CSR
//! ([`CsrCompressed`], Ligra+-style delta + varint coding decoded inside
//! the traversal kernels — typically 2–3× fewer adjacency bytes on
//! power-law graphs). Every engine and service query is bit-identical
//! across backends; both decode neighbors in ascending order, so even
//! the dense-pull traversals stay deterministic. Per-graph scratch is
//! bounded in bytes, not workspace counts: each graph's checkout pool
//! has a byte budget of 4× the graph (clamped to `[32 MiB, 1 GiB]`), and
//! `try_run` surfaces budget exhaustion as a typed
//! [`WorkspaceBudgetExceeded`] back-pressure error while plain `run`
//! degrades to transient scratch:
//!
//! ```
//! use plgc::{Algorithm, CsrCompressed, PrNibbleParams, Query, Seed, Service};
//!
//! let g = plgc::graph::gen::two_cliques_bridge(16);
//! let compact = CsrCompressed::from_graph(&g);
//! let service = Service::builder()
//!     .threads(2)
//!     .add_graph("plain", g)               // plain CSR backend
//!     .add_graph("compact", compact)       // byte-compressed backend
//!     .build();
//! let q = Query::new(Seed::single(0), Algorithm::PrNibble(PrNibbleParams::default()));
//! let a = service.engine("plain").unwrap().run(&q);
//! let b = service.engine("compact").unwrap().try_run(&q).unwrap();
//! assert_eq!(a.cluster, b.cluster); // bit-identical across backends
//! ```
//!
//! # Robustness: deadlines, cancellation, budgets, typed errors
//!
//! A server cannot afford one runaway query: a pathological `(seed, ε)`
//! pair can push a "local" diffusion into touching most of a billion-edge
//! graph. The fallible query entry point ([`Engine::try_run`], and its
//! [`Service`] form) is therefore *governed*:
//!
//! * **Budgets.** A [`QueryBudget`] bounds a query by wall-clock
//!   deadline, by deterministic work counters (pushed mass updates,
//!   traversed edges), or until a shared [`CancelToken`] flips. A budget
//!   rides on its [`Query`] ([`Query::with_budget`]); the engine keeps no
//!   default of its own. Checks are cooperative — one atomic load and a
//!   coarse clock read per frontier iteration, never per edge — so the
//!   hot kernels are untouched and *completed* runs are bit-identical
//!   to unbudgeted ones.
//! * **Typed trips with partial results.** A tripped query returns
//!   [`QueryError`] carrying a [`PartialResult`]: the mass settled up to
//!   the last completed iteration, a best-so-far sweep cut over it, and
//!   the work counters at the stop — never a panic, and the workspace
//!   checkout is recycled as if the query had completed. Work-budget
//!   trips are deterministic (the counters are bit-identical across
//!   thread counts and storage backends); deadline and cancellation
//!   trips land wherever the clock does.
//! * **Typed refusals.** Seeds are validated against the graph and
//!   parameters against their ranges ([`Algorithm::check`]) before any
//!   work ([`QueryError::InvalidSeed`], [`QueryError::InvalidParams`]);
//!   the workspace byte budget refuses checkouts that would overshoot
//!   ([`QueryError::WorkspaceBudgetExceeded`], the one transient refusal
//!   [`QueryError::is_retryable`] answers). How many queries run at once
//!   is the serving layer's to bound (below).
//! * **Counters.** Each graph keeps [`LifecycleSnapshot`] robustness
//!   counters (admitted / completed / shed / invalid / tripped /
//!   in-flight) — [`Engine::lifecycle_stats`], [`Service::lifecycle`].
//!   Every query, single or batch item, fallible or not, is counted:
//!   `admitted = completed + tripped` once idle, and every arrival is
//!   one of admitted / shed / invalid.
//!
//! ```
//! use plgc::{Algorithm, Engine, PrNibbleParams, Query, QueryBudget, QueryError, Seed, Trip, Tripped};
//! use std::time::Duration;
//!
//! let g = plgc::graph::gen::rand_local(500, 5, 3);
//! let engine = Engine::builder(&g).threads(2).build();
//! // A tight work cap trips deterministically, with the partial result:
//! let q = Query::new(
//!     Seed::single(7),
//!     Algorithm::PrNibble(PrNibbleParams { eps: 1e-7, ..Default::default() }),
//! )
//! .with_budget(
//!     QueryBudget::unlimited()
//!         .with_deadline(Duration::from_secs(30))
//!         .with_max_edges_traversed(10),
//! );
//! match engine.try_run(&q) {
//!     Err(QueryError::Tripped(Tripped { trip: Trip::WorkBudget, partial })) => {
//!         assert!(partial.stats.edges_traversed >= 10);
//!         assert!(partial.cluster().is_some(), "best-so-far cut");
//!     }
//!     other => panic!("expected a work-budget trip, got {other:?}"),
//! }
//! // The engine is fully recovered: the same query, unbudgeted, completes.
//! assert!(engine.try_run(&q.clone().with_budget(QueryBudget::unlimited())).is_ok());
//! assert_eq!(engine.lifecycle_stats().work_tripped, 1);
//! ```
//!
//! The infallible [`Engine::run`] is the same executor ungoverned: it
//! keeps its run-to-completion semantics — budgets and the workspace
//! byte budget's refusals apply only to the `try_` entry points. A
//! [`QueryBudget`] can also carry a deterministic [`FaultPlan`] for harness use (trip exactly
//! at the k-th checkpoint; process-local, never on the wire);
//! `tests/fault_properties.rs` drives it across all five algorithms,
//! both CSR backends, and 1–4 threads to prove no-panic, full pool
//! recovery, and post-fault bitwise determinism.
//!
//! # Refinement: max-flow `improve`
//!
//! The diffusions *find* low-conductance cuts; they never *improve*
//! them. [`Engine::improve`] adds the flow stage the local-clustering
//! literature pairs with every spectral method: an MQI-style iterated
//! max-flow refinement (hand-rolled Dinic in the [`flow`] crate) that
//! takes any sweep cut and returns a subset with conductance **≤ the
//! input's** — provably and deterministically, with [`QueryBudget`]
//! checkpoints ticking inside the flow solver's phase loop
//! ([`Engine::try_improve`]; a trip returns the unrefined cut as a typed
//! [`PartialResult`]). Like the query it refines, a refinement reads
//! only the cut's own adjacency lists, never the whole graph (see
//! `examples/community_detection.rs` for every diffusion's cut on an
//! SBM, refined):
//!
//! ```
//! use plgc::{Algorithm, CsrBackend, Engine, PrNibbleParams, Query, Seed};
//!
//! // Two 12-cliques joined by one bridge edge {0, 12}.
//! let g = plgc::graph::gen::two_cliques_bridge(12);
//! let engine = Engine::builder(&g).threads(2).build();
//!
//! // Diffuse → sweep: PR-Nibble's sweep cut already nails this planted
//! // cut, and refinement certifies it as flow-optimal (a fixed point).
//! let q = Query::new(Seed::single(5), Algorithm::PrNibble(PrNibbleParams::default()));
//! let result = engine.run(&q);
//! let mut cluster = result.cluster.clone(); // sweep order → sorted
//! cluster.sort_unstable();
//! assert_eq!(cluster, (0..12).collect::<Vec<u32>>());
//! assert_eq!(engine.improve(&result).cluster, cluster);
//!
//! // A sloppy analyst cut — nine clique-A vertices plus three
//! // intruders from across the bridge — is what MQI repairs: improve
//! // strips the intruders and the conductance strictly drops.
//! let sloppy: Vec<u32> = (3..15).collect();
//! let refined = engine.improve_set(&sloppy);
//! assert_eq!(refined.cluster, (3..12).collect::<Vec<u32>>());
//! assert!(refined.conductance < g.conductance(&sloppy));
//! assert_eq!(engine.lifecycle_stats().refine_improved, 1);
//! ```
//!
//! Refinement counters (`refined`, `refine_improved`) ride the same
//! [`LifecycleSnapshot`] as the robustness counters and render on the
//! server's METRICS page.
//!
//! # Serving over the network: `lgc-server`
//!
//! The [`server`] crate puts a real TCP front door on a [`Service`]:
//! the `lgc-server` binary speaks a length-prefixed binary protocol
//! (spec: `crates/server/PROTOCOL.md`) built on `std::net` only. Each
//! connection gets a reader and a writer thread; queries funnel through
//! a bounded **two-class priority scheduler** (interactive dispatches
//! ahead of bulk; a running bulk query yields to queued interactive ones
//! through a [`BoundaryHook`] its checkpoint runs between iterations,
//! while a server work budget only trips a scan that runs too long), and
//! two explicit backpressure gates — the per-connection in-flight cap and
//! the per-class queue bound — shed overload with a typed, retryable
//! error carrying a `retry_after` hint. At most `executors` queries run
//! at once; past that, the engine refuses only what its workspace byte
//! budget cannot admit.
//!
//! The executors and the shared [`Pool`] spend one budget of hardware
//! threads, the pool's width (§1's two uses of cores — many independent
//! queries, or one query's loops — chosen per loop). Every query counts
//! its thread against the width while it runs ([`Pool::enter`], taken by
//! the engine); a loop forks only onto threads the queries leave free,
//! and otherwise runs on its own caller. A lone query on an idle server
//! gets the whole pool for every iteration with enough work to be worth
//! a fork ([`ligra::FORK_MIN_WORK`]); with as many queries in flight as
//! the pool is wide, each runs the one-thread forms on its own core and
//! none waits for another's loop.
//!
//! A `METRICS` request (or `lgc-server --metrics-once`) renders
//! Prometheus-style text: per-tenant × per-class latency quantiles,
//! queue depths, each graph's resident bytes (`lgc_graph_memory_bytes`),
//! [`LifecycleSnapshot`] counters — among them the engines' frontier
//! iterations by direction, by lane, and by whether a pull handed the
//! next one its frontier as a
//! bitset (`lgc_iterations_total{dir=…}`, `lgc_iterations_solo_total`,
//! `lgc_iterations_dense_out_total`) — and the loops offered to the pool by how
//! they ran (`lgc_pool_loops_total{mode=…}`, `lgc_pool_callers`; an
//! iteration below the fork threshold offers none). Responses are **bit-identical** to direct [`Engine`] runs
//! of the same queries — `f64`s travel as raw bits — a contract the
//! loopback suite (`crates/server/tests/loopback.rs`) enforces over
//! real sockets with concurrent mixed-tenant clients:
//!
//! ```
//! use plgc::server::{client::Client, Priority, Server, ServerConfig};
//! use plgc::{Algorithm, PrNibbleParams, Query, Seed, Service};
//! use std::sync::Arc;
//!
//! let mut svc = Service::builder().threads(1).build();
//! svc.add_graph("social", plgc::graph::gen::two_cliques_bridge(16));
//! let server = Server::bind(Arc::new(svc), "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! assert_eq!(client.list().unwrap(), vec!["social"]);
//! let result = client
//!     .query("social", Priority::Interactive, &Query::new(
//!         Seed::single(0),
//!         Algorithm::PrNibble(PrNibbleParams::default()),
//!     ))
//!     .unwrap()   // transport ok
//!     .unwrap();  // server answered with a result, not a typed error
//! assert_eq!(result.cluster.len(), 16);
//! server.shutdown();
//! ```
//!
//! `examples/server.rs` remains the in-process, no-sockets simulation
//! of the same serving loop; the `serve` workload of `benchmark/`
//! measures the real one on loopback — open-loop interactive latency
//! (p50/p99) behind in-flight bulk queries, and bulk queries per second.
//!
//! # Workspace layout
//!
//! * [`parallel`] — thread pool and work-depth primitives (prefix sums,
//!   filter, parallel sorts, atomic `f64`, bitsets).
//! * [`sparse`] — sequential and phase-concurrent sparse sets, plus the
//!   adaptive dense/sparse `MassMap`.
//! * [`graph`] — CSR graphs, generators, conductance utilities, I/O.
//! * [`ligra`] — `vertexSubset` / `vertexMap` / `edgeMap` frontier
//!   framework: one subset type, `VertexSubset`, in both of Ligra's
//!   representations; `EdgeSpread` is the direction-optimizing edge map the
//!   frontier diffusions are written on, and the owner of the direction
//!   policy (`EngineBuilder::direction` is the one place to pin it) and
//!   of the fork policy (one constant, `FORK_MIN_WORK`; nothing to set).
//! * [`flow`] — hand-rolled Dinic max-flow and the MQI-style
//!   `improve` refinement stage.
//! * [`cluster`] — the paper's algorithms behind the [`Engine`] and
//!   [`Service`]: Nibble, PR-Nibble, HK-PR, rand-HK-PR, evolving sets,
//!   sweep cuts, and NCP plots.
//! * [`server`] — the TCP front door: frame codec, wire types, the
//!   two-class scheduler, per-tenant metrics, the blocking client, and
//!   the `lgc-server` binary.
//!
//! # Correctness tooling
//!
//! The guarantees above — bitwise-deterministic results, bounded
//! interruptible queries, a serving layer that degrades instead of
//! dying — are invariants of *this* codebase, not of Rust, so the
//! workspace audits them mechanically:
//!
//! * **Clippy** (`cargo clippy --workspace --all-targets -- -D warnings`,
//!   a required CI step) holds the repo's rules, configured by
//!   `[workspace.lints.clippy]` in `Cargo.toml`, the root `clippy.toml`
//!   and each crate root. Every unsafe block and `unsafe impl` carries a
//!   `// SAFETY:` comment (`undocumented_unsafe_blocks`) and every
//!   `unsafe fn`, private ones too, a `# Safety` section
//!   (`missing_safety_doc`); crates that need no `unsafe` — core, ligra,
//!   sparse, the server, flow, bench, and the offline shims — pin that
//!   down with `#![forbid(unsafe_code)]`. What is left lives in
//!   `lgc-parallel` (the pool's job protocol and its one disjoint split,
//!   `Pool::for_each_chunk_mut`) and in `lgc-graph`'s compressed-CSR
//!   decoder. Outside tests, atomic orderings and hash
//!   containers are banned (`disallowed_types`) and so, in the query-path
//!   crates, are clock reads (`disallowed_methods`). A file that owns an
//!   ordering protocol, a keyed-lookup map or the deadline clock says so
//!   with `#[expect(clippy::…, reason = "…")]` on the item that names it
//!   (for an ordering, its `use` line), and an expectation that no longer
//!   fires fails the build. `lgc-server`'s
//!   non-test code may not panic (`unwrap_used`, `expect_used`, `panic`,
//!   `unreachable`, `todo`, `unimplemented`).
//! * **A `git grep` step** in CI fails on any sequentially consistent
//!   ordering, on an ordering written as a full path and on a glob import
//!   of `std::sync::atomic`, the spellings `disallowed_types` does not
//!   see. A second clippy step gives the `benchmark/` workspace's non-test
//!   code the SAFETY-comment rule and the type bans.
//! * **The tick law** (`tests/fault_properties.rs`,
//!   `every_query_ticks_as_often_as_its_stats_say`): every algorithm
//!   ticks its [`Checkpoint`] exactly as often as its stats say, so a
//!   [`FaultPlan`] one tick short trips it and one of exactly that many
//!   ticks leaves the result bit for bit unchanged.
//! * **Miri** and **ThreadSanitizer** nightly jobs are configured in
//!   `.github/workflows/ci.yml` but have never run, so what they would
//!   check is unverified. Miri would run the compressed-CSR decoder and
//!   backend-equivalence suites, the sparse-set model tests and the
//!   `lgc-parallel` and `lgc-ligra` unit tests under the interpreter (the
//!   unaligned-read / `STREAM_PAD` invariants, the pool's disjoint split
//!   that the primitives and the edge map write through); TSan
//!   (`-Zsanitizer=thread`) the `lgc-parallel`, `lgc-sparse` and
//!   `lgc-ligra` suites — the pool's job protocol and disjoint split,
//!   the phase-concurrent accumulators, and the edge maps — under a
//!   data-race detector.

// Atomic orderings and hash containers only where a file says why.
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

pub use lgc_core as cluster;
pub use lgc_flow as flow;
pub use lgc_graph as graph;
pub use lgc_ligra as ligra;
pub use lgc_parallel as parallel;
pub use lgc_server as server;
pub use lgc_sparse as sparse;

pub use lgc_core::{
    evolving_set_par, evolving_set_seq, find_cluster, hkpr_seq, nibble_seq, prnibble_seq,
    rand_hkpr_seq, sweep_cut_par, sweep_cut_seq, Algorithm, BoundaryHook, CancelToken, Checkpoint,
    ClusterResult, Diffusion, DiffusionStats, Direction, DirectionParams, Engine, EngineBuilder,
    EvolvingParams, FaultPlan, GraphStore, GraphSummary, HkprParams, InvalidParams, InvalidSeed,
    LifecycleSnapshot, LocalDiffusion, NcpParams, NibbleParams, PartialResult, PrNibbleParams,
    PushRule, Query, QueryBudget, QueryError, RandHkprParams, RefineStats, RefinedCut, Seed,
    Service, ServiceBuilder, ServiceEngine, SweepCut, Trip, Tripped, Workspace,
    WorkspaceBudgetExceeded,
};
pub use lgc_graph::{
    induced_cut_subgraph, CsrBackend, CsrCompressed, CutSubgraph, Graph, GraphBuilder,
};
pub use lgc_parallel::Pool;
