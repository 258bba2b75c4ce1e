//! The multi-graph query service — one process front door for the
//! paper's "many analysts, one shared-memory machine" workload.
//!
//! The software-survey framing this reproduces (Fountoulakis, Gleich,
//! Mahoney 2018) is a *service*: many users issue local-cluster queries
//! against a handful of resident graphs, and the system's job is to keep
//! per-query latency low without dedicating a machine (or a worker
//! fleet) to each graph. [`Service`] is that shape in one type:
//!
//! * graphs are **registered by name** at build time (or hot-added
//!   later), each getting its own workspace checkout pool and
//!   robustness counters;
//! * all of them share **one** thread [`Pool`] (an `Arc`, so the service
//!   can also share it with anything else in the process), whose width
//!   is one budget of threads: a lone query forks across it, concurrent
//!   queries split it and never wait for each other ([`Pool::shared`]);
//! * queries run through `&self` engines — any number of OS threads can
//!   call [`Service::engine`] and [`Engine::run`] concurrently, with
//!   scratch checked out per query and contention confined to a
//!   freelist pop/push.
//!
//! ```
//! use lgc_core::{Algorithm, PrNibbleParams, Query, Seed, Service};
//! use lgc_parallel::Pool;
//!
//! let service = Service::builder()
//!     .pool(Pool::shared(2))
//!     .add_graph("cliques", lgc_graph::gen::two_cliques_bridge(10))
//!     .add_graph("cycle", lgc_graph::gen::cycle(32))
//!     .build();
//!
//! let engine = service.engine("cliques").unwrap();
//! let res = engine.run(&Query::new(
//!     Seed::single(0),
//!     Algorithm::PrNibble(PrNibbleParams::default()),
//! ));
//! assert_eq!(res.cluster.len(), 10);
//! ```
//!
//! The determinism contract survives the sharing: a query answered
//! through a warm, concurrently-hammered service is bit-identical to the
//! same query on a cold single-thread [`Engine`]
//! (`tests/service_properties.rs` enforces exactly that from multiple OS
//! threads).

use crate::budget::{LifecycleSnapshot, QueryError};
use crate::engine::{Engine, EngineCore, Query};
use crate::result::ClusterResult;
use crate::workspace::default_workspace_budget;
use lgc_graph::{stats::GraphSummary, CsrBackend, CsrCompressed, Graph};
use lgc_parallel::Pool;
use std::sync::Arc;

/// A registered graph in either storage backend: plain CSR ([`Graph`])
/// or byte-compressed CSR ([`CsrCompressed`]). Both answer every query
/// bit-identically; compressed storage trades a decode per traversed
/// edge for a fraction of the adjacency bytes. `From` impls let
/// [`Service::add_graph`] accept any of `Graph`, `CsrCompressed`, or
/// `Arc`s of either.
#[derive(Clone)]
pub enum GraphStore {
    /// Plain CSR adjacency (`u32` per neighbor).
    Plain(Arc<Graph>),
    /// Delta + varint byte-coded adjacency.
    Compressed(Arc<CsrCompressed>),
}

impl From<Graph> for GraphStore {
    fn from(g: Graph) -> Self {
        GraphStore::Plain(Arc::new(g))
    }
}
impl From<Arc<Graph>> for GraphStore {
    fn from(g: Arc<Graph>) -> Self {
        GraphStore::Plain(g)
    }
}
impl From<CsrCompressed> for GraphStore {
    fn from(g: CsrCompressed) -> Self {
        GraphStore::Compressed(Arc::new(g))
    }
}
impl From<Arc<CsrCompressed>> for GraphStore {
    fn from(g: Arc<CsrCompressed>) -> Self {
        GraphStore::Compressed(g)
    }
}

impl GraphStore {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        match self {
            GraphStore::Plain(g) => g.num_vertices(),
            GraphStore::Compressed(g) => g.num_vertices(),
        }
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        match self {
            GraphStore::Plain(g) => g.num_edges(),
            GraphStore::Compressed(g) => g.num_edges(),
        }
    }

    /// Total resident bytes of the graph structure.
    pub fn memory_bytes(&self) -> usize {
        match self {
            GraphStore::Plain(g) => g.memory_bytes(),
            GraphStore::Compressed(g) => g.memory_bytes(),
        }
    }

    /// The plain-CSR graph, if that is the backend.
    pub fn as_plain(&self) -> Option<&Arc<Graph>> {
        match self {
            GraphStore::Plain(g) => Some(g),
            GraphStore::Compressed(_) => None,
        }
    }
}

/// One registered graph: the graph itself plus its engine state
/// (workspace checkout pool + counters) over the service's shared pool.
struct GraphEntry {
    name: String,
    store: GraphStore,
    core: Arc<EngineCore>,
}

/// A shared-runtime, concurrent-query front door over any number of
/// named graphs — see the module docs. Build with [`Service::builder`].
///
/// `Service` is `Send + Sync`; wrap it in an `Arc` (or borrow it from a
/// scope) and query away from every thread you have.
pub struct Service {
    pool: Arc<Pool>,
    graphs: Vec<GraphEntry>,
}

impl Service {
    /// Starts building a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder {
            pool: None,
            threads: None,
            graphs: Vec::new(),
        }
    }

    /// An engine over the graph registered as `name`, or `None` if no
    /// such graph. Making one is an `Arc` bump (no allocation) and it
    /// queries through `&self`: grab one per request, or keep one
    /// around — both are fine, and all of them share the graph's warm
    /// workspaces and counters. Results are bit-identical across
    /// storage backends.
    pub fn engine(&self, name: &str) -> Option<ServiceEngine<'_>> {
        self.entry(name).map(|e| {
            let core = Arc::clone(&e.core);
            match &e.store {
                GraphStore::Plain(g) => ServiceEngine::Plain(Engine { g, core }),
                GraphStore::Compressed(g) => ServiceEngine::Compressed(Engine { g, core }),
            }
        })
    }

    /// The registered graph named `name`, if it uses the plain-CSR
    /// backend ([`Service::store`] reaches either backend).
    pub fn graph(&self, name: &str) -> Option<&Arc<Graph>> {
        self.entry(name).and_then(|e| e.store.as_plain())
    }

    /// The storage backend of the graph named `name`.
    pub fn store(&self, name: &str) -> Option<&GraphStore> {
        self.entry(name).map(|e| &e.store)
    }

    /// Robustness counters of the graph named `name` — admitted /
    /// completed / shed / tripped / in-flight, next to the summary
    /// endpoint. A tenant dashboard polls this for shed rates.
    pub fn lifecycle(&self, name: &str) -> Option<LifecycleSnapshot> {
        self.entry(name).map(|e| e.core.counters.snapshot())
    }

    /// Summary statistics of the graph named `name`
    /// ([`GraphSummary::of`]; computed on first request, then free).
    /// Includes the backend's resident byte counts, so a deployment can
    /// compare plain vs compressed storage per graph.
    pub fn summary(&self, name: &str) -> Option<GraphSummary> {
        self.engine(name).map(|e| match e {
            ServiceEngine::Plain(e) => e.summary(),
            ServiceEngine::Compressed(e) => e.summary(),
        })
    }

    /// Registered graph names, sorted — the listing endpoint for
    /// serving layers (the `lgc-server` `LIST` request and metrics
    /// page).
    pub fn graph_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.graphs.iter().map(|e| e.name.clone()).collect();
        v.sort_unstable();
        v
    }

    /// Number of registered graphs.
    pub fn num_graphs(&self) -> usize {
        self.graphs.len()
    }

    /// The shared thread pool every registered graph queries through.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Registers (or hot-swaps) a graph after build — a [`Graph`], a
    /// [`CsrCompressed`], or an `Arc` of either. Replacing a name drops
    /// the old graph's engine state — its workspace pool and summary
    /// belong to the graph they were built for. The workspace byte
    /// budget is 4× the graph's resident bytes (clamped to
    /// `[32 MiB, 1 GiB]`).
    pub fn add_graph(&mut self, name: impl Into<String>, graph: impl Into<GraphStore>) {
        let (name, store) = (name.into(), graph.into());
        let pool = Arc::clone(&self.pool);
        // Every graph of a service runs under the default direction policy.
        let dir = Default::default();
        let budget = default_workspace_budget(store.memory_bytes());
        let core = Arc::new(EngineCore::new(pool, dir, budget, store.num_vertices()));
        let entry = GraphEntry { name, store, core };
        match self.graphs.iter_mut().find(|e| e.name == entry.name) {
            Some(slot) => *slot = entry,
            None => self.graphs.push(entry),
        }
    }

    fn entry(&self, name: &str) -> Option<&GraphEntry> {
        self.graphs.iter().find(|e| e.name == name)
    }
}

/// The [`Engine`] of one registered graph, in whichever storage backend
/// the graph was registered with. Backend-agnostic callers (a serving
/// layer dispatching requests by tenant name) use the two forwards
/// below; the rest of the [`Engine`] API is reached by matching the
/// variant (or through [`as_plain`](ServiceEngine::as_plain)).
#[derive(Clone)]
pub enum ServiceEngine<'a> {
    /// Engine over a plain-CSR graph.
    Plain(Engine<'a, Graph>),
    /// Engine over a byte-compressed graph.
    Compressed(Engine<'a, CsrCompressed>),
}

impl<'a> ServiceEngine<'a> {
    /// See [`Engine::run`].
    pub fn run(&self, query: &Query) -> ClusterResult {
        match self {
            ServiceEngine::Plain(e) => e.run(query),
            ServiceEngine::Compressed(e) => e.run(query),
        }
    }

    /// See [`Engine::try_run`]: seed and parameter validation, admission
    /// control, query budgets, and typed [`QueryError`]s with partial
    /// results — the governed front door.
    pub fn try_run(&self, query: &Query) -> Result<ClusterResult, QueryError> {
        match self {
            ServiceEngine::Plain(e) => e.try_run(query),
            ServiceEngine::Compressed(e) => e.try_run(query),
        }
    }

    /// The plain-CSR engine, if that is the backend.
    pub fn as_plain(&self) -> Option<&Engine<'a, Graph>> {
        match self {
            ServiceEngine::Plain(e) => Some(e),
            ServiceEngine::Compressed(_) => None,
        }
    }
}

/// Builds a [`Service`]; obtained from [`Service::builder`].
pub struct ServiceBuilder {
    pool: Option<Arc<Pool>>,
    threads: Option<usize>,
    graphs: Vec<(String, GraphStore)>,
}

impl ServiceBuilder {
    /// Adopts a shared pool (e.g. [`Pool::shared`]) — the usual way, so
    /// the service and the rest of the process agree on one worker set.
    pub fn pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Spawns a fresh pool of exactly `threads` threads at build time
    /// (ignored if [`Self::pool`] was given). Default: machine-sized.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Registers a graph under `name` — a [`Graph`], a
    /// [`CsrCompressed`], or an `Arc` of either.
    ///
    /// # Panics
    /// If `name` is already registered (two tenants silently sharing a
    /// name is a deployment bug; post-build [`Service::add_graph`] is
    /// the intentional-replacement path).
    pub fn add_graph(mut self, name: impl Into<String>, graph: impl Into<GraphStore>) -> Self {
        let name = name.into();
        assert!(
            !self.graphs.iter().any(|(n, _)| *n == name),
            "graph {name:?} registered twice"
        );
        self.graphs.push((name, graph.into()));
        self
    }

    /// Builds the service (spawning the pool's workers if none was
    /// adopted).
    pub fn build(self) -> Service {
        let pool = self.pool.unwrap_or_else(|| {
            Arc::new(match self.threads {
                Some(t) => Pool::new(t),
                None => Pool::with_default_threads(),
            })
        });
        let mut svc = Service {
            pool,
            graphs: Vec::new(),
        };
        for (name, store) in self.graphs {
            svc.add_graph(name, store);
        }
        svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_cluster, Algorithm, PrNibbleParams, Query, Seed};
    use lgc_graph::gen;

    fn two_graph_service(threads: usize) -> Service {
        Service::builder()
            .pool(Pool::shared(threads))
            .add_graph("cliques", gen::two_cliques_bridge(10))
            .add_graph("local", gen::rand_local(200, 5, 3))
            .build()
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Service>();
    }

    #[test]
    fn registration_and_lookup() {
        let svc = two_graph_service(1);
        assert_eq!(svc.num_graphs(), 2);
        assert_eq!(svc.graph_names(), vec!["cliques", "local"]);
        assert!(svc.engine("cliques").is_some());
        assert!(svc.engine("absent").is_none());
        assert_eq!(svc.graph("cliques").unwrap().num_vertices(), 20);
        let s = svc.summary("local").unwrap();
        assert_eq!(s.num_vertices, 200);
        assert!(svc.summary("absent").is_none());
    }

    #[test]
    fn graph_names_listing_is_sorted() {
        let mut svc = Service::builder()
            .pool(Pool::shared(1))
            .add_graph("zeta", gen::cycle(4))
            .add_graph("alpha", gen::cycle(5))
            .build();
        svc.add_graph("mid", gen::star(3));
        assert_eq!(svc.graph_names(), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn queries_match_cold_engine_runs() {
        let svc = two_graph_service(2);
        let q = Query::new(
            Seed::single(1),
            Algorithm::PrNibble(PrNibbleParams::default()),
        );
        for name in ["cliques", "local"] {
            let engine = svc.engine(name).unwrap();
            assert_eq!(engine.as_plain().unwrap().num_threads(), 2);
            let got = engine.run(&q);
            let pool = Pool::new(2);
            let want = find_cluster(&pool, svc.graph(name).unwrap().as_ref(), &q.seed, &q.algo);
            assert_eq!(got.cluster, want.cluster, "{name}");
            assert_eq!(got.conductance, want.conductance);
        }
    }

    #[test]
    fn all_graphs_share_the_one_pool() {
        let pool = Pool::shared(3);
        let svc = Service::builder()
            .pool(Arc::clone(&pool))
            .add_graph("a", gen::cycle(12))
            .add_graph("b", gen::cycle(16))
            .build();
        assert!(Arc::ptr_eq(svc.pool(), &pool));
        for name in ["a", "b"] {
            let engine = svc.engine(name).unwrap();
            assert!(std::ptr::eq(
                engine.as_plain().unwrap().pool(),
                pool.as_ref()
            ));
        }
    }

    #[test]
    fn hot_add_and_replace() {
        let mut svc = two_graph_service(1);
        svc.add_graph("extra", gen::star(6));
        assert_eq!(svc.num_graphs(), 3);
        assert_eq!(svc.graph("extra").unwrap().num_vertices(), 6);
        // Replacing a name swaps the graph and resets its engine state.
        svc.add_graph("extra", gen::star(9));
        assert_eq!(svc.num_graphs(), 3);
        assert_eq!(svc.graph("extra").unwrap().num_vertices(), 9);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn builder_rejects_duplicate_names() {
        let _ = Service::builder()
            .add_graph("dup", gen::cycle(4))
            .add_graph("dup", gen::cycle(5));
    }
}
