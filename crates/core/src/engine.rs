//! The query engine: one reusable entry point for every local diffusion.
//!
//! The paper frames Nibble, PR-Nibble, HK-PR, rand-HK-PR, and the
//! evolving-set process as one family of local diffusions over the same
//! frontier framework, and its motivating workload is a stream of
//! interactive queries ("an analyst would run a computation, study the
//! result, and based on that determine what computation to run next").
//! Serving that stream with free functions means rebuilding every piece
//! of scratch state — mass tables (the sweep's ranks among them),
//! frontier bitsets, the edge map's contribution buffer — on every call,
//! even though all of it is reusable across queries against the same
//! graph.
//!
//! [`Engine`] fixes that: one type bundling a [`Pool`] (owned, or an
//! `Arc` share of a server-wide one), a `&Graph` and a checkout pool of
//! [`Workspace`]s — built once and then hit with any number of queries
//! **from any number of threads**, because every query method takes
//! `&self` (scratch is checked out of the workspace pool at the query
//! boundary, not borrowed from the engine):
//!
//! ```
//! use lgc_core::{Algorithm, Engine, PrNibbleParams, Query, Seed};
//! let g = lgc_graph::gen::two_cliques_bridge(12);
//! let engine = Engine::builder(&g).threads(2).build();
//! let result = engine.run(&Query::new(
//!     Seed::single(3),
//!     Algorithm::PrNibble(PrNibbleParams::default()),
//! ));
//! assert_eq!(result.cluster.len(), 12);
//! ```
//!
//! [`Algorithm`] implements the [`LocalDiffusion`] trait (seed →
//! diffusion over the shared workspace), and an [`Engine`] query is
//! *bit-identical* to the same call over a fresh [`Workspace`]: the workspace
//! checkout path ([`lgc_sparse::MassMap::recycle`],
//! [`lgc_ligra::VertexSubset::recycle`]) re-fits each recycled buffer so it
//! is observationally indistinguishable from a fresh allocation, and
//! nothing else outlives a query. Warm queries simply skip the allocator.
//!
//! Batch execution generalizes to any algorithm through
//! [`Engine::run_batch`]: queries are fanned across the
//! pool's threads, each worker chunk checking a private [`Workspace`]
//! out of the engine's pool — warm across `run_batch` *calls*, not just
//! within one (see [`crate::batch`] for the inter- vs intra-query
//! parallelism trade-off the paper discusses).
//!
//! Serving many graphs from one process is the job of
//! [`Service`](crate::Service), which hands out an [`Engine`] per
//! registered graph over a single shared [`Pool`].

use crate::budget::{InvalidSeed, LifecycleCounters, LifecycleSnapshot, PartialResult, QueryError};
use crate::evolving::{evolving_set_par_ws, evolving_set_seq};
use crate::hkpr::{hkpr_par, hkpr_seq};
use crate::ncp::{ncp_prnibble, NcpParams, NcpPoint};
use crate::nibble::{nibble_par, nibble_seq};
use crate::prnibble::{prnibble_par, prnibble_seq};
use crate::rand_hkpr::{rand_hkpr_par, rand_hkpr_seq};
use crate::result::{ClusterResult, Diffusion};
use crate::seed::Seed;
use crate::sweep::sweep_cut_par_ws;
use crate::workspace::{default_workspace_budget, Workspace, WorkspacePool};
use crate::Algorithm;
use lgc_graph::{stats::GraphSummary, CsrBackend, Graph};
use lgc_ligra::{Checkpoint, DirectionParams, QueryBudget, Tripped};
use lgc_parallel::Pool;
use std::sync::{Arc, OnceLock};

/// A local diffusion algorithm: seed → parameters (`self`) → sparse mass
/// vector, computed over a recyclable [`Workspace`].
///
/// Implemented by [`Algorithm`], which dispatches to the paper's five
/// processes and is what [`Engine`] runs.
pub trait LocalDiffusion {
    /// Short algorithm name for logs and benchmark labels.
    fn name(&self) -> &'static str;

    /// Runs the work-efficient parallel algorithm from `seed`, checking
    /// scratch buffers out of `ws` (and returning them) instead of
    /// allocating, and consulting `cp` once per frontier iteration.
    /// When the checkpoint trips, the mass settled up to the last
    /// completed iteration comes back as [`Tripped::partial`]
    /// with every workspace buffer already returned — the checkout is
    /// fully recyclable. With an unlimited checkpoint this is exactly
    /// [`LocalDiffusion::diffuse`], bit for bit.
    fn diffuse_guarded<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        cp: &Checkpoint,
    ) -> Result<Diffusion, Tripped<Diffusion>>;

    /// Runs the work-efficient parallel algorithm from `seed`, checking
    /// scratch buffers out of `ws` (and returning them) instead of
    /// allocating. This is the one parallel entry per diffusion: over a
    /// fresh [`Workspace`] it is a one-shot run, over a warm one it gives
    /// the same bits without the allocator traffic (an [`Engine`] keeps the
    /// warm ones; [`Engine::diffuse`] is this call over a checkout).
    /// Generic over the CSR backend — plain and byte-compressed adjacency
    /// produce bit-identical output because both enumerate neighbors in
    /// ascending order.
    fn diffuse<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
    ) -> Diffusion {
        match self.diffuse_guarded(pool, g, seed, ws, &Checkpoint::unlimited()) {
            Ok(d) => d,
            Err(_) => unreachable!("an unlimited checkpoint never trips"),
        }
    }

    /// Runs the sequential reference implementation (fresh state).
    fn diffuse_seq<B: CsrBackend>(&self, g: &B, seed: &Seed) -> Diffusion;
}

impl LocalDiffusion for Algorithm {
    fn name(&self) -> &'static str {
        match self {
            Algorithm::Nibble(_) => "nibble",
            Algorithm::PrNibble(_) => "prnibble",
            Algorithm::Hkpr(_) => "hkpr",
            Algorithm::RandHkpr(_) => "rand-hkpr",
            Algorithm::Evolving(_) => "evolving",
        }
    }
    fn diffuse_guarded<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        cp: &Checkpoint,
    ) -> Result<Diffusion, Tripped<Diffusion>> {
        match self {
            Algorithm::Nibble(p) => nibble_par(pool, g, seed, p, ws, cp),
            Algorithm::PrNibble(p) => prnibble_par(pool, g, seed, p, ws, cp),
            Algorithm::Hkpr(p) => hkpr_par(pool, g, seed, p, ws, cp),
            Algorithm::RandHkpr(p) => rand_hkpr_par(pool, g, seed, p, ws, cp),
            // The evolving-set process selects a *set*, not a mass vector;
            // as a diffusion it yields the membership indicator of its
            // best set (mass `1/|S|` per member). [`Engine::run`] bypasses
            // the sweep for it and reports the set directly.
            Algorithm::Evolving(p) => evolving_set_par_ws(pool, g, seed, p, ws, cp)
                .map(|res| res.indicator())
                .map_err(|t| t.map(|res| res.indicator())),
        }
    }
    fn diffuse_seq<B: CsrBackend>(&self, g: &B, seed: &Seed) -> Diffusion {
        match self {
            Algorithm::Nibble(p) => nibble_seq(g, seed, p),
            Algorithm::PrNibble(p) => prnibble_seq(g, seed, p),
            Algorithm::Hkpr(p) => hkpr_seq(g, seed, p),
            Algorithm::RandHkpr(p) => rand_hkpr_seq(g, seed, p),
            Algorithm::Evolving(p) => evolving_set_seq(g, seed, p).indicator(),
        }
    }
}

/// One clustering query: a seed set plus the algorithm (with parameters)
/// to diffuse with, optionally bounded by a [`QueryBudget`].
#[derive(Clone, Debug)]
pub struct Query {
    /// Where the diffusion starts.
    pub seed: Seed,
    /// Which diffusion to run, with its parameters.
    pub algo: Algorithm,
    /// Execution limits honored by the fallible entry point
    /// [`Engine::try_run`]; unset fields are unlimited. The infallible
    /// [`Engine::run`] and [`Engine::run_batch`] ignore budgets entirely.
    pub budget: QueryBudget,
}

impl Query {
    /// A query running `algo` from `seed`, with no limits of its own.
    pub fn new(seed: Seed, algo: Algorithm) -> Self {
        Query {
            seed,
            algo,
            budget: QueryBudget::unlimited(),
        }
    }

    /// Attaches per-query execution limits.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// One full query — diffusion + rounding over a shared workspace, under
/// a [`Checkpoint`]: the single code path behind [`crate::find_cluster`]
/// and the engine's executor (single queries and batch worker chunks
/// alike), which is what makes them agree bit-for-bit. On a trip the
/// error carries a [`PartialResult`] — the partial diffusion vector, its
/// work counters, and a best-so-far sweep cut. Sweeping the partial
/// vector uses an *unlimited* checkpoint: its cost is bounded by the
/// diffusion work the budget already admitted, and a tripped query
/// should still hand back the best cluster its completed iterations can
/// support. Either way the workspace ends the call fully recycled (all
/// buffers returned), so the checkout is indistinguishable from one that
/// served a completed query.
pub(crate) fn try_run_query<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    ws: &mut Workspace,
    seed: &Seed,
    algo: &Algorithm,
    cp: &Checkpoint,
) -> Result<ClusterResult, Tripped<Box<PartialResult>>> {
    let partial = |diffusion: Diffusion, sweep| {
        Box::new(PartialResult {
            stats: diffusion.stats,
            diffusion: Some(diffusion),
            sweep,
        })
    };
    if let Algorithm::Evolving(p) = algo {
        // The evolving-set process reports its best set directly — a
        // tripped run's best-so-far *is* its normal output shape.
        return evolving_set_par_ws(pool, g, seed, p, ws, cp)
            .map(ClusterResult::from_evolving)
            .map_err(|t| {
                t.map(|res| {
                    let res = ClusterResult::from_evolving(res);
                    partial(res.diffusion, Some(res.sweep))
                })
            });
    }
    match algo.diffuse_guarded(pool, g, seed, ws, cp) {
        Ok(diffusion) => match sweep_cut_par_ws(pool, g, &diffusion.p, ws, cp) {
            Ok(sweep) => Ok(ClusterResult::new(diffusion, sweep)),
            Err(trip) => Err(Tripped {
                trip,
                partial: partial(diffusion, None),
            }),
        },
        Err(tripped) => Err(tripped.map(|diffusion| {
            let sweep = sweep_cut_par_ws(pool, g, &diffusion.p, ws, &Checkpoint::unlimited())
                .unwrap_or_else(|_| unreachable!("an unlimited checkpoint never trips"));
            partial(diffusion, Some(sweep))
        })),
    }
}

/// The half of an engine that does not borrow the graph — its pool (its
/// own, or a share of a [`Service`](crate::Service)'s), workspace
/// checkout pool (with the engine's direction policy and workspace byte
/// budget), the robustness counters of the graph's queries, and the
/// graph's summary once somebody has asked for it.
/// Every [`Engine`] clone over a graph shares one behind an `Arc`;
/// [`Service`](crate::Service) keeps one per registered graph.
pub(crate) struct EngineCore {
    pool: Arc<Pool>,
    pub(crate) workspaces: WorkspacePool,
    pub(crate) counters: LifecycleCounters,
    summary: OnceLock<GraphSummary>,
}

impl EngineCore {
    /// A core traversing per `dir` whose parked and in-flight workspaces
    /// may hold `workspace_budget` bytes (the served paths size it with
    /// [`default_workspace_budget`] from the graph's resident bytes).
    pub(crate) fn new(pool: Arc<Pool>, dir: DirectionParams, workspace_budget: usize) -> Self {
        EngineCore {
            pool,
            workspaces: WorkspacePool::new(dir, workspace_budget),
            counters: LifecycleCounters::default(),
            summary: OnceLock::new(),
        }
    }
}

/// Builds an [`Engine`]; obtained from [`Engine::builder`]. Generic over
/// the CSR backend (`B = Graph` by default; pass a
/// [`CsrCompressed`](lgc_graph::CsrCompressed) reference to
/// [`Engine::builder`] to serve byte-compressed adjacency).
pub struct EngineBuilder<'g, B: CsrBackend = Graph> {
    g: &'g B,
    threads: Option<usize>,
    pool: Option<Arc<Pool>>,
    dir: DirectionParams,
}

impl<'g, B: CsrBackend> EngineBuilder<'g, B> {
    /// Exact thread count for the engine's pool (`Pool::new` semantics:
    /// not clamped to the machine, so benchmark sweeps stay comparable
    /// across hosts). Default: one thread per available core.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Adopts an already-built pool (overrides [`Self::threads`]).
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = Some(Arc::new(pool));
        self
    }

    /// Shares an existing pool instead of spawning one — several engines
    /// (or a whole [`Service`](crate::Service)) over one worker set.
    /// Overrides [`Self::threads`].
    pub fn shared_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The direction policy of every `edgeMap` iteration run through the
    /// engine — the one place a direction can be pinned, e.g.
    /// `DirectionParams::push_only()` to measure the engine without
    /// direction optimization. Results do not depend on it; the default
    /// and its rationale are on [`lgc_ligra::EdgeSpread`].
    pub fn direction(mut self, dir: DirectionParams) -> Self {
        self.dir = dir;
        self
    }

    /// Builds the engine (spawning the pool's workers if needed).
    pub fn build(self) -> Engine<'g, B> {
        let pool = self.pool.unwrap_or_else(|| {
            Arc::new(match self.threads {
                Some(t) => Pool::new(t),
                None => Pool::with_default_threads(),
            })
        });
        let budget = default_workspace_budget(self.g.memory_bytes());
        let core = EngineCore::new(pool, self.dir, budget);
        Engine {
            g: self.g,
            core: Arc::new(core),
        }
    }
}

/// How a query enters the engine's executor.
#[derive(Clone, Copy)]
pub(crate) enum Admission {
    /// The `try_*` entry points: the workspace byte budget may shed the
    /// query, and it runs under its [`QueryBudget`].
    Governed,
    /// The infallible entry points: never shed, never budgeted.
    Bypass,
}

/// The one query type over a graph: a thread [`Pool`] (owned or shared),
/// the graph, and a checkout pool of [`Workspace`]s.
/// Build once, query many times — from as many threads as you like,
/// since every query method takes `&self` and checks a [`Workspace`] out
/// of the pool for the query's duration. Cloning is an `Arc` bump:
/// clones (and every [`Service::engine`](crate::Service::engine) over
/// the same registered graph) share the pool, the warm workspaces and
/// the robustness counters. See the crate docs for the full story.
///
/// Queries through a warm engine return results bit-identical to a cold
/// run over a fresh [`Workspace`] ([`crate::find_cluster`]) —
/// workspace checkouts are invisible in the output, only in the
/// allocator profile and the amortized per-query latency
/// (`core.engine.cold_over_warm` in `benchmark/`).
pub struct Engine<'g, B: CsrBackend = Graph> {
    pub(crate) g: &'g B,
    pub(crate) core: Arc<EngineCore>,
}

// Manual impl: `derive(Clone)` would demand `B: Clone`, but the engine
// only holds `&B`.
impl<B: CsrBackend> Clone for Engine<'_, B> {
    fn clone(&self) -> Self {
        Engine {
            g: self.g,
            core: Arc::clone(&self.core),
        }
    }
}

impl<'g, B: CsrBackend> Engine<'g, B> {
    /// Starts building an engine over `g` — a plain [`Graph`] or a
    /// [`CsrCompressed`](lgc_graph::CsrCompressed); queries are
    /// bit-identical either way.
    pub fn builder(g: &'g B) -> EngineBuilder<'g, B> {
        EngineBuilder {
            g,
            threads: None,
            pool: None,
            dir: DirectionParams::default(),
        }
    }

    /// An engine over `g` with default settings (machine-sized pool).
    pub fn new(g: &'g B) -> Self {
        Self::builder(g).build()
    }

    /// The graph this engine serves queries against.
    pub fn graph(&self) -> &'g B {
        self.g
    }

    /// The engine's thread pool.
    pub fn pool(&self) -> &Pool {
        &self.core.pool
    }

    /// Total threads participating in each query.
    pub fn num_threads(&self) -> usize {
        self.core.pool.num_threads()
    }

    /// Summary statistics of the engine's graph ([`GraphSummary::of`]) —
    /// an `O(n)` pass the first time, served from memory after. For
    /// introspection; no query reads it.
    pub fn summary(&self) -> GraphSummary {
        *self.core.summary.get_or_init(|| GraphSummary::of(self.g))
    }

    /// Number of warm workspaces parked in the checkout pool (0 on a
    /// fresh engine; grows to the peak number of concurrent queries /
    /// batch worker chunks, then stabilizes; `benchmark/` reports it as
    /// `core.engine.warm_workspaces`).
    pub fn warm_workspaces(&self) -> usize {
        self.core.workspaces.warm_count()
    }

    /// Per-graph robustness counters: admitted / completed / shed /
    /// tripped / in-flight. Every admitted query — single or batch item,
    /// fallible or not — ends in exactly one of completed / tripped.
    pub fn lifecycle_stats(&self) -> LifecycleSnapshot {
        self.core.counters.snapshot()
    }

    /// Rejects a seed outside the graph and parameters failing
    /// [`Algorithm::check`] — the input checks every entry point runs
    /// before it takes any resource — booking either in `invalid`.
    fn validate(&self, seed: &Seed, algo: &Algorithm) -> Result<(), QueryError> {
        let n = self.g.num_vertices();
        let checked = match seed.vertices().iter().find(|&&v| v as usize >= n) {
            Some(&vertex) => Err(InvalidSeed {
                vertex,
                num_vertices: n,
            }
            .into()),
            None => algo.check().map_err(QueryError::from),
        };
        checked.inspect_err(|_| self.core.counters.note_invalid())
    }

    /// The one executor behind every query entry point: a single query
    /// (`chunk_ws` is `None` — scratch is checked out for this query
    /// alone) or one item of a batch worker chunk, which lends the
    /// workspace it recycles across its items. Bad input is rejected
    /// before any resource is taken; the budget clock starts at the
    /// query's own first iteration; every admitted query books exactly
    /// one of completed / tripped. The calling thread counts against
    /// `pool`'s width for the query's duration ([`Pool::enter`]), so
    /// queries running beside it fork only onto threads it leaves free.
    pub(crate) fn execute(
        &self,
        pool: &Pool,
        chunk_ws: Option<&mut Workspace>,
        query: &Query,
        admission: Admission,
    ) -> Result<ClusterResult, QueryError> {
        let core = &*self.core;
        let governed = matches!(admission, Admission::Governed);
        self.validate(&query.seed, &query.algo)?;
        let _caller = pool.enter();
        // The slot is released on drop, on every return path below.
        let _slot = core.counters.enter();
        let mut own = None;
        let ws = match chunk_ws {
            Some(ws) => ws,
            None if governed => own.insert(
                core.workspaces
                    .try_checkout()
                    .inspect_err(|_| core.counters.note_shed_workspace())?,
            ),
            None => own.insert(core.workspaces.checkout()),
        };
        core.counters.note_admitted();
        let cp = if governed {
            query.budget.arm()
        } else {
            Checkpoint::unlimited()
        };
        let out = try_run_query(pool, self.g, ws, &query.seed, &query.algo, &cp);
        if let Some(ws) = own {
            core.workspaces.restore(ws, &core.counters);
        }
        match out {
            Ok(res) => {
                core.counters.note_completed();
                Ok(res)
            }
            Err(tripped) => {
                core.counters.note_trip(tripped.trip);
                Err(QueryError::Tripped(tripped))
            }
        }
    }

    /// Runs one full query — diffusion plus sweep-cut rounding (the
    /// evolving-set process reports its best set directly; see
    /// [`ClusterResult::from_evolving`]) — over a workspace checked out
    /// of the engine's pool. Equivalent to [`crate::find_cluster`],
    /// minus the allocations. Callable from any thread. This is
    /// [`Engine::try_run`] with admission bypassed and no budget.
    ///
    /// # Panics
    /// On an out-of-range seed or parameters failing
    /// [`Algorithm::check`] — the only errors an ungoverned query can
    /// meet; `try_run` returns them typed.
    pub fn run(&self, query: &Query) -> ClusterResult {
        self.execute(self.pool(), None, query, Admission::Bypass)
            .unwrap_or_else(|e| panic!("Engine::run: {e}"))
    }

    /// The governed form of [`Engine::run`]: validates the seed and the
    /// parameters, checks the workspace out under the engine's byte
    /// budget, honors the query's [`QueryBudget`], and returns a typed
    /// [`QueryError`] — carrying the best-so-far [`PartialResult`] for
    /// mid-run trips — instead of running unboundedly or panicking.
    /// Concurrency is not capped here: a serving layer bounds it (in
    /// `lgc-server`, the connection cap, the class queues and the
    /// executor count).
    pub fn try_run(&self, query: &Query) -> Result<ClusterResult, QueryError> {
        self.execute(self.pool(), None, query, Admission::Governed)
    }

    /// Runs just the diffusion of `algo` from `seed` (no sweep):
    /// [`LocalDiffusion::diffuse`] over a checked-out workspace, bit for
    /// bit the same as over a fresh one.
    ///
    /// # Panics
    /// On an out-of-range seed or parameters failing
    /// [`Algorithm::check`], like [`Engine::run`].
    pub fn diffuse(&self, seed: &Seed, algo: &Algorithm) -> Diffusion {
        self.validate(seed, algo)
            .unwrap_or_else(|e| panic!("Engine::diffuse: {e}"));
        let _caller = self.pool().enter();
        let mut ws = self.core.workspaces.checkout();
        let out = algo.diffuse(self.pool(), self.g, seed, &mut ws);
        self.core.workspaces.restore(ws, &self.core.counters);
        out
    }

    /// Computes a network community profile (§4) with PR-Nibble
    /// diffusions, one workspace checkout serving the whole
    /// seed × α × ε grid — the highest-leverage consumer of workspace
    /// recycling, since an NCP scan is hundreds of back-to-back queries.
    pub fn ncp(&self, params: &NcpParams) -> Vec<NcpPoint> {
        let _caller = self.pool().enter();
        let mut ws = self.core.workspaces.checkout();
        let out = ncp_prnibble(self.pool(), self.g, params, &mut ws);
        self.core.workspaces.restore(ws, &self.core.counters);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        evolving_set_par, find_cluster, EvolvingParams, HkprParams, NibbleParams, PrNibbleParams,
        RandHkprParams,
    };
    use lgc_graph::gen;

    fn algorithms() -> Vec<Algorithm> {
        vec![
            Algorithm::Nibble(NibbleParams {
                t_max: 12,
                eps: 1e-7,
            }),
            Algorithm::PrNibble(PrNibbleParams {
                alpha: 0.05,
                eps: 1e-6,
                ..Default::default()
            }),
            Algorithm::Hkpr(HkprParams {
                t: 6.0,
                n_levels: 12,
                eps: 1e-6,
            }),
            Algorithm::RandHkpr(RandHkprParams {
                walks: 5_000,
                ..Default::default()
            }),
            Algorithm::Evolving(EvolvingParams {
                max_steps: 25,
                rng_seed: 9,
                ..Default::default()
            }),
        ]
    }

    /// A warm engine must return exactly what the free functions return:
    /// interleave all five algorithms twice over the same engine and
    /// compare every run against a cold `find_cluster` (1 thread ⇒ fully
    /// deterministic, so "identical" means bit-identical).
    #[test]
    fn warm_engine_matches_free_functions_bitwise_at_one_thread() {
        let g = gen::rmat_graph500(9, 8, 21);
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        let engine = Engine::builder(&g).threads(1).build();
        for round in 0..2 {
            for algo in algorithms() {
                let warm = engine.run(&Query::new(seed.clone(), algo.clone()));
                let pool = Pool::new(1);
                let cold = find_cluster(&pool, &g, &seed, &algo);
                assert_eq!(
                    warm.diffusion.p,
                    cold.diffusion.p,
                    "{} r{round}",
                    algo.name()
                );
                assert_eq!(warm.diffusion.stats, cold.diffusion.stats);
                assert_eq!(warm.cluster, cold.cluster);
                assert_eq!(warm.conductance, cold.conductance);
                assert_eq!(warm.sweep.conductances, cold.sweep.conductances);
            }
        }
    }

    /// `engine.diffuse` over a warm workspace is `LocalDiffusion::diffuse`
    /// over a fresh one.
    #[test]
    fn engine_diffuse_matches_a_fresh_workspace() {
        let g = gen::rand_local(600, 5, 3);
        let seed = Seed::single(0);
        let engine = Engine::builder(&g).threads(1).build();
        let pool = Pool::new(1);
        for algo in algorithms() {
            let warm = engine.diffuse(&seed, &algo);
            let cold = algo.diffuse(&pool, &g, &seed, &mut Workspace::new());
            assert_eq!(warm.p, cold.p, "{}", algo.name());
        }
    }

    /// `diffuse` checks its input like `run` does: a seed outside the
    /// graph is a typed panic at the door, not an index out of bounds deep
    /// inside a diffusion.
    #[test]
    #[should_panic(expected = "Engine::diffuse: seed vertex 600 out of range")]
    fn diffuse_rejects_an_out_of_range_seed() {
        let g = gen::rand_local(600, 5, 3);
        let engine = Engine::builder(&g).threads(1).build();
        engine.diffuse(&Seed::single(600), &algorithms()[0]);
    }

    /// ... and so are parameters no diffusion is defined on (Nibble calls
    /// no `validate()` of its own: `eps = NaN` used to return the seed
    /// vector silently).
    #[test]
    #[should_panic(expected = "Engine::diffuse: invalid parameter: eps must be finite")]
    fn diffuse_rejects_invalid_params() {
        let g = gen::rand_local(600, 5, 3);
        let engine = Engine::builder(&g).threads(1).build();
        let algo = Algorithm::Nibble(NibbleParams {
            eps: f64::NAN,
            ..Default::default()
        });
        engine.diffuse(&Seed::single(0), &algo);
    }

    /// The evolving-set query reports the process's best set directly.
    #[test]
    fn evolving_query_reports_best_set() {
        let g = gen::two_cliques_bridge(10);
        let params = EvolvingParams {
            max_steps: 40,
            rng_seed: 5,
            ..Default::default()
        };
        let engine = Engine::builder(&g).threads(2).build();
        let got = engine.run(&Query::new(Seed::single(0), Algorithm::Evolving(params)));
        let pool = Pool::new(2);
        let want = evolving_set_par(&pool, &g, &Seed::single(0), &params);
        assert_eq!(got.cluster, want.best_set);
        assert_eq!(got.conductance, want.best_conductance);
        assert!((got.diffusion.total_mass() - 1.0).abs() < 1e-12);
    }

    /// A work cap bounds the counter it names, for every algorithm: a
    /// capped `try_run` that trips hands back a partial whose capped
    /// counter has just passed the cap — the evolving-set process's too,
    /// which is charged `|S|` pushes and `vol(S)` edges per step.
    #[test]
    fn a_work_capped_query_trips_with_its_counter_past_the_cap() {
        use crate::DiffusionStats;
        use lgc_ligra::Trip;
        let g = gen::rand_local(2000, 5, 7);
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        let engine = Engine::builder(&g).threads(1).build();
        let mut algos = algorithms();
        // Past one walk block, so rand-HK-PR ticks after its first block.
        algos[3] = Algorithm::RandHkpr(RandHkprParams {
            walks: 40_000,
            ..Default::default()
        });
        type Counter = fn(&DiffusionStats) -> u64;
        let caps: [(QueryBudget, Counter, u64); 2] = [
            (
                QueryBudget::unlimited().with_max_edges_traversed(100),
                |s| s.edges_traversed,
                100,
            ),
            (
                QueryBudget::unlimited().with_max_pushed_mass_updates(3),
                |s| s.pushes,
                3,
            ),
        ];
        for algo in algos {
            for (budget, counter, cap) in caps.clone() {
                let q = Query::new(seed.clone(), algo.clone()).with_budget(budget);
                let err = engine.try_run(&q).expect_err(algo.name());
                assert_eq!(err.trip(), Some(Trip::WorkBudget), "{}", algo.name());
                let stats = err.partial().expect("a mid-run trip").stats;
                assert!(
                    counter(&stats) > cap,
                    "{} cap {cap}: {stats:?}",
                    algo.name()
                );
            }
        }
    }

    /// The builder's direction policy reaches the edge map of the
    /// workspaces the engine hands out and, being policy, moves no result
    /// bit of any algorithm (the rand-HK-PR walks have no edge map to
    /// steer).
    #[test]
    fn direction_policy_reaches_the_workspaces_and_moves_no_bits() {
        use lgc_ligra::{Absorb, Direction, NO_ADMIT};
        use lgc_sparse::MassMap;
        let g = gen::two_cliques_bridge(8);
        let seed = Seed::single(1);
        let reference = Engine::builder(&g).threads(1).build();
        for (pin, want) in [
            (DirectionParams::push_only(), Direction::Push),
            (DirectionParams::pull_only(), Direction::Pull),
        ] {
            let engine = Engine::builder(&g).threads(1).direction(pin).build();
            let mut ws = engine.core.workspaces.checkout();
            let mut frontier = ws.take_frontier();
            frontier.advance(engine.pool(), vec![0]);
            let vol = frontier.volume(&g);
            ws.spread
                .stage(engine.pool(), &g, &mut frontier, vol, |_| 1.0)
                .absorb(
                    Absorb::Sum,
                    &mut MassMap::new(g.num_vertices(), 0),
                    NO_ADMIT,
                );
            let counts = ws.spread.take_counts();
            let pushed = u64::from(want == Direction::Push);
            assert_eq!((counts.push, counts.pull), (pushed, 1 - pushed));
            ws.put_frontier(engine.pool(), frontier);
            engine.core.workspaces.restore(ws, &engine.core.counters);
            for algo in algorithms() {
                let q = Query::new(seed.clone(), algo);
                let (got, want) = (engine.run(&q), reference.run(&q));
                assert_eq!(got.diffusion.p, want.diffusion.p, "{}", q.algo.name());
                assert_eq!(got.diffusion.stats, want.diffusion.stats);
                assert_eq!(got.cluster, want.cluster);
                assert_eq!(got.conductance, want.conductance);
            }
        }
        // And a pull-pinned engine still gets the planted cluster right at
        // two threads.
        let pin = DirectionParams::pull_only();
        let engine = Engine::builder(&g).threads(2).direction(pin).build();
        let res = engine.run(&Query::new(
            Seed::single(1),
            Algorithm::PrNibble(PrNibbleParams::default()),
        ));
        let mut cluster = res.cluster.clone();
        cluster.sort_unstable();
        assert_eq!(cluster, (0..8).collect::<Vec<u32>>());
    }

    /// Builder knobs: threads and adopted pools.
    #[test]
    fn builder_threads_and_pool() {
        let g = gen::cycle(10);
        assert_eq!(Engine::builder(&g).threads(3).build().num_threads(), 3);
        let adopted = Engine::builder(&g).pool(Pool::new(2)).build();
        assert_eq!(adopted.num_threads(), 2);
        assert_eq!(Engine::new(&g).graph().num_vertices(), 10);
    }

    /// `&self` queries: several OS threads hammer one engine over a
    /// shared 1-thread pool; every result is bit-identical to a cold
    /// single-thread free-function run.
    #[test]
    fn concurrent_queries_through_one_engine_are_bitwise_cold() {
        let g = gen::rand_local(400, 5, 6);
        let engine = Engine::builder(&g).shared_pool(Pool::shared(1)).build();
        let results: Vec<(Seed, Algorithm, ClusterResult)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|i| {
                    let engine = &engine;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for round in 0..3u32 {
                            let seed = Seed::single((i * 97 + round * 31) % 400);
                            let algo = algorithms()[(i + round) as usize % 5].clone();
                            let res = engine.run(&Query::new(seed.clone(), algo.clone()));
                            out.push((seed, algo, res));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let pool = Pool::new(1);
        for (seed, algo, got) in results {
            let want = find_cluster(&pool, &g, &seed, &algo);
            assert_eq!(got.diffusion.p, want.diffusion.p, "{}", algo.name());
            assert_eq!(got.cluster, want.cluster);
            assert_eq!(got.conductance, want.conductance);
        }
        // The checkout pool parked the in-flight workspaces for reuse.
        let warm = engine.warm_workspaces();
        assert!((1..=4).contains(&warm), "warm={warm}");
    }

    /// Two engines over two graphs sharing one `Arc<Pool>`: no second
    /// worker fleet, queries from both still correct.
    #[test]
    fn engines_share_one_pool() {
        let g1 = gen::two_cliques_bridge(9);
        let g2 = gen::cycle(24);
        let pool = Pool::shared(2);
        let e1 = Engine::builder(&g1).shared_pool(Arc::clone(&pool)).build();
        let e2 = Engine::builder(&g2).shared_pool(pool).build();
        assert_eq!(e1.num_threads(), 2);
        assert_eq!(e2.num_threads(), 2);
        assert!(std::ptr::eq(e1.pool(), e2.pool()), "same worker set");
        let q = |v| {
            Query::new(
                Seed::single(v),
                Algorithm::PrNibble(PrNibbleParams::default()),
            )
        };
        let mut cluster = e1.run(&q(2)).cluster;
        cluster.sort_unstable();
        assert_eq!(cluster, (0..9).collect::<Vec<u32>>());
        let cold = find_cluster(&Pool::new(2), &g2, &Seed::single(0), &q(0).algo);
        assert_eq!(e2.run(&q(0)).cluster, cold.cluster);
    }

    /// `run_batch` keeps its per-worker workspaces warm across calls:
    /// the second identical batch re-checks them out instead of growing
    /// the pool, and returns identical results.
    #[test]
    fn run_batch_reuses_workspaces_across_calls() {
        let g = gen::rand_local(300, 5, 2);
        let engine = Engine::builder(&g).threads(2).build();
        let queries: Vec<Query> = (0..8u32)
            .map(|i| {
                Query::new(
                    Seed::single(i * 17 % 300),
                    algorithms()[i as usize % 5].clone(),
                )
            })
            .collect();
        assert_eq!(engine.warm_workspaces(), 0);
        let a = engine.run_batch(&queries);
        let warm = engine.warm_workspaces();
        assert!(warm >= 1, "batch parked its worker workspaces");
        let b = engine.run_batch(&queries);
        assert_eq!(
            engine.warm_workspaces(),
            warm,
            "second call reused the parked workspaces instead of allocating"
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.diffusion.p, y.diffusion.p);
            assert_eq!(x.cluster, y.cluster);
        }
    }

    /// An HK-PR query rerun through one engine is bit-identical, and the
    /// engine's summary is the graph's.
    #[test]
    fn hkpr_rerun_is_bit_identical() {
        let g = gen::rand_local(250, 5, 9);
        let engine = Engine::builder(&g).threads(1).build();
        let q = Query::new(
            Seed::single(3),
            Algorithm::Hkpr(HkprParams {
                t: 5.0,
                n_levels: 10,
                eps: 1e-6,
            }),
        );
        let a = engine.run(&q);
        let b = engine.run(&q);
        assert_eq!(a.diffusion.p, b.diffusion.p);
        assert_eq!(a.sweep.conductances, b.sweep.conductances);
        assert_eq!(engine.summary(), GraphSummary::of(&g));
    }

    /// `engine.ncp` equals `ncp_prnibble` over a fresh workspace and the
    /// same pool shape (both fully deterministic given the RNG seed).
    #[test]
    fn engine_ncp_matches_free_function() {
        let g = gen::rand_local(200, 5, 8);
        let params = NcpParams {
            num_seeds: 3,
            alphas: vec![0.1],
            epsilons: vec![1e-4],
            rng_seed: 11,
            ..Default::default()
        };
        let engine = Engine::builder(&g).threads(1).build();
        let warm = engine.ncp(&params);
        let warm_again = engine.ncp(&params);
        let pool = Pool::new(1);
        let cold = ncp_prnibble(&pool, &g, &params, &mut Workspace::new());
        assert_eq!(warm.len(), cold.len());
        for ((a, b), c) in warm.iter().zip(&cold).zip(&warm_again) {
            assert_eq!(a.size, b.size);
            assert_eq!(a.conductance, b.conductance, "bitwise: same pipeline");
            assert_eq!(a.conductance, c.conductance, "warm rerun identical");
        }
    }

    /// An exhausted workspace byte budget surfaces as the typed
    /// [`crate::WorkspaceBudgetExceeded`] error from `try_run` — never a
    /// panic — while the infallible `run` path keeps answering (on a
    /// transient, unpooled workspace) bit-identically to a cold engine.
    #[test]
    fn exhausted_workspace_budget_is_a_typed_error_not_a_panic() {
        let g = gen::rand_local(200, 4, 7);
        let with_budget = |bytes| Engine {
            g: &g,
            core: Arc::new(EngineCore::new(
                Pool::shared(1),
                DirectionParams::default(),
                bytes,
            )),
        };
        let tiny = with_budget(1);
        let q = Query::new(
            Seed::single(0),
            Algorithm::PrNibble(PrNibbleParams::default()),
        );
        // The pool has never parked a workspace, so the first fresh checkout
        // is charged at the zero watermark and succeeds even under a 1-byte
        // budget...
        let first = tiny.try_run(&q).expect("zero watermark");
        // ...but restoring it recorded its true footprint, so the next
        // budgeted checkout is denied — with the numbers, not a panic.
        let err = tiny.try_run(&q).unwrap_err();
        let QueryError::WorkspaceBudgetExceeded(denied) = &err else {
            panic!("expected a workspace-budget refusal, got {err:?}");
        };
        assert_eq!(denied.budget_bytes, 1);
        assert_eq!(denied.in_flight_bytes, 0);
        assert!(
            denied.requested_bytes > 1,
            "watermark learned from the restore"
        );
        assert!(err.is_retryable(), "budget refusals are transient");
        assert!(err.to_string().contains("budget"));
        // The shed shows up in the graph's lifecycle counters.
        let stats = tiny.lifecycle_stats();
        assert_eq!(stats.shed_workspace, 1);
        assert_eq!(stats.completed, 1);
        // The infallible front door degrades to a transient workspace and
        // stays bitwise equal to a cold engine.
        let again = tiny.run(&q);
        let cold = Engine::builder(&g).threads(1).build().run(&q);
        assert_eq!(first.diffusion.p, cold.diffusion.p);
        assert_eq!(again.diffusion.p, cold.diffusion.p);
        assert_eq!(again.cluster, cold.cluster);
        // A roomy budget never denies this workload.
        let roomy = with_budget(1 << 30);
        assert!(roomy.try_run(&q).is_ok());
        assert!(roomy.try_run(&q).is_ok());
    }
}
