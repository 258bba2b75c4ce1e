//! Query lifecycle: engine limits, typed errors, partial results, and
//! per-graph robustness counters.
//!
//! A [`QueryBudget`] ([`lgc_ligra::interrupt`]) bounds how long a single
//! query may run — by wall clock, by deterministic work counters, or
//! until a shared [`CancelToken`](lgc_ligra::CancelToken) flips. Budgets
//! are carried on [`Query`](crate::Query) (per request) and on the engine
//! (per-graph default via [`EngineLimits::default_budget`]); per-query
//! settings override the default field-wise. The diffusion loops, the
//! sweep and NCP grid scans check the armed budget
//! **once per frontier iteration** — never per edge — so the hot kernels
//! are untouched and completed runs stay bit-identical to unbudgeted ones.
//!
//! When a limit trips, the fallible entry point
//! [`Engine::try_run`](crate::Engine::try_run) returns
//! [`QueryError::Tripped`], whose [`PartialResult`] holds the best-so-far
//! sweep cut, the partial diffusion vector, and the work counters at the
//! moment of the trip. The infallible [`run`](crate::Engine::run) and
//! [`run_batch`](crate::Engine::run_batch) walk the same executor with
//! admission bypassed: they ignore budgets entirely and keep their
//! run-to-completion semantics.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use lgc_ligra::{IterationCounts, QueryBudget, Trip, Tripped};

use crate::result::{Diffusion, DiffusionStats};
use crate::sweep::SweepCut;
use crate::workspace::WorkspaceBudgetExceeded;

/// Per-graph engine limits — the one spelling of the three, taken by
/// [`EngineBuilder::limits`](crate::EngineBuilder::limits) and
/// [`Service::add_graph_with_limits`](crate::Service::add_graph_with_limits).
#[derive(Clone, Debug, Default)]
pub struct EngineLimits {
    /// Byte budget for the graph's resident workspace scratch: checkouts
    /// that would push the total past it are denied (`try_run`) or
    /// served by transient unpooled workspaces (`run`, batch chunks).
    /// `None` = 4× the graph's resident bytes, clamped to
    /// `[32 MiB, 1 GiB]`.
    pub workspace_budget: Option<usize>,
    /// Admission-control cap: at most this many governed queries
    /// (`try_run` calls) execute concurrently; arrivals
    /// beyond it are shed with [`QueryError::Overloaded`] (carrying a
    /// retry-after hint) instead of queuing. The infallible paths are
    /// never shed. `None` = unbounded.
    pub max_in_flight: Option<usize>,
    /// Default [`QueryBudget`] applied to every governed query on this
    /// graph (field-wise overridable per query).
    pub default_budget: QueryBudget,
}

/// What a tripped query computed before it stopped.
///
/// The diffusion vector is whatever mass had been settled at the last
/// completed iteration boundary (still a valid, sorted, non-negative
/// sparse vector — just short of convergence), and `sweep` is the
/// best-so-far cut obtained by sweeping that partial vector. `stats`
/// counts only completed work, so callers can bill or log exactly what
/// the query consumed.
#[derive(Clone, Debug)]
pub struct PartialResult {
    /// The partial diffusion vector (`None` only if the trip happened
    /// before any mass settled, e.g. an already-cancelled token).
    pub diffusion: Option<Diffusion>,
    /// Best-so-far sweep cut over the partial vector (`None` if the trip
    /// happened inside the sweep itself, or nothing was worth sweeping).
    pub sweep: Option<SweepCut>,
    /// Work completed before the trip.
    pub stats: DiffusionStats,
}

impl PartialResult {
    /// Members of the best-so-far cut, if one was computed.
    pub fn cluster(&self) -> Option<&[u32]> {
        self.sweep.as_ref().map(|s| s.cluster())
    }

    /// Conductance of the best-so-far cut, if one was computed.
    pub fn conductance(&self) -> Option<f64> {
        self.sweep.as_ref().map(|s| s.best_conductance)
    }
}

/// A seed vertex id that does not exist in the queried graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidSeed {
    /// The offending vertex id.
    pub vertex: u32,
    /// Number of vertices in the graph (valid ids are `0..num_vertices`).
    pub num_vertices: usize,
}

impl fmt::Display for InvalidSeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed vertex {} out of range for a graph with {} vertices",
            self.vertex, self.num_vertices
        )
    }
}

impl std::error::Error for InvalidSeed {}

/// An algorithm parameter outside the range its diffusion is defined
/// on — what [`Algorithm::check`](crate::Algorithm::check) reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidParams {
    /// The offending field, e.g. `"alpha"`.
    pub param: &'static str,
    /// What it must satisfy, e.g. `"must be in (0,1)"`.
    pub requirement: &'static str,
}

impl InvalidParams {
    /// `Ok` iff `ok` — one line per predicate in the params' `check`s.
    pub(crate) fn require(
        ok: bool,
        param: &'static str,
        requirement: &'static str,
    ) -> Result<(), InvalidParams> {
        if ok {
            Ok(())
        } else {
            Err(InvalidParams { param, requirement })
        }
    }

    /// The recurring predicate: `x > 0` and finite (`NaN` fails both).
    pub(crate) fn positive(x: f64, param: &'static str) -> Result<(), InvalidParams> {
        Self::require(
            x > 0.0 && x.is_finite(),
            param,
            "must be positive and finite",
        )
    }
}

impl fmt::Display for InvalidParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid parameter: {} {}", self.param, self.requirement)
    }
}

impl std::error::Error for InvalidParams {}

/// Floor for the [`Overloaded`](QueryError::Overloaded) retry-after
/// hint. The hint is the graph's mean completed-query latency, which is
/// degenerate at cold start (no completions yet) and can round to zero
/// nanoseconds right after the first sub-microsecond completion; a
/// client honoring a zero backoff would busy-spin against a full
/// admission gate. 100 µs is well under any real diffusion latency but
/// long enough to turn a retry storm into a polite poll.
pub const RETRY_AFTER_FLOOR: Duration = Duration::from_micros(100);

/// The unified error surface of the fallible query entry points.
///
/// # Retryability
///
/// - [`Overloaded`](QueryError::Overloaded) and
///   [`WorkspaceBudgetExceeded`](QueryError::WorkspaceBudgetExceeded)
///   are **transient**: the same query can succeed once load drains
///   (`Overloaded` carries a retry-after hint).
/// - A [`Tripped`](QueryError::Tripped) query whose [`Trip`] is
///   `Deadline` or `WorkBudget` is retryable **with a larger budget** —
///   the partial result shows how far the original budget got.
/// - A `Cancelled` trip, [`InvalidSeed`](QueryError::InvalidSeed) and
///   [`InvalidParams`](QueryError::InvalidParams) are not retryable
///   as-is.
#[derive(Clone, Debug)]
pub enum QueryError {
    /// A limit of the query's budget stopped it mid-run: the deadline
    /// passed, a work cap (pushed mass updates or traversed edges) was
    /// exceeded, or its token was cancelled. (The partial is boxed to keep
    /// the `Result`'s happy path small.)
    Tripped(Tripped<Box<PartialResult>>),
    /// A seed vertex id is out of range (rejected at admission — no work
    /// was done).
    InvalidSeed(InvalidSeed),
    /// An algorithm parameter is non-finite or out of range (rejected at
    /// admission — no work was done).
    InvalidParams(InvalidParams),
    /// The workspace pool's byte budget could not admit another
    /// checkout.
    WorkspaceBudgetExceeded(WorkspaceBudgetExceeded),
    /// Admission control shed the query: the per-graph in-flight cap is
    /// full.
    Overloaded {
        /// Queries currently executing on this graph.
        in_flight: usize,
        /// The configured cap.
        limit: usize,
        /// When to retry: the graph's mean completed-query latency,
        /// floored at [`RETRY_AFTER_FLOOR`] so the hint is usable even
        /// at cold start. The engine always sets this; it is `Option`
        /// for constructors that have no engine behind them (e.g. a
        /// decoded wire error).
        retry_after: Option<Duration>,
    },
}

impl QueryError {
    /// The partial result of a mid-run trip.
    pub fn partial(&self) -> Option<&PartialResult> {
        match self {
            QueryError::Tripped(t) => Some(&t.partial),
            _ => None,
        }
    }

    /// Which [`Trip`] stopped the query, for a mid-run trip.
    pub fn trip(&self) -> Option<Trip> {
        match self {
            QueryError::Tripped(t) => Some(t.trip),
            _ => None,
        }
    }

    /// `true` for the transient load errors (`Overloaded`,
    /// `WorkspaceBudgetExceeded`) that can succeed unchanged on retry.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            QueryError::Overloaded { .. } | QueryError::WorkspaceBudgetExceeded(_)
        )
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Tripped(Tripped { trip, partial: p }) => write!(
                f,
                "query {trip} after {} iterations ({} pushes, {} edges traversed)",
                p.stats.iterations, p.stats.pushes, p.stats.edges_traversed
            ),
            QueryError::InvalidSeed(e) => e.fmt(f),
            QueryError::InvalidParams(e) => e.fmt(f),
            QueryError::WorkspaceBudgetExceeded(e) => e.fmt(f),
            QueryError::Overloaded {
                in_flight,
                limit,
                retry_after,
            } => {
                write!(
                    f,
                    "graph overloaded: {in_flight} queries in flight (limit {limit})"
                )?;
                if let Some(d) = retry_after {
                    write!(f, "; retry after ~{d:?}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::InvalidSeed(e) => Some(e),
            QueryError::InvalidParams(e) => Some(e),
            QueryError::WorkspaceBudgetExceeded(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WorkspaceBudgetExceeded> for QueryError {
    fn from(e: WorkspaceBudgetExceeded) -> Self {
        QueryError::WorkspaceBudgetExceeded(e)
    }
}

impl From<InvalidSeed> for QueryError {
    fn from(e: InvalidSeed) -> Self {
        QueryError::InvalidSeed(e)
    }
}

impl From<InvalidParams> for QueryError {
    fn from(e: InvalidParams) -> Self {
        QueryError::InvalidParams(e)
    }
}

/// Per-graph robustness counters, maintained by the engine's executor
/// and surfaced by [`Engine::lifecycle_stats`](crate::Engine::lifecycle_stats).
#[derive(Debug, Default)]
pub struct LifecycleCounters {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_workspace: AtomicU64,
    invalid_seed: AtomicU64,
    cancelled: AtomicU64,
    deadline_tripped: AtomicU64,
    work_tripped: AtomicU64,
    in_flight: AtomicUsize,
    busy_nanos: AtomicU64,
    refined: AtomicU64,
    refine_improved: AtomicU64,
    iterations_push: AtomicU64,
    iterations_pull: AtomicU64,
    iterations_solo: AtomicU64,
    iterations_dense_out: AtomicU64,
}

impl LifecycleCounters {
    pub(crate) fn note_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_completed(&self, elapsed: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    pub(crate) fn note_shed_overloaded(&self) {
        self.shed_overloaded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_shed_workspace(&self) {
        self.shed_workspace.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_invalid_seed(&self) {
        self.invalid_seed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_refined(&self, improved: bool) {
        self.refined.fetch_add(1, Ordering::Relaxed);
        if improved {
            self.refine_improved.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds in the iterations a returning workspace's edge map tallied.
    pub(crate) fn note_iterations(&self, counts: IterationCounts) {
        self.iterations_push
            .fetch_add(counts.push, Ordering::Relaxed);
        self.iterations_pull
            .fetch_add(counts.pull, Ordering::Relaxed);
        self.iterations_solo
            .fetch_add(counts.solo, Ordering::Relaxed);
        self.iterations_dense_out
            .fetch_add(counts.dense_out, Ordering::Relaxed);
    }

    pub(crate) fn note_trip(&self, trip: Trip) {
        match trip {
            Trip::Deadline => self.deadline_tripped.fetch_add(1, Ordering::Relaxed),
            Trip::WorkBudget => self.work_tripped.fetch_add(1, Ordering::Relaxed),
            Trip::Cancelled => self.cancelled.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Try to occupy an in-flight slot under `limit`; `Err` returns the
    /// observed occupancy without taking a slot.
    pub(crate) fn enter(&self, limit: Option<usize>) -> Result<InFlightSlot<'_>, usize> {
        let occupied = self.in_flight.fetch_add(1, Ordering::AcqRel);
        let slot = InFlightSlot(&self.in_flight);
        match limit {
            Some(cap) if occupied >= cap => Err(occupied), // dropping `slot` gives it back
            _ => Ok(slot),
        }
    }

    /// Mean completed-query latency, the `Overloaded` retry-after hint.
    pub(crate) fn mean_latency(&self) -> Option<Duration> {
        let completed = self.completed.load(Ordering::Relaxed);
        if completed == 0 {
            return None;
        }
        Some(Duration::from_nanos(
            self.busy_nanos.load(Ordering::Relaxed) / completed,
        ))
    }

    /// The `Overloaded` retry-after hint with the cold-start edge
    /// handled: before the first completion there is no mean latency
    /// (and just after it the integer mean can round to zero), so the
    /// hint is floored at [`RETRY_AFTER_FLOOR`]. A shed response
    /// therefore always carries a usable, non-zero backoff.
    pub(crate) fn retry_hint(&self) -> Duration {
        self.mean_latency()
            .unwrap_or(RETRY_AFTER_FLOOR)
            .max(RETRY_AFTER_FLOOR)
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> LifecycleSnapshot {
        LifecycleSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed_overloaded: self.shed_overloaded.load(Ordering::Relaxed),
            shed_workspace: self.shed_workspace.load(Ordering::Relaxed),
            invalid_seed: self.invalid_seed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_tripped: self.deadline_tripped.load(Ordering::Relaxed),
            work_tripped: self.work_tripped.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            refined: self.refined.load(Ordering::Relaxed),
            refine_improved: self.refine_improved.load(Ordering::Relaxed),
            iterations_push: self.iterations_push.load(Ordering::Relaxed),
            iterations_pull: self.iterations_pull.load(Ordering::Relaxed),
            iterations_solo: self.iterations_solo.load(Ordering::Relaxed),
            iterations_dense_out: self.iterations_dense_out.load(Ordering::Relaxed),
        }
    }
}

/// An occupied in-flight slot, released on drop — so every return path
/// of the executor, and a query that unwinds, gives its slot back.
pub(crate) struct InFlightSlot<'a>(&'a AtomicUsize);

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Point-in-time copy of a graph's lifecycle counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleSnapshot {
    /// Queries that passed admission (includes ones that later tripped).
    pub admitted: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries shed by the in-flight cap.
    pub shed_overloaded: u64,
    /// Queries shed by the workspace-pool byte budget.
    pub shed_workspace: u64,
    /// Queries rejected for an out-of-range seed vertex.
    pub invalid_seed: u64,
    /// Queries stopped by their [`CancelToken`](lgc_ligra::CancelToken).
    pub cancelled: u64,
    /// Queries stopped by their wall-clock deadline.
    pub deadline_tripped: u64,
    /// Queries stopped by a work cap.
    pub work_tripped: u64,
    /// Queries executing right now.
    pub in_flight: usize,
    /// Max-flow refinements run to completion
    /// ([`Engine::improve`](crate::Engine::improve), `improve_set` and
    /// `try_improve`).
    pub refined: u64,
    /// Refinements that strictly lowered the cut's conductance.
    pub refine_improved: u64,
    /// Frontier iterations (Nibble, PR-Nibble, HK-PR, evolving-set) the
    /// engine's edge maps ran as a sparse push — counted when the
    /// workspace that ran them comes back, so a query in flight is not in
    /// yet. `iterations_push + iterations_pull` is the sum of
    /// [`DiffusionStats::iterations`](crate::DiffusionStats) over those
    /// queries, tripped ones included.
    pub iterations_push: u64,
    /// ... and as a dense pull.
    pub iterations_pull: u64,
    /// Of the two together, the iterations whose `|F| + vol(F)` was below
    /// [`lgc_ligra::FORK_MIN_WORK`]: run as the one-thread code, no loop
    /// offered to the pool ("The fork policy" on
    /// [`lgc_ligra::EdgeSpread`]).
    pub iterations_solo: u64,
    /// Of `iterations_pull`, the pulls whose next frontier left the gather
    /// as a bitset — decided per destination by the edge map's `keep`,
    /// with no id list built between that iteration and the next
    /// ([`lgc_ligra::Staged::absorb`]). Never more than `iterations_pull`;
    /// the pulls it misses are the ones with no next frontier to derive
    /// (HK-PR's last level, evolving-set steps).
    pub iterations_dense_out: u64,
}

impl LifecycleSnapshot {
    /// Total shed queries (in-flight cap + workspace budget).
    pub fn shed(&self) -> u64 {
        self.shed_overloaded + self.shed_workspace
    }

    /// Fraction of arriving queries shed before running
    /// (`shed / (admitted + shed + invalid_seed)`); `0.0` when nothing
    /// has arrived.
    pub fn shed_rate(&self) -> f64 {
        let arrived = self.admitted + self.shed() + self.invalid_seed;
        if arrived == 0 {
            0.0
        } else {
            self.shed() as f64 / arrived as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_gate_admits_up_to_limit() {
        let c = LifecycleCounters::default();
        let a = c.enter(Some(2)).expect("slot 1");
        let b = c.enter(Some(2)).expect("slot 2");
        assert_eq!(c.enter(Some(2)).err(), Some(2));
        drop(a);
        let a = c.enter(Some(2)).expect("freed slot");
        assert_eq!(c.snapshot().in_flight, 2);
        drop((a, b));
        assert_eq!(c.snapshot().in_flight, 0);
        // unbounded always admits
        assert!(c.enter(None).is_ok());
        assert_eq!(c.snapshot().in_flight, 0);
    }

    #[test]
    fn snapshot_rates() {
        let c = LifecycleCounters::default();
        c.note_admitted();
        c.note_admitted();
        c.note_completed(Duration::from_millis(10));
        c.note_shed_overloaded();
        c.note_shed_workspace();
        c.note_trip(Trip::Deadline);
        let s = c.snapshot();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.shed(), 2);
        assert_eq!(s.deadline_tripped, 1);
        assert!((s.shed_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.mean_latency(), Some(Duration::from_millis(10)));
    }

    #[test]
    fn retry_hint_is_floored_at_cold_start() {
        // Zero completed queries: no mean latency exists, but the hint
        // must still be a usable non-zero backoff.
        let c = LifecycleCounters::default();
        assert_eq!(c.mean_latency(), None);
        assert_eq!(c.retry_hint(), RETRY_AFTER_FLOOR);

        // A first completion so fast the integer mean rounds to ~zero
        // still gets the floor, not a busy-spin hint.
        c.note_completed(Duration::from_nanos(1));
        assert!(c.mean_latency().unwrap() < RETRY_AFTER_FLOOR);
        assert_eq!(c.retry_hint(), RETRY_AFTER_FLOOR);

        // Once the mean clears the floor, the hint tracks it.
        c.note_completed(Duration::from_millis(20));
        let mean = c.mean_latency().unwrap();
        assert!(mean > RETRY_AFTER_FLOOR);
        assert_eq!(c.retry_hint(), mean);
    }

    /// `Algorithm::check` names the offending field for every value no
    /// diffusion is defined on and every count above its allocation cap,
    /// and passes the defaults, the documented `dense_frac = +∞` and the
    /// caps themselves.
    #[test]
    fn check_names_the_offending_parameter() {
        use crate::{
            Algorithm, EvolvingParams, HkprParams, NibbleParams, PrNibbleParams, RandHkprParams,
        };
        let pr = |f: fn(&mut PrNibbleParams)| {
            let mut p = PrNibbleParams::default();
            f(&mut p);
            Algorithm::PrNibble(p)
        };
        let hk = |f: fn(&mut HkprParams)| {
            let mut p = HkprParams::default();
            f(&mut p);
            Algorithm::Hkpr(p)
        };
        let rh = |f: fn(&mut RandHkprParams)| {
            let mut p = RandHkprParams::default();
            f(&mut p);
            Algorithm::RandHkpr(p)
        };
        let nan = f64::NAN;
        let bad = [
            (pr(|p| p.alpha = 0.0), "alpha"),
            (pr(|p| p.alpha = 1.0), "alpha"),
            (pr(|p| p.alpha = f64::NAN), "alpha"),
            (pr(|p| p.eps = f64::INFINITY), "eps"),
            (pr(|p| p.eps = f64::NAN), "eps"),
            (pr(|p| p.eps = 0.0), "eps"),
            (pr(|p| p.beta = 1.5), "beta"),
            (pr(|p| p.dense_frac = f64::NAN), "dense_frac"),
            (pr(|p| p.dense_frac = -1.0), "dense_frac"),
            (hk(|p| p.t = f64::NEG_INFINITY), "t"),
            (hk(|p| p.n_levels = 0), "n_levels"),
            (hk(|p| p.n_levels = 1 << 60), "n_levels"),
            (hk(|p| p.eps = -1e-3), "eps"),
            (rh(|p| p.t = f64::INFINITY), "t"),
            (rh(|p| p.walks = 0), "walks"),
            (rh(|p| p.walks = 1 << 60), "walks"),
            (rh(|p| p.max_len = usize::MAX), "max_len"),
            (
                Algorithm::Nibble(NibbleParams {
                    eps: nan,
                    ..Default::default()
                }),
                "eps",
            ),
            (
                Algorithm::Evolving(EvolvingParams {
                    target_conductance: nan,
                    ..Default::default()
                }),
                "target_conductance",
            ),
        ];
        for (algo, field) in bad {
            let e = algo.check().expect_err("hostile parameter accepted");
            assert_eq!(e.param, field, "{algo:?}");
            assert!(e.to_string().contains(field));
        }
        let good = [
            pr(|_| {}),
            pr(|p| p.dense_frac = f64::INFINITY),
            hk(|_| {}),
            hk(|p| p.n_levels = 1 << 16),
            rh(|_| {}),
            rh(|p| (p.walks, p.max_len) = (1 << 27, 1 << 16)),
            Algorithm::Nibble(NibbleParams::default()),
            Algorithm::Evolving(EvolvingParams::default()),
        ];
        for algo in good {
            assert_eq!(algo.check(), Ok(()), "{algo:?}");
        }
    }

    #[test]
    fn query_error_display_and_source() {
        let partial = PartialResult {
            diffusion: None,
            sweep: None,
            stats: DiffusionStats::default(),
        };
        let e = QueryError::Tripped(Tripped {
            trip: Trip::Cancelled,
            partial: Box::new(partial.clone()),
        });
        assert!(e
            .to_string()
            .starts_with("query cancelled after 0 iterations"));
        assert_eq!(e.trip(), Some(Trip::Cancelled));
        assert!(e.partial().is_some());
        assert!(!e.is_retryable());

        let e = QueryError::InvalidSeed(InvalidSeed {
            vertex: 9,
            num_vertices: 4,
        });
        assert!(e.to_string().contains("seed vertex 9"));
        assert!(std::error::Error::source(&e).is_some());

        let e = QueryError::Overloaded {
            in_flight: 3,
            limit: 3,
            retry_after: Some(Duration::from_millis(2)),
        };
        assert!(e.is_retryable());
        assert!(e.to_string().contains("overloaded"));
    }
}
