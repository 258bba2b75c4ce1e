//! Query lifecycle: typed errors, partial results, and per-graph
//! robustness counters.
//!
//! A [`QueryBudget`](lgc_ligra::QueryBudget) ([`lgc_ligra::interrupt`])
//! bounds how long a single query may run — by wall clock, by
//! deterministic work counters, or until a shared
//! [`CancelToken`](lgc_ligra::CancelToken) flips. A budget rides on its
//! [`Query`](crate::Query); the engine keeps no default of its own. The
//! diffusion loops and the sweep check the armed budget
//! **once per frontier iteration** — never per edge — so the hot kernels
//! are untouched and completed runs stay bit-identical to unbudgeted ones.
//!
//! The engine's one admission check is its workspace byte budget
//! ([`QueryError::WorkspaceBudgetExceeded`]); how many queries run at
//! once is the serving layer's to bound (in `lgc-server`: the connection
//! cap, the class queues and the executor count).
//!
//! When a limit trips, the fallible entry point
//! [`Engine::try_run`](crate::Engine::try_run) returns
//! [`QueryError::Tripped`], whose [`PartialResult`] holds the best-so-far
//! sweep cut, the partial diffusion vector, and the work counters at the
//! moment of the trip. The infallible [`run`](crate::Engine::run) and
//! [`run_batch`](crate::Engine::run_batch) walk the same executor
//! ungoverned: they ignore budgets and the workspace byte budget and keep
//! their run-to-completion semantics.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use lgc_ligra::{IterationCounts, Trip, Tripped};

use crate::result::{Diffusion, DiffusionStats};
use crate::sweep::SweepCut;
use crate::workspace::WorkspaceBudgetExceeded;

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

/// The unified error surface of the fallible query entry points.
///
/// # Retryability
///
/// - [`WorkspaceBudgetExceeded`](QueryError::WorkspaceBudgetExceeded)
///   is **transient**: the same query can succeed once load drains.
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

    /// `true` for the transient load error (`WorkspaceBudgetExceeded`)
    /// that can succeed unchanged on retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, QueryError::WorkspaceBudgetExceeded(_))
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
    shed_workspace: AtomicU64,
    invalid: AtomicU64,
    cancelled: AtomicU64,
    deadline_tripped: AtomicU64,
    work_tripped: AtomicU64,
    in_flight: AtomicUsize,
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

    pub(crate) fn note_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_shed_workspace(&self) {
        self.shed_workspace.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_invalid(&self) {
        self.invalid.fetch_add(1, Ordering::Relaxed);
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

    /// Occupies an in-flight slot for the query's duration.
    pub(crate) fn enter(&self) -> InFlightSlot<'_> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        InFlightSlot(&self.in_flight)
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> LifecycleSnapshot {
        LifecycleSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed_workspace: self.shed_workspace.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
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
    /// Queries shed by the workspace-pool byte budget.
    pub shed_workspace: u64,
    /// Queries rejected before admission: an out-of-range seed vertex or
    /// a parameter failing [`Algorithm::check`](crate::Algorithm::check).
    pub invalid: u64,
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
    /// Total shed queries: those the workspace byte budget refused.
    pub fn shed(&self) -> u64 {
        self.shed_workspace
    }

    /// Fraction of arriving queries shed before running
    /// (`shed / (admitted + shed + invalid)`); `0.0` when nothing has
    /// arrived.
    pub fn shed_rate(&self) -> f64 {
        let arrived = self.admitted + self.shed() + self.invalid;
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
    fn in_flight_gauge_counts_occupied_slots() {
        let c = LifecycleCounters::default();
        let a = c.enter();
        let b = c.enter();
        assert_eq!(c.snapshot().in_flight, 2);
        drop(a);
        assert_eq!(c.snapshot().in_flight, 1);
        drop(b);
        assert_eq!(c.snapshot().in_flight, 0);
    }

    #[test]
    fn snapshot_rates() {
        let c = LifecycleCounters::default();
        c.note_admitted();
        c.note_admitted();
        c.note_completed();
        c.note_shed_workspace();
        c.note_invalid();
        c.note_trip(Trip::Deadline);
        let s = c.snapshot();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.shed(), 1);
        assert_eq!(s.invalid, 1);
        assert_eq!(s.deadline_tripped, 1);
        assert!((s.shed_rate() - 0.25).abs() < 1e-12);
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
    }
}
