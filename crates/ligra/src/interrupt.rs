//! Cooperative interruption primitives for long-running traversals.
//!
//! The traversal kernels in this crate (and the diffusion loops built on
//! them in `lgc-core`) are *locally bounded* — their work scales with the
//! output cluster's volume — but a pathological seed or an extreme
//! parameter choice can still pin a worker for an unbounded stretch. This
//! module holds the one spelling of a query's limits and the amortized
//! check that enforces them:
//!
//! - a [`QueryBudget`] states the limits — a relative deadline, two
//!   deterministic work caps, a [`CancelToken`], a [`BoundaryHook`] — and
//!   is what callers build, merge ([`QueryBudget::or`]) and carry;
//! - [`QueryBudget::arm`] turns it into a [`Checkpoint`] when the query
//!   starts: the deadline is stamped against the clock and a fresh fault
//!   countdown starts. A checkpoint is nothing but that armed budget;
//! - the checkpoint is consulted **once per frontier iteration** (never
//!   per edge), so the hot kernels stay untouched and completed runs
//!   remain bit-identical to unguarded ones;
//! - a run it stops ends as a [`Tripped`]: the [`Trip`] and whatever the
//!   run had computed by its last completed boundary.
//!
//! The max-flow refinement stage (`lgc-flow`) consumes the same primitive
//! at the same granularity: its Dinic solver ticks once per BFS *phase* —
//! reporting augmenting paths as pushes and residual arcs scanned as
//! traversed edges — so one [`Checkpoint`] governs a query's diffusion,
//! sweep, and refinement uniformly.
//!
//! A checkpoint can trip for three reasons, reported as a [`Trip`]:
//!
//! - **`Deadline`** — a wall-clock instant has passed (one coarse
//!   `Instant::now()` read per iteration),
//! - **`WorkBudget`** — a deterministic work counter (pushed mass updates
//!   or traversed edges, maintained by the caller) exceeded its cap; these
//!   counters are identical across thread counts and storage backends, so
//!   work-budget trips are fully deterministic,
//! - **`Cancelled`** — a shared [`CancelToken`] was flipped from another
//!   thread (one relaxed atomic load per iteration).
//!
//! A budget can additionally carry a [`FaultPlan`] that force-trips the
//! k-th `tick` call of each checkpoint it arms — the hook the
//! fault-injection proptest suite uses to stop queries at arbitrary
//! iteration boundaries without depending on timing. Like the token and
//! the hook it is process-local: the wire protocol never carries it.
//!
//! A budget can also carry one [`BoundaryHook`]: work that `tick` runs
//! at every boundary *before* its trip tests, on the thread driving the
//! query. This is how a query yields: a budget only ever stops one,
//! while a hook lets other work run in the gaps between its iterations —
//! `lgc-server` runs queued interactive queries inside a bulk query's
//! boundaries this way.
//! The hook's time counts against the query's deadline, a cancellation
//! it makes is seen by the same tick, and it consumes no fault-plan tick.
//! The query's own stores are not the hook's to touch, so a hooked run
//! returns the bits an unhooked one does.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`Checkpoint`] tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Trip {
    /// The wall-clock deadline passed.
    Deadline,
    /// A work counter (pushed mass updates or traversed edges) exceeded
    /// its cap.
    WorkBudget,
    /// The query's [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for Trip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Trip::Deadline => "deadline exceeded",
            Trip::WorkBudget => "work budget exceeded",
            Trip::Cancelled => "cancelled",
        })
    }
}

/// A run its [`Checkpoint`] stopped: why, and what the run had computed
/// by its last completed iteration boundary. The one shape of every stop,
/// from a diffusion loop through refinement and the query engine to the
/// wire; only `partial` differs between them.
#[derive(Clone, Debug, PartialEq)]
pub struct Tripped<T> {
    /// Why the checkpoint tripped.
    pub trip: Trip,
    /// What was computed up to the last completed boundary.
    pub partial: T,
}

impl<T> Tripped<T> {
    /// How a guarded run ends: `Ok(done)` if nothing tripped it, else
    /// `done` as the partial of the trip that stopped it.
    pub fn outcome(tripped: Option<Trip>, done: T) -> Result<T, Tripped<T>> {
        match tripped {
            None => Ok(done),
            Some(trip) => Err(Tripped {
                trip,
                partial: done,
            }),
        }
    }

    /// The same trip, carrying `f(partial)`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Tripped<U> {
        Tripped {
            trip: self.trip,
            partial: f(self.partial),
        }
    }
}

/// A shared, cloneable cancellation flag.
///
/// Clones observe the same flag: calling [`cancel`](CancelToken::cancel)
/// on any clone makes every guarded loop holding another clone trip with
/// [`Trip::Cancelled`] at its next iteration boundary. The token is
/// one-shot — there is no "uncancel".
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flip the flag. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has [`cancel`](CancelToken::cancel) been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Work a [`Checkpoint`] runs at each of its query's iteration boundaries
/// (see the module docs). Clones share the one closure.
#[derive(Clone)]
pub struct BoundaryHook(Arc<dyn Fn() + Send + Sync>);

impl BoundaryHook {
    /// Wraps `f`, to be called once per [`Checkpoint::tick`].
    pub fn new(f: impl Fn() + Send + Sync + 'static) -> Self {
        BoundaryHook(Arc::new(f))
    }
}

impl fmt::Debug for BoundaryHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoundaryHook(..)")
    }
}

/// Deterministic fault-injection plan: force the `after_ticks`-th call to
/// [`Checkpoint::tick`] to fail with `kind`.
///
/// Tick calls happen at iteration boundaries on the thread driving the
/// query, so the countdown is deterministic across worker-thread counts
/// and storage backends — the same plan always stops the same run at the
/// same boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Number of `tick` calls that succeed before the forced trip.
    /// `0` trips the very first call.
    pub after_ticks: u64,
    /// The [`Trip`] variant the forced failure reports.
    pub kind: Trip,
}

#[derive(Debug)]
struct FaultState {
    remaining: std::sync::atomic::AtomicU64,
    kind: Trip,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        FaultState {
            remaining: std::sync::atomic::AtomicU64::new(plan.after_ticks),
            kind: plan.kind,
        }
    }

    /// Count one tick; `true` once the countdown is exhausted (and on
    /// every tick thereafter, so clones sharing this state stay tripped).
    fn fire(&self) -> bool {
        // Ticks are issued by the single thread driving a query, so a
        // load/store pair is race-free; Relaxed is enough.
        let left = self.remaining.load(Ordering::Relaxed);
        if left == 0 {
            return true;
        }
        self.remaining.store(left - 1, Ordering::Relaxed);
        false
    }
}

/// Optional per-query execution limits.
///
/// Every field defaults to "unlimited". The budget is evaluated
/// cooperatively at iteration boundaries, by the [`Checkpoint`] that
/// [`arm`](QueryBudget::arm) makes of it, so trips land on a *completed*
/// iteration: work-budget trips are deterministic (the counters are
/// bit-identical across thread counts and storage backends), while
/// deadline and cancellation trips depend on wall clock / external
/// timing by nature.
#[derive(Clone, Debug, Default)]
pub struct QueryBudget {
    /// Wall-clock limit, measured from the moment the budget is
    /// [`arm`](QueryBudget::arm)ed — when the query starts executing, not
    /// when the budget is built.
    pub deadline: Option<Duration>,
    /// Cap on pushed mass updates (a diffusion's `pushes` counter).
    pub max_pushed_mass_updates: Option<u64>,
    /// Cap on traversed frontier edges (a diffusion's `edges_traversed`
    /// counter).
    pub max_edges_traversed: Option<u64>,
    /// Cooperative cancellation: the query trips once any clone of the
    /// token is [`cancel`](CancelToken::cancel)led.
    pub cancel: Option<CancelToken>,
    /// Work to run at each of the query's iteration boundaries, on the
    /// thread driving it and before the limits above are tested (see the
    /// module docs); its time counts against `deadline`. Process-local
    /// like `cancel`: set by the code that executes the query
    /// (`lgc-server` sets it on bulk queries), never carried on the wire.
    pub hook: Option<BoundaryHook>,
    /// Deterministic fault-injection plan (test harness; see
    /// [`FaultPlan`]). Process-local like `cancel` and `hook`.
    pub fault: Option<FaultPlan>,
}

impl QueryBudget {
    /// No limits — equivalent to `QueryBudget::default()`.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Set a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap pushed mass updates.
    pub fn with_max_pushed_mass_updates(mut self, cap: u64) -> Self {
        self.max_pushed_mass_updates = Some(cap);
        self
    }

    /// Cap traversed frontier edges.
    pub fn with_max_edges_traversed(mut self, cap: u64) -> Self {
        self.max_edges_traversed = Some(cap);
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a boundary hook.
    pub fn with_hook(mut self, hook: BoundaryHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Attach a deterministic fault-injection plan.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Field-wise override: take each limit from `self` when set, else
    /// from `default`. This is how a per-query budget composes with a
    /// serving layer's default (`lgc-server`'s bulk-class budget).
    pub fn or(&self, default: &QueryBudget) -> QueryBudget {
        QueryBudget {
            deadline: self.deadline.or(default.deadline),
            max_pushed_mass_updates: self
                .max_pushed_mass_updates
                .or(default.max_pushed_mass_updates),
            max_edges_traversed: self.max_edges_traversed.or(default.max_edges_traversed),
            cancel: self.cancel.clone().or_else(|| default.cancel.clone()),
            hook: self.hook.clone().or_else(|| default.hook.clone()),
            fault: self.fault.or(default.fault),
        }
    }

    /// Arms the budget for one run: the relative deadline becomes an
    /// absolute instant (the clock starts *now*) and the fault plan, if
    /// any, a fresh countdown. Each call arms independently, so one
    /// budget armed for several runs gives every run its own deadline and
    /// countdown.
    pub fn arm(&self) -> Checkpoint {
        Checkpoint {
            deadline: self.deadline.map(|d| Instant::now() + d),
            fault: self.fault.map(|plan| Arc::new(FaultState::new(plan))),
            budget: self.clone(),
        }
    }
}

/// An armed [`QueryBudget`]: the per-query guard consulted at iteration
/// boundaries.
///
/// Made by [`QueryBudget::arm`], or [`Checkpoint::unlimited`], which never
/// trips and whose [`tick`](Checkpoint::tick) compiles to a handful of
/// `None` tests. The caller passes its *deterministic* cumulative work
/// counters into `tick` — the checkpoint itself holds no mutable counters
/// (except the fault countdown), so cloning is cheap and a clone shares
/// the deadline, token, hook, and fault state of its original.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The limits; their relative `deadline` was read once, by `arm`.
    budget: QueryBudget,
    /// `budget.deadline`, stamped against the clock.
    deadline: Option<Instant>,
    /// `budget.fault`'s countdown, shared with clones.
    fault: Option<Arc<FaultState>>,
}

impl Checkpoint {
    /// A checkpoint that never trips.
    pub fn unlimited() -> Self {
        QueryBudget::unlimited().arm()
    }

    /// The amortized boundary check. `pushes` and `edges` are the
    /// caller's cumulative deterministic work counters for the current
    /// run. Runs the [`BoundaryHook`], if one is installed, on the calling
    /// thread — the one driving the query — then returns `Err` with the
    /// first limit found tripped, checking (in order) the fault plan, the
    /// cancel token, the work caps, and the deadline.
    ///
    /// Cost: with an unlimited budget this is six `None` tests (hook, fault
    /// plan, token, the two caps, deadline); a hook adds whatever it runs
    /// (charged to the deadline, which is read after it), a deadline one
    /// coarse clock read, a token one acquire load. Never called per edge.
    #[inline]
    pub fn tick(&self, pushes: u64, edges: u64) -> Result<(), Trip> {
        let b = &self.budget;
        if let Some(hook) = &b.hook {
            (hook.0)();
        }
        if let Some(fault) = &self.fault {
            if fault.fire() {
                return Err(fault.kind);
            }
        }
        if let Some(token) = &b.cancel {
            if token.is_cancelled() {
                return Err(Trip::Cancelled);
            }
        }
        if let Some(cap) = b.max_pushed_mass_updates {
            if pushes > cap {
                return Err(Trip::WorkBudget);
            }
        }
        if let Some(cap) = b.max_edges_traversed {
            if edges > cap {
                return Err(Trip::WorkBudget);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Trip::Deadline);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let cp = Checkpoint::unlimited();
        assert_eq!(cp.tick(u64::MAX, u64::MAX), Ok(()));
    }

    #[test]
    fn cancel_token_is_shared_and_one_shot() {
        let token = CancelToken::new();
        let cp = QueryBudget::unlimited().with_cancel(token.clone()).arm();
        assert_eq!(cp.tick(0, 0), Ok(()));
        token.cancel();
        assert_eq!(cp.tick(0, 0), Err(Trip::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn work_caps_trip_strictly_above() {
        let cp = QueryBudget::unlimited()
            .with_max_pushed_mass_updates(10)
            .with_max_edges_traversed(100)
            .arm();
        assert_eq!(cp.tick(10, 100), Ok(()));
        assert_eq!(cp.tick(11, 0), Err(Trip::WorkBudget));
        assert_eq!(cp.tick(0, 101), Err(Trip::WorkBudget));
    }

    #[test]
    fn deadline_in_the_past_trips() {
        let cp = QueryBudget::unlimited().with_deadline(Duration::ZERO).arm();
        assert_eq!(cp.tick(0, 0), Err(Trip::Deadline));
        let cp = QueryBudget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .arm();
        assert_eq!(cp.tick(0, 0), Ok(()));
    }

    #[test]
    fn hook_runs_at_every_tick_before_the_trip_tests() {
        use std::sync::atomic::AtomicU64;
        let token = CancelToken::new();
        let runs = Arc::new(AtomicU64::new(0));
        let hook = {
            let (token, runs) = (token.clone(), Arc::clone(&runs));
            BoundaryHook::new(move || {
                if runs.fetch_add(1, Ordering::Relaxed) == 2 {
                    token.cancel();
                }
            })
        };
        let cp = QueryBudget::unlimited()
            .with_cancel(token)
            .with_max_edges_traversed(100)
            .with_hook(hook)
            .arm();
        assert_eq!(cp.tick(0, 0), Ok(()));
        // A tick that trips has still run the hook.
        assert_eq!(cp.tick(0, 101), Err(Trip::WorkBudget));
        // The cancellation the third run makes is seen by that same tick.
        assert_eq!(cp.tick(0, 0), Err(Trip::Cancelled));
        assert_eq!(runs.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn budget_or_is_fieldwise() {
        let token = CancelToken::new();
        let default = QueryBudget::unlimited()
            .with_deadline(Duration::from_secs(5))
            .with_max_edges_traversed(100);
        let per_query = QueryBudget::unlimited()
            .with_max_edges_traversed(7)
            .with_cancel(token);
        let merged = per_query.or(&default);
        assert_eq!(merged.deadline, Some(Duration::from_secs(5)));
        assert_eq!(merged.max_edges_traversed, Some(7));
        assert_eq!(merged.max_pushed_mass_updates, None);
        assert!(merged.cancel.is_some());
    }

    /// Every `arm` starts its own clock and its own fault countdown: a
    /// budget re-armed per query (every `try_run` arms its query's)
    /// gives each run the whole budget, whatever earlier arms consumed.
    #[test]
    fn arming_twice_gives_independent_deadlines_and_countdowns() {
        let budget = QueryBudget::unlimited().with_deadline(Duration::from_millis(200));
        let first = budget.arm();
        std::thread::sleep(Duration::from_millis(250));
        let second = budget.arm();
        assert_eq!(first.tick(0, 0), Err(Trip::Deadline));
        assert_eq!(second.tick(0, 0), Ok(()));
        let budget = QueryBudget::unlimited().with_fault(FaultPlan {
            after_ticks: 1,
            kind: Trip::Cancelled,
        });
        let (first, second) = (budget.arm(), budget.arm());
        assert_eq!(first.tick(0, 0), Ok(()));
        assert_eq!(first.tick(0, 0), Err(Trip::Cancelled));
        // The second arm's countdown has not moved.
        assert_eq!(second.tick(0, 0), Ok(()));
        assert_eq!(second.tick(0, 0), Err(Trip::Cancelled));
    }

    #[test]
    fn tripped_outcome_and_map() {
        assert_eq!(Tripped::outcome(None, 3), Ok(3));
        let t = Tripped::outcome(Some(Trip::WorkBudget), 3).unwrap_err();
        assert_eq!(
            t.map(|x| x * 2),
            Tripped {
                trip: Trip::WorkBudget,
                partial: 6
            }
        );
        assert_eq!(Trip::WorkBudget.to_string(), "work budget exceeded");
    }

    #[test]
    fn fault_plan_trips_the_kth_tick_and_stays_tripped() {
        let plan = FaultPlan {
            after_ticks: 2,
            kind: Trip::Deadline,
        };
        let cp = QueryBudget::unlimited().with_fault(plan).arm();
        assert_eq!(cp.tick(0, 0), Ok(()));
        assert_eq!(cp.tick(0, 0), Ok(()));
        assert_eq!(cp.tick(0, 0), Err(Trip::Deadline));
        assert_eq!(cp.tick(0, 0), Err(Trip::Deadline));
    }
}
