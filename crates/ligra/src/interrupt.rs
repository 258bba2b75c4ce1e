//! Cooperative interruption primitives for long-running traversals.
//!
//! The traversal kernels in this crate (and the diffusion loops built on
//! them in `lgc-core`) are *locally bounded* — their work scales with the
//! output cluster's volume — but a pathological seed or an extreme
//! parameter choice can still pin a worker for an unbounded stretch. This
//! module provides the amortized check that query-lifecycle layers hook
//! into: a [`Checkpoint`] is consulted **once per frontier iteration**
//! (never per edge), so the hot kernels stay untouched and completed runs
//! remain bit-identical to unguarded ones. The max-flow refinement stage
//! (`lgc-flow`) consumes the same primitive at the same granularity: its
//! Dinic solver ticks once per BFS *phase* — reporting augmenting paths
//! as pushes and residual arcs scanned as traversed edges — so one
//! [`Checkpoint`] governs a query's diffusion, sweep, and refinement
//! uniformly.
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
//! With the `fault-inject` feature enabled, a checkpoint can additionally
//! carry a `FaultPlan` that force-trips the k-th `tick` call — the hook
//! the fault-injection proptest suite uses to stop queries at arbitrary
//! iteration boundaries without depending on timing.
//!
//! A checkpoint can also carry one [`BoundaryHook`]: work that `tick` runs
//! at every boundary *before* its trip tests, on the thread driving the
//! query (for a `run_batch` item, the pool worker running it). This is
//! how a query yields: a budget only ever stops one, while a hook lets
//! other work run in the gaps between its iterations — `lgc-server` runs
//! queued interactive queries inside a bulk query's boundaries this way.
//! The hook's time counts against the query's deadline, a cancellation
//! it makes is seen by the same tick, and it consumes no fault-plan tick.
//! The query's own stores are not the hook's to touch, so a hooked run
//! returns the bits an unhooked one does.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
/// same boundary. Only available with the `fault-inject` feature.
#[cfg(feature = "fault-inject")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Number of `tick` calls that succeed before the forced trip.
    /// `0` trips the very first call.
    pub after_ticks: u64,
    /// The [`Trip`] variant the forced failure reports.
    pub kind: Trip,
}

#[cfg(feature = "fault-inject")]
#[derive(Debug)]
struct FaultState {
    remaining: std::sync::atomic::AtomicU64,
    kind: Trip,
}

#[cfg(feature = "fault-inject")]
impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        FaultState {
            remaining: std::sync::atomic::AtomicU64::new(plan.after_ticks),
            kind: plan.kind,
        }
    }

    /// Count one tick; `true` once the countdown is exhausted (and on
    /// every tick thereafter, so derived checkpoints sharing this state
    /// stay tripped).
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

/// The per-query guard consulted at iteration boundaries.
///
/// All limits are optional; [`Checkpoint::unlimited`] never trips and its
/// [`tick`](Checkpoint::tick) compiles to a handful of `None` tests. The
/// caller passes its *deterministic* cumulative work counters into `tick`
/// — the checkpoint itself holds no mutable counters (except the
/// feature-gated fault countdown), so cloning is cheap and a clone used
/// for a sub-run (see [`after_work`](Checkpoint::after_work)) shares the
/// deadline, token, hook, and fault state of its parent.
#[derive(Clone, Debug, Default)]
pub struct Checkpoint {
    deadline: Option<Instant>,
    max_pushes: Option<u64>,
    max_edges: Option<u64>,
    cancel: Option<CancelToken>,
    hook: Option<BoundaryHook>,
    #[cfg(feature = "fault-inject")]
    fault: Option<Arc<FaultState>>,
}

impl Checkpoint {
    /// A checkpoint that never trips.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Trip once `Instant::now()` reaches `at`.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Trip once the caller's pushed-mass-update counter exceeds `cap`.
    pub fn with_max_pushes(mut self, cap: u64) -> Self {
        self.max_pushes = Some(cap);
        self
    }

    /// Trip once the caller's traversed-edge counter exceeds `cap`.
    pub fn with_max_edges(mut self, cap: u64) -> Self {
        self.max_edges = Some(cap);
        self
    }

    /// Trip once `token` is cancelled.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Run `hook` at every [`tick`](Checkpoint::tick), before the trip
    /// tests.
    pub fn with_hook(mut self, hook: BoundaryHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Install a deterministic fault-injection plan (see [`FaultPlan`]).
    #[cfg(feature = "fault-inject")]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(Arc::new(FaultState::new(plan)));
        self
    }

    /// Derive a checkpoint for a sub-run after `pushes`/`edges` units of
    /// work have already been consumed: work caps shrink by the consumed
    /// amounts (saturating at zero — an exhausted cap trips the sub-run's
    /// first tick), while the deadline, cancel token, and fault countdown
    /// are *shared* with `self`. Used by grid scans (NCP) whose inner
    /// runs restart their counters from zero.
    pub fn after_work(&self, pushes: u64, edges: u64) -> Checkpoint {
        let mut derived = self.clone();
        derived.max_pushes = self.max_pushes.map(|cap| cap.saturating_sub(pushes));
        derived.max_edges = self.max_edges.map(|cap| cap.saturating_sub(edges));
        derived
    }

    /// The amortized boundary check. `pushes` and `edges` are the
    /// caller's cumulative deterministic work counters for the current
    /// run. Runs the [`BoundaryHook`], if one is installed, on the calling
    /// thread — the one driving the query — then returns `Err` with the
    /// first limit found tripped, checking (in order) the fault plan, the
    /// cancel token, the work caps, and the deadline.
    ///
    /// Cost: with no limits and no hook installed this is five `None`
    /// tests; a hook adds whatever it runs (charged to the deadline, which
    /// is read after it), a deadline one coarse clock read, a token one
    /// acquire load. Never called per edge.
    #[inline]
    pub fn tick(&self, pushes: u64, edges: u64) -> Result<(), Trip> {
        if let Some(hook) = &self.hook {
            (hook.0)();
        }
        #[cfg(feature = "fault-inject")]
        if let Some(fault) = &self.fault {
            if fault.fire() {
                return Err(fault.kind);
            }
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(Trip::Cancelled);
            }
        }
        if let Some(cap) = self.max_pushes {
            if pushes > cap {
                return Err(Trip::WorkBudget);
            }
        }
        if let Some(cap) = self.max_edges {
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
    use std::time::Duration;

    #[test]
    fn unlimited_never_trips() {
        let cp = Checkpoint::unlimited();
        assert_eq!(cp.tick(u64::MAX, u64::MAX), Ok(()));
    }

    #[test]
    fn cancel_token_is_shared_and_one_shot() {
        let token = CancelToken::new();
        let cp = Checkpoint::unlimited().with_cancel(token.clone());
        assert_eq!(cp.tick(0, 0), Ok(()));
        token.cancel();
        assert_eq!(cp.tick(0, 0), Err(Trip::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn work_caps_trip_strictly_above() {
        let cp = Checkpoint::unlimited()
            .with_max_pushes(10)
            .with_max_edges(100);
        assert_eq!(cp.tick(10, 100), Ok(()));
        assert_eq!(cp.tick(11, 0), Err(Trip::WorkBudget));
        assert_eq!(cp.tick(0, 101), Err(Trip::WorkBudget));
    }

    #[test]
    fn deadline_in_the_past_trips() {
        let cp = Checkpoint::unlimited().with_deadline_at(Instant::now() - Duration::from_secs(1));
        assert_eq!(cp.tick(0, 0), Err(Trip::Deadline));
        let cp =
            Checkpoint::unlimited().with_deadline_at(Instant::now() + Duration::from_secs(3600));
        assert_eq!(cp.tick(0, 0), Ok(()));
    }

    #[test]
    fn derived_checkpoint_shrinks_work_caps() {
        let cp = Checkpoint::unlimited()
            .with_max_pushes(10)
            .with_max_edges(100);
        let derived = cp.after_work(4, 120);
        assert_eq!(derived.tick(6, 0), Ok(()));
        assert_eq!(derived.tick(7, 0), Err(Trip::WorkBudget));
        // edges cap saturated at zero: any positive count trips.
        assert_eq!(derived.tick(0, 1), Err(Trip::WorkBudget));
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
        let cp = Checkpoint::unlimited()
            .with_cancel(token)
            .with_max_edges(100)
            .with_hook(hook);
        assert_eq!(cp.tick(0, 0), Ok(()));
        // A tick that trips has still run the hook.
        assert_eq!(cp.tick(0, 101), Err(Trip::WorkBudget));
        // The cancellation the third run makes is seen by that same tick.
        assert_eq!(cp.after_work(0, 0).tick(0, 0), Err(Trip::Cancelled));
        assert_eq!(runs.load(Ordering::Relaxed), 3);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_plan_trips_the_kth_tick_and_stays_tripped() {
        let plan = FaultPlan {
            after_ticks: 2,
            kind: Trip::Deadline,
        };
        let cp = Checkpoint::unlimited().with_fault(plan);
        assert_eq!(cp.tick(0, 0), Ok(()));
        assert_eq!(cp.tick(0, 0), Ok(()));
        assert_eq!(cp.tick(0, 0), Err(Trip::Deadline));
        // shared state: a derived clone is already exhausted too.
        assert_eq!(cp.after_work(0, 0).tick(0, 0), Err(Trip::Deadline));
    }
}
