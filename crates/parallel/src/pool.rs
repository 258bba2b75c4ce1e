//! A fixed-size fork-join thread pool with dynamically-chunked parallel loops.
//!
//! The design mirrors what a Cilk-style runtime provides to the paper's
//! algorithms: a caller submits one data-parallel loop at a time, worker
//! threads and the caller itself grab chunks of the iteration space off a
//! shared atomic counter, and the call returns only when every chunk has
//! executed. Because the caller blocks until completion, the loop body may
//! borrow from the caller's stack even though the workers are long-lived
//! (the same argument that makes scoped threads sound).
//!
//! The pool's width is a budget of hardware threads. A thread that runs a
//! query counts itself against it with [`Pool::enter`], and a loop forks
//! only when the width has a thread the callers do not already fill *and*
//! no other caller's loop is published; otherwise its caller walks the same
//! chunks itself. No thread ever waits for the pool: with as many callers
//! as the pool is wide, the callers are the parallelism.
//!
//! Whether a loop is *offered* to the pool at all is not decided here: a
//! query decides per iteration whether its loops are offered to the
//! workers, by the work the iteration has to do, and hands the ones that
//! are not to the process-wide workerless pool ([`Pool::solo`]) — see "The
//! fork policy" on `lgc_ligra::EdgeSpread`.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
#[expect(
    clippy::disallowed_types,
    reason = "the pool's job protocol: a loop is published, attached and completed under acquire/release; the caller count, the shard counter and the loop tallies are relaxed, since they steer where a loop runs and never what it computes"
)]
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Set while the current thread is executing chunks of a pool job.
    /// Nested `run` calls detect this and degrade to sequential execution,
    /// which keeps the API safe to use from inside loop bodies.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
    /// The pool (its `Shared`, by address) whose caller count includes
    /// this thread: set by [`Pool::enter`], null outside a query.
    static COUNTED_IN: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
    /// This thread's shard of every pool's loop tallies.
    static TALLY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % TALLY_SHARDS;
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// Shards of the loop tallies: callers that run beside each other tick
/// different cache lines.
const TALLY_SHARDS: usize = 8;

/// One shard of the loop tallies, on a cache line of its own. Statistics
/// only (relaxed): nothing is published through them.
#[derive(Default)]
#[repr(align(64))]
struct LoopTally {
    forked: AtomicU64,
    inline_no_spare: AtomicU64,
    inline_slot_busy: AtomicU64,
}

/// A type-erased parallel loop: `func(ctx, start, end)` runs one chunk.
struct Job {
    func: unsafe fn(*const (), usize, usize),
    ctx: *const (),
    len: usize,
    grain: usize,
    n_chunks: usize,
    /// Workers that may attach: the threads the width had to spare when
    /// the loop was admitted.
    helpers: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Number of chunks fully executed.
    completed: AtomicUsize,
    /// Number of worker threads currently holding a reference to this job.
    attached: AtomicUsize,
    /// Set when any chunk's body panicked; the panic is caught on the
    /// executing thread (so workers survive and bookkeeping completes)
    /// and re-raised on the calling thread once the loop has drained.
    panicked: AtomicBool,
}

// SAFETY: `ctx` always points at a closure that is `Sync` (enforced by the
// bound on `Pool::run`), and the remaining fields are atomics / plain data.
unsafe impl Sync for Job {}

struct Slot {
    job: Option<*const Job>,
    epoch: u64,
}

// SAFETY: the raw pointer is only dereferenced while the publishing caller
// is blocked inside `Pool::run`, so the pointee is alive; see `run`.
unsafe impl Send for Slot {}

struct Shared {
    slot: Mutex<Slot>,
    job_cv: Condvar,
    done_cv: Condvar,
    shutdown: AtomicBool,
    /// Lock-free mirror of `Slot::epoch`, bumped on publication so idle
    /// workers can detect new jobs by spinning briefly before parking on
    /// the condvar. Local algorithms issue thousands of small
    /// back-to-back loops per run; keeping workers hot across them is
    /// worth far more than the microseconds of spin.
    pub_epoch: AtomicU64,
    /// Per-pool idle-spin budget: [`IDLE_SPINS`] when every thread can
    /// have its own core, [`OVERSUBSCRIBED_SPINS`] when the pool has more
    /// threads than the machine — spinning then steals the timeslice of
    /// the thread that holds actual work, which is how `t > 1` used to
    /// *lose* to `t = 1` on a 1-core box.
    spin_budget: u32,
    /// The budget of hardware threads: workers plus one caller.
    width: usize,
    /// Caller threads inside a query (live [`Caller`] guards). Read
    /// relaxed: it steers where a loop runs, never what it computes.
    callers: AtomicUsize,
    /// Boxed: the shards' alignment must not become this struct's, whose
    /// few hot words the workers poll.
    tallies: Box<[LoopTally; TALLY_SHARDS]>,
}

/// How long an idle worker spins waiting for the next job before parking,
/// when threads ≤ cores.
const IDLE_SPINS: u32 = 100_000;

/// Spin budget when the pool is oversubscribed (threads > cores): park
/// almost immediately and let the OS hand the core to a thread with work.
const OVERSUBSCRIBED_SPINS: u32 = 64;

/// The crate's one element cutoff: below it filter, scan, counting sort,
/// arg-max and merge sort run their one-pass sequential forms whatever the
/// pool offers. `lgc_ligra::lane` does not make it redundant: that rule
/// measures an iteration's work, not the inputs it hands down (a step that
/// forks on `vol(F)` still filters a few hundred `|F|`), and the benchmark's
/// probes and the tests call the primitives under no lane at all.
const FORK_MIN_LEN: usize = 8192;

/// The machine's hardware parallelism (1 if unknown).
fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed-size thread pool for data-parallel loops.
///
/// `Pool::new(t)` makes a pool that executes loops on `t` threads total:
/// `t - 1` spawned workers plus the calling thread. `Pool::new(1)` spawns
/// nothing and runs every loop inline — this is the configuration used for
/// the single-threaded (`T1`) measurements in the paper's tables.
///
/// ```
/// use lgc_parallel::Pool;
/// let pool = Pool::new(2);
/// let mut out = vec![0u64; 1000];
/// // Each chunk of a parallel loop writes its own part of the buffer:
/// pool.for_each_chunk_mut(&mut out, 64, |start, chunk| {
///     for (i, x) in (start..).zip(chunk) {
///         *x = i as u64 * 2;
///     }
/// });
/// assert_eq!(out[501], 1002);
/// ```
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Held by the caller whose loop is published in `Shared::slot`. Only
    /// ever tried: a caller that finds it taken runs its loop inline.
    fork_slot: Mutex<()>,
}

/// A caller thread counted against its pool's width, from [`Pool::enter`]
/// until drop.
#[must_use = "the caller is counted only while the guard lives"]
pub struct Caller<'a> {
    /// The pool entered and what `COUNTED_IN` held before; `None` when
    /// entering was a no-op. (The raw pointer keeps the guard on the
    /// thread whose `COUNTED_IN` it restores.)
    counted: Option<(&'a Shared, *const Shared)>,
}

impl Drop for Caller<'_> {
    fn drop(&mut self) {
        if let Some((shared, outer)) = self.counted {
            shared.callers.fetch_sub(1, Ordering::Relaxed);
            COUNTED_IN.with(|c| c.set(outer));
        }
    }
}

/// How a pool has run its loops so far, and who is in it now; see
/// [`Pool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Loops published to the workers.
    pub loops_forked: u64,
    /// Loops their caller ran alone because callers filled the width.
    pub loops_inline_no_spare: u64,
    /// Loops their caller ran alone because another caller's loop was
    /// published at that moment.
    pub loops_inline_slot_busy: u64,
    /// Caller threads inside a query right now.
    pub callers: usize,
}

impl PoolStats {
    /// Loops their caller ran alone, for either reason.
    pub fn loops_inline(&self) -> u64 {
        self.loops_inline_no_spare + self.loops_inline_slot_busy
    }
}

impl Pool {
    /// Creates a pool that runs loops across `threads` threads
    /// (including the caller). `threads` is clamped to at least 1.
    ///
    /// How long an idle worker spins for the next loop before it parks
    /// depends on two things. Fixed here: a pool wider than the machine
    /// parks almost at once, any other spins for the time of a few
    /// back-to-back loops. Tested on every spin: worker `i` spins only
    /// while `callers + i ≤ threads`, i.e. while the callers inside a
    /// query ([`Pool::enter`]) leave it a hardware thread to spin on.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let spin_budget = if threads > hardware_threads() {
            OVERSUBSCRIBED_SPINS
        } else {
            IDLE_SPINS
        };
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                epoch: 0,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            pub_epoch: AtomicU64::new(0),
            spin_budget,
            width: threads,
            callers: AtomicUsize::new(0),
            tallies: Default::default(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lgc-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            fork_slot: Mutex::new(()),
        }
    }

    /// A single-threaded pool (no workers, zero synchronization overhead):
    /// every loop is one inline call and every primitive takes its one-pass
    /// sequential form. [`Pool::solo`] is the shared instance.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The process-wide workerless pool — what a query hands an iteration
    /// too small to be worth a fork (a query decides per iteration whether
    /// its loops are offered to the workers; the rule is "The fork policy"
    /// on `lgc_ligra::EdgeSpread`). It has no state a caller can observe:
    /// nothing is counted against it and its tallies never move.
    pub fn solo() -> &'static Pool {
        static SOLO: OnceLock<Pool> = OnceLock::new();
        SOLO.get_or_init(Pool::sequential)
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`).
    pub fn with_default_threads() -> Self {
        Self::new(hardware_threads())
    }

    /// A reference-counted pool of `threads` threads, for runtimes where
    /// many owners share one set of workers (a query service hosting
    /// several graphs, independent engines on one machine).
    ///
    /// Sharing is safe by construction: `Pool` is `Send + Sync`, and
    /// concurrent [`Pool::run`] calls from different OS threads never wait
    /// for each other. The width is shared, not multiplied: each query
    /// thread counts itself with [`Pool::enter`], a loop gets helpers only
    /// from the threads the callers leave free, and one whose caller finds
    /// none — or finds another caller's loop published — runs on its
    /// caller alone. A lone query uses the whole pool; as many queries as
    /// the pool is wide run side by side, one thread each (see
    /// `concurrent_callers_never_wait_for_the_pool`).
    pub fn shared(threads: usize) -> Arc<Self> {
        Arc::new(Self::new(threads))
    }

    /// Total number of threads participating in loops (workers + caller).
    pub fn num_threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Counts the current thread against the pool's width until the guard
    /// drops — what a thread does for the duration of a query, so that
    /// other callers' loops (and the idle workers) leave it its hardware
    /// thread. A no-op on a workerless pool, from inside a loop body, and
    /// on a thread this pool already counts. A thread is counted in one
    /// pool at a time, the innermost entered.
    pub fn enter(&self) -> Caller<'_> {
        let me = Arc::as_ptr(&self.shared);
        let counted =
            !self.workers.is_empty() && !IN_JOB.with(Cell::get) && COUNTED_IN.with(Cell::get) != me;
        Caller {
            counted: counted.then(|| {
                self.shared.callers.fetch_add(1, Ordering::Relaxed);
                (&*self.shared, COUNTED_IN.with(|c| c.replace(me)))
            }),
        }
    }

    /// Threads of the width that no caller fills, the current thread
    /// counted as one whether or not it has entered.
    fn spare(&self) -> usize {
        let shared = &*self.shared;
        let entered = COUNTED_IN.with(Cell::get) == Arc::as_ptr(&self.shared);
        let callers = shared.callers.load(Ordering::Relaxed) + usize::from(!entered);
        shared.width.saturating_sub(callers)
    }

    /// Whether a loop started now by this thread would get a helper.
    pub fn can_fork(&self) -> bool {
        !self.workers.is_empty() && !IN_JOB.with(Cell::get) && self.spare() > 0
    }

    /// Whether a primitive over `n` elements takes its two-pass parallel form.
    pub(crate) fn worth_forking(&self, n: usize) -> bool {
        self.can_fork() && n >= FORK_MIN_LEN
    }

    /// Loop tallies since the pool was built, and the callers inside a
    /// query now. Every [`Pool::run`] call longer than its grain, on a
    /// pool with workers, from outside a loop body, is counted in exactly
    /// one of the three tallies.
    pub fn stats(&self) -> PoolStats {
        let mut stats = PoolStats {
            callers: self.shared.callers.load(Ordering::Relaxed),
            ..PoolStats::default()
        };
        for shard in self.shared.tallies.iter() {
            stats.loops_forked += shard.forked.load(Ordering::Relaxed);
            stats.loops_inline_no_spare += shard.inline_no_spare.load(Ordering::Relaxed);
            stats.loops_inline_slot_busy += shard.inline_slot_busy.load(Ordering::Relaxed);
        }
        stats
    }

    /// Runs `f(start, end)` over disjoint chunks covering `0..len`.
    ///
    /// Chunks are at most `grain` long and are claimed dynamically, so
    /// irregular per-chunk costs load-balance automatically. `f` runs on
    /// multiple threads concurrently and must therefore be `Sync`; it may
    /// freely borrow from the caller because `run` does not return until
    /// every chunk has finished executing.
    ///
    /// A loop longer than `grain` forks when the width has a thread to
    /// spare (see [`Pool::enter`]) and no other caller's loop is published;
    /// otherwise the caller runs the same chunks, one `f` call each, in
    /// order. Either way a chunk starting at `s` is chunk `s / grain`, so
    /// per-chunk partials line up across loops admitted differently. A
    /// workerless pool calls `f(0, len)` once.
    ///
    /// Calling `run` from inside a loop body executes the nested loop
    /// sequentially on the current thread (documented degradation rather
    /// than deadlock).
    pub fn run<F>(&self, len: usize, grain: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if len == 0 {
            return;
        }
        let grain = grain.max(1);
        if self.workers.is_empty() || len <= grain || IN_JOB.with(Cell::get) {
            f(0, len);
            return;
        }

        let helpers = self.spare();
        let slot = if helpers == 0 {
            None
        } else {
            self.fork_slot.try_lock()
        };
        let tally = &self.shared.tallies[TALLY_SHARD.with(|s| *s)];
        let mode = match (&slot, helpers) {
            (Some(_), _) => &tally.forked,
            (None, 0) => &tally.inline_no_spare,
            (None, _) => &tally.inline_slot_busy,
        };
        mode.fetch_add(1, Ordering::Relaxed);
        let Some(_slot) = slot else {
            for s in (0..len).step_by(grain) {
                f(s, (s + grain).min(len));
            }
            return;
        };

        /// # Safety
        /// `ctx` must point at a live `F` for the duration of the call.
        unsafe fn call<F: Fn(usize, usize) + Sync>(ctx: *const (), s: usize, e: usize) {
            // SAFETY: `ctx` was produced from `&f` below and `f` outlives
            // the job because the caller blocks until completion.
            unsafe { (*(ctx as *const F))(s, e) }
        }

        let job = Job {
            func: call::<F>,
            ctx: (&raw const f).cast(),
            len,
            grain,
            n_chunks: len.div_ceil(grain),
            helpers,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            attached: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        };

        {
            let mut slot = self.shared.slot.lock();
            slot.job = Some(&raw const job);
            slot.epoch = slot.epoch.wrapping_add(1);
            self.shared.pub_epoch.store(slot.epoch, Ordering::Release);
            self.shared.job_cv.notify_all();
        }

        // The caller participates in its own loop.
        IN_JOB.with(|c| c.set(true));
        work_on(&job);
        IN_JOB.with(|c| c.set(false));

        // Retract the job and wait until no worker still references it and
        // every chunk has completed. Only then may `job` (and `f`) die.
        // Spin briefly first: the tail chunk usually finishes within
        // microseconds of the caller running out of work.
        let finished = |job: &Job| {
            job.attached.load(Ordering::Acquire) == 0
                && job.completed.load(Ordering::Acquire) == job.n_chunks
        };
        let mut slot = self.shared.slot.lock();
        slot.job = None;
        drop(slot);
        let mut done = false;
        for _ in 0..self.shared.spin_budget {
            if finished(&job) {
                done = true;
                break;
            }
            std::hint::spin_loop();
        }
        if !done {
            let mut slot = self.shared.slot.lock();
            while !finished(&job) {
                self.shared.done_cv.wait(&mut slot);
            }
        }
        // Re-raise any panic caught inside the loop body, now that every
        // chunk is accounted for and the pool is back in a clean state.
        assert!(
            !job.panicked.load(Ordering::Acquire),
            "a parallel loop body panicked (original message was reported on its thread)"
        );
    }

    /// Runs `f(i)` for every `i in 0..len`, in parallel chunks of `grain`.
    pub fn for_each_index<F>(&self, len: usize, grain: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run(len, grain, |s, e| {
            for i in s..e {
                f(i);
            }
        });
    }

    /// Runs `f(start, chunk)` over `data` cut into the chunks that
    /// [`Pool::run`] hands out for `data.len()` and `grain`: `chunk` is
    /// `&mut data[start..start + chunk.len()]`, and every element lies in
    /// exactly one chunk. This is the crate's one disjoint write: a loop
    /// fills its part of an output buffer that no other chunk can touch.
    /// As with `run`, a workerless pool calls `f(0, data)` once.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], grain: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = data.len();
        let base = Base(data.as_mut_ptr());
        self.run(len, grain, |s, e| {
            // SAFETY: `run` calls each of its chunks `[s, e)` once per loop,
            // the chunks are disjoint and lie within `0..len`, and `data`
            // stays borrowed, and unused, until `run` returns. So this is
            // the only reference to these elements while it lives.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
            f(s, chunk);
        });
    }

    /// Runs `f(k, &mut data[bounds[k]..bounds[k + 1]])` for every part `k`
    /// in parallel, and returns the results in part order: the disjoint
    /// write for parts of varying length, cut at ascending points (a
    /// filter's output offsets, a merge's segment starts).
    ///
    /// # Panics
    /// Before any `f` runs, if the cut points decrease or end past
    /// `data.len()`.
    pub fn map_ranges_mut<T, U, F>(&self, data: &mut [T], bounds: &[usize], f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, &mut [T]) -> U + Sync,
    {
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1])
                && bounds.last().is_none_or(|&b| b <= data.len()),
            "cut points {bounds:?} must be non-decreasing and end within {} elements",
            data.len()
        );
        let mut rest = &mut data[bounds.first().map_or(0, |&b| b)..];
        let mut parts: Vec<(&mut [T], Option<U>)> = bounds
            .windows(2)
            .map(|w| {
                let (part, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
                rest = tail;
                (part, None)
            })
            .collect();
        self.for_each_chunk_mut(&mut parts, 1, |k0, parts| {
            for (k, (part, out)) in (k0..).zip(parts) {
                *out = Some(f(k, part));
            }
        });
        parts
            .into_iter()
            .map(|(_, out)| out.expect("every part ran"))
            .collect()
    }
}

/// A slice's base pointer, shared by the chunks of one
/// [`Pool::for_each_chunk_mut`] loop.
struct Base<T>(*mut T);

// SAFETY: the chunks of one loop reach the elements only through the
// disjoint subslices `for_each_chunk_mut` cuts, each on one thread; a
// thread handed another's `T`s needs `T: Send`.
unsafe impl<T: Send> Sync for Base<T> {}

impl<T> Base<T> {
    /// The pointer (a method, so that closures capture the whole `Base`).
    fn get(&self) -> *mut T {
        self.0
    }
}

// What `Pool::shared` advertises: the pool may be owned and queried from
// any thread. (`Job`/`Slot` carry the unsafe impls this rests on.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pool>();
};

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _slot = self.shared.slot.lock();
            self.shared.job_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Claims and executes chunks until the job's iteration space is exhausted.
fn work_on(job: &Job) {
    loop {
        let c = job.next.fetch_add(1, Ordering::Relaxed);
        if c >= job.n_chunks {
            break;
        }
        let start = c * job.grain;
        let end = (start + job.grain).min(job.len);
        // Catch panics so a faulty loop body cannot kill a worker thread
        // or leave the caller waiting forever; the chunk still counts as
        // completed and the caller re-raises after the job drains.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: per-job invariant — `func`/`ctx` are valid while
            // any thread is attached or the caller is inside `run`.
            unsafe { (job.func)(job.ctx, start, end) };
        }));
        if result.is_err() {
            // Remaining chunks still execute (they are independent); the
            // caller re-raises once every chunk has been accounted for,
            // which keeps the completion bookkeeping trivially correct.
            job.panicked.store(true, Ordering::Release);
        }
        job.completed.fetch_add(1, Ordering::AcqRel);
    }
}

/// The loop of worker `index` (1-based: the caller is thread 0).
fn worker_loop(shared: &Shared, index: usize) {
    let mut last_epoch = 0u64;
    loop {
        // Spin-then-park: briefly poll the lock-free epoch mirror so that
        // back-to-back loops reuse a hot worker without a futex round-trip
        // — but only while the callers leave this worker a thread of the
        // width: beside as many queries as the pool is wide no loop will
        // fork, and a spinning worker would take a core from one of them.
        let mut spins = 0u32;
        while shared.pub_epoch.load(Ordering::Acquire) == last_epoch
            && !shared.shutdown.load(Ordering::Acquire)
            && spins < shared.spin_budget
            && shared.callers.load(Ordering::Relaxed) + index <= shared.width
        {
            spins += 1;
            std::hint::spin_loop();
        }
        let job_ptr: *const Job;
        {
            let mut slot = shared.slot.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // A job seen once is never new again, attached to or not
                // (the one we spun towards may already be retracted).
                let fresh = slot.epoch != last_epoch;
                last_epoch = slot.epoch;
                if let Some(p) = slot.job.filter(|_| fresh) {
                    // SAFETY: job pointer is valid while published.
                    let job = unsafe { &*p };
                    // Attach under the lock: the publishing caller
                    // retracts the job under the same lock afterwards,
                    // so it is guaranteed to observe this attachment.
                    // A loop takes no more workers than it was admitted
                    // with; attachments are ordered by the lock.
                    if job.attached.load(Ordering::Acquire) < job.helpers {
                        job.attached.fetch_add(1, Ordering::AcqRel);
                        job_ptr = p;
                        break;
                    }
                }
                shared.job_cv.wait(&mut slot);
            }
        }
        // SAFETY: we are attached, so the caller cannot free the job yet.
        let job = unsafe { &*job_ptr };
        IN_JOB.with(|c| c.set(true));
        work_on(job);
        IN_JOB.with(|c| c.set(false));
        job.attached.fetch_sub(1, Ordering::AcqRel);
        // Wake the caller (it re-checks `attached`/`completed`). Locking the
        // mutex around the notify prevents a missed wakeup between the
        // caller's condition check and its `wait`.
        let _slot = shared.slot.lock();
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = Pool::sequential();
        assert_eq!(pool.num_threads(), 1);
        let hits = AtomicU64::new(0);
        pool.run(10, 3, |s, e| {
            hits.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    /// One workerless pool for the whole process: nothing forks on it,
    /// nothing is counted against it and its tallies never move.
    #[test]
    fn solo_is_one_workerless_pool() {
        let solo = Pool::solo();
        assert!(std::ptr::eq(solo, Pool::solo()));
        assert_eq!(solo.num_threads(), 1);
        assert!(!solo.can_fork());
        let calls = AtomicU64::new(0);
        let _noop = solo.enter();
        solo.run(10_000, 16, |s, e| {
            assert_eq!((s, e), (0, 10_000));
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(solo.stats(), PoolStats::default());
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = Pool::new(4);
        let n = 100_000;
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.for_each_index(n, 1000, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn oversubscribed_pools_park_instead_of_spinning() {
        // Oversubscribed pools still execute correctly, just with a
        // parked-not-spinning idle policy.
        let pool = Pool::new(hardware_threads() * 4);
        assert_eq!(pool.shared.spin_budget, OVERSUBSCRIBED_SPINS);
        let total = AtomicU64::new(0);
        pool.run(10_000, 64, |s, e| {
            total.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10_000);
        assert_eq!(Pool::new(1).shared.spin_budget, IDLE_SPINS);
    }

    #[test]
    fn sums_match_sequential() {
        let pool = Pool::new(3);
        let data: Vec<u64> = (0..1_000_000u64).collect();
        let total = AtomicU64::new(0);
        pool.run(data.len(), 4096, |s, e| {
            let local: u64 = data[s..e].iter().sum();
            total.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1_000_000u64 * 999_999 / 2);
    }

    #[test]
    fn nested_run_degrades_to_sequential() {
        let pool = Pool::new(2);
        let outer = AtomicU64::new(0);
        pool.run(4, 1, |s, e| {
            // Nested call must not deadlock.
            pool.run(8, 2, |s2, e2| {
                outer.fetch_add((e2 - s2) as u64, Ordering::Relaxed);
            });
            outer.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(outer.load(Ordering::Relaxed), 4 * 8 + 4);
    }

    #[test]
    fn many_small_jobs_back_to_back() {
        let pool = Pool::new(4);
        let total = AtomicU64::new(0);
        for _ in 0..2000 {
            pool.run(64, 4, |s, e| {
                total.fetch_add((e - s) as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 2000 * 64);
    }

    #[test]
    fn zero_len_is_noop() {
        let pool = Pool::new(2);
        pool.run(0, 16, |_, _| panic!("must not be called"));
    }

    #[test]
    fn pool_is_reusable_after_drop_of_another_pool() {
        let p1 = Pool::new(2);
        drop(p1);
        let p2 = Pool::new(2);
        let total = AtomicU64::new(0);
        p2.run(100, 10, |s, e| {
            total.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panic_in_loop_body_propagates_and_pool_survives() {
        let pool = Pool::new(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(10_000, 16, |s, _| {
                if s == 4096 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "the panic must reach the caller");
        // The pool must still work after a panicking job.
        let total = AtomicU64::new(0);
        pool.run(1000, 16, |s, e| {
            total.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }

    /// Lengths around the cutoffs: empty, one, below the grain, and well
    /// past `FORK_MIN_LEN`.
    const LENGTHS: [usize; 4] = [0, 1, 50, 3 * FORK_MIN_LEN + 7];

    /// Marks each element with its index and counts its visits.
    fn visit(start: usize, chunk: &mut [(usize, u32)]) {
        for (i, x) in (start..).zip(chunk) {
            *x = (i, x.1 + 1);
        }
    }

    #[test]
    fn each_chunk_is_written_exactly_once() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            for len in LENGTHS {
                let mut data = vec![(usize::MAX, 0u32); len];
                pool.for_each_chunk_mut(&mut data, 64, visit);
                let want: Vec<(usize, u32)> = (0..len).map(|i| (i, 1)).collect();
                assert_eq!(data, want, "t={threads} len={len}");
            }
        }
    }

    #[test]
    fn each_range_is_written_exactly_once_and_answers_in_order() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            for len in LENGTHS {
                // Parts of 1, 2, ... 9, 0, 1, ... elements over the middle
                // three fifths; the head and the tail stay untouched.
                let (lo, hi) = (len / 5, len - len / 5);
                let mut bounds = vec![lo];
                while let Some(&b) = bounds.last().filter(|&&b| b < hi) {
                    bounds.push((b + bounds.len() % 10).min(hi));
                }
                let mut data = vec![(usize::MAX, 0u32); len];
                let got = pool.map_ranges_mut(&mut data, &bounds, |k, part| {
                    visit(bounds[k], part);
                    (k, part.len())
                });
                let want: Vec<(usize, usize)> = bounds
                    .windows(2)
                    .enumerate()
                    .map(|(k, w)| (k, w[1] - w[0]))
                    .collect();
                assert_eq!(got, want, "t={threads} len={len}");
                for (i, &x) in data.iter().enumerate() {
                    let inside = bounds[0] <= i && i < *bounds.last().unwrap();
                    let expect = if inside { (i, 1) } else { (usize::MAX, 0) };
                    assert_eq!(x, expect, "t={threads} len={len} i={i}");
                }
            }
        }
    }

    #[test]
    fn bad_cut_points_panic_before_any_part_runs() {
        let pool = Pool::new(2);
        let ran = AtomicUsize::new(0);
        for bounds in [&[0, 5, 4, 10][..], &[0, 10, 11], &[12]] {
            let mut data = vec![0u8; 10];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.map_ranges_mut(&mut data, bounds, |_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }));
            assert!(caught.is_err(), "{bounds:?}");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panic_in_a_chunk_body_propagates_and_pool_survives() {
        let pool = Pool::new(3);
        let mut data = vec![0u32; 10_000];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_chunk_mut(&mut data, 16, |s, _| {
                if s == 4096 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "the panic must reach the caller");
        pool.for_each_chunk_mut(&mut data, 16, |_, chunk| chunk.fill(7));
        assert!(data.iter().all(|&x| x == 7));
    }

    #[test]
    fn panic_on_single_thread_pool_propagates() {
        let pool = Pool::sequential();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(10, 1, |_, _| panic!("inline"));
        }));
        assert!(caught.is_err());
    }

    /// Caller B's loop runs to completion while caller A is still inside
    /// the body of its own published loop: B finds the slot taken and
    /// walks its chunks itself. (Queueing for the slot would hang here.)
    #[test]
    fn concurrent_callers_never_wait_for_the_pool() {
        use std::sync::Barrier;
        let pool = Pool::new(2);
        let (a_inside, b_done) = (Barrier::new(2), Barrier::new(2));
        let b_total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.run(2, 1, |s, _| {
                    if s == 0 {
                        a_inside.wait();
                        b_done.wait();
                    }
                });
            });
            a_inside.wait();
            pool.run(1000, 64, |s, e| {
                b_total.fetch_add((e - s) as u64, Ordering::Relaxed);
            });
            b_done.wait();
        });
        assert_eq!(b_total.load(Ordering::Relaxed), 1000);
        let stats = pool.stats();
        assert_eq!(
            (stats.loops_forked, stats.loops_inline_slot_busy),
            (1, 1),
            "{stats:?}"
        );
    }

    /// Every loop past the `len > grain` test lands in exactly one tally,
    /// whoever ran it and however the callers overlapped.
    #[test]
    fn loop_tallies_add_up_to_the_loops_run() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        let (threads, loops) = (4u64, 200u64);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (pool, total) = (&pool, &total);
                scope.spawn(move || {
                    for i in 0..loops {
                        // Half the loops inside a query, half bare.
                        let _caller = (i % 2 == t % 2).then(|| pool.enter());
                        pool.run(1000, 64, |s, e| {
                            total.fetch_add((e - s) as u64, Ordering::Relaxed);
                        });
                        // Too short to fork: counted nowhere.
                        pool.run(64, 64, |_, _| {});
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), threads * loops * 1000);
        let stats = pool.stats();
        assert_eq!(
            stats.loops_forked + stats.loops_inline(),
            threads * loops,
            "{stats:?}"
        );
        assert_eq!(stats.callers, 0);
    }

    /// The width is a budget: with as many callers inside a query as the
    /// pool is wide no loop forks, every chunk still runs (one call per
    /// chunk, in order), and a lone caller forks again.
    #[test]
    fn loops_fork_only_when_the_width_has_a_thread_to_spare() {
        let pool = Pool::new(2);
        let me = pool.enter();
        let nested = pool.enter();
        assert_eq!(pool.stats().callers, 1, "re-entering counts nothing");
        drop(nested);
        assert!(pool.can_fork());
        let (entered, leave) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let chunks = Mutex::new(Vec::new());
        // Asserted on after `leave`: a panic before it would strand the
        // other thread at the barrier.
        let (beside, could_fork) = std::thread::scope(|scope| {
            scope.spawn(|| {
                let _other = pool.enter();
                entered.wait();
                leave.wait();
            });
            entered.wait();
            let could_fork = pool.can_fork();
            pool.run(1000, 300, |s, e| chunks.lock().push((s, e)));
            let beside = pool.stats();
            leave.wait();
            (beside, could_fork)
        });
        assert!(!could_fork);
        assert_eq!(
            *chunks.lock(),
            [(0, 300), (300, 600), (600, 900), (900, 1000)]
        );
        assert_eq!(
            beside,
            PoolStats {
                loops_inline_no_spare: 1,
                callers: 2,
                ..PoolStats::default()
            }
        );
        assert!(pool.can_fork());
        pool.run(1000, 300, |_, _| {});
        assert_eq!(pool.stats().loops_forked, 1);
        drop(me);
        assert_eq!(pool.stats().callers, 0);
        // A bare caller is counted as one thread all the same.
        assert!(pool.can_fork());
        let _other = pool.enter();
        std::thread::scope(|scope| {
            scope.spawn(|| assert!(!pool.can_fork()));
        });
        // Nothing to count on a workerless pool or inside a loop body.
        let seq = Pool::sequential();
        let _noop = seq.enter();
        assert_eq!(seq.stats().callers, 0);
        assert!(!seq.can_fork());
        let wide = Pool::new(2);
        wide.run(2, 1, |_, _| {
            let _noop = wide.enter();
            assert_eq!(wide.stats().callers, 0);
            assert!(!wide.can_fork());
        });
    }

    /// A loop admitted with one thread to spare takes one worker, however
    /// many the pool has.
    #[test]
    fn a_loop_takes_no_more_workers_than_the_width_had_to_spare() {
        let pool = Pool::new(4);
        let _me = pool.enter();
        let (entered, leave) = (std::sync::Barrier::new(3), std::sync::Barrier::new(3));
        let inside = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _other = pool.enter();
                    entered.wait();
                    leave.wait();
                });
            }
            entered.wait();
            // Width 4, three callers: one helper. All three workers are
            // woken; the chunks last long enough for each to turn up.
            pool.run(16, 1, |_, _| {
                let now = inside.fetch_add(1, Ordering::AcqRel) + 1;
                most.fetch_max(now, Ordering::AcqRel);
                std::thread::sleep(std::time::Duration::from_millis(1));
                inside.fetch_sub(1, Ordering::AcqRel);
            });
            leave.wait();
        });
        assert!(most.load(Ordering::Acquire) <= 2);
    }
}
