//! Two-class priority scheduler: a bounded, condvar-backed job queue
//! where every queued interactive job is dispatched before any bulk
//! job, regardless of arrival order.
//!
//! The shape is deliberately boring — one `Mutex` around two
//! `VecDeque`s plus a `Condvar` — because the executor pool is small
//! (it mirrors the shared `Pool`'s thread count: under load the
//! executors *are* the pool's parallelism, each query running on the
//! executor that popped it, while a lone query forks across the pool)
//! and jobs are milliseconds of diffusion work, so queue-lock
//! contention is noise.
//! What matters is the policy: [`SchedulerMode::Priority`] gives
//! interactive queries head-of-line privilege over bulk scans, and the
//! server lets them past a *running* bulk query too: each bulk query's
//! iteration boundaries take queued interactive jobs with
//! [`Scheduler::try_pop`] and run them on the spot. That is what keeps
//! interactive latency flat while bulk work saturates the executors.
//! [`SchedulerMode::Fifo`] disables both privileges (one
//! logical arrival-order queue); `lgc-server --fifo` selects it, so an
//! operator can run the same traffic without the policy and compare.
//!
//! Each class has its own bounded depth; a push beyond the bound is
//! refused with [`PushError::Full`] and the caller sheds the request
//! back to the client with a `QueueFull` wire error + retry hint.
//! Shedding at enqueue (rather than blocking the connection's reader
//! thread) is what makes overload observable to clients instead of
//! silently queueing unbounded work.

use crate::wire::Priority;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Queue policy: see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Interactive jobs dispatch before bulk jobs (the default).
    Priority,
    /// Strict arrival order across both classes (`lgc-server --fifo`).
    Fifo,
}

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The class's bounded queue is at capacity.
    Full {
        /// Jobs currently queued in that class.
        queued: usize,
        /// The configured bound.
        cap: usize,
    },
    /// The scheduler has been shut down.
    ShutDown,
}

struct State<T> {
    /// `queues[Priority::Interactive]`, `queues[Priority::Bulk]`. In
    /// FIFO mode both pushes and pops treat the pair as one logical
    /// queue ordered by a per-job arrival ticket.
    queues: [VecDeque<(u64, T)>; 2],
    next_ticket: u64,
    shutdown: bool,
}

/// A bounded two-class MPMC job queue (see module docs).
pub struct Scheduler<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    caps: [usize; 2],
    mode: SchedulerMode,
}

impl<T> Scheduler<T> {
    /// Creates a scheduler with the given per-class queue bounds.
    pub fn new(mode: SchedulerMode, interactive_cap: usize, bulk_cap: usize) -> Self {
        Scheduler {
            state: Mutex::new(State {
                queues: [VecDeque::new(), VecDeque::new()],
                next_ticket: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            caps: [interactive_cap.max(1), bulk_cap.max(1)],
            mode,
        }
    }

    /// The configured bound for a class.
    pub fn cap(&self, class: Priority) -> usize {
        self.caps[class.index()]
    }

    /// Current queue depth of a class (for metrics; racy by nature).
    pub fn depth(&self, class: Priority) -> usize {
        let st = self.state.lock();
        st.queues[class.index()].len()
    }

    /// Enqueues a job, or refuses it if the class queue is full or the
    /// scheduler is shut down.
    pub fn push(&self, class: Priority, job: T) -> Result<(), (T, PushError)> {
        let mut st = self.state.lock();
        if st.shutdown {
            return Err((job, PushError::ShutDown));
        }
        let idx = class.index();
        let cap = self.caps[idx];
        if st.queues[idx].len() >= cap {
            let queued = st.queues[idx].len();
            return Err((job, PushError::Full { queued, cap }));
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queues[idx].push_back((ticket, job));
        drop(st);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (or shutdown), then dispatches
    /// the highest-priority one. Returns `None` once the scheduler is
    /// shut down *and* drained.
    pub fn pop(&self) -> Option<(Priority, T)> {
        let mut st = self.state.lock();
        loop {
            if let Some(hit) = self.pick(&mut st) {
                return Some(hit);
            }
            if st.shutdown {
                return None;
            }
            self.available.wait(&mut st);
        }
    }

    /// Takes the oldest queued job of `class`, if there is one, without
    /// blocking and whatever the mode — what a bulk query's boundary hook
    /// calls in priority mode, where that is the job `pop` would dispatch
    /// next.
    pub fn try_pop(&self, class: Priority) -> Option<T> {
        let mut st = self.state.lock();
        st.queues[class.index()].pop_front().map(|(_, job)| job)
    }

    fn pick(&self, st: &mut State<T>) -> Option<(Priority, T)> {
        match self.mode {
            SchedulerMode::Priority => {
                for class in [Priority::Interactive, Priority::Bulk] {
                    if let Some((_, job)) = st.queues[class.index()].pop_front() {
                        return Some((class, job));
                    }
                }
                None
            }
            SchedulerMode::Fifo => {
                // Oldest ticket across both classes wins.
                let front = |q: &VecDeque<(u64, T)>| q.front().map(|&(t, _)| t);
                let it = front(&st.queues[0]);
                let bt = front(&st.queues[1]);
                let class = match (it, bt) {
                    (Some(a), Some(b)) if a < b => Priority::Interactive,
                    (Some(_), Some(_)) => Priority::Bulk,
                    (Some(_), None) => Priority::Interactive,
                    (None, Some(_)) => Priority::Bulk,
                    (None, None) => return None,
                };
                // The class was picked because its front exists (still
                // under the same lock), so this pop always yields a job.
                let (_, job) = st.queues[class.index()].pop_front()?;
                Some((class, job))
            }
        }
    }

    /// Marks the scheduler shut down and wakes all blocked poppers.
    /// Already-queued jobs are still drained; new pushes are refused.
    pub fn shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        drop(st);
        self.available.notify_all();
    }

    /// Drains every queued job without dispatching it (used at
    /// shutdown to fail pending requests back to their clients).
    pub fn drain(&self) -> Vec<(Priority, T)> {
        let mut st = self.state.lock();
        let mut out = Vec::new();
        for class in [Priority::Interactive, Priority::Bulk] {
            while let Some((_, job)) = st.queues[class.index()].pop_front() {
                out.push((class, job));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn priority_mode_dispatches_interactive_first() {
        let s = Scheduler::new(SchedulerMode::Priority, 8, 8);
        s.push(Priority::Bulk, "b0").unwrap();
        s.push(Priority::Bulk, "b1").unwrap();
        s.push(Priority::Interactive, "i0").unwrap();
        assert_eq!(s.pop(), Some((Priority::Interactive, "i0")));
        assert_eq!(s.pop(), Some((Priority::Bulk, "b0")));
        s.push(Priority::Interactive, "i1").unwrap();
        assert_eq!(s.pop(), Some((Priority::Interactive, "i1")));
        assert_eq!(s.pop(), Some((Priority::Bulk, "b1")));
    }

    #[test]
    fn try_pop_takes_one_class_without_blocking() {
        let s = Scheduler::new(SchedulerMode::Priority, 8, 8);
        assert_eq!(s.try_pop(Priority::Interactive), None);
        s.push(Priority::Bulk, "b0").unwrap();
        s.push(Priority::Interactive, "i0").unwrap();
        s.push(Priority::Interactive, "i1").unwrap();
        assert_eq!(s.try_pop(Priority::Interactive), Some("i0"));
        assert_eq!(s.try_pop(Priority::Interactive), Some("i1"));
        assert_eq!(s.try_pop(Priority::Interactive), None);
        assert_eq!(s.pop(), Some((Priority::Bulk, "b0")));
    }

    #[test]
    fn fifo_mode_preserves_arrival_order() {
        let s = Scheduler::new(SchedulerMode::Fifo, 8, 8);
        s.push(Priority::Bulk, "b0").unwrap();
        s.push(Priority::Interactive, "i0").unwrap();
        s.push(Priority::Bulk, "b1").unwrap();
        assert_eq!(s.pop(), Some((Priority::Bulk, "b0")));
        assert_eq!(s.pop(), Some((Priority::Interactive, "i0")));
        assert_eq!(s.pop(), Some((Priority::Bulk, "b1")));
    }

    #[test]
    fn bounded_queue_sheds() {
        let s = Scheduler::new(SchedulerMode::Priority, 4, 2);
        s.push(Priority::Bulk, 0).unwrap();
        s.push(Priority::Bulk, 1).unwrap();
        let (job, err) = s.push(Priority::Bulk, 2).unwrap_err();
        assert_eq!(job, 2);
        assert_eq!(err, PushError::Full { queued: 2, cap: 2 });
        // Interactive queue has its own bound and is unaffected.
        s.push(Priority::Interactive, 3).unwrap();
        assert_eq!(s.depth(Priority::Bulk), 2);
        assert_eq!(s.depth(Priority::Interactive), 1);
    }

    #[test]
    fn shutdown_wakes_blocked_poppers_and_refuses_pushes() {
        let s = Arc::new(Scheduler::<u32>::new(SchedulerMode::Priority, 4, 4));
        let s2 = Arc::clone(&s);
        let popper = thread::spawn(move || s2.pop());
        s.shutdown();
        assert_eq!(popper.join().unwrap(), None);
        let (_, err) = s.push(Priority::Interactive, 7).unwrap_err();
        assert_eq!(err, PushError::ShutDown);
    }

    #[test]
    fn shutdown_still_drains_queued_jobs() {
        let s = Scheduler::new(SchedulerMode::Priority, 4, 4);
        s.push(Priority::Bulk, "queued").unwrap();
        s.shutdown();
        assert_eq!(s.pop(), Some((Priority::Bulk, "queued")));
        assert_eq!(s.pop(), None);
        let s = Scheduler::new(SchedulerMode::Priority, 4, 4);
        s.push(Priority::Bulk, "a").unwrap();
        s.push(Priority::Interactive, "b").unwrap();
        s.shutdown();
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn concurrent_producers_consumers_deliver_everything() {
        let s = Arc::new(Scheduler::<u64>::new(SchedulerMode::Priority, 1024, 1024));
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let s = Arc::clone(&s);
            producers.push(thread::spawn(move || {
                for i in 0..50 {
                    let class = if i % 2 == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Bulk
                    };
                    s.push(class, p * 1000 + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let s = Arc::clone(&s);
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((_, v)) = s.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        s.shutdown();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}
