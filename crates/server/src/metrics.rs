//! Server observability: per-tenant × per-class latency histograms,
//! request/shed/dispatch counters, and a Prometheus-style text renderer that
//! also folds in the engine-side state the core crate already tracks
//! ([`LifecycleSnapshot`](lgc_core::LifecycleSnapshot) counters, graph summary
//! sizes), the shared pool's loop tallies ([`lgc_parallel::PoolStats`]:
//! forked against run inline, and the callers inside a query now) plus
//! the scheduler's live queue depths.
//!
//! Histograms are lock-free log2 buckets over microseconds: `record`
//! is two atomic adds, and quantiles are read as the upper bound of
//! the bucket where the cumulative count crosses the quantile — a
//! ≤2× overestimate by construction, which is the right bias for a
//! tail-latency dashboard (never under-reports a bad tail).

use crate::wire::Priority;
use lgc_core::Service;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
#[expect(
    clippy::disallowed_types,
    reason = "relaxed serving counters and histogram buckets"
)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of log2 latency buckets: bucket `i` covers
/// `[2^i, 2^{i+1})` µs, so the top bucket starts at ~2.2 minutes.
const NBUCKETS: usize = 28;

/// A lock-free log2 latency histogram (microsecond domain).
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

fn bucket_of(micros: u64) -> usize {
    // floor(log2(max(micros, 1))), clamped to the top bucket.
    let idx = 63 - micros.max(1).leading_zeros() as usize;
    idx.min(NBUCKETS - 1)
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency, or `None` with no observations.
    pub fn mean(&self) -> Option<Duration> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        Some(Duration::from_micros(
            self.sum_micros.load(Ordering::Relaxed) / n,
        ))
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// where the cumulative count crosses it; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return Some(Duration::from_micros(1u64 << (i + 1)));
            }
        }
        Some(Duration::from_micros(1u64 << NBUCKETS))
    }
}

/// Counters + latency histogram for one (tenant, class) pair.
#[derive(Default)]
pub struct ClassMetrics {
    /// End-to-end server-side latency (dequeue-to-response of the
    /// execution, including engine time) of completed queries.
    pub latency: LatencyHistogram,
    /// Queries answered with a full `ClusterResult`.
    pub completed: AtomicU64,
    /// Queries answered with a typed error (any code).
    pub errored: AtomicU64,
    /// Of those, requests shed for load (`QueueFull` / workspace
    /// budget) — the retryable slice of `errored`.
    pub shed: AtomicU64,
    /// Jobs an executor popped off the scheduler and ran.
    pub dispatched: AtomicU64,
    /// Jobs a running bulk query took off the scheduler at one of its
    /// iteration boundaries and ran (interactive class, priority mode).
    /// With `dispatched`, every job run: the two add up to
    /// `completed + errored` plus the jobs whose connection was gone.
    pub boundary_runs: AtomicU64,
}

/// Whole-server metrics registry. One instance per server; shared with
/// every connection and executor via `Arc`.
#[derive(Default)]
pub struct ServerMetrics {
    /// Lazily-created per-(tenant, class) slots: tenants in name order,
    /// each with its two classes at [`Priority::index`]. The mutex guards
    /// only slot creation/lookup; the hot recording path clones the `Arc`
    /// once per request and then touches atomics only.
    classes: Mutex<BTreeMap<String, [Option<Arc<ClassMetrics>>; 2]>>,
    /// Connections accepted over the server's lifetime.
    pub connections_opened: AtomicU64,
    /// Connections fully torn down.
    pub connections_closed: AtomicU64,
    /// Well-formed frames read (any kind).
    pub frames_read: AtomicU64,
    /// Frame- or payload-level protocol violations.
    pub protocol_errors: AtomicU64,
    /// Requests refused at enqueue by the per-connection in-flight cap.
    pub shed_connection_cap: AtomicU64,
    /// Requests refused at enqueue by a full scheduler class queue.
    pub shed_queue_full: AtomicU64,
}

impl ServerMetrics {
    /// The metrics slot for `(tenant, class)`, creating it on first use.
    pub fn class(&self, tenant: &str, class: Priority) -> Arc<ClassMetrics> {
        let mut map = self.classes.lock();
        if let Some(slots) = map.get_mut(tenant) {
            return Arc::clone(slots[class.index()].get_or_insert_with(Arc::default));
        }
        let m = Arc::new(ClassMetrics::default());
        let mut slots = [None, None];
        slots[class.index()] = Some(Arc::clone(&m));
        map.insert(tenant.to_owned(), slots);
        m
    }

    /// Snapshot of all slots in (tenant, class) order — the map's own
    /// order — for stable rendering.
    fn slots(&self) -> Vec<(String, Priority, Arc<ClassMetrics>)> {
        let map = self.classes.lock();
        let mut out = Vec::with_capacity(2 * map.len());
        for (tenant, slots) in map.iter() {
            for class in [Priority::Interactive, Priority::Bulk] {
                if let Some(m) = &slots[class.index()] {
                    out.push((tenant.clone(), class, Arc::clone(m)));
                }
            }
        }
        out
    }

    /// Renders the full metrics page in Prometheus text exposition
    /// style: server counters, queue depths, per-(tenant, class)
    /// latency quantiles, and the engine-side lifecycle state
    /// read live from `service`. `queue_depths` is
    /// `[(depth, cap); 2]` indexed by `Priority::index`.
    pub fn render(&self, service: &Service, queue_depths: [(usize, usize); 2]) -> String {
        let mut out = String::with_capacity(4096);
        let g = |out: &mut String, name: &str, help: &str, kind: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        };

        g(
            &mut out,
            "lgc_connections_total",
            "Connections accepted / torn down.",
            "counter",
        );
        let _ = writeln!(
            &mut out,
            "lgc_connections_total{{event=\"opened\"}} {}",
            self.connections_opened.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            &mut out,
            "lgc_connections_total{{event=\"closed\"}} {}",
            self.connections_closed.load(Ordering::Relaxed)
        );

        g(
            &mut out,
            "lgc_frames_read_total",
            "Well-formed frames read.",
            "counter",
        );
        let _ = writeln!(
            &mut out,
            "lgc_frames_read_total {}",
            self.frames_read.load(Ordering::Relaxed)
        );
        g(
            &mut out,
            "lgc_protocol_errors_total",
            "Frame/payload protocol violations.",
            "counter",
        );
        let _ = writeln!(
            &mut out,
            "lgc_protocol_errors_total {}",
            self.protocol_errors.load(Ordering::Relaxed)
        );

        g(
            &mut out,
            "lgc_shed_total",
            "Requests shed at enqueue, by reason.",
            "counter",
        );
        let _ = writeln!(
            &mut out,
            "lgc_shed_total{{reason=\"connection_cap\"}} {}",
            self.shed_connection_cap.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            &mut out,
            "lgc_shed_total{{reason=\"queue_full\"}} {}",
            self.shed_queue_full.load(Ordering::Relaxed)
        );

        g(
            &mut out,
            "lgc_queue_depth",
            "Scheduler queue depth by class.",
            "gauge",
        );
        g(
            &mut out,
            "lgc_queue_cap",
            "Scheduler queue bound by class.",
            "gauge",
        );
        for class in [Priority::Interactive, Priority::Bulk] {
            let (depth, cap) = queue_depths[class.index()];
            let _ = writeln!(
                &mut out,
                "lgc_queue_depth{{class=\"{}\"}} {depth}",
                class.label()
            );
            let _ = writeln!(
                &mut out,
                "lgc_queue_cap{{class=\"{}\"}} {cap}",
                class.label()
            );
        }

        g(
            &mut out,
            "lgc_queries_total",
            "Queries answered, by tenant, class, and outcome.",
            "counter",
        );
        g(
            &mut out,
            "lgc_dispatched_total",
            "Queries taken off the scheduler and run, by tenant, class, and where: an executor's own pop, or a running bulk query's iteration boundary.",
            "counter",
        );
        g(
            &mut out,
            "lgc_query_latency_seconds",
            "Server-side latency quantiles of completed queries (log2-bucket upper bounds).",
            "summary",
        );
        for (tenant, class, m) in self.slots() {
            let labels = format!("tenant=\"{tenant}\",class=\"{}\"", class.label());
            let _ = writeln!(
                &mut out,
                "lgc_queries_total{{{labels},outcome=\"completed\"}} {}",
                m.completed.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                &mut out,
                "lgc_queries_total{{{labels},outcome=\"error\"}} {}",
                m.errored.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                &mut out,
                "lgc_queries_total{{{labels},outcome=\"shed\"}} {}",
                m.shed.load(Ordering::Relaxed)
            );
            for (at, v) in [("executor", &m.dispatched), ("boundary", &m.boundary_runs)] {
                let _ = writeln!(
                    &mut out,
                    "lgc_dispatched_total{{{labels},at=\"{at}\"}} {}",
                    v.load(Ordering::Relaxed)
                );
            }
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                if let Some(d) = m.latency.quantile(q) {
                    let _ = writeln!(
                        &mut out,
                        "lgc_query_latency_seconds{{{labels},quantile=\"{label}\"}} {}",
                        d.as_secs_f64()
                    );
                }
            }
            let _ = writeln!(
                &mut out,
                "lgc_query_latency_seconds_count{{{labels}}} {}",
                m.latency.count()
            );
        }

        // How the shared pool's width was used: a loop forks only when
        // the callers inside a query leave it a thread. These count loops
        // *offered* to the shared pool, which an iteration below the fork
        // threshold never does (`lgc_iterations_solo_total`).
        g(
            &mut out,
            "lgc_pool_loops_total",
            "Parallel loops offered to the shared pool, forked to its workers or run inline by their caller.",
            "counter",
        );
        g(
            &mut out,
            "lgc_pool_callers",
            "Threads inside a query on the shared pool right now.",
            "gauge",
        );
        let pool = service.pool().stats();
        for (labels, v) in [
            ("mode=\"forked\"", pool.loops_forked),
            (
                "mode=\"inline\",reason=\"no_spare\"",
                pool.loops_inline_no_spare,
            ),
            (
                "mode=\"inline\",reason=\"slot_busy\"",
                pool.loops_inline_slot_busy,
            ),
        ] {
            let _ = writeln!(&mut out, "lgc_pool_loops_total{{{labels}}} {v}");
        }
        let _ = writeln!(&mut out, "lgc_pool_callers {}", pool.callers);

        // Engine-side state, read live per registered graph.
        g(
            &mut out,
            "lgc_lifecycle_total",
            "Engine lifecycle counters by tenant and event.",
            "counter",
        );
        g(
            &mut out,
            "lgc_iterations_total",
            "Frontier iterations run by the engine's edge maps, by tenant and direction taken.",
            "counter",
        );
        g(
            &mut out,
            "lgc_iterations_solo_total",
            "Of lgc_iterations_total, those below the fork threshold: run as one-thread code, no loop offered to the pool.",
            "counter",
        );
        g(
            &mut out,
            "lgc_iterations_dense_out_total",
            "Of lgc_iterations_total{dir=\"pull\"}, those whose next frontier left the gather as a bitset: no id list built between two pulls.",
            "counter",
        );
        g(
            &mut out,
            "lgc_engine_in_flight",
            "Queries executing in the engine right now.",
            "gauge",
        );
        g(
            &mut out,
            "lgc_graph_memory_bytes",
            "Resident bytes of the graph structure.",
            "gauge",
        );
        for name in service.graph_names() {
            if let Some(l) = service.lifecycle(&name) {
                for (event, v) in [
                    ("admitted", l.admitted),
                    ("completed", l.completed),
                    ("shed_workspace", l.shed_workspace),
                    ("invalid", l.invalid),
                    ("cancelled", l.cancelled),
                    ("deadline_tripped", l.deadline_tripped),
                    ("work_tripped", l.work_tripped),
                    ("refined", l.refined),
                    ("refine_improved", l.refine_improved),
                ] {
                    let _ = writeln!(
                        &mut out,
                        "lgc_lifecycle_total{{tenant=\"{name}\",event=\"{event}\"}} {v}"
                    );
                }
                for (dir, v) in [("push", l.iterations_push), ("pull", l.iterations_pull)] {
                    let _ = writeln!(
                        &mut out,
                        "lgc_iterations_total{{tenant=\"{name}\",dir=\"{dir}\"}} {v}"
                    );
                }
                let _ = writeln!(
                    &mut out,
                    "lgc_iterations_solo_total{{tenant=\"{name}\"}} {}",
                    l.iterations_solo
                );
                let _ = writeln!(
                    &mut out,
                    "lgc_iterations_dense_out_total{{tenant=\"{name}\"}} {}",
                    l.iterations_dense_out
                );
                let _ = writeln!(
                    &mut out,
                    "lgc_engine_in_flight{{tenant=\"{name}\"}} {}",
                    l.in_flight
                );
            }
            if let Some(store) = service.store(&name) {
                let _ = writeln!(
                    &mut out,
                    "lgc_graph_memory_bytes{{tenant=\"{name}\"}} {}",
                    store.memory_bytes()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        // 90 fast observations (~100 µs) + 10 slow (~10 ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(10_000));
        }
        assert_eq!(h.count(), 100);
        // 100 µs lands in bucket [64, 128) → upper bound 128 µs.
        assert_eq!(h.quantile(0.5), Some(Duration::from_micros(128)));
        // 10 ms lands in bucket [8192, 16384) → upper bound 16384 µs.
        assert_eq!(h.quantile(0.99), Some(Duration::from_micros(16_384)));
        // The tail estimate never under-reports the true value.
        assert!(h.quantile(0.99).unwrap() >= Duration::from_micros(10_000));
        let mean = h.mean().unwrap();
        assert!(mean >= Duration::from_micros(100) && mean <= Duration::from_micros(10_000));
    }

    #[test]
    fn histogram_edge_values() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(3600)); // clamps to the top bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0).is_some());
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn class_slots_are_stable_and_shared() {
        let m = ServerMetrics::default();
        let a = m.class("g", Priority::Interactive);
        a.completed.fetch_add(3, Ordering::Relaxed);
        let b = m.class("g", Priority::Interactive);
        assert_eq!(b.completed.load(Ordering::Relaxed), 3);
        let c = m.class("g", Priority::Bulk);
        assert_eq!(c.completed.load(Ordering::Relaxed), 0);
    }

    /// The page lists tenants by name and each tenant's classes
    /// interactive-first, whatever order their slots were created in.
    #[test]
    fn render_is_independent_of_slot_creation_order() {
        let svc = Service::builder().threads(1).build();
        let slots = [
            ("beta", Priority::Bulk),
            ("alpha", Priority::Interactive),
            ("beta", Priority::Interactive),
            ("gamma", Priority::Bulk),
            ("alpha", Priority::Bulk),
        ];
        let page = |order: &[usize]| {
            let m = ServerMetrics::default();
            for &i in order {
                let (tenant, class) = slots[i];
                let c = m.class(tenant, class);
                c.completed.fetch_add(i as u64 + 1, Ordering::Relaxed);
                c.latency.record(Duration::from_micros(100 << i));
            }
            m.render(&svc, [(0, 64), (0, 256)])
        };
        let want = page(&[0, 1, 2, 3, 4]);
        for order in [[4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [3, 4, 1, 0, 2]] {
            assert_eq!(page(&order), want, "creation order {order:?}");
        }
        let rows: Vec<&str> = want
            .lines()
            .filter(|l| l.contains("outcome=\"completed\""))
            .collect();
        assert_eq!(
            rows,
            [
                "lgc_queries_total{tenant=\"alpha\",class=\"interactive\",outcome=\"completed\"} 2",
                "lgc_queries_total{tenant=\"alpha\",class=\"bulk\",outcome=\"completed\"} 5",
                "lgc_queries_total{tenant=\"beta\",class=\"interactive\",outcome=\"completed\"} 3",
                "lgc_queries_total{tenant=\"beta\",class=\"bulk\",outcome=\"completed\"} 1",
                "lgc_queries_total{tenant=\"gamma\",class=\"bulk\",outcome=\"completed\"} 4",
            ]
        );
    }

    #[test]
    fn render_emits_prometheus_text() {
        use lgc_graph::Graph;
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut svc = Service::builder().threads(1).build();
        svc.add_graph("ring", g);
        let m = ServerMetrics::default();
        m.class("ring", Priority::Interactive)
            .latency
            .record(Duration::from_micros(200));
        m.class("ring", Priority::Interactive)
            .completed
            .fetch_add(1, Ordering::Relaxed);
        m.class("ring", Priority::Interactive)
            .boundary_runs
            .fetch_add(1, Ordering::Relaxed);
        // One flow refinement (the ring edge pair is already optimal) so
        // the refinement counters render non-trivially.
        let ring = svc.engine("ring").unwrap();
        ring.as_plain().unwrap().improve_set(&[0, 1]);
        let page = m.render(&svc, [(1, 64), (5, 256)]);
        for needle in [
            "# TYPE lgc_queries_total counter",
            "lgc_queue_depth{class=\"interactive\"} 1",
            "lgc_queue_cap{class=\"bulk\"} 256",
            "lgc_queries_total{tenant=\"ring\",class=\"interactive\",outcome=\"completed\"} 1",
            "lgc_query_latency_seconds{tenant=\"ring\",class=\"interactive\",quantile=\"0.99\"}",
            "# TYPE lgc_dispatched_total counter",
            "lgc_dispatched_total{tenant=\"ring\",class=\"interactive\",at=\"executor\"} 0",
            "lgc_dispatched_total{tenant=\"ring\",class=\"interactive\",at=\"boundary\"} 1",
            "lgc_lifecycle_total{tenant=\"ring\",event=\"admitted\"} 0",
            "lgc_lifecycle_total{tenant=\"ring\",event=\"invalid\"} 0",
            "lgc_lifecycle_total{tenant=\"ring\",event=\"refined\"} 1",
            "lgc_lifecycle_total{tenant=\"ring\",event=\"refine_improved\"} 0",
            "lgc_iterations_total{tenant=\"ring\",dir=\"push\"} 0",
            "lgc_iterations_total{tenant=\"ring\",dir=\"pull\"} 0",
            "lgc_iterations_solo_total{tenant=\"ring\"} 0",
            "lgc_iterations_dense_out_total{tenant=\"ring\"} 0",
            "lgc_graph_memory_bytes{tenant=\"ring\"}",
            "lgc_pool_loops_total{mode=\"forked\"} 0",
            "lgc_pool_loops_total{mode=\"inline\",reason=\"no_spare\"} 0",
            "lgc_pool_loops_total{mode=\"inline\",reason=\"slot_busy\"} 0",
            "lgc_pool_callers 0",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
    }
}
