//! The `serve` workload: an in-process `lgc-server` on loopback, driven
//! by an open-loop interactive client and a closed-loop bulk client.
//!
//! The load generator is one process with two threads and two
//! connections. Connection A sends interactive queries on a fixed
//! schedule whatever the server does (independent users do not slow down
//! when the server does) and times each from the instant it was *due*;
//! connection B keeps a fixed number of bulk queries in flight.

use crate::oracle::{Expect, Oracle};
use crate::provenance::peak_rss_mib;
use crate::report::{Metric, Outcome};
use crate::setup::check_lock;
use crate::stats::{median, quiet_quartile, sorted, tail, Tail};
use crate::workloads::{
    Fingerprint, Spec, SERVE_BULK_IN_FLIGHT, SERVE_BULK_LIST, SERVE_RATE_HZ, SERVE_SETUP_REPS,
    SERVE_SLICE_S, SERVE_VERIFY_EVERY,
};
use lgc_core::{find_cluster, ClusterResult, DiffusionStats, GraphStore, Query, Service};
use lgc_graph::Graph;
use lgc_parallel::Pool;
use lgc_server::client::{Client, Response};
use lgc_server::frame::{read_frame, write_frame, FrameKind, HEADER_LEN};
use lgc_server::wire::{decode_result, encode_query_request};
use lgc_server::{Priority, QueryRequest, RunningServer, Server, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one tenant's name.
pub const TENANT: &str = "g";

/// How long after its last send the open-loop client keeps listening.
const GRACE: Duration = Duration::from_secs(2);

/// A service with one tenant over a `threads`-wide shared pool, and a
/// server with the default configuration bound to an ephemeral port.
pub fn start_server(
    store: GraphStore,
    threads: usize,
) -> Result<(Arc<Service>, RunningServer), String> {
    let service = Arc::new(
        Service::builder()
            .pool(Pool::shared(threads))
            .add_graph(TENANT, store)
            .build(),
    );
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("cannot bind the server: {e}"))?;
    Ok((service, server))
}

/// Intended send instants of a fixed-rate schedule, as ns offsets from
/// the window's start: request `i` is due at `i / rate`.
pub fn schedule_ns(rate_hz: f64, seconds: f64) -> Vec<u64> {
    let n = (rate_hz * seconds).floor() as usize;
    (0..n)
        .map(|i| (i as f64 / rate_hz * 1e9).round() as u64)
        .collect()
}

/// One open-loop request, as the generator saw it.
#[derive(Clone, Debug, Default)]
pub struct Sent {
    /// When it was due.
    pub intended_ns: u64,
    /// When it actually left (≥ intended; the difference is generator lag).
    pub sent_ns: u64,
    /// When its response was read, if one came.
    pub recv_ns: Option<u64>,
    /// Whether the response was a `Result` frame.
    pub ok: bool,
    /// The response payload.
    pub payload: Vec<u8>,
}

/// What an open-loop window amounts to.
#[derive(Debug, PartialEq)]
pub struct OpenLoopSummary {
    /// `recv − intended` of every request answered with a result, in ms.
    pub latency_ms: Vec<f64>,
    /// `sent − intended` of every request, in ms.
    pub lag_ms: Vec<f64>,
    /// Requests answered with a result within the limit.
    pub within_limit: usize,
    /// Requests answered with an error frame, or not at all.
    pub failed: usize,
    /// Requests still unanswered when the last one was sent (a growing
    /// backlog shows here first).
    pub backlog_at_end: usize,
}

/// Latency is counted from the instant a request was due, so a stall
/// charges every request it delayed; an error or a missing answer misses
/// any limit.
pub fn account(records: &[Sent], limit_ms: f64) -> OpenLoopSummary {
    let last_sent = records.iter().map(|r| r.sent_ns).max().unwrap_or(0);
    let mut s = OpenLoopSummary {
        latency_ms: Vec::with_capacity(records.len()),
        lag_ms: Vec::with_capacity(records.len()),
        within_limit: 0,
        failed: 0,
        backlog_at_end: 0,
    };
    for r in records {
        s.lag_ms
            .push(r.sent_ns.saturating_sub(r.intended_ns) as f64 / 1e6);
        match r.recv_ns {
            Some(recv) if r.ok => {
                let ms = recv.saturating_sub(r.intended_ns) as f64 / 1e6;
                s.latency_ms.push(ms);
                s.within_limit += usize::from(ms <= limit_ms);
            }
            _ => s.failed += 1,
        }
        if r.recv_ns.is_none_or(|recv| recv > last_sent) {
            s.backlog_at_end += 1;
        }
    }
    s
}

fn encode_request(priority: Priority, query: &Query) -> Vec<u8> {
    encode_query_request(&QueryRequest {
        tenant: TENANT.to_string(),
        priority,
        query: query.clone(),
    })
}

/// Connection A: one thread that both sends on schedule and reads
/// responses, so it never waits for an answer before sending the next
/// request. It does respect the protocol's per-connection limit: with
/// `max_in_flight` requests unanswered (just under the server's
/// `conn_inflight_cap`, past which a request is refused with `QueueFull`)
/// a due request is held until a response arrives — and still timed from
/// the instant it was due, so the hold is charged to its latency and shows
/// in the generator lag.
/// `t0` is the window's start.
pub fn open_loop(
    addr: SocketAddr,
    t0: Instant,
    offsets_ns: &[u64],
    queries: &[Query],
    max_in_flight: usize,
) -> Result<Vec<Sent>, String> {
    let io = |e: std::io::Error| format!("open-loop connection: {e}");
    // Whole frames, encoded before the clock starts; request `i` has id `i`.
    let frames: Vec<Vec<u8>> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut frame = Vec::new();
            write_frame(
                &mut frame,
                FrameKind::Query,
                i as u32,
                &encode_request(Priority::Interactive, q),
            )
            .expect("writing to a Vec cannot fail");
            frame
        })
        .collect();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let n = offsets_ns.len();
    let mut records: Vec<Sent> = offsets_ns
        .iter()
        .map(|&intended_ns| Sent {
            intended_ns,
            ..Default::default()
        })
        .collect();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let (mut next, mut answered) = (0usize, 0usize);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let give_up_ns = offsets_ns.last().copied().unwrap_or(0) + GRACE.as_nanos() as u64;
    loop {
        let mut now = now_ns();
        while next < n && offsets_ns[next] <= now && next - answered < max_in_flight {
            stream.write_all(&frames[next]).map_err(io)?;
            now = now_ns();
            records[next].sent_ns = now;
            next += 1;
        }
        if answered == n || now >= give_up_ns {
            break;
        }
        // Sleep in `read` until the next send is due; with the window full,
        // or everything sent, only a response can unblock progress.
        let until = if next < n && next - answered < max_in_flight {
            offsets_ns[next]
        } else {
            give_up_ns
        };
        let wait = Duration::from_nanos(until.saturating_sub(now).max(20_000));
        stream.set_read_timeout(Some(wait)).map_err(io)?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(io(e)),
        }
        let recv = now_ns();
        let mut at = 0;
        while buf.len() - at >= HEADER_LEN {
            let len =
                u32::from_le_bytes(buf[at + 12..at + 16].try_into().expect("4 bytes")) as usize;
            if buf.len() - at < HEADER_LEN + len {
                break;
            }
            let frame = read_frame(&mut &buf[at..at + HEADER_LEN + len])
                .map_err(|e| format!("open-loop connection: {e}"))?;
            at += HEADER_LEN + len;
            if let Some(r) = records.get_mut(frame.id as usize) {
                r.recv_ns = Some(recv);
                r.ok = frame.kind == FrameKind::Result;
                r.payload = frame.payload;
                answered += 1;
            }
        }
        buf.drain(..at);
    }
    Ok(records)
}

/// One bulk completion.
pub struct BulkDone {
    pub index: usize,
    pub at_ns: u64,
    /// Whether the response was a result (not an error).
    pub ok: bool,
    /// The decoded result, kept for every [`SERVE_VERIFY_EVERY`]-th
    /// request only, so the generator's memory stays flat.
    pub sample: Option<ClusterResult>,
}

/// Connection B: `in_flight` bulk queries outstanding until `end_ns`,
/// then drained. Request `i` runs `list[i % list.len()]`.
pub fn bulk_loop(
    addr: SocketAddr,
    t0: Instant,
    end_ns: u64,
    list: &[Query],
    in_flight: usize,
) -> Result<Vec<BulkDone>, String> {
    let err = |e: lgc_server::client::ClientError| format!("bulk connection: {e}");
    let mut client = Client::connect(addr).map_err(|e| format!("bulk connection: {e}"))?;
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let mut submitted = 0usize;
    let mut done = Vec::new();
    // Ids on one connection are consecutive, so a response's id minus the
    // first request's id is the request's index.
    let submit = |client: &mut Client, submitted: &mut usize| -> Result<u32, String> {
        let id = client
            .submit(TENANT, Priority::Bulk, &list[*submitted % list.len()])
            .map_err(err)?;
        *submitted += 1;
        Ok(id)
    };
    let first_id = submit(&mut client, &mut submitted)?;
    for _ in 1..in_flight {
        submit(&mut client, &mut submitted)?;
    }
    while done.len() < submitted {
        let (id, resp) = client.recv_response().map_err(err)?;
        let index = id.wrapping_sub(first_id) as usize;
        let at_ns = now_ns();
        let (ok, sample) = match resp {
            Response::Result(r) => (true, index.is_multiple_of(SERVE_VERIFY_EVERY).then_some(r)),
            _ => (false, None),
        };
        done.push(BulkDone {
            index,
            at_ns,
            ok,
            sample,
        });
        if at_ns < end_ns {
            submit(&mut client, &mut submitted)?;
        }
    }
    Ok(done)
}

/// Wall time of each full cycle through the bulk list, from completion
/// instants in arrival order.
pub fn bulk_pass_s(done: &[BulkDone], end_ns: u64, list_len: usize) -> Vec<f64> {
    let mut at: Vec<u64> = done
        .iter()
        .filter(|d| d.ok && d.at_ns <= end_ns)
        .map(|d| d.at_ns)
        .collect();
    at.sort_unstable();
    let mut passes = Vec::new();
    let mut prev = 0u64;
    for k in 1..=at.len() / list_len {
        let t = at[k * list_len - 1];
        passes.push((t - prev) as f64 / 1e9);
        prev = t;
    }
    passes
}

/// One slice of the window, timed on its own.
#[derive(Debug, PartialEq)]
pub struct Slice {
    /// Median and tail latency of the interactive requests due in it that
    /// were answered with a result.
    pub p50_ms: f64,
    pub tail: Tail,
    /// Bulk results that arrived in it, per second.
    pub bulk_qps: f64,
}

/// The window cut into `round(seconds / SERVE_SLICE_S)` (at least one)
/// equal slices, so that a disturbed stretch spoils the slices it covers
/// and nothing else. An interactive request belongs to the slice it was
/// due in, a bulk completion to the one it arrived in; a slice with no
/// answered interactive request is left out.
pub fn slices(sent: &[Sent], done: &[BulkDone], seconds: f64) -> Vec<Slice> {
    let n = ((seconds / SERVE_SLICE_S).round() as usize).max(1);
    let slice_ns = seconds * 1e9 / n as f64;
    let slot = |ns: u64| ((ns as f64 / slice_ns) as usize).min(n - 1);
    let mut latency_ms = vec![Vec::new(); n];
    for r in sent {
        if let (Some(recv), true) = (r.recv_ns, r.ok) {
            latency_ms[slot(r.intended_ns)].push(recv.saturating_sub(r.intended_ns) as f64 / 1e6);
        }
    }
    let mut completions = vec![0usize; n];
    for d in done {
        if d.ok && (d.at_ns as f64) <= seconds * 1e9 {
            completions[slot(d.at_ns)] += 1;
        }
    }
    latency_ms
        .iter()
        .zip(completions)
        .filter(|(lat, _)| !lat.is_empty())
        .map(|(lat, completed)| {
            let lat = sorted(lat);
            Slice {
                p50_ms: median(&lat),
                tail: tail(&lat, 99.0),
                bulk_qps: completed as f64 / (slice_ns / 1e9),
            }
        })
        .collect()
}

/// Both clients for one window of `seconds` at `rate_hz`; `bulk` may be
/// empty (the interactive class alone).
pub fn window(
    addr: SocketAddr,
    interactive: &[Query],
    rate_hz: f64,
    seconds: f64,
    bulk: &[Query],
) -> Result<(Vec<Sent>, Vec<BulkDone>), String> {
    let offsets = schedule_ns(rate_hz, seconds);
    assert!(
        interactive.len() >= offsets.len(),
        "a query per scheduled send"
    );
    let end_ns = (seconds * 1e9) as u64;
    // The server takes a request off its connection's in-flight count only
    // after the response has gone to the writer, so up to `executors`
    // answered requests still count there; a window that much below the
    // cap can never be refused.
    let config = ServerConfig::default();
    let in_flight_cap = config.conn_inflight_cap - config.executors;
    // Both threads start from one instant slightly in the future, so
    // connecting is not part of the window.
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            open_loop(
                addr,
                t0,
                &offsets,
                &interactive[..offsets.len()],
                in_flight_cap,
            )
        });
        let b = s.spawn(|| {
            if bulk.is_empty() {
                return Ok(Vec::new());
            }
            std::thread::sleep(t0.saturating_duration_since(Instant::now()));
            bulk_loop(addr, t0, end_ns, bulk, SERVE_BULK_IN_FLIGHT)
        });
        let sent = a.join().map_err(|_| "the open-loop client panicked")??;
        let done = b.join().map_err(|_| "the bulk client panicked")??;
        Ok((sent, done))
    })
}

/// First sample of metric `name` on a Prometheus-style page whose label
/// set contains every fragment in `labels` (e.g. `class="bulk"`).
pub fn scrape(page: &str, name: &str, labels: &[&str]) -> Option<f64> {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .find(|l| labels.iter().all(|frag| l.contains(frag)))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Bit-for-bit agreement of everything but `residual_mass`: the residual
/// is summed chunk by chunk on the pool, so at `T = 2` its last bit can
/// differ from the one-thread sum (seen at HEAD on about one interactive
/// query in two thousand) while every other field is identical.
fn same_bits(a: &ClusterResult, b: &ClusterResult) -> bool {
    let (sa, sb) = (&a.diffusion.stats, &b.diffusion.stats);
    let counts = |s: &DiffusionStats| (s.iterations, s.pushes, s.pushed_volume, s.edges_traversed);
    a.cluster == b.cluster
        && a.conductance.to_bits() == b.conductance.to_bits()
        && counts(sa) == counts(sb)
        && (sa.residual_mass - sb.residual_mass).abs() <= 1e-12
        && a.diffusion.p.len() == b.diffusion.p.len()
        && a.diffusion
            .p
            .iter()
            .zip(&b.diffusion.p)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        && a.sweep.order == b.sweep.order
}

/// Checks the kept responses of a window against the graph: every
/// interactive response through the oracle, a deterministic one in
/// [`SERVE_VERIFY_EVERY`] of both classes against `find_cluster` on a
/// 1-thread pool. Interactive queries never leave the sequential path, so
/// they must match bit for bit ([`same_bits`]); a bulk query's frontier is
/// pushed by `T` threads with atomic adds whose order varies, so it must
/// match in its work counters and support, and in mass to 1e-9.
pub fn verify(
    g: &Graph,
    interactive: &[Query],
    sent: &[Sent],
    bulk: &[Query],
    done: &[BulkDone],
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut oracle = Oracle::new(g.num_vertices());
    let one = Pool::new(1);
    for (i, (q, s)) in interactive.iter().zip(sent).enumerate() {
        if !(s.ok && s.recv_ns.is_some()) {
            failures.push(format!(
                "interactive {i}: {}",
                if s.recv_ns.is_some() {
                    "error response"
                } else {
                    "no response"
                }
            ));
            continue;
        }
        let got = match decode_result(&s.payload) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("interactive {i}: undecodable response: {e}"));
                continue;
            }
        };
        if let Err(why) = oracle.check(g, &q.algo, &got, &Expect::default()) {
            failures.push(format!("interactive {i}: {why}"));
        } else if i % SERVE_VERIFY_EVERY == 0
            && !same_bits(&got, &find_cluster(&one, g, &q.seed, &q.algo))
        {
            failures.push(format!(
                "interactive {i}: differs from find_cluster on one thread"
            ));
        }
    }
    for d in done {
        if !d.ok {
            failures.push(format!("bulk {}: error response", d.index));
        }
        let Some(got) = &d.sample else {
            continue;
        };
        let q = &bulk[d.index % bulk.len()];
        let want = find_cluster(&one, g, &q.seed, &q.algo);
        let expect = Expect {
            phi_ref: Some(want.conductance),
        };
        let close = got.diffusion.stats.pushes == want.diffusion.stats.pushes
            && got.diffusion.stats.edges_traversed == want.diffusion.stats.edges_traversed
            && got.diffusion.p.len() == want.diffusion.p.len()
            && got
                .diffusion
                .p
                .iter()
                .zip(&want.diffusion.p)
                .all(|(x, y)| x.0 == y.0 && (x.1 - y.1).abs() <= 1e-9);
        if let Err(why) = oracle.check(g, &q.algo, got, &expect) {
            failures.push(format!("bulk {}: {why}", d.index));
        } else if !close {
            failures.push(format!(
                "bulk {}: differs from find_cluster on one thread",
                d.index
            ));
        }
    }
    failures
}

/// The interactive queries of a window and the bulk list.
pub fn traffic(
    spec: &Spec,
    g: &Graph,
    seed: u64,
    n_interactive: usize,
) -> (Vec<Query>, Vec<Query>) {
    (
        (0..n_interactive)
            .map(|i| spec.serve_query(g, seed, 0, i))
            .collect(),
        (0..SERVE_BULK_LIST)
            .map(|i| spec.serve_query(g, seed, 1, i))
            .collect(),
    )
}

/// A few queries of each class over the wire, so workspaces and caches
/// are warm before anything is timed.
pub fn warm_up(addr: SocketAddr, interactive: &[Query], bulk: &[Query]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("warm-up connection: {e}"))?;
    for (class, qs) in [
        (
            Priority::Interactive,
            &interactive[..interactive.len().min(32)],
        ),
        (Priority::Bulk, &bulk[..bulk.len().min(8)]),
    ] {
        for q in qs {
            match client.query(TENANT, class, q) {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(format!("warm-up query refused: {e:?}")),
                Err(e) => return Err(format!("warm-up connection: {e}")),
            }
        }
    }
    Ok(())
}

/// Runs `serve` untraced.
pub fn run(spec: &Spec, seed: u64, seconds: f64, threads: usize) -> Result<Outcome, String> {
    let n_interactive = schedule_ns(SERVE_RATE_HZ, seconds).len();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SERVE_SETUP_REPS {
        // Set-up: graph generation + CSR build + service and server
        // construction + a warm-up over the wire. Each repetition starts
        // from nothing; the last one serves the window.
        let t0 = Instant::now();
        let graph = Arc::new(spec.graph(seed));
        let (interactive, bulk) = traffic(spec, &graph, seed, n_interactive);
        let (_service, server) = start_server(Arc::clone(&graph).into(), threads)?;
        warm_up(server.local_addr(), &interactive, &bulk)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        // Dropping the previous repetition's server shuts it down.
        kept = Some((graph, interactive, bulk, server));
    }
    let (graph, interactive, bulk, server) = kept.expect("at least one set-up");
    let fingerprint = Fingerprint::of(spec, &graph, seed);
    check_lock(spec, &fingerprint, seed)?;

    let (sent, done) = window(
        server.local_addr(),
        &interactive,
        SERVE_RATE_HZ,
        seconds,
        &bulk,
    )?;
    let peak = peak_rss_mib();
    server.shutdown();

    let failures = verify(&graph, &interactive, &sent, &bulk, &done);
    let summary = account(&sent, spec.limit_ms);
    let end_ns = (seconds * 1e9) as u64;
    let bulk_in_window = done.iter().filter(|d| d.ok && d.at_ns <= end_ns).count();
    let passes = bulk_pass_s(&done, end_ns, bulk.len());
    if passes.is_empty() || summary.latency_ms.is_empty() {
        return Err("the window completed no bulk pass or no interactive query".into());
    }
    let sliced = slices(&sent, &done, seconds);
    let of_slices = |f: fn(&Slice) -> f64| sliced.iter().map(f).collect::<Vec<f64>>();
    let (p50, p99, qps) = (
        of_slices(|s| s.p50_ms),
        of_slices(|s| s.tail.value),
        of_slices(|s| s.bulk_qps),
    );
    let attempted = (sent.len() + done.len()) as u64;
    let failed = (failures.len() as u64).min(attempted);
    // A response that came in time but failed verification misses too.
    let wrong_in_time = failures.len().saturating_sub(summary.failed);
    let within = summary.within_limit.saturating_sub(wrong_in_time) as f64 / sent.len() as f64;
    let over_slices = |quartile: &str, v: &[f64]| {
        format!(
            "{quartile} quartile of {} slices of {:.1} s {v:.3?} (their median {:.6})",
            v.len(),
            seconds / v.len() as f64,
            median(v)
        )
    };
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s").note(format!(
            "median of {} set-ups: {:?}",
            setup_s.len(),
            setup_s
        )),
        Metric::new("pass_s", quiet_quartile(&passes, true), "s").note(format!(
            "first quartile of {} cycles through the {}-query bulk list (their median {:.6})",
            passes.len(),
            bulk.len(),
            median(&passes)
        )),
        Metric::new("latency_p50_ms", quiet_quartile(&p50, true), "ms").note(format!(
            "interactive class, from intended send time; {}; {} samples in all",
            over_slices("first", &p50),
            summary.latency_ms.len()
        )),
        Metric::new("latency_p99_ms", quiet_quartile(&p99, true), "ms").note(format!(
            "{}; p{:.1} of a slice's samples",
            over_slices("first", &p99),
            sliced[0].tail.pct
        )),
        Metric::new("within_limit_frac", within, "ratio").note(format!(
            "of {} sent; limit {} ms; generator lag p99 {:.3} ms",
            sent.len(),
            spec.limit_ms,
            tail(&sorted(&summary.lag_ms), 99.0).value
        )),
        Metric::new("bulk_qps", quiet_quartile(&qps, false), "1/s").note(format!(
            "{}; {bulk_in_window} bulk completions in the {seconds} s window",
            over_slices("third", &qps)
        )),
        Metric::new("peak_rss_mb", peak, "MiB").note("VmHWM of this process (server + generator)"),
    ];
    Ok(Outcome {
        workload: spec.id.name(),
        seed,
        traced: false,
        threads,
        fingerprint,
        metrics,
        attempted,
        failed,
        failures: failures.into_iter().take(5).collect(),
        generator: format!(
            "2 threads, 2 connections: open loop {SERVE_RATE_HZ} req/s interactive + closed loop {SERVE_BULK_IN_FLIGHT} in flight bulk"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_rate_from_zero() {
        let s = schedule_ns(200.0, 0.05);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 5_000_000);
        assert_eq!(s[9], 45_000_000);
        assert!(schedule_ns(200.0, 0.001).is_empty());
    }

    fn sent(intended_ms: u64, sent_ms: u64, recv_ms: Option<u64>, ok: bool) -> Sent {
        Sent {
            intended_ns: intended_ms * 1_000_000,
            sent_ns: sent_ms * 1_000_000,
            recv_ns: recv_ms.map(|r| r * 1_000_000),
            ok,
            payload: Vec::new(),
        }
    }

    #[test]
    fn latency_counts_from_the_intended_instant() {
        // A 40 ms generator stall delays the second and third sends: their
        // latency still counts from when they were due.
        let records = [
            sent(0, 0, Some(3), true),
            sent(5, 45, Some(48), true),
            sent(10, 45, Some(160), true),
            sent(15, 45, Some(50), false),
            sent(20, 45, None, false),
        ];
        let s = account(&records, 100.0);
        assert_eq!(s.latency_ms, vec![3.0, 43.0, 150.0]);
        assert_eq!(s.lag_ms, vec![0.0, 40.0, 35.0, 30.0, 25.0]);
        assert_eq!(s.within_limit, 2); // the 150 ms one is late
        assert_eq!(s.failed, 2); // the error and the missing one
        assert_eq!(s.backlog_at_end, 4); // answered after the last send, or never
    }

    #[test]
    fn a_window_is_timed_slice_by_slice() {
        // 10 s: two slices of 5 s. A request belongs where it was due.
        let records = [
            sent(1000, 1000, Some(1004), true),
            sent(4999, 4999, Some(5020), true), // due in the first, answered in the second
            sent(5000, 5000, Some(5002), true),
            sent(6000, 6000, Some(6100), false), // an error: no latency sample
            sent(7000, 7000, None, false),
        ];
        let done: Vec<BulkDone> = [100u64, 4000, 6000, 9000, 9999, 10_001]
            .iter()
            .enumerate()
            .map(|(index, &ms)| BulkDone {
                index,
                at_ns: ms * 1_000_000,
                ok: true,
                sample: None,
            })
            .collect();
        let s = slices(&records, &done, 10.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].p50_ms, 12.5); // 4 ms and 21 ms
        assert_eq!(s[1].p50_ms, 2.0);
        assert_eq!(s[0].bulk_qps, 2.0 / 5.0);
        assert_eq!(s[1].bulk_qps, 3.0 / 5.0); // the one at 10.001 s is past the window
                                              // A window shorter than a slice and a half is one slice.
        assert_eq!(slices(&records, &done, 7.0).len(), 1);
    }

    #[test]
    fn bulk_passes_are_cycles_of_completions() {
        let done: Vec<BulkDone> = [10u64, 20, 30, 40, 50, 60, 70]
            .iter()
            .enumerate()
            .map(|(index, &ms)| BulkDone {
                index,
                at_ns: ms * 1_000_000,
                ok: true,
                sample: None,
            })
            .collect();
        // Cycles of 3: [10,20,30] ends at 30 ms, [40,50,60] at 60 ms; the
        // completion at 70 ms is past the 65 ms window.
        let p = bulk_pass_s(&done, 65_000_000, 3);
        assert_eq!(p.len(), 2);
        assert!((p[0] - 0.030).abs() < 1e-12 && (p[1] - 0.030).abs() < 1e-12);
    }

    #[test]
    fn metrics_page_scraping() {
        let page = "# HELP lgc_query_latency_seconds x\n\
            lgc_frames_read_total 12\n\
            lgc_shed_total{reason=\"connection_cap\"} 0\n\
            lgc_shed_total{reason=\"queue_full\"} 3\n\
            lgc_query_latency_seconds{tenant=\"g\",class=\"interactive\",quantile=\"0.5\"} 0.000512\n\
            lgc_query_latency_seconds{tenant=\"g\",class=\"bulk\",quantile=\"0.5\"} 0.032768\n\
            lgc_query_latency_seconds_count{tenant=\"g\",class=\"bulk\"} 77\n";
        assert_eq!(scrape(page, "lgc_frames_read_total", &[]), Some(12.0));
        assert_eq!(
            scrape(page, "lgc_shed_total", &["reason=\"queue_full\""]),
            Some(3.0)
        );
        assert_eq!(
            scrape(
                page,
                "lgc_query_latency_seconds",
                &["class=\"bulk\"", "quantile=\"0.5\""]
            ),
            Some(0.032768)
        );
        // A name that is a prefix of another must not match the longer one.
        assert_eq!(
            scrape(
                page,
                "lgc_query_latency_seconds",
                &["class=\"bulk\"", "quantile=\"0.99\""]
            ),
            None
        );
        assert_eq!(scrape(page, "lgc_missing", &[]), None);
    }
}
