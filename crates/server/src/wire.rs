//! Payload encoding: the typed request/response bodies carried inside
//! [`Frame`](crate::frame::Frame)s.
//!
//! Everything is little-endian and hand-rolled (the container has no
//! serde): integers as fixed-width LE, `f64` as `to_bits` (so a result
//! decoded on the client is **bit-identical** to the `ClusterResult`
//! the engine produced — the property the loopback equivalence test
//! pins), strings as `u16` length + UTF-8, vectors as `u32` length +
//! elements. Every decoder is bounds-checked against the payload slice
//! and validates vector lengths *before* allocating, so a hostile
//! payload can produce a typed [`ProtocolError::Malformed`] but never a
//! panic or an unbounded reserve. Trailing bytes after a complete body
//! are rejected too — a frame means exactly one body.
//!
//! The budget carried on the wire is the serializable subset of
//! [`QueryBudget`]: deadline and the two deterministic work caps.
//! Cancellation tokens, boundary hooks and fault plans are process-local
//! and never travel (`tests/protocol_roundtrip.rs` checks all three), so a
//! remote client cannot arm a fault; the server attaches its *own*
//! per-connection token instead, so a client that disconnects cancels its
//! in-flight queries, and its own hook to bulk queries in priority mode.

use crate::frame::ProtocolError;
use lgc_core::{
    Algorithm, ClusterResult, Diffusion, DiffusionStats, EvolvingParams, HkprParams, NibbleParams,
    PrNibbleParams, PushRule, Query, QueryBudget, QueryError, RandHkprParams, Seed, SweepCut, Trip,
    Tripped,
};
use std::fmt;
use std::time::Duration;

/// The two scheduling classes of the server's priority scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Priority {
    /// Latency-sensitive point queries: always scheduled ahead of bulk.
    Interactive = 0,
    /// Throughput work (NCP scans, batch exploration): runs when no
    /// interactive query is queued, under the server's bulk work budget.
    Bulk = 1,
}

impl Priority {
    /// Decodes a class byte.
    pub fn from_u8(b: u8) -> Option<Priority> {
        match b {
            0 => Some(Priority::Interactive),
            1 => Some(Priority::Bulk),
            _ => None,
        }
    }

    /// Scheduler queue index.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Label used in metrics and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Bulk => "bulk",
        }
    }
}

/// A decoded `QUERY` request: which tenant graph, which scheduling
/// class, and the query itself (budget included).
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Registered graph name the query targets.
    pub tenant: String,
    /// Scheduling class.
    pub priority: Priority,
    /// The query (seed, algorithm, serializable budget fields).
    pub query: Query,
}

/// Summary of a tripped query's partial progress, carried by
/// [`WireError::Tripped`]: the work counters plus the best-so-far cut
/// (empty when the trip happened before any sweep).
#[derive(Clone, Debug, PartialEq)]
pub struct WirePartial {
    /// Work completed before the trip.
    pub stats: DiffusionStats,
    /// Members of the best-so-far cut (may be empty).
    pub cluster: Vec<u32>,
    /// Conductance of that cut (`+inf` when no cut was computed).
    pub conductance: f64,
}

/// The typed error surface of the protocol — the wire projection of
/// [`QueryError`] plus the server-side shed and routing errors. Error
/// codes (the first payload byte) are documented in `PROTOCOL.md`.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// A limit stopped the query mid-run: its wall-clock deadline passed,
    /// a deterministic work cap tripped, or it was cancelled (e.g. its
    /// connection went away). Error codes 1–3, one per [`Trip`].
    Tripped(Tripped<WirePartial>),
    /// A seed vertex id is out of range for the tenant's graph.
    InvalidSeed {
        /// The offending vertex id.
        vertex: u32,
        /// Vertices in the graph.
        num_vertices: u64,
    },
    /// The tenant's workspace byte budget refused the checkout.
    WorkspaceBudgetExceeded {
        /// Configured byte budget.
        budget_bytes: u64,
        /// Bytes charged by in-flight checkouts.
        in_flight_bytes: u64,
        /// Estimated charge of the denied checkout.
        requested_bytes: u64,
    },
    /// The tenant's in-flight quota shed the query.
    Overloaded {
        /// Queries executing on the tenant's graph.
        in_flight: u64,
        /// The configured cap.
        limit: u64,
        /// When to retry.
        retry_after: Option<Duration>,
    },
    /// Server-side backpressure: the connection's in-flight cap or the
    /// scheduler's bounded class queue is full.
    QueueFull {
        /// Requests queued/executing against the full bound.
        queued: u64,
        /// The bound that was hit.
        cap: u64,
        /// When to retry.
        retry_after: Option<Duration>,
    },
    /// No graph is registered under the requested tenant name.
    UnknownGraph {
        /// The name the client sent.
        tenant: String,
    },
    /// The server is shutting down and no longer accepts queries.
    ShuttingDown,
    /// The request was transported intact but its body is invalid
    /// (undecodable payload, empty seed, response kind sent as a
    /// request, …).
    Unsupported {
        /// Human-readable reason.
        message: String,
    },
    /// The frame decoded, but an algorithm parameter is non-finite or
    /// out of range (`Algorithm::check`); no work was done.
    InvalidParams {
        /// The offending field, e.g. `alpha`.
        param: String,
        /// What it must satisfy.
        requirement: String,
    },
}

impl WireError {
    /// The protocol error code of this variant (`PROTOCOL.md` table).
    pub fn code(&self) -> u8 {
        match self {
            WireError::Tripped(t) => match t.trip {
                Trip::Deadline => 1,
                Trip::WorkBudget => 2,
                Trip::Cancelled => 3,
            },
            WireError::InvalidSeed { .. } => 4,
            WireError::WorkspaceBudgetExceeded { .. } => 5,
            WireError::Overloaded { .. } => 6,
            WireError::QueueFull { .. } => 7,
            WireError::UnknownGraph { .. } => 8,
            WireError::ShuttingDown => 9,
            WireError::Unsupported { .. } => 10,
            WireError::InvalidParams { .. } => 11,
        }
    }

    /// `true` for transient load errors the same request can survive on
    /// retry (`Overloaded`, `QueueFull`, `WorkspaceBudgetExceeded`).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WireError::Overloaded { .. }
                | WireError::QueueFull { .. }
                | WireError::WorkspaceBudgetExceeded { .. }
        )
    }

    /// The retry hint, for the variants that carry one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            WireError::Overloaded { retry_after, .. }
            | WireError::QueueFull { retry_after, .. } => *retry_after,
            _ => None,
        }
    }

    /// The partial-progress summary of a mid-run trip.
    pub fn partial(&self) -> Option<&WirePartial> {
        match self {
            WireError::Tripped(t) => Some(&t.partial),
            _ => None,
        }
    }

    /// Projects an engine-side [`QueryError`] onto the wire (partial
    /// diffusion vectors are summarized to the best-so-far cut; the
    /// counters travel in full).
    pub fn from_query_error(e: &QueryError) -> WireError {
        match e {
            QueryError::Tripped(Tripped { trip, partial: p }) => WireError::Tripped(Tripped {
                trip: *trip,
                partial: WirePartial {
                    stats: p.stats,
                    cluster: p.cluster().map(<[u32]>::to_vec).unwrap_or_default(),
                    conductance: p.conductance().unwrap_or(f64::INFINITY),
                },
            }),
            QueryError::InvalidSeed(s) => WireError::InvalidSeed {
                vertex: s.vertex,
                num_vertices: s.num_vertices as u64,
            },
            QueryError::InvalidParams(p) => WireError::InvalidParams {
                param: p.param.into(),
                requirement: p.requirement.into(),
            },
            QueryError::WorkspaceBudgetExceeded(w) => WireError::WorkspaceBudgetExceeded {
                budget_bytes: w.budget_bytes as u64,
                in_flight_bytes: w.in_flight_bytes as u64,
                requested_bytes: w.requested_bytes as u64,
            },
            QueryError::Overloaded {
                in_flight,
                limit,
                retry_after,
            } => WireError::Overloaded {
                in_flight: *in_flight as u64,
                limit: *limit as u64,
                retry_after: *retry_after,
            },
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Tripped(t) => {
                write!(f, "{} after {} iterations", t.trip, t.partial.stats.iterations)
            }
            WireError::InvalidSeed {
                vertex,
                num_vertices,
            } => write!(
                f,
                "seed vertex {vertex} out of range for a graph with {num_vertices} vertices"
            ),
            WireError::WorkspaceBudgetExceeded {
                budget_bytes,
                in_flight_bytes,
                requested_bytes,
            } => write!(
                f,
                "workspace budget exhausted: {in_flight_bytes} B in flight + {requested_bytes} B requested > {budget_bytes} B"
            ),
            WireError::Overloaded {
                in_flight, limit, ..
            } => write!(f, "tenant overloaded: {in_flight} in flight (limit {limit})"),
            WireError::QueueFull { queued, cap, .. } => {
                write!(f, "server queue full: {queued} queued (cap {cap})")
            }
            WireError::UnknownGraph { tenant } => write!(f, "unknown graph {tenant:?}"),
            WireError::ShuttingDown => write!(f, "server shutting down"),
            WireError::Unsupported { message } => write!(f, "unsupported request: {message}"),
            WireError::InvalidParams { param, requirement } => {
                write!(f, "invalid parameter: {param} {requirement}")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------

/// Appends primitives to a payload buffer.
#[derive(Default)]
struct Wr {
    buf: Vec<u8>,
}

impl Wr {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str16(&mut self, s: &str) {
        // Wire strings carry a u16 length prefix; longer content (only
        // reachable through pathological error messages) is truncated at
        // a char boundary rather than panicking the writer thread.
        let mut end = s.len().min(usize::from(u16::MAX));
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        self.u16(end as u16);
        self.buf.extend_from_slice(&s.as_bytes()[..end]);
    }
    fn vec_u32(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }
    fn vec_f64(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f64(x);
        }
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
}

/// Cursor over a payload slice; every read is bounds-checked.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, ProtocolError>;

fn malformed<T>(context: &'static str) -> DecodeResult<T> {
    Err(ProtocolError::Malformed { context })
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return malformed(context);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Fixed-size read: `take` yields exactly `N` bytes, so the array
    /// conversion is visibly infallible (no `try_into().unwrap()`).
    fn take_n<const N: usize>(&mut self, context: &'static str) -> DecodeResult<[u8; N]> {
        let s = self.take(N, context)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> DecodeResult<u8> {
        Ok(self.take(1, context)?[0])
    }
    fn u16(&mut self, context: &'static str) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.take_n(context)?))
    }
    fn u32(&mut self, context: &'static str) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take_n(context)?))
    }
    fn u64(&mut self, context: &'static str) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take_n(context)?))
    }
    fn f64(&mut self, context: &'static str) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    fn str16(&mut self, context: &'static str) -> DecodeResult<String> {
        let len = self.u16(context)? as usize;
        let bytes = self.take(len, context)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => malformed(context),
        }
    }

    /// Reads a `u32`-prefixed vector, validating that the announced
    /// element count fits in the remaining bytes *before* allocating.
    fn seq_len(&mut self, elem_bytes: usize, context: &'static str) -> DecodeResult<usize> {
        let len = self.u32(context)? as usize;
        if len.saturating_mul(elem_bytes) > self.remaining() {
            return malformed(context);
        }
        Ok(len)
    }

    fn vec_u32(&mut self, context: &'static str) -> DecodeResult<Vec<u32>> {
        let len = self.seq_len(4, context)?;
        (0..len).map(|_| self.u32(context)).collect()
    }

    fn vec_f64(&mut self, context: &'static str) -> DecodeResult<Vec<f64>> {
        let len = self.seq_len(8, context)?;
        (0..len).map(|_| self.f64(context)).collect()
    }

    fn opt_u64(&mut self, context: &'static str) -> DecodeResult<Option<u64>> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(context)?)),
            _ => malformed(context),
        }
    }

    fn finish(self, context: &'static str) -> DecodeResult<()> {
        if self.remaining() != 0 {
            return malformed(context);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Algorithm / budget / request
// ---------------------------------------------------------------------

fn enc_algo(w: &mut Wr, algo: &Algorithm) {
    match algo {
        Algorithm::Nibble(p) => {
            w.u8(0);
            w.u64(p.t_max as u64);
            w.f64(p.eps);
        }
        Algorithm::PrNibble(p) => {
            w.u8(1);
            w.f64(p.alpha);
            w.f64(p.eps);
            w.u8(match p.rule {
                PushRule::Original => 0,
                PushRule::Optimized => 1,
            });
            w.f64(p.beta);
            w.f64(p.dense_frac);
        }
        Algorithm::Hkpr(p) => {
            w.u8(2);
            w.f64(p.t);
            w.u64(p.n_levels as u64);
            w.f64(p.eps);
        }
        Algorithm::RandHkpr(p) => {
            w.u8(3);
            w.f64(p.t);
            w.u64(p.max_len as u64);
            w.u64(p.walks as u64);
            w.u64(p.rng_seed);
        }
        Algorithm::Evolving(p) => {
            w.u8(4);
            w.u64(p.max_steps as u64);
            w.f64(p.target_conductance);
            w.u64(p.rng_seed);
        }
    }
}

fn dec_algo(r: &mut Rd<'_>) -> DecodeResult<Algorithm> {
    Ok(match r.u8("algorithm tag")? {
        0 => Algorithm::Nibble(NibbleParams {
            t_max: r.u64("t_max")? as usize,
            eps: r.f64("eps")?,
        }),
        1 => Algorithm::PrNibble(PrNibbleParams {
            alpha: r.f64("alpha")?,
            eps: r.f64("eps")?,
            rule: match r.u8("push rule")? {
                0 => PushRule::Original,
                1 => PushRule::Optimized,
                _ => return malformed("push rule"),
            },
            beta: r.f64("beta")?,
            dense_frac: r.f64("dense_frac")?,
        }),
        2 => Algorithm::Hkpr(HkprParams {
            t: r.f64("t")?,
            n_levels: r.u64("n_levels")? as usize,
            eps: r.f64("eps")?,
        }),
        3 => Algorithm::RandHkpr(RandHkprParams {
            t: r.f64("t")?,
            max_len: r.u64("max_len")? as usize,
            walks: r.u64("walks")? as usize,
            rng_seed: r.u64("rng_seed")?,
        }),
        4 => Algorithm::Evolving(EvolvingParams {
            max_steps: r.u64("max_steps")? as usize,
            target_conductance: r.f64("target_conductance")?,
            rng_seed: r.u64("rng_seed")?,
        }),
        _ => return malformed("algorithm tag"),
    })
}

fn enc_budget(w: &mut Wr, b: &QueryBudget) {
    w.opt_u64(
        b.deadline
            .map(|d| d.as_nanos().min(u64::MAX as u128) as u64),
    );
    w.opt_u64(b.max_pushed_mass_updates);
    w.opt_u64(b.max_edges_traversed);
}

fn dec_budget(r: &mut Rd<'_>) -> DecodeResult<QueryBudget> {
    let mut b = QueryBudget::unlimited();
    if let Some(n) = r.opt_u64("deadline")? {
        b = b.with_deadline(Duration::from_nanos(n));
    }
    if let Some(n) = r.opt_u64("max_pushed_mass_updates")? {
        b = b.with_max_pushed_mass_updates(n);
    }
    if let Some(n) = r.opt_u64("max_edges_traversed")? {
        b = b.with_max_edges_traversed(n);
    }
    Ok(b)
}

/// Encodes a `QUERY` request body. The budget's cancellation token, hook
/// and fault plan do not travel — see the module docs.
pub fn encode_query_request(req: &QueryRequest) -> Vec<u8> {
    let mut w = Wr::default();
    w.str16(&req.tenant);
    w.u8(req.priority as u8);
    w.vec_u32(req.query.seed.vertices());
    enc_algo(&mut w, &req.query.algo);
    enc_budget(&mut w, &req.query.budget);
    w.buf
}

/// Decodes a `QUERY` request body.
pub fn decode_query_request(payload: &[u8]) -> DecodeResult<QueryRequest> {
    let mut r = Rd::new(payload);
    let tenant = r.str16("tenant name")?;
    let priority = Priority::from_u8(r.u8("priority class")?).ok_or(ProtocolError::Malformed {
        context: "priority class",
    })?;
    let seed = r.vec_u32("seed set")?;
    if seed.is_empty() {
        return malformed("seed set");
    }
    let algo = dec_algo(&mut r)?;
    let budget = dec_budget(&mut r)?;
    r.finish("query request")?;
    Ok(QueryRequest {
        tenant,
        priority,
        query: Query {
            seed: Seed::set(seed),
            algo,
            budget,
        },
    })
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

fn enc_stats(w: &mut Wr, s: &DiffusionStats) {
    w.u64(s.iterations);
    w.u64(s.pushes);
    w.u64(s.pushed_volume);
    w.u64(s.edges_traversed);
    w.f64(s.residual_mass);
}

fn dec_stats(r: &mut Rd<'_>) -> DecodeResult<DiffusionStats> {
    Ok(DiffusionStats {
        iterations: r.u64("stats.iterations")?,
        pushes: r.u64("stats.pushes")?,
        pushed_volume: r.u64("stats.pushed_volume")?,
        edges_traversed: r.u64("stats.edges_traversed")?,
        residual_mass: r.f64("stats.residual_mass")?,
    })
}

/// Encodes a completed [`ClusterResult`] in full: cluster, diffusion
/// vector, work counters, and the whole sweep profile. `f64`s travel as
/// raw bits, so the decoded result is bit-identical to the original.
pub fn encode_result(res: &ClusterResult) -> Vec<u8> {
    let mut w = Wr::default();
    w.vec_u32(&res.cluster);
    w.f64(res.conductance);
    w.u32(res.diffusion.p.len() as u32);
    for &(v, m) in &res.diffusion.p {
        w.u32(v);
        w.f64(m);
    }
    enc_stats(&mut w, &res.diffusion.stats);
    w.vec_u32(&res.sweep.order);
    w.vec_f64(&res.sweep.conductances);
    w.u64(res.sweep.best_size as u64);
    w.f64(res.sweep.best_conductance);
    w.buf
}

/// Decodes a [`ClusterResult`] body.
pub fn decode_result(payload: &[u8]) -> DecodeResult<ClusterResult> {
    let mut r = Rd::new(payload);
    let cluster = r.vec_u32("result cluster")?;
    let conductance = r.f64("result conductance")?;
    let n = r.seq_len(12, "diffusion vector")?;
    let mut p = Vec::with_capacity(n);
    for _ in 0..n {
        let v = r.u32("diffusion vertex")?;
        let m = r.f64("diffusion mass")?;
        p.push((v, m));
    }
    let stats = dec_stats(&mut r)?;
    let order = r.vec_u32("sweep order")?;
    let conductances = r.vec_f64("sweep conductances")?;
    let best_size = r.u64("sweep best_size")? as usize;
    let best_conductance = r.f64("sweep best_conductance")?;
    if best_size > order.len() {
        return malformed("sweep best_size");
    }
    r.finish("result")?;
    Ok(ClusterResult {
        cluster,
        conductance,
        diffusion: Diffusion { p, stats },
        sweep: SweepCut {
            order,
            conductances,
            best_size,
            best_conductance,
        },
    })
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

fn enc_partial(w: &mut Wr, p: &WirePartial) {
    enc_stats(w, &p.stats);
    w.vec_u32(&p.cluster);
    w.f64(p.conductance);
}

fn dec_partial(r: &mut Rd<'_>) -> DecodeResult<WirePartial> {
    Ok(WirePartial {
        stats: dec_stats(r)?,
        cluster: r.vec_u32("partial cluster")?,
        conductance: r.f64("partial conductance")?,
    })
}

fn enc_retry(w: &mut Wr, d: Option<Duration>) {
    w.opt_u64(d.map(|d| d.as_nanos().min(u64::MAX as u128) as u64));
}

fn dec_retry(r: &mut Rd<'_>) -> DecodeResult<Option<Duration>> {
    Ok(r.opt_u64("retry_after")?.map(Duration::from_nanos))
}

/// Encodes a typed error body (first byte = [`WireError::code`]).
pub fn encode_error(e: &WireError) -> Vec<u8> {
    let mut w = Wr::default();
    w.u8(e.code());
    match e {
        WireError::Tripped(t) => enc_partial(&mut w, &t.partial),
        WireError::InvalidSeed {
            vertex,
            num_vertices,
        } => {
            w.u32(*vertex);
            w.u64(*num_vertices);
        }
        WireError::WorkspaceBudgetExceeded {
            budget_bytes,
            in_flight_bytes,
            requested_bytes,
        } => {
            w.u64(*budget_bytes);
            w.u64(*in_flight_bytes);
            w.u64(*requested_bytes);
        }
        WireError::Overloaded {
            in_flight,
            limit,
            retry_after,
        } => {
            w.u64(*in_flight);
            w.u64(*limit);
            enc_retry(&mut w, *retry_after);
        }
        WireError::QueueFull {
            queued,
            cap,
            retry_after,
        } => {
            w.u64(*queued);
            w.u64(*cap);
            enc_retry(&mut w, *retry_after);
        }
        WireError::UnknownGraph { tenant } => w.str16(tenant),
        WireError::ShuttingDown => {}
        WireError::Unsupported { message } => w.str16(message),
        WireError::InvalidParams { param, requirement } => {
            w.str16(param);
            w.str16(requirement);
        }
    }
    w.buf
}

/// Decodes a typed error body.
pub fn decode_error(payload: &[u8]) -> DecodeResult<WireError> {
    let mut r = Rd::new(payload);
    let e = match r.u8("error code")? {
        code @ 1..=3 => WireError::Tripped(Tripped {
            trip: match code {
                1 => Trip::Deadline,
                2 => Trip::WorkBudget,
                _ => Trip::Cancelled,
            },
            partial: dec_partial(&mut r)?,
        }),
        4 => WireError::InvalidSeed {
            vertex: r.u32("invalid seed vertex")?,
            num_vertices: r.u64("num_vertices")?,
        },
        5 => WireError::WorkspaceBudgetExceeded {
            budget_bytes: r.u64("budget_bytes")?,
            in_flight_bytes: r.u64("in_flight_bytes")?,
            requested_bytes: r.u64("requested_bytes")?,
        },
        6 => WireError::Overloaded {
            in_flight: r.u64("in_flight")?,
            limit: r.u64("limit")?,
            retry_after: dec_retry(&mut r)?,
        },
        7 => WireError::QueueFull {
            queued: r.u64("queued")?,
            cap: r.u64("cap")?,
            retry_after: dec_retry(&mut r)?,
        },
        8 => WireError::UnknownGraph {
            tenant: r.str16("unknown graph name")?,
        },
        9 => WireError::ShuttingDown,
        10 => WireError::Unsupported {
            message: r.str16("unsupported message")?,
        },
        11 => WireError::InvalidParams {
            param: r.str16("invalid param name")?,
            requirement: r.str16("invalid param requirement")?,
        },
        _ => return malformed("error code"),
    };
    r.finish("error")?;
    Ok(e)
}

// ---------------------------------------------------------------------
// Graph-name listing
// ---------------------------------------------------------------------

/// Encodes the sorted graph-name listing.
pub fn encode_names(names: &[String]) -> Vec<u8> {
    let mut w = Wr::default();
    w.u32(names.len() as u32);
    for n in names {
        w.str16(n);
    }
    w.buf
}

/// Decodes a graph-name listing.
pub fn decode_names(payload: &[u8]) -> DecodeResult<Vec<String>> {
    let mut r = Rd::new(payload);
    let len = r.seq_len(2, "name count")?;
    let names = (0..len)
        .map(|_| r.str16("graph name"))
        .collect::<DecodeResult<Vec<_>>>()?;
    r.finish("names")?;
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_request_roundtrip_reencodes_identically() {
        let req = QueryRequest {
            tenant: "social".into(),
            priority: Priority::Bulk,
            query: Query::new(
                Seed::set(vec![5, 2, 9]),
                Algorithm::PrNibble(PrNibbleParams {
                    alpha: 0.03,
                    eps: 1e-6,
                    ..Default::default()
                }),
            )
            .with_budget(
                QueryBudget::unlimited()
                    .with_deadline(Duration::from_millis(250))
                    .with_max_edges_traversed(1_000_000),
            ),
        };
        let bytes = encode_query_request(&req);
        let back = decode_query_request(&bytes).unwrap();
        assert_eq!(back.tenant, "social");
        assert_eq!(back.priority, Priority::Bulk);
        assert_eq!(back.query.seed.vertices(), &[2, 5, 9]);
        assert_eq!(encode_query_request(&back), bytes);
    }

    #[test]
    fn empty_seed_rejected() {
        let mut req = QueryRequest {
            tenant: "g".into(),
            priority: Priority::Interactive,
            query: Query::new(Seed::single(0), Algorithm::Nibble(NibbleParams::default())),
        };
        // Hand-craft a payload with an empty seed vector.
        let mut w = Wr::default();
        w.str16(&req.tenant);
        w.u8(req.priority as u8);
        w.vec_u32(&[]);
        enc_algo(&mut w, &req.query.algo);
        enc_budget(&mut w, &req.query.budget);
        assert!(matches!(
            decode_query_request(&w.buf),
            Err(ProtocolError::Malformed {
                context: "seed set"
            })
        ));
        // And the normal path still works.
        req.query.seed = Seed::single(3);
        assert!(decode_query_request(&encode_query_request(&req)).is_ok());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let req = QueryRequest {
            tenant: "g".into(),
            priority: Priority::Interactive,
            query: Query::new(Seed::single(0), Algorithm::Hkpr(HkprParams::default())),
        };
        let mut bytes = encode_query_request(&req);
        bytes.push(0);
        assert!(matches!(
            decode_query_request(&bytes),
            Err(ProtocolError::Malformed { .. })
        ));
    }

    #[test]
    fn error_roundtrip_all_variants() {
        let partial = WirePartial {
            stats: DiffusionStats {
                iterations: 3,
                pushes: 40,
                pushed_volume: 90,
                edges_traversed: 120,
                residual_mass: 0.25,
            },
            cluster: vec![1, 2, 3],
            conductance: 0.125,
        };
        let tripped = |trip, partial| WireError::Tripped(Tripped { trip, partial });
        let variants = vec![
            tripped(Trip::Deadline, partial.clone()),
            tripped(Trip::WorkBudget, partial.clone()),
            tripped(
                Trip::Cancelled,
                WirePartial {
                    cluster: vec![],
                    conductance: f64::INFINITY,
                    ..partial
                },
            ),
            WireError::InvalidSeed {
                vertex: 77,
                num_vertices: 10,
            },
            WireError::WorkspaceBudgetExceeded {
                budget_bytes: 1,
                in_flight_bytes: 2,
                requested_bytes: 3,
            },
            WireError::Overloaded {
                in_flight: 4,
                limit: 4,
                retry_after: Some(Duration::from_micros(150)),
            },
            WireError::Overloaded {
                in_flight: 9,
                limit: 8,
                retry_after: None,
            },
            WireError::QueueFull {
                queued: 32,
                cap: 32,
                retry_after: Some(Duration::from_millis(2)),
            },
            WireError::UnknownGraph {
                tenant: "absent".into(),
            },
            WireError::ShuttingDown,
            WireError::Unsupported {
                message: "bad payload".into(),
            },
            WireError::InvalidParams {
                param: "alpha".into(),
                requirement: "must be in (0,1)".into(),
            },
        ];
        for e in variants {
            let back = decode_error(&encode_error(&e)).unwrap();
            assert_eq!(back, e);
            assert_eq!(back.code(), e.code());
        }
    }

    #[test]
    fn names_roundtrip() {
        let names = vec!["a".to_string(), "mesh".to_string(), "social".to_string()];
        assert_eq!(decode_names(&encode_names(&names)).unwrap(), names);
        assert!(decode_names(&encode_names(&[])).unwrap().is_empty());
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A names payload announcing 2^32-1 entries in a 4-byte body.
        let mut w = Wr::default();
        w.u32(u32::MAX);
        assert!(matches!(
            decode_names(&w.buf),
            Err(ProtocolError::Malformed { .. })
        ));
        // A result whose diffusion vector claims more entries than the
        // payload could possibly hold.
        let mut w = Wr::default();
        w.vec_u32(&[1]);
        w.f64(0.5);
        w.u32(u32::MAX);
        assert!(matches!(
            decode_result(&w.buf),
            Err(ProtocolError::Malformed { .. })
        ));
    }

    #[test]
    fn query_error_projection() {
        let e = QueryError::Overloaded {
            in_flight: 3,
            limit: 3,
            retry_after: Some(Duration::from_millis(1)),
        };
        let w = WireError::from_query_error(&e);
        assert!(w.is_retryable());
        assert_eq!(w.retry_after(), Some(Duration::from_millis(1)));
        let e = QueryError::InvalidSeed(lgc_core::InvalidSeed {
            vertex: 5,
            num_vertices: 3,
        });
        assert_eq!(
            WireError::from_query_error(&e),
            WireError::InvalidSeed {
                vertex: 5,
                num_vertices: 3
            }
        );
    }
}
