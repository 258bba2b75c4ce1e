//! Recyclable query scratch: the [`Workspace`] every diffusion runs
//! over, and the byte-budgeted [`WorkspacePool`] an engine checks them
//! out of.

use crate::budget::LifecycleCounters;
#[cfg(doc)]
use crate::engine::{Engine, LocalDiffusion};
use lgc_ligra::{DirectionParams, EdgeSpread, VertexSubset};
use lgc_parallel::Pool;
use lgc_sparse::MassMap;
use std::sync::Mutex;

/// A pool of recyclable scratch buffers shared by every diffusion.
///
/// Checked-out buffers are re-fitted so a warm checkout is observationally
/// identical to a fresh allocation (same backend mode, same hash-table
/// capacity, cleared contents) — the invariant that makes workspace-reusing
/// runs bit-identical to cold free-function runs, enforced by the
/// workspace-reuse proptests. What is actually recycled:
///
/// * dense/sparse [`MassMap`] arenas (including their `O(n)` dense-mode
///   buffers — the expensive part of a high-volume query): the stores
///   every edge map adds into, the evolving-set neighbor counter among
///   them, and the keyed tables outside the edge map — the sweep's ranks
///   and rand-HK-PR's destination compaction;
/// * frontiers ([`VertexSubset`]s) with their lazily-built bitsets — the
///   dense view, and the second buffer a frontier that has been through a
///   pull swaps it with every iteration;
/// * the spreading edge map's contribution buffer and its push's
///   per-destination scratch, the `n`-cell store a dense [`MassMap`] runs
///   on, which every push leaves all-zero ([`EdgeSpread`]);
/// * rand-HK-PR's walk-destination buffer.
///
/// Most callers never touch this type directly — [`Engine`] owns one —
/// but [`LocalDiffusion::diffuse`] takes it explicitly so custom drivers
/// (benchmark harnesses, batch executors) can manage their own.
#[derive(Default)]
pub struct Workspace {
    mass: Vec<MassMap>,
    frontiers: Vec<VertexSubset>,
    /// The frontier diffusions' edge map: the direction policy every
    /// iteration run over this workspace is chosen by, plus the
    /// contribution buffer.
    pub(crate) spread: EdgeSpread,
    /// rand-HK-PR per-walk `(destination, steps)` buffer.
    pub(crate) walks: Vec<(u32, u32)>,
    /// Byte charge recorded at checkout by the [`WorkspacePool`]'s budget
    /// accounting; `None` for free-function and transient (over-budget
    /// fallback) workspaces the pool is not accounting.
    charge: Option<usize>,
}

impl Workspace {
    /// An empty workspace under the default direction policy; buffers are
    /// allocated lazily by the first query and recycled by every query
    /// after it.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty workspace whose edge map picks directions per `dir` —
    /// how an engine's policy reaches the diffusions.
    pub(crate) fn with_policy(dir: DirectionParams) -> Self {
        Workspace {
            spread: EdgeSpread::new(dir),
            ..Default::default()
        }
    }

    /// Total resident bytes of every buffer this workspace has accreted —
    /// the quantity the workspace pool's byte budget accounts. `O(#buffers)`.
    pub fn resident_bytes(&self) -> usize {
        self.mass.iter().map(MassMap::resident_bytes).sum::<usize>()
            + self
                .frontiers
                .iter()
                .map(VertexSubset::resident_bytes)
                .sum::<usize>()
            + self.spread.resident_bytes()
            + self.walks.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Checks out a mass map re-fitted exactly as
    /// `MassMap::with_dense_fraction(n, bound, frac)` would build it.
    pub(crate) fn take_mass(&mut self, pool: &Pool, n: usize, bound: usize, frac: f64) -> MassMap {
        match self.mass.pop() {
            Some(mut m) => {
                m.recycle(pool, n, bound, frac);
                m
            }
            None => MassMap::with_dense_fraction(n, bound, frac),
        }
    }

    /// Returns a mass map to the pool (contents are cleared at the next
    /// checkout, so nothing needs to happen here).
    pub(crate) fn put_mass(&mut self, m: MassMap) {
        self.mass.push(m);
    }

    /// Checks out an empty frontier (recycled ones keep their allocated,
    /// already-zeroed bitsets).
    pub(crate) fn take_frontier(&mut self) -> VertexSubset {
        self.frontiers.pop().unwrap_or_default()
    }

    /// Returns a frontier, clearing its members (`O(len)`, or `n/64` word
    /// stores for one that comes back dense-native — a query tripped
    /// between two pulls) so its bitsets are all-zero for the next
    /// checkout. Warm runs equal cold ones only if they are: the dense view
    /// of the next query's first pulled frontier is built by *setting* its
    /// members' bits in one of them.
    pub(crate) fn put_frontier(&mut self, pool: &Pool, mut f: VertexSubset) {
        f.recycle(pool);
        debug_assert!(f.buffers_are_clear(), "a recycled frontier's bitsets");
        self.frontiers.push(f);
    }
}

/// A checkout pool of [`Workspace`]s behind a byte-budgeted freelist —
/// the mechanism that makes every query method `&self`-callable from any
/// number of OS threads while staying allocation-warm, with resident
/// scratch bounded in *bytes* per graph rather than in workspace count
/// (workspaces accrete `O(n)` dense arenas over their lifetime, so a
/// count cap bounds nothing on a big graph and over-throttles a small
/// one).
///
/// The lock is held only at the checkout boundary (a `Vec` pop/push plus
/// a few counter updates per query or per batch worker chunk), never
/// during a diffusion, so concurrent queries contend for microseconds,
/// not milliseconds. Since recycled buffers are re-fitted to be
/// observationally fresh, *which* workspace a query happens to receive
/// is invisible in its output — the invariant the concurrent service
/// proptests hammer.
pub struct WorkspacePool {
    state: Mutex<PoolState>,
    dir: DirectionParams,
    budget: usize,
}

#[derive(Default)]
struct PoolState {
    /// Parked workspaces with their resident-byte sizes at park time.
    free: Vec<(Workspace, usize)>,
    /// Total resident bytes across parked workspaces.
    parked_bytes: usize,
    /// Bytes charged against the budget by in-flight checkouts.
    in_flight_bytes: usize,
    /// Largest resident size any restored workspace has reached — the
    /// per-checkout charge estimate for fresh workspaces (a fresh
    /// workspace is empty now but will grow to roughly this by restore).
    watermark: usize,
}

/// Typed refusal from a workspace-pool checkout, surfaced by the
/// engine's `try_run` entry points: admitting one more workspace would
/// push the graph's resident scratch past its byte budget. The
/// infallible query paths fall back to a transient unpooled workspace
/// instead — a burst beyond the budget costs allocator traffic, never an
/// error — so this type is for callers that want back-pressure they can
/// act on (shed the query, queue it, or retry later).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkspaceBudgetExceeded {
    /// The pool's configured byte budget.
    pub budget_bytes: usize,
    /// Bytes already charged by in-flight checkouts.
    pub in_flight_bytes: usize,
    /// Estimated charge of the denied checkout (the pool's observed
    /// per-workspace resident high-watermark).
    pub requested_bytes: usize,
}

impl std::fmt::Display for WorkspaceBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workspace byte budget exhausted: {} B in flight + {} B requested > {} B budget",
            self.in_flight_bytes, self.requested_bytes, self.budget_bytes
        )
    }
}

impl std::error::Error for WorkspaceBudgetExceeded {}

/// The workspace byte budget of every engine over a graph occupying
/// `graph_bytes`: 4× the graph, clamped to `[32 MiB, 1 GiB]`. Query scratch scales with
/// diffusion support (a fraction of the graph), so a small multiple of
/// the graph bounds burst-peak memory without throttling realistic
/// concurrency; the floor keeps small graphs unthrottled and the ceiling
/// caps what any single graph can pin in a many-graph service.
pub(crate) fn default_workspace_budget(graph_bytes: usize) -> usize {
    graph_bytes.saturating_mul(4).clamp(32 << 20, 1 << 30)
}

impl WorkspacePool {
    /// An empty pool whose checkouts traverse per `dir`, admitting at
    /// most `budget` resident scratch bytes at a time.
    pub(crate) fn new(dir: DirectionParams, budget: usize) -> Self {
        WorkspacePool {
            state: Mutex::new(PoolState::default()),
            dir,
            budget,
        }
    }

    /// An empty workspace under the engine's direction policy.
    fn fresh(&self) -> Workspace {
        Workspace::with_policy(self.dir)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pops a warm workspace, or creates a fresh one —
    /// refusing the fresh checkout when charging it (at the pool's
    /// observed per-workspace high-watermark) would overshoot the byte
    /// budget. Parked workspaces are always admitted: their bytes are
    /// already resident, so handing them out cannot grow the footprint.
    pub(crate) fn try_checkout(&self) -> Result<Workspace, WorkspaceBudgetExceeded> {
        let mut st = self.lock();
        if let Some((mut ws, bytes)) = st.free.pop() {
            st.parked_bytes -= bytes;
            st.in_flight_bytes += bytes;
            ws.charge = Some(bytes);
            return Ok(ws);
        }
        let charge = st.watermark;
        if st.in_flight_bytes.saturating_add(charge) > self.budget {
            return Err(WorkspaceBudgetExceeded {
                budget_bytes: self.budget,
                in_flight_bytes: st.in_flight_bytes,
                requested_bytes: charge,
            });
        }
        st.in_flight_bytes += charge;
        drop(st);
        let mut ws = self.fresh();
        ws.charge = Some(charge);
        Ok(ws)
    }

    /// Infallible checkout: on budget refusal, falls back to a transient
    /// workspace the pool does not account. The transient is dropped at
    /// restore, so a burst beyond the budget pays the cold free-function
    /// allocation profile — never an error, and never unbounded resident
    /// scratch.
    pub(crate) fn checkout(&self) -> Workspace {
        self.try_checkout().unwrap_or_else(|_| self.fresh())
    }

    /// Returns a workspace. Budget-accounted checkouts release their
    /// charge, teach the pool their actual resident size (raising the
    /// watermark future charges are estimated at), and park iff the
    /// freelist's resident bytes stay within budget; transient fallbacks
    /// are simply dropped. (A query that panics drops its checkout the
    /// same way.) Either kind first hands `counters` the iterations its
    /// edge map tallied while it was out.
    pub(crate) fn restore(&self, mut ws: Workspace, counters: &LifecycleCounters) {
        debug_assert!(ws.spread.is_clear(), "a returned workspace's push scratch");
        counters.note_iterations(ws.spread.take_counts());
        let Some(charge) = ws.charge.take() else {
            return; // transient over-budget fallback: not accounted
        };
        let bytes = ws.resident_bytes();
        let mut st = self.lock();
        st.in_flight_bytes = st.in_flight_bytes.saturating_sub(charge);
        st.watermark = st.watermark.max(bytes);
        if st.parked_bytes + bytes <= self.budget {
            st.parked_bytes += bytes;
            st.free.push((ws, bytes));
        }
    }

    /// Number of warm workspaces currently parked in the freelist.
    pub(crate) fn warm_count(&self) -> usize {
        self.lock().free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::{evolving_set_par_ws, EvolvingParams};
    use crate::hkpr::{hkpr_par, HkprParams};
    use crate::nibble::{nibble_par, NibbleParams};
    use crate::prnibble::{prnibble_par, PrNibbleParams};
    use crate::result::Diffusion;
    use crate::seed::Seed;
    use lgc_graph::gen;
    use lgc_ligra::Checkpoint;

    /// The three frontier diffusions and the evolving-set process on `ws`,
    /// as `(p, stats)` — the set, its conductance bits and its sizes for the
    /// last one — asserting after each that the push's scratch came back
    /// all-zero.
    fn run_all(pool: &Pool, g: &lgc_graph::Graph, ws: &mut Workspace) -> Vec<String> {
        let (seed, cp) = (Seed::single(0), Checkpoint::unlimited());
        let prn = PrNibbleParams {
            alpha: 0.01,
            eps: 1e-7,
            ..Default::default()
        };
        let hk = HkprParams {
            t: 10.0,
            n_levels: 12,
            eps: 1e-6,
        };
        let nib = NibbleParams {
            t_max: 12,
            eps: 1e-8,
        };
        let ev = EvolvingParams {
            max_steps: 12,
            rng_seed: 2,
            ..Default::default()
        };
        let show = |d: Diffusion| format!("{:?} {:?}", d.p, d.stats);
        let mut out = Vec::new();
        out.push(show(prnibble_par(pool, g, &seed, &prn, ws, &cp).unwrap()));
        assert!(ws.spread.is_clear(), "after PR-Nibble");
        out.push(show(hkpr_par(pool, g, &seed, &hk, ws, &cp).unwrap()));
        assert!(ws.spread.is_clear(), "after HK-PR");
        out.push(show(nibble_par(pool, g, &seed, &nib, ws, &cp).unwrap()));
        assert!(ws.spread.is_clear(), "after Nibble");
        let e = evolving_set_par_ws(pool, g, &seed, &ev, ws, &cp).unwrap();
        out.push(format!(
            "{:?} {} {:?}",
            e.best_set,
            e.best_conductance.to_bits(),
            e.sizes
        ));
        assert!(ws.spread.is_clear(), "after the evolving set");
        out
    }

    /// A workspace whose edge map pushes keeps the push's scratch between
    /// queries: charged to its resident bytes (one `f64` cell and one bit
    /// per vertex) and all-zero after every query, so a warm run of every
    /// frontier diffusion is a cold run's, bit for bit. At two threads the
    /// larger iterations fork — their pushes add atomically, so only the
    /// integer-valued evolving-set counts are compared — and the scratch
    /// still comes back clear.
    #[test]
    fn a_pushing_workspace_keeps_its_scratch_charged_and_clear() {
        let g = gen::rand_local(8_000, 5, 3);
        let n = g.num_vertices();
        let push = DirectionParams::push_only();
        for threads in [1, 2] {
            let pool = Pool::new(threads);
            let mut ws = Workspace::with_policy(push);
            let cold = run_all(&pool, &g, &mut Workspace::with_policy(push));
            let scratch = n * 8 + n.div_ceil(512) * 64;
            let charged = ws.resident_bytes();
            for round in 0..2 {
                let warm = run_all(&pool, &g, &mut ws);
                match threads {
                    1 => assert_eq!(warm, cold, "round {round}"),
                    _ => assert_eq!(warm[3], cold[3], "round {round}"),
                }
                assert!(ws.resident_bytes() >= charged + scratch, "round {round}");
            }
            assert_eq!(pool.stats().loops_forked > 0, threads > 1, "t={threads}");
        }
    }
}
