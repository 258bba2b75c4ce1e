//! A Ligra-style frontier framework (`vertexSubset` / `vertexMap` /
//! `edgeMap`, simplified exactly as in §2 of the paper).
//!
//! The defining property — the reason the paper chose Ligra over
//! GraphLab/Pregel-style systems — is *locality*: both maps do work
//! proportional to the size of the input [`VertexSubset`] and the sum of
//! its vertices' degrees, never `O(|V|)`. That is what turns the diffusion
//! algorithms' theoretical "local running time" into practice.
//!
//! * [`edge_map`] applies an update function to every edge `(u, v)` with
//!   `u` in the subset, in parallel over *edges* (two-level: the frontier's
//!   edge space is flattened via a prefix sum over degrees, so one
//!   high-degree vertex cannot serialize an iteration — the same load
//!   balancing Ligra gets from its edge-granularity traversal).
//! * The paper's `vertexMap` has no function of its own: every diffusion's
//!   per-vertex step is the `UpdateSelf` half of an iteration, and
//!   [`EdgeSpread::stage`] runs it — over the id list of a sparse frontier,
//!   over the words of a dense one, which is Ligra's dense `vertexMap`.
//!
//! # The push/pull duality
//!
//! §2 of the paper presents `edgeMap` as *direction-optimizing*: Ligra
//! keeps two implementations of the same edge traversal and switches
//! between them per iteration based on the frontier's size. **Sparse
//! push** ([`edge_map`]) iterates the frontier's out-edges, work
//! `O(|F| + vol(F))`; **dense pull** ([`edge_map_dense`]) iterates every
//! destination against a frontier bitset, work `O(n + m)` whatever the
//! frontier.
//! [`DirectionParams`] holds Ligra's switch rule — pull when
//! `|F| + vol(F) > m` — and [`EdgeSpread`] owns the policy
//! and is the one place that applies it: the diffusions hand it their
//! `UpdateSelf` half, the [`MassMap`] their `UpdateNgh` adds into and the
//! filter that picks the next frontier, and never see which traversal ran.
//! The mechanics of the two directions, and why the threshold is what it
//! is, are documented there.
//!
//! Both directions land the same way, in one word walk: each destination's
//! contributions are summed in ascending source order in one place — a
//! register in a pull, a dense per-destination scratch in a push — where
//! [`Absorb`] says the sum starts, and the sum is written into the caller's
//! store once, by one writer, which then decides whether the destination
//! joins the next frontier. A pull gets that shape from owning its
//! destinations; a push records each destination's bit on first touch and
//! then walks the touched words in ascending order — so a push at one
//! thread and a pull write the same bits.
//!
//! Like Ligra's `edgeMap`, the edge map hands back the next frontier itself
//! ([`Staged::absorb`]'s `keep`), from the same walk: each word's kept bits
//! go either into one word of the next frontier's bitset, with `|F′|` and
//! `vol(F′)` tallied on the way (*dense-native*), or onto a sorted id list.
//! A pull walks every word and leaves the subset dense-native; so does a
//! push that walks every word of its first-touch bits, while a push small
//! against the universe walks a sorted list of the words it touched and
//! leaves a sorted id list. The next pull stages and gathers straight off
//! a dense-native subset's words, so between two pulls no id list is built,
//! merged, filtered or walked — a saturated iteration is two passes, `stage`
//! over the frontier's words and the walk over the destinations. The id
//! list is materialised (`O(n/64 + len)`) only when something asks for it:
//! a push iteration, or a caller of [`VertexSubset::ids`].
//!
//! The same work measure decides a second thing per iteration: whether its
//! loops are offered to the pool's workers at all ([`lane`],
//! [`FORK_MIN_WORK`] — "The fork policy" on [`EdgeSpread`]).

// Results never depend on hash order, the clock or an unaudited ordering.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

use lgc_graph::CsrBackend;
use lgc_parallel::{map_chunks, merge_sort_by, ones, scan_exclusive, Bitset, Pool, UnsafeSlice};
use lgc_sparse::{DenseMassVec, MassMap};

pub mod interrupt;

pub use interrupt::{BoundaryHook, CancelToken, Checkpoint, FaultPlan, QueryBudget, Trip, Tripped};

/// A subset of vertices — the paper's `vertexSubset` — in both of Ligra's
/// representations, each built from the other only on demand.
///
/// * A **listed** subset holds its members as a sorted, duplicate-free id
///   list: what [`VertexSubset::from_sorted`] and [`VertexSubset::advance`]
///   are handed and what a push consumes. Its dense view is built on first
///   use ([`VertexSubset::bits`], `O(len)` beyond a one-time `O(n/64)`
///   allocation) and wiped by the same list, so alternating directions
///   never pays a full `O(n)` pass.
/// * A **dense-native** subset is what a pull that was given a `keep`
///   filter leaves behind ([`Staged::absorb`]), and a push that walked its
///   receivers off the bitset's words: the bitset, `|F|` and `vol(F)` —
///   the traversal tallied both, so [`VertexSubset::len`] and
///   [`VertexSubset::volume`] are field reads — and *no* id list. The next
///   pull needs none; [`VertexSubset::ids`] packs one (`O(n/64 + len)`)
///   for a push, or for a caller that wants to look at the members.
///
/// A pull reads the subset it gathers from while it writes the next one,
/// so a subset that has been through a filtering pull owns two bitsets
/// and swaps them per iteration; the one not in use is all-zero.
pub struct VertexSubset {
    /// The sorted members — meaningful only while `listed`.
    ids: Vec<u32>,
    listed: bool,
    /// The dense view — meaningful only while `dense`. Invariant: while
    /// `dense` is false every word is zero, so building the view is one
    /// `set_sorted` pass.
    bits: Option<Bitset>,
    dense: bool,
    /// The buffer a filtering pull writes the next subset into before
    /// the two swap. Invariant: every word is zero between iterations.
    spare: Option<Bitset>,
    /// `|F|`, in either representation.
    len: usize,
    /// `vol(F)` as tallied by the pull that emitted this subset; `None`
    /// for one that was handed in as a list.
    vol: Option<usize>,
}

impl Default for VertexSubset {
    /// The empty subset, with no buffer allocated.
    fn default() -> Self {
        VertexSubset {
            ids: Vec::new(),
            listed: true,
            bits: None,
            dense: false,
            spare: None,
            len: 0,
            vol: None,
        }
    }
}

impl VertexSubset {
    /// Wraps an already-sorted, duplicate-free id list.
    pub fn from_sorted(ids: Vec<u32>) -> Self {
        let mut subset = Self::default();
        subset.advance(Pool::solo(), ids);
        subset
    }

    /// The sorted member ids, packed from the bitset first if this subset
    /// left a pull dense-native and nothing has asked for them since.
    pub fn ids(&mut self, pool: &Pool) -> &[u32] {
        if !self.listed {
            let bits = self.bits.as_ref().expect("a subset is listed or dense");
            self.ids = bits.to_sorted_ids(pool);
            debug_assert_eq!(self.ids.len(), self.len, "the gather's |F′| tally");
            self.listed = true;
        }
        &self.ids
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the subset is empty (the termination test of every
    /// diffusion loop in the paper).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `vol(F) = Σ d(v)` over the members — the paper's volume, which
    /// bounds an iteration's work: the emitting pull's tally for a
    /// dense-native subset, a walk over the id list otherwise.
    pub fn volume<B: CsrBackend>(&self, g: &B) -> usize {
        let walk = || self.ids.iter().map(|&v| g.degree(v)).sum();
        self.vol.unwrap_or_else(walk)
    }

    /// Resident bytes of the subset's buffers (the id list's capacity plus
    /// whichever bitsets have been allocated).
    pub fn resident_bytes(&self) -> usize {
        let bitsets = self.bits.iter().chain(&self.spare);
        self.ids.capacity() * std::mem::size_of::<u32>()
            + bitsets.map(Bitset::resident_bytes).sum::<usize>()
    }

    /// The dense view over universe `0..n`, building it on first use
    /// (`O(len)` plus the one-time allocation).
    pub fn bits(&mut self, pool: &Pool, n: usize) -> &Bitset {
        if self.bits.as_ref().is_some_and(|b| b.universe() != n) {
            assert!(self.listed, "a dense-native subset has one universe");
            self.bits = None;
            self.dense = false;
        }
        let bits = self.bits.get_or_insert_with(|| Bitset::new(n));
        if !self.dense {
            bits.set_sorted(pool, &self.ids);
            self.dense = true;
        }
        bits
    }

    /// Empties the subset while keeping its allocated bitsets for later
    /// reuse — the buffer-recycling hook for workspace pools that check
    /// frontiers out across queries. Costs `O(len)` (clearing the members'
    /// words; `n/64` stores when there is no list to clear by), after which
    /// the subset is observationally a fresh `VertexSubset::default()` that
    /// happens to own pre-allocated, fully-zeroed dense buffers.
    pub fn recycle(&mut self, pool: &Pool) {
        self.advance(pool, Vec::new());
    }

    /// Whether every bitset the subset owns is all-zero — what
    /// [`VertexSubset::recycle`] leaves, and what a pool of recycled
    /// frontiers relies on. `O(n/64)`: for assertions.
    pub fn buffers_are_clear(&self) -> bool {
        let mut bitsets = self.bits.iter().chain(&self.spare);
        !self.dense && bitsets.all(|b| b.count_seq() == 0)
    }

    /// Replaces the members with `next`, the next iteration's sorted,
    /// duplicate-free ids, recycling the dense buffer: the outgoing members'
    /// bits are cleared — by the id list in `O(len)`, by words if it was
    /// never built — so the next [`VertexSubset::bits`] call only pays the
    /// set.
    pub fn advance(&mut self, pool: &Pool, next: Vec<u32>) {
        debug_assert!(
            next.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted and unique"
        );
        if let (true, Some(bits)) = (self.dense, &self.bits) {
            if self.listed {
                bits.clear_sorted(pool, &self.ids);
            } else {
                bits.clear_all();
            }
        }
        self.dense = false;
        self.len = next.len();
        self.vol = None;
        self.ids = next;
        self.listed = true;
    }

    /// A walk's view of the subset: its dense view over `0..n` (built
    /// first if a push is asking) and, if it is to `emit`, the all-zero
    /// buffer over `0..n` it writes the next frontier into.
    fn gather_buffers(&mut self, pool: &Pool, n: usize, emit: bool) -> (&Bitset, Option<&Bitset>) {
        self.bits(pool, n);
        if emit && self.spare.as_ref().is_none_or(|b| b.universe() != n) {
            self.spare = Some(Bitset::new(n));
        }
        let bits = self.bits.as_ref().expect("built above");
        (bits, self.spare.as_ref().filter(|_| emit))
    }

    /// Makes the buffer a walk just filled — `len` members of volume `vol`
    /// — the subset, dense-native; the outgoing members are wiped by words
    /// (`n/64` stores at the end of a walk over every word).
    fn adopt_emitted(&mut self, len: usize, vol: usize) {
        std::mem::swap(&mut self.bits, &mut self.spare);
        if let Some(outgoing) = &self.spare {
            outgoing.clear_all();
        }
        self.ids = Vec::new();
        self.listed = false;
        self.dense = true;
        self.len = len;
        self.vol = Some(vol);
    }
}

/// The union of two sorted, duplicate-free id lists, sorted and
/// duplicate-free — `O(a + b)`.
pub fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Applies `f(src, dst)` to every edge `(src, dst)` with `src ∈ frontier`,
/// in parallel over the frontier's whole edge space: Ligra's sparse
/// `edgeMap`, which pushes from a listed subset.
///
/// Work `O(|frontier| + vol(frontier))`; the prefix sum over frontier
/// degrees flattens the edge space so chunks of ~`grain` edges are
/// distributed dynamically regardless of degree skew. Forks per the fork
/// policy ([`lane`]): a frontier too small to be worth it is walked by the
/// plain nested loop on the calling thread.
pub fn edge_map<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    frontier: &VertexSubset,
    f: impl Fn(u32, u32) + Sync,
) {
    assert!(frontier.listed, "edge_map pushes from a listed subset");
    // Only a pool with workers is asked: the volume is `O(|F|)` degree loads.
    let vol = (pool.num_threads() > 1).then(|| frontier.volume(g));
    let lane = vol.map_or(pool, |vol| lane(pool, frontier.len(), vol));
    push_edges(lane, g, &frontier.ids, |_: &mut (), _, src, dst| {
        f(src, dst)
    });
}

/// The one constant of the fork policy, in units of `|F| + vol(F)`: an
/// iteration with less work than this runs as the one-thread code. The
/// rationale and the calibration are under "The fork policy" on
/// [`EdgeSpread`].
pub const FORK_MIN_WORK: usize = 32_768;

/// The fork policy's one predicate: the pool a step over `len` vertices and
/// `vol` adjacency entries runs its loops on — `pool` itself when
/// `len + vol ≥` [`FORK_MIN_WORK`], the workerless [`Pool::solo`] below it,
/// where every loop is one inline call and every primitive takes its
/// one-pass sequential form. The answer depends on the two counts and the
/// constant only — never on timing, on the pool's width or on who else is
/// in it — so it repeats exactly, and since a step on the workerless pool
/// is bit for bit the same step at one thread, no result depends on it.
pub fn lane(pool: &Pool, len: usize, vol: usize) -> &Pool {
    forking(pool, len, vol).unwrap_or(Pool::solo())
}

/// `pool`, if a step over `len` vertices and `vol` entries is worth a fork.
fn forking(pool: &Pool, len: usize, vol: usize) -> Option<&Pool> {
    (len + vol >= FORK_MIN_WORK).then_some(pool)
}

/// The push over the edges of the sources `ids`, on a pool the fork policy
/// was already asked for. `f(acc, i, src, dst)` also receives the source's
/// index in `ids`, so a caller that lays its per-source values out by that
/// index (`contrib[i] = coeff · r[ids[i]] / d(ids[i])`) does one slice load
/// per edge — no hash probe, no division — and the accumulator of the edge
/// chunk it runs in, which starts as `T::default()`. Returns the chunks'
/// accumulators in edge order: one, on a pool that does not fork.
fn push_edges<B: CsrBackend, T: Default + Send>(
    pool: &Pool,
    g: &B,
    ids: &[u32],
    f: impl Fn(&mut T, usize, u32, u32) + Sync,
) -> Vec<T> {
    if !pool.can_fork() {
        let mut acc = T::default();
        for (i, &v) in ids.iter().enumerate() {
            g.for_each_neighbor(v, |w| f(&mut acc, i, v, w));
        }
        return vec![acc];
    }
    // The exclusive prefix sum over the frontier's degrees flattens its
    // edge space, so one high-degree vertex is split across chunks.
    let degs: Vec<usize> = ids.iter().map(|&v| g.degree(v)).collect();
    let (offsets, total_edges) = scan_exclusive(pool, &degs, 0usize, |a, b| a + b);
    map_chunks(pool, total_edges, 2048, |es, ee| {
        let mut acc = T::default();
        // Locate the frontier vertex owning edge index `es`.
        let mut vi = offsets.partition_point(|&o| o <= es) - 1;
        let mut edge_idx = es;
        while edge_idx < ee {
            let v = ids[vi];
            let local_start = edge_idx - offsets[vi];
            let local_end = g.degree(v).min(local_start + (ee - edge_idx));
            g.for_each_neighbor_in(v, local_start, local_end, |w| f(&mut acc, vi, v, w));
            edge_idx += local_end - local_start;
            vi += 1;
        }
        acc
    })
}

/// Which traversal an iteration uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Sparse push: iterate the frontier's out-edges, summing per
    /// destination in a scratch (atomic adds only when forked).
    Push,
    /// Dense pull: iterate all destinations against the frontier bitset
    /// (plain-write updates, deterministic).
    Pull,
}

/// The direction policy an [`EdgeSpread`] is built with: whether `edgeMap`
/// switches between sparse push and the dense pull traversal, or is pinned
/// to one of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirectionParams {
    /// Ligra's switch rule at the one threshold every diffusion runs
    /// under: pull when `|F| + vol(F) > m` (`m` = undirected edge count;
    /// [`EdgeSpread`] says why it is `m` and not Ligra's BFS-tuned `m/20`).
    #[default]
    Auto,
    /// Always push (the pre-direction-optimization behavior).
    Push,
    /// Always pull (mainly for testing and benchmarking the dense engine).
    Pull,
}

impl DirectionParams {
    /// Pins every iteration to sparse push.
    pub fn push_only() -> Self {
        DirectionParams::Push
    }

    /// Pins every iteration to dense pull.
    pub fn pull_only() -> Self {
        DirectionParams::Pull
    }

    /// Picks the direction for a frontier of `len` vertices and volume
    /// `vol` on `g`.
    pub fn choose<B: CsrBackend>(&self, g: &B, len: usize, vol: usize) -> Direction {
        match self {
            DirectionParams::Push => Direction::Push,
            DirectionParams::Pull => Direction::Pull,
            DirectionParams::Auto if len + vol > g.num_edges() => Direction::Pull,
            DirectionParams::Auto => Direction::Push,
        }
    }
}

/// Vertices per chunk in the dense traversals. Small enough that degree
/// skew load-balances through chunk claiming, large enough to amortize
/// the claim — and exactly one cache line of a [`Bitset`] (eight words),
/// so the chunk that emits a frontier's words shares no line of it.
const DENSE_GRAIN: usize = 512;

/// What [`Staged::absorb`] is handed by a caller that derives no frontier
/// from the traversal (or derives it some other way): the frontier is left
/// as it was staged.
pub const NO_ADMIT: Option<fn(u32, f64) -> bool> = None;

/// The dense pull engine: applies `f(src, dst)` to every edge `(src,
/// dst)` with `src` in the frontier bitset, by scanning **all** vertices
/// `dst` in parallel and testing their in-neighbors against the bitset.
///
/// Work `O(n + m)` regardless of the frontier. The guarantees sparse push
/// cannot give: all calls for one `dst` happen on a single thread, in
/// ascending `src` order — so per-destination state needs plain writes
/// only (no atomics) and the result is bitwise deterministic across
/// thread counts. Covers exactly the same edge set as
/// [`edge_map`] over the equivalent sparse frontier.
pub fn edge_map_dense<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    frontier: &Bitset,
    f: impl Fn(u32, u32) + Sync,
) {
    let n = g.num_vertices();
    debug_assert_eq!(frontier.universe(), n, "bitset universe must be n");
    pool.run(n, DENSE_GRAIN, |s, e| {
        for dst in s as u32..e as u32 {
            g.for_each_neighbor(dst, |src| {
                if frontier.contains(src) {
                    f(src, dst);
                }
            });
        }
    });
}

/// Where a destination's sum starts. Either way its frontier in-neighbors'
/// contributions are summed in ascending source order in one place — a
/// register in a pull, the push's scratch in a push — and its cell of the
/// store is written once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Absorb {
    /// At the cell's value, read at the destination's first contribution,
    /// and the sum is stored back: `((cell + c₁) + c₂)…`, the bracketing of
    /// one add per edge. Needed when destinations are not fresh (Nibble adds
    /// onto the banked half, HK-PR's last level onto `p`).
    PerEdge,
    /// At `0.0`, and the sum is added to the cell: `cell + (c₁ + c₂ …)`.
    /// The two differ in bracketing only, so this equals [`Absorb::PerEdge`]
    /// bit for bit when the cell starts absent or `0.0`, and on
    /// integer-valued contributions.
    Sum,
}

impl Absorb {
    /// Where `w`'s sum starts.
    fn start(self, into: &MassMap, w: u32) -> f64 {
        match self {
            Absorb::PerEdge => into.get(w),
            Absorb::Sum => 0.0,
        }
    }

    /// Writes `w`'s sum into `into` and returns `into[w]`.
    fn land(self, into: &MassMap, w: u32, sum: f64) -> f64 {
        match self {
            Absorb::PerEdge => {
                into.set(w, sum);
                sum
            }
            Absorb::Sum => into.add_exclusive(w, sum),
        }
    }
}

/// The words one [`walk`] visits, and what it finds in them.
struct Words<'a> {
    /// Ascending word indices; `None` for every word of the universe.
    listed: Option<&'a [u32]>,
    /// A push's first-touch bits, its candidates, which the walk zeroes;
    /// `None` for a pull, whose candidates are every destination.
    touched: Option<&'a Bitset>,
    /// The outgoing frontier, whose members holding a key of the store are
    /// asked too when there is a `keep`.
    members: Option<&'a Bitset>,
}

/// What a [`walk`] kept: `|F′|` and `vol(F′)` as tallied by the bitset
/// sink, or the sorted ids of the list sink.
#[derive(Default)]
struct Kept {
    len: usize,
    vol: usize,
    ids: Vec<u32>,
}

/// The one word walk under [`Staged::absorb`], in both directions. Visits
/// `words` in ascending order, each on one thread, and for each word:
///
/// * lands its candidates — `land(v)` delivers `v`'s sum and returns
///   `into[v]`, or `None` if `v` received nothing;
/// * asks `keep(v, into[v])` of each candidate that wrote, and of each
///   member of the outgoing frontier that holds a key of `into` — nobody
///   else, whatever older keys `into` carries;
/// * hands the kept bits to the sink: one word of `next`, with `len` and
///   `vol` tallied, or ids appended to a sorted list when `next` is `None`.
///
/// A chunk owns whole words, so it writes `next` and zeroes `touched` with
/// plain stores.
fn walk<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    words: Words<'_>,
    land: impl Fn(u32) -> Option<f64> + Sync,
    into: &MassMap,
    keep: Option<impl Fn(u32, f64) -> bool + Sync>,
    next: Option<&Bitset>,
) -> Kept {
    let (listed, touched, members) = (words.listed, words.touched, words.members);
    let n = g.num_vertices();
    let (count, grain) = listed.map_or((n.div_ceil(64), DENSE_GRAIN / 64), |l| (l.len(), 256));
    let chunks = map_chunks(pool, count, grain, |s, e| {
        let mut out = Kept::default();
        for i in s..e {
            let w = listed.map_or(i, |l| l[i] as usize);
            let received = match touched {
                Some(touched) => touched.word(w),
                None => u64::MAX >> (64 * (w + 1)).saturating_sub(n),
            };
            let own = members.filter(|_| keep.is_some()).map_or(0, |m| m.word(w));
            let mut kept = 0u64;
            for v in ones(w, received | own) {
                let bit = 1u64 << (v & 63);
                let landed = if received & bit != 0 { land(v) } else { None };
                let Some(keep) = &keep else { continue };
                let holds = || own & bit != 0 && into.contains(v);
                let m = landed.or_else(|| holds().then(|| into.get(v)));
                if m.is_some_and(|m| keep(v, m)) {
                    kept |= bit;
                    if next.is_some() {
                        out.len += 1;
                        out.vol += g.degree(v);
                    } else {
                        out.ids.push(v);
                    }
                }
            }
            if let Some(touched) = touched.filter(|_| received != 0) {
                touched.store_word(w, 0);
            }
            if let Some(next) = next.filter(|_| kept != 0) {
                next.store_word(w, kept);
            }
        }
        out
    });
    chunks.into_iter().fold(Kept::default(), |mut all, c| {
        all.len += c.len;
        all.vol += c.vol;
        match all.ids.is_empty() {
            true => all.ids = c.ids,
            false => all.ids.extend(c.ids),
        }
        all
    })
}

/// The direction-optimizing, contribution-spreading `edgeMap` (§2) and
/// its recycled buffer — the one traversal every frontier diffusion's
/// iteration is written on.
///
/// An iteration sends one value `c(v)` from each frontier vertex `v`
/// along all of `v`'s edges. [`EdgeSpread::stage`] picks the direction,
/// calls `contrib_of(v)` once per frontier vertex (the paper's
/// `UpdateSelf`) and lays the values out for that direction;
/// [`Staged::absorb`] then adds them into the caller's [`MassMap`] over
/// the frontier's edges (`UpdateNgh`) and, given a filter, leaves the next
/// frontier.
///
/// * **Push** walks the frontier's id list and lays `c` out by frontier
///   index, so the per-edge work is one slice load plus one indexed add
///   into a scratch [`DenseMassVec`] — `n` cells and first-touch bits, the
///   type of a dense [`MassMap`]'s store — with no hash probe and no
///   division. The add is plain on a lane that does not fork and the
///   `fetchAdd` the paper cites when it does, since destinations are then
///   hit by several sources at once. A destination's first touch
///   ([`DenseMassVec::mark`]) sets its bit and starts its sum where
///   [`Absorb`] says. The walk then visits the touched words in ascending
///   order and lands each receiver's sum in the store once, zeroing its
///   cell. So at one thread a push writes the same bits as a pull, and the
///   store sees one write per receiver, not one per edge.
/// * **Pull** walks the frontier's bitset by words (the dense `vertexMap`),
///   lays `c` out by vertex id and scans *all* vertices; each tests its
///   neighbors against the bitset. One thread owns a destination and sums
///   its sources in ascending order in a register, so accumulation needs
///   no atomics and is bitwise the one-thread push order. The walk is the
///   push's, over every word.
///
/// Either way the thread that lands a destination's sum asks `keep` of it
/// right away — the next-frontier half of [`Staged::absorb`].
///
/// Either way `contrib_of(v)` runs once per distinct vertex, so whatever
/// cell of `v`'s own it updates has one writer.
///
/// The contribution buffer is never zeroed. A push reads slots `0..k`, all
/// written by this call; a pull reads slot `v` only where the bitset holds
/// `v`, and exactly those were written by this call — stale values are
/// unreachable. The push's scratch is the other way round: it is sized once
/// per universe, and every push leaves it clean — all cells `0.0`, all bits
/// clear — by the words it walked, each word's cells and then the word, as
/// a dense [`MassMap`]'s reset cleans the same type ([`EdgeSpread::is_clear`]).
///
/// # The direction policy
///
/// The edge map owns the [`DirectionParams`] it was built with; callers
/// hand it frontiers, not thresholds. The default pulls when
/// `|F| + vol(F) > m`, not at Ligra's `m / 20`: that value was tuned on
/// BFS, whose pull leaves a destination at its first frontier in-neighbor,
/// while a diffusion's gather has no early exit — every destination sums
/// *all* of its frontier in-neighbors, so a pull always scans `n + 2m`
/// entries. Measured on the bench suite, `m / 20` fires too eagerly for
/// all four diffusions, and `m / 1` (pull once the frontier's edge space
/// rivals the graph's) keeps the 2–5× pull wins on the social-network
/// stand-ins while capping the mesh/randLocal mispredict at noise level;
/// `m / 2` and a per-algorithm mix of denominators read the same as `m / 1`
/// on the benchmark's saturating workload, so the threshold is a constant,
/// not a knob. The results do not depend on the policy — every direction
/// yields the same bits at one thread — so `m` is the single constant a
/// measured cost model would replace.
///
/// # The fork policy
///
/// The same two numbers answer a second question about an iteration: are
/// its loops offered to the pool's workers at all? The paper's bounds are
/// work/depth, and an iteration of `O(|F| + vol(F))` work has parallelism
/// to offer only once that work exceeds what forking it costs. That cost
/// is not only the hand-off: while a helper is available every primitive
/// takes its two-pass parallel form (a filter counts, then writes; a push
/// builds a degree vector and scans it to flatten its edge space), which
/// on a frontier of a few hundred vertices is most of the work. So there is
/// one rule, [`lane`]: below `|F| + vol(F) =` [`FORK_MIN_WORK`] the
/// iteration gets the workerless [`Pool::solo`] and runs, loop for loop,
/// as the one-thread code; at or above it, the caller's pool, unchanged.
/// [`EdgeSpread::stage`] asks it for the edge map; a diffusion asks it with
/// the same `k` and `vol` for the steps it wraps around the edge map
/// (store resets, commits, filters), the sweep with `N` and `vol(S_N)`, a
/// diffusion's tail with the number of entries it packs and sums, and
/// [`edge_map`] for itself. The rule reads counts and one constant
/// — no clock, not the pool's width, not who else is in the pool — so its
/// answers repeat exactly, and because an iteration on the workerless pool
/// is bit for bit that iteration at one thread, no result depends on them:
/// a query that stays below the threshold returns the one-thread bits from
/// a pool of any width.
///
/// The constant is calibrated, not derived: one binary, a 2-wide pool, the
/// threshold swept over 0 / 8 192 / 16 384 / 32 768 / 65 536 / 131 072 on
/// the benchmark's point-query workload (0.4–6 ms queries on a 64³ torus,
/// whose widest iterations have `|F| + vol(F)` around 10⁴) and on its
/// saturating one; every run is tabulated in CHANGES.md under PR 20. At
/// 8 192 the point queries still pay part of what two threads lose to one;
/// from 16 384 up they pay none of it. The saturating workload is at its
/// best at 16 384 and 32 768: below, the small first and last iterations
/// of a large query still fork for nothing, and from 65 536 up mid-size
/// iterations with real work to share stop forking. 32 768 sits in the
/// middle of the range both agree on: about 150 µs of push work, against
/// a fork that is cheap only while forks are frequent — a rare one finds
/// the worker parked, and waits for it to be woken. Two things that were
/// measured and do not work in its place: refusing the forks inside
/// `Pool::run` (half the gain: the two-pass forms remain), and a per-loop
/// "fork above K chunks" rule (a loop's `grain` is not a unit of work; K
/// large enough to help the point queries costs the saturating ones
/// 10–20 %).
#[derive(Default)]
pub struct EdgeSpread {
    slots: Vec<f64>,
    /// The push's per-destination sums, built by the first push.
    scratch: Option<DenseMassVec>,
    policy: DirectionParams,
    counts: IterationCounts,
}

/// How many iterations an [`EdgeSpread`] has staged, by the direction taken
/// and by lane — plain tallies the owner drains with
/// [`EdgeSpread::take_counts`]. `push + pull` is every iteration staged;
/// `solo` counts those of them the fork policy kept off the workers, and
/// `dense_out` those of the pulls that emitted the next frontier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterationCounts {
    /// Iterations staged as a sparse push.
    pub push: u64,
    /// Iterations staged as a dense pull.
    pub pull: u64,
    /// Iterations below [`FORK_MIN_WORK`], run as the one-thread code.
    pub solo: u64,
    /// Pulls whose next frontier left the gather as a bitset (they were
    /// handed a `keep` filter): `dense_out ≤ pull`.
    pub dense_out: u64,
}

/// Contributions laid out by [`EdgeSpread::stage`], waiting to be spread.
/// The pause between the two halves is a sequential point.
#[must_use = "staged contributions reach no destination until absorbed"]
pub struct Staged<'a, B> {
    pool: &'a Pool,
    g: &'a B,
    frontier: &'a mut VertexSubset,
    vol: usize,
    slots: &'a [f64],
    /// The push's scratch; `None` for a pull.
    scratch: Option<&'a DenseMassVec>,
    dense_out: &'a mut u64,
}

impl EdgeSpread {
    /// An edge map that picks its directions per `policy` (`default()` is
    /// `new(DirectionParams::default())`).
    pub fn new(policy: DirectionParams) -> Self {
        EdgeSpread {
            policy,
            ..Default::default()
        }
    }

    /// The tallies since the last call, which this resets.
    pub fn take_counts(&mut self) -> IterationCounts {
        std::mem::take(&mut self.counts)
    }

    /// Resident bytes of the contribution buffer (capacity, not length) and
    /// of the push's scratch, once a push has built it.
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<f64>()
            + self
                .scratch
                .as_ref()
                .map_or(0, DenseMassVec::resident_bytes)
    }

    /// Whether the push's scratch is all `0.0` with every bit clear — what
    /// every [`Staged::absorb`] leaves, and what the next push's sums start
    /// from. `O(n)`: for assertions.
    pub fn is_clear(&self) -> bool {
        self.scratch.as_ref().is_none_or(DenseMassVec::is_clear)
    }

    /// Chooses the direction for `frontier` (whose volume the caller has
    /// already computed as `vol`) and stages `contrib_of(v)` for each of
    /// its vertices, in parallel. `contrib_of` is called exactly once per
    /// frontier vertex and is free to update `v`'s own state as it goes.
    ///
    /// The frontier is walked in the representation the direction wants,
    /// converting first if it is in the other one: a push walks the id
    /// list, a pull the words of the bitset.
    pub fn stage<'a, B: CsrBackend>(
        &'a mut self,
        pool: &'a Pool,
        g: &'a B,
        frontier: &'a mut VertexSubset,
        vol: usize,
        contrib_of: impl Fn(u32) -> f64 + Sync,
    ) -> Staged<'a, B> {
        let k = frontier.len();
        let lane = forking(pool, k, vol);
        self.counts.solo += u64::from(lane.is_none());
        let pool = lane.unwrap_or(Pool::solo());
        let dir = self.policy.choose(g, k, vol);
        let n = g.num_vertices();
        let len = match dir {
            Direction::Push => {
                self.counts.push += 1;
                if self.scratch.as_ref().is_none_or(|s| s.universe() != n) {
                    self.scratch = Some(DenseMassVec::new(n));
                }
                k
            }
            Direction::Pull => {
                self.counts.pull += 1;
                n
            }
        };
        if self.slots.len() < len {
            self.slots.resize(len, 0.0);
        }
        let view = UnsafeSlice::new(&mut self.slots[..len]);
        let put = |slot: usize, v: u32| {
            assert!(slot < len, "frontier vertex {v} outside the graph");
            // SAFETY: `slot` is in bounds (just checked) and no other call
            // writes it. A push passes the frontier index, and the chunks
            // `s..e` of the id list are disjoint; a pull passes the vertex
            // id, the bits of a word are distinct vertices, and the word
            // ranges of the chunks are disjoint. Nothing reads the buffer
            // until `pool.run` has returned.
            unsafe { view.write(slot, contrib_of(v)) };
        };
        match dir {
            Direction::Push => {
                let ids = frontier.ids(pool);
                pool.run(k, 256, |s, e| {
                    for (i, &v) in ids[s..e].iter().enumerate() {
                        put(s + i, v);
                    }
                });
            }
            Direction::Pull => {
                let bits = frontier.bits(pool, len);
                pool.run(bits.num_words(), DENSE_GRAIN / 64, |s, e| {
                    for w in s..e {
                        ones(w, bits.word(w)).for_each(|v| put(v as usize, v));
                    }
                });
            }
        }
        Staged {
            pool,
            g,
            frontier,
            vol,
            slots: &self.slots[..len],
            scratch: self.scratch.as_ref().filter(|_| dir == Direction::Push),
            dense_out: &mut self.counts.dense_out,
        }
    }
}

impl<B: CsrBackend> Staged<'_, B> {
    /// Adds the staged contributions into `into` over the frontier's
    /// edges, per `order`. Every frontier edge's contribution reaches its
    /// destination exactly once, and each destination's cell is written
    /// once, in ascending destination order per thread. Room is made in
    /// `into` for the most keys the iteration can add: `vol` (the volume
    /// handed to [`EdgeSpread::stage`]) before a pull, the number of
    /// receivers before a push delivers.
    ///
    /// # The next frontier
    ///
    /// Handed `Some(keep)`, the edge map also leaves the next frontier in
    /// place of the staged one, in either direction: the vertices this
    /// iteration wrote into `into` that pass `keep(v, into[v])`. The
    /// contract of `keep` is one for both directions, because one walk
    /// asks it in both:
    ///
    /// * *who is asked* — every destination that received a contribution,
    ///   and every member of the outgoing frontier whose `contrib_of` wrote
    ///   its own cell of `into` (a member holding a key there counts as one
    ///   that did); nobody else, whatever older keys `into` carries. A
    ///   vertex the iteration did not touch is never kept, whatever `keep`
    ///   would say of it — and it would say yes of an isolated vertex under
    ///   a test like `mass ≥ ε·d(v)`, which `0 ≥ ε·0` passes.
    /// * *how* — each once, right after its sum has landed, by the thread
    ///   that landed it, in ascending order within a 64-vertex word. A
    ///   **pull** walks every word and leaves the frontier dense-native:
    ///   the bitset of the kept, with its `len` and `volume` tallied by the
    ///   walk. A **push** walks the words it touched and its members' words:
    ///   one with `64·vol < n` walks a sorted list of them and leaves a
    ///   sorted id list; a larger one walks every word and leaves the
    ///   frontier dense-native, tallied, as a pull does.
    ///
    /// With [`NO_ADMIT`] the frontier is left as it was staged.
    pub fn absorb(
        self,
        order: Absorb,
        into: &mut MassMap,
        keep: Option<impl Fn(u32, f64) -> bool + Sync>,
    ) {
        if self.scratch.is_some() {
            return self.push(order, into, keep);
        }
        let Staged {
            pool,
            g,
            frontier,
            vol,
            slots,
            dense_out,
            ..
        } = self;
        into.reserve_more(pool, vol);
        let into = &*into;
        let emitting = keep.is_some();
        let (bits, next) = frontier.gather_buffers(pool, g.num_vertices(), emitting);
        // The thread that owns `dst` is its one writer, so the cell it starts
        // from is the one its first contribution would have read.
        let land = |dst| {
            let (mut sum, mut any) = (order.start(into, dst), false);
            g.for_each_neighbor(dst, |src| {
                if bits.contains(src) {
                    sum += slots[src as usize];
                    any = true;
                }
            });
            any.then(|| order.land(into, dst, sum))
        };
        let words = Words {
            listed: None,
            touched: None,
            members: Some(bits),
        };
        let kept = walk(pool, g, words, land, into, keep, next);
        if emitting {
            frontier.adopt_emitted(kept.len, kept.vol);
            *dense_out += 1;
        }
    }

    /// [`Staged::absorb`]'s push.
    ///
    /// **Collect.** Every edge adds its source's contribution into its
    /// destination's scratch cell: plainly on a lane that does not fork, with
    /// the paper's `fetchAdd` on one that does. A destination's first touch
    /// sets its bit, is tallied, and starts its sum where `order` says — on a
    /// forked lane the first toucher adds `into[w]` into a cell others may
    /// have added to, so a forked push sums in the scheduler's order. When
    /// the push is small against the universe (`64·vol < n`) the one insert
    /// that finds a word empty records the word.
    ///
    /// **Land.** `into` makes room for the receivers, and the [`walk`] lands
    /// each sum once, zeroing its cell and its word: over the recorded words
    /// merged with the members' words into a sorted list, or over every word
    /// (`n/64 ≤ vol`) into a dense-native frontier.
    fn push(
        self,
        order: Absorb,
        into: &mut MassMap,
        keep: Option<impl Fn(u32, f64) -> bool + Sync>,
    ) {
        let Staged {
            pool,
            g,
            frontier,
            vol,
            slots,
            scratch,
            ..
        } = self;
        let scratch = scratch.expect("staged for a push");
        let forked = pool.can_fork();
        let lane = if forked { pool } else { Pool::solo() };
        let n = g.num_vertices();
        let listing = 64 * vol < n;
        let store = &*into;
        // Per edge chunk: the first touches, and the words first touched.
        let firsts = push_edges(
            lane,
            g,
            &frontier.ids,
            |firsts: &mut (usize, Vec<u32>), i, _, w| {
                let (first, word_was_empty) = scratch.mark(w);
                firsts.0 += usize::from(first);
                if word_was_empty && listing {
                    firsts.1.push(w >> 6);
                }
                let (cell, c) = (scratch.cell(w), slots[i]);
                if forked {
                    cell.fetch_add(if first { order.start(store, w) + c } else { c });
                } else {
                    let sum = if first {
                        order.start(store, w)
                    } else {
                        cell.load()
                    };
                    cell.store(sum + c);
                }
            },
        );
        into.reserve_more(pool, firsts.iter().map(|f| f.0).sum());
        let into = &*into;
        let listed = listing.then(|| {
            let mut words: Vec<u32> = firsts.into_iter().flat_map(|f| f.1).collect();
            if forked {
                merge_sort_by(pool, &mut words, u32::cmp);
            } else {
                words.sort_unstable();
            }
            if keep.is_none() {
                return words;
            }
            let mut own: Vec<u32> = frontier.ids.iter().map(|&v| v >> 6).collect();
            own.dedup();
            union_sorted(&words, &own)
        });
        let emitting = keep.is_some();
        let (members, next) = match emitting {
            true => {
                let (members, next) = frontier.gather_buffers(pool, n, !listing);
                (Some(members), next)
            }
            false => (None, None),
        };
        let land = |w: u32| {
            let cell = scratch.cell(w);
            let sum = order.land(into, w, cell.load());
            cell.store(0.0);
            Some(sum)
        };
        let words = Words {
            listed: listed.as_deref(),
            touched: Some(scratch.touched()),
            members,
        };
        let kept = walk(pool, g, words, land, into, keep, next);
        match (emitting, listing) {
            (true, true) => frontier.advance(pool, kept.ids),
            (true, false) => frontier.adopt_emitted(kept.len, kept.vol),
            (false, _) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn subset_basics() {
        let pool = Pool::new(1);
        let mut ids = vec![5, 1, 3, 1];
        ids.sort_unstable();
        ids.dedup();
        let mut s = VertexSubset::from_sorted(ids);
        assert_eq!(s.ids(&pool), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(VertexSubset::default().is_empty());
        assert_eq!(VertexSubset::from_sorted(vec![7]).ids(&pool), &[7]);
    }

    #[test]
    fn subset_volume() {
        let g = gen::star(5); // center 0 has degree 4, leaves degree 1
        let s = VertexSubset::from_sorted(vec![0, 1]);
        assert_eq!(s.volume(&g), 5);
    }

    /// The Figure 2 semantics: edgeMap applies `f` to every edge incident
    /// to the subset, and only those.
    #[test]
    fn edge_map_covers_frontier_edges_exactly_once() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let g = gen::rand_local(400, 5, 9);
            let frontier = VertexSubset::from_sorted((0..400u32).filter(|v| v % 7 == 0).collect());
            let hits: Vec<AtomicUsize> =
                (0..g.total_degree()).map(|_| AtomicUsize::new(0)).collect();
            // Identify each (src, dst) pair by its CSR position.
            let count = AtomicUsize::new(0);
            edge_map(&pool, &g, &frontier, |src, dst| {
                let nbrs = g.neighbors(src);
                let k = nbrs.partition_point(|&x| x < dst);
                assert_eq!(nbrs[k], dst);
                let base: usize = (0..src).map(|v| g.degree(v)).sum();
                hits[base + k].fetch_add(1, Ordering::Relaxed);
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(
                count.load(Ordering::Relaxed),
                frontier.volume(&g),
                "t={threads}"
            );
            // Every frontier edge hit once; non-frontier edges never.
            let mut base = 0;
            for v in 0..400u32 {
                let d = g.degree(v);
                let expect = usize::from(frontier.ids.binary_search(&v).is_ok());
                for j in 0..d {
                    assert_eq!(
                        hits[base + j].load(Ordering::Relaxed),
                        expect,
                        "v={v} j={j}"
                    );
                }
                base += d;
            }
        }
    }

    #[test]
    fn edge_map_accumulation_matches_sequential() {
        // Sum of dst ids over frontier edges — order independent.
        let g = gen::rmat_graph500(9, 8, 4);
        let frontier = VertexSubset::from_sorted(
            (0..g.num_vertices() as u32)
                .filter(|v| v % 11 == 0)
                .collect(),
        );
        let mut want = 0u64;
        for &v in &frontier.ids {
            for &w in g.neighbors(v) {
                want += w as u64;
            }
        }
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let got = AtomicU64::new(0);
            edge_map(&pool, &g, &frontier, |_, dst| {
                got.fetch_add(dst as u64, Ordering::Relaxed);
            });
            assert_eq!(got.load(Ordering::Relaxed), want, "threads={threads}");
        }
    }

    #[test]
    fn edge_map_handles_skewed_degrees() {
        // A star: the center has degree n-1; edge-level parallelism must
        // split its adjacency list across chunks.
        let pool = Pool::new(4);
        let g = gen::star(40_000); // above `FORK_MIN_WORK`: the loop forks
        let frontier = VertexSubset::from_sorted(vec![0]);
        let count = AtomicUsize::new(0);
        edge_map(&pool, &g, &frontier, |src, _| {
            assert_eq!(src, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 39_999);
    }

    #[test]
    fn edge_map_empty_frontier_or_isolated() {
        let pool = Pool::new(2);
        let g = lgc_graph::Graph::from_edges(4, &[(0, 1)]);
        edge_map(&pool, &g, &VertexSubset::default(), |_, _| {
            panic!("no edges")
        });
        // Vertices 2, 3 are isolated: zero edges to map over.
        edge_map(&pool, &g, &VertexSubset::from_sorted(vec![2, 3]), |_, _| {
            panic!("no edges")
        });
    }

    /// The index-carrying push `edge_map` and `Staged::absorb` run, on the
    /// lane `edge_map` asks the fork policy for.
    fn push_indexed(
        pool: &Pool,
        g: &lgc_graph::Graph,
        frontier: &VertexSubset,
        f: impl Fn(usize, u32, u32) + Sync,
    ) {
        push_edges(
            lane(pool, frontier.len(), frontier.volume(g)),
            g,
            &frontier.ids,
            |_: &mut (), i, src, dst| f(i, src, dst),
        );
    }

    /// Accumulates `f(src_idx, src, dst)` per CSR edge position so two
    /// engines' edge coverage can be compared exactly.
    fn indexed_trace(pool: &Pool, g: &lgc_graph::Graph, frontier: &VertexSubset) -> Vec<u64> {
        let cells: Vec<AtomicU64> = (0..g.total_degree()).map(|_| AtomicU64::new(0)).collect();
        push_indexed(pool, g, frontier, |i, src, dst| {
            assert_eq!(frontier.ids[i], src, "src_idx must address the frontier");
            let nbrs = g.neighbors(src);
            let k = nbrs.partition_point(|&x| x < dst);
            assert_eq!(nbrs[k], dst);
            let base: usize = (0..src).map(|v| g.degree(v)).sum();
            // Record (count, index) packed: hit count in the high bits,
            // the reporting frontier index (+1) in the low bits.
            cells[base + k].fetch_add((1 << 32) | (i as u64 + 1), Ordering::Relaxed);
        });
        cells.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// The tentpole contract: the index-carrying push covers exactly the
    /// frontier's edges (each once), and every callback receives the
    /// frontier index of its source — across skewed, empty, isolated,
    /// tiny, and large frontiers at 1/2/4 threads.
    #[test]
    fn push_edges_covers_the_frontier_edges_with_their_source_index() {
        let skewed = gen::star(40_000); // one huge-degree center, forked
        let local = gen::rand_local(700, 6, 3);
        let with_isolated = lgc_graph::Graph::from_edges(50, &[(0, 1), (1, 2), (4, 5)]);
        let cases: Vec<(&lgc_graph::Graph, VertexSubset)> = vec![
            (&skewed, VertexSubset::from_sorted(vec![0])), // degree skew
            (&skewed, VertexSubset::from_sorted(vec![0, 5])), // skew + leaf
            (&local, VertexSubset::default()),
            (
                &local,
                VertexSubset::from_sorted((0..700u32).filter(|v| v % 3 == 0).collect()),
            ),
            (&with_isolated, VertexSubset::from_sorted(vec![10, 20, 30])), // isolated only
            (&with_isolated, VertexSubset::from_sorted(vec![1, 10, 45])),  // mixed
        ];
        for (g, frontier) in &cases {
            // Independent reference: a plain nested loop over the CSR,
            // deliberately NOT built from edge_map (which is itself a
            // wrapper over the engine under test).
            let mut want = vec![0u64; g.total_degree()];
            for (i, &src) in frontier.ids.iter().enumerate() {
                let base: usize = (0..src).map(|v| g.degree(v)).sum();
                for k in 0..g.degree(src) {
                    want[base + k] += (1 << 32) | (i as u64 + 1);
                }
            }
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let got = indexed_trace(&pool, g, frontier);
                assert_eq!(got, want, "|frontier|={}, t={threads}", frontier.len());
            }
        }
    }

    #[test]
    fn direction_threshold_follows_ligra_rule() {
        let g = gen::rand_local(2000, 5, 1); // m ≈ 5000
        let m = g.num_edges();
        let p = DirectionParams::default();
        assert_eq!(p.choose(&g, 1, m), Direction::Pull, "just above m");
        assert_eq!(p.choose(&g, 0, m), Direction::Push, "at m");
        assert_eq!(p.choose(&g, 0, 0), Direction::Push);
        assert_eq!(
            DirectionParams::push_only().choose(&g, m, m),
            Direction::Push
        );
        assert_eq!(
            DirectionParams::pull_only().choose(&g, 0, 1),
            Direction::Pull
        );
    }

    /// Per-CSR-edge integer trace for any engine driven through a closure,
    /// for exact cross-engine comparison.
    fn trace_with(g: &lgc_graph::Graph, run: impl FnOnce(&(dyn Fn(u32, u32) + Sync))) -> Vec<u64> {
        let cells: Vec<AtomicU64> = (0..g.total_degree()).map(|_| AtomicU64::new(0)).collect();
        run(&|src, dst| {
            let nbrs = g.neighbors(src);
            let k = nbrs.partition_point(|&x| x < dst);
            assert_eq!(nbrs[k], dst);
            let base: usize = (0..src).map(|v| g.degree(v)).sum();
            cells[base + k].fetch_add(1, Ordering::Relaxed);
        });
        cells.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// The tentpole contract: dense pull covers exactly the edge set of
    /// sparse push (each frontier edge once, others never), across
    /// skewed/empty/full frontiers at 1/2/4 threads.
    #[test]
    fn edge_map_dense_equivalent_to_push() {
        let skewed = gen::star(5_000);
        let local = gen::rand_local(600, 6, 4);
        let with_isolated = lgc_graph::Graph::from_edges(50, &[(0, 1), (1, 2), (4, 5)]);
        let full: Vec<u32> = (0..600).collect();
        let cases: Vec<(&lgc_graph::Graph, Vec<u32>)> = vec![
            (&skewed, vec![0]),
            (&skewed, vec![0, 5, 17]),
            (&local, vec![]),
            (&local, (0..600u32).filter(|v| v % 3 == 0).collect()),
            (&local, full),
            (&with_isolated, vec![10, 20, 30]),
            (&with_isolated, vec![1, 10, 45]),
        ];
        for &(g, ref ids) in &cases {
            let subset = VertexSubset::from_sorted(ids.clone());
            let ref_pool = Pool::new(1);
            let want = trace_with(g, |f| edge_map(&ref_pool, g, &subset, f));
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let bits = Bitset::new(g.num_vertices());
                bits.set_sorted(&pool, ids);
                let got = trace_with(g, |f| edge_map_dense(&pool, g, &bits, f));
                assert_eq!(got, want, "|F|={} t={threads}", ids.len());
            }
        }
    }

    /// Pull-mode accumulation is bitwise deterministic across thread
    /// counts (each destination sums in ascending source order on one
    /// thread), unlike push-mode atomic accumulation. The claimed volume
    /// puts the pull on the forking lane.
    #[test]
    fn dense_gather_is_bitwise_deterministic() {
        let g = gen::rmat_graph500(10, 8, 7);
        let n = g.num_vertices();
        let ids: Vec<u32> = (0..n as u32).filter(|v| v % 2 == 0).collect();
        let contrib: Vec<f64> = (0..n).map(|v| 1.0 / (v as f64 + 3.0)).collect();
        let gather = |threads: usize| -> Vec<f64> {
            let pool = Pool::new(threads);
            let mut frontier = VertexSubset::from_sorted(ids.clone());
            let vol = frontier.volume(&g).max(FORK_MIN_WORK);
            let mut out = MassMap::new(n, 0);
            let mut spread = EdgeSpread::new(DirectionParams::pull_only());
            spread
                .stage(&pool, &g, &mut frontier, vol, |v| contrib[v as usize])
                .absorb(Absorb::Sum, &mut out, NO_ADMIT);
            (0..n as u32).map(|v| out.get(v)).collect()
        };
        let t1 = gather(1);
        assert_eq!(t1, gather(2));
        assert_eq!(t1, gather(4));
        // And it matches an independent sequential computation exactly.
        for dst in 0..n as u32 {
            let want: f64 = g
                .neighbors(dst)
                .iter()
                .filter(|&&s| s % 2 == 0)
                .map(|&s| contrib[s as usize])
                .sum();
            assert_eq!(t1[dst as usize], want, "dst={dst}");
        }
    }

    /// Runs one spread of `contrib_of` over `ids` into a fresh store and
    /// returns the direction taken plus the per-destination totals.
    fn spread_totals(
        pool: &Pool,
        g: &lgc_graph::Graph,
        ids: &[u32],
        params: DirectionParams,
        order: Absorb,
        contrib_of: impl Fn(u32) -> f64 + Sync,
    ) -> (Direction, Vec<f64>) {
        let n = g.num_vertices();
        let mut into = MassMap::new(n, 0);
        let mut frontier = VertexSubset::from_sorted(ids.to_vec());
        let vol = frontier.volume(g);
        let mut spread = EdgeSpread::new(params);
        spread
            .stage(pool, g, &mut frontier, vol, contrib_of)
            .absorb(order, &mut into, NO_ADMIT);
        let dir = match spread.take_counts() {
            IterationCounts {
                push: 1, pull: 0, ..
            } => Direction::Push,
            IterationCounts {
                push: 0, pull: 1, ..
            } => Direction::Pull,
            counts => panic!("one iteration staged, not {counts:?}"),
        };
        assert_eq!(frontier.ids(pool), ids, "left as it was staged");
        assert!(spread.is_clear(), "the push's scratch is left clear");
        (dir, (0..n as u32).map(|v| into.get(v)).collect())
    }

    /// Contributions ≡ 1.0 count `|N(dst) ∩ F|` exactly — equal to a push
    /// `edge_map` incrementing per edge — in either direction, under
    /// either absorption order, at any thread count.
    #[test]
    fn unit_contributions_match_push_counting() {
        // The last one is large enough that `stage` and both traversals
        // fork (`k + vol ≥ FORK_MIN_WORK`); the others run solo.
        let graphs = [
            gen::rmat_graph500(9, 8, 3),
            gen::rand_local(500, 5, 2),
            gen::rand_local(10_000, 5, 4),
        ];
        for g in &graphs {
            let n = g.num_vertices();
            let ids: Vec<u32> = (0..n as u32).filter(|v| v % 3 == 1).collect();
            let subset = VertexSubset::from_sorted(ids.clone());
            let want: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            edge_map(&Pool::new(1), g, &subset, |_, dst| {
                want[dst as usize].fetch_add(1, Ordering::Relaxed);
            });
            let want: Vec<f64> = want.into_iter().map(|c| c.into_inner() as f64).collect();
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                for params in [DirectionParams::push_only(), DirectionParams::pull_only()] {
                    for order in [Absorb::PerEdge, Absorb::Sum] {
                        let (_, got) = spread_totals(&pool, g, &ids, params, order, |_| 1.0);
                        assert_eq!(got, want, "{params:?} {order:?} t={threads}");
                    }
                }
            }
        }
    }

    /// The direction taken flips exactly at the threshold, and what the
    /// destinations absorb does not depend on it.
    #[test]
    fn spread_switches_at_threshold() {
        let g = gen::rand_local(3000, 5, 2);
        let pool = Pool::new(2);
        // `Auto` pulls iff len + vol > m: the longest prefix of the ids
        // that still pushes, and one vertex more.
        let mut work = 0;
        let k = (0..g.num_vertices())
            .position(|v| {
                work += 1 + g.degree(v as u32);
                work > g.num_edges()
            })
            .expect("the whole graph is past m");
        let weight = |v: u32| f64::from(v % 5 + 1);
        let auto = DirectionParams::default();
        for (len, want, other) in [
            (k, Direction::Push, DirectionParams::pull_only()),
            (k + 1, Direction::Pull, DirectionParams::push_only()),
        ] {
            let ids: Vec<u32> = (0..len as u32).collect();
            let (dir, totals) = spread_totals(&pool, &g, &ids, auto, Absorb::Sum, weight);
            let (_, pinned) = spread_totals(&pool, &g, &ids, other, Absorb::Sum, weight);
            assert_eq!(dir, want, "|F| = {len}");
            assert_eq!(totals, pinned, "integer-valued totals are exact");
            assert_eq!(totals.iter().sum::<f64>(), {
                let per_source = |&v: &u32| weight(v) * g.degree(v) as f64;
                ids.iter().map(per_source).sum::<f64>()
            });
        }
        // An empty frontier spreads nothing.
        let (_, none) = spread_totals(&pool, &g, &[], auto, Absorb::Sum, |_| {
            panic!("no frontier vertex")
        });
        assert!(none.iter().all(|&x| x == 0.0));
    }

    /// `PerEdge` and `Sum` differ in bracketing only — equal on
    /// integer-valued contributions, where no rounding happens — and
    /// `contrib_of` runs exactly once per frontier vertex whichever way
    /// the traversal goes.
    #[test]
    fn absorption_orders_agree_on_integers_and_stage_calls_once() {
        let g = gen::rmat_graph500(9, 8, 5);
        let n = g.num_vertices();
        let ids: Vec<u32> = (0..n as u32).filter(|v| v % 4 != 2).collect();
        for threads in [1, 3] {
            let pool = Pool::new(threads);
            let mut all = Vec::new();
            for params in [DirectionParams::push_only(), DirectionParams::pull_only()] {
                for order in [Absorb::PerEdge, Absorb::Sum] {
                    let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    let (_, totals) = spread_totals(&pool, &g, &ids, params, order, |v| {
                        calls[v as usize].fetch_add(1, Ordering::Relaxed);
                        f64::from(v + 1)
                    });
                    for (v, c) in calls.iter().enumerate() {
                        let want = usize::from(ids.binary_search(&(v as u32)).is_ok());
                        assert_eq!(c.load(Ordering::Relaxed), want, "v={v} {params:?}");
                    }
                    all.push(totals);
                }
            }
            assert!(all.windows(2).all(|w| w[0] == w[1]), "t={threads}");
        }
    }

    #[test]
    fn frontier_conversions_and_recycling() {
        let pool = Pool::new(2);
        let n = 4000;
        let a: Vec<u32> = (0..n as u32).step_by(3).collect();
        let mut f = VertexSubset::from_sorted(a.clone());
        assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), a);
        // Advance must clear the recycled buffer before revalidating.
        let b: Vec<u32> = (1..n as u32).step_by(5).collect();
        f.advance(&pool, b.clone());
        assert_eq!(f.ids(&pool), &b[..]);
        assert_eq!(f.len(), b.len());
        assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), b);
        f.recycle(&pool);
        assert!(f.is_empty() && f.buffers_are_clear());
    }

    #[test]
    fn frontier_recycle_behaves_like_fresh() {
        let pool = Pool::new(2);
        let n = 2000;
        let a: Vec<u32> = (0..n as u32).step_by(3).collect();
        let mut f = VertexSubset::from_sorted(a.clone());
        assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), a);
        f.recycle(&pool);
        assert!(f.is_empty());
        assert!(f.bits(&pool, n).to_sorted_ids(&pool).is_empty());
        // Reuse after recycling, including across a universe change.
        let b = vec![1u32, 77, 1999];
        f.advance(&pool, b.clone());
        assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), b);
        f.recycle(&pool);
        f.advance(&pool, vec![5, 9]);
        assert_eq!(f.bits(&pool, 50).to_sorted_ids(&pool), vec![5, 9]);
    }

    #[test]
    fn frontier_bits_revalidates_on_universe_change() {
        // A validated bitset for one universe must not be mistaken for a
        // validated bitset of a different universe.
        let pool = Pool::new(2);
        let ids = vec![1u32, 5, 9];
        let mut f = VertexSubset::from_sorted(ids.clone());
        assert_eq!(f.bits(&pool, 100).to_sorted_ids(&pool), ids);
        assert_eq!(f.bits(&pool, 50).to_sorted_ids(&pool), ids, "shrunk");
        assert_eq!(f.bits(&pool, 200).to_sorted_ids(&pool), ids, "grown");
    }

    #[test]
    fn push_edges_long_low_degree_frontier() {
        // Many vertices of tiny degree: a frontier the fork policy keeps on
        // the calling thread, and one it forks, whose flattened edge space
        // is all chunk boundaries.
        let g = gen::cycle(60_000);
        for k in [1_500u32, 15_000] {
            let frontier = VertexSubset::from_sorted((0..k).map(|v| v * 4).collect());
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let count = AtomicUsize::new(0);
                push_indexed(&pool, &g, &frontier, |i, src, _dst| {
                    assert_eq!(frontier.ids[i], src);
                    count.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    k as usize * 2,
                    "k={k} t={threads}"
                );
                let forked = pool.stats().loops_forked > 0;
                assert_eq!(
                    forked,
                    threads > 1 && 3 * k as usize >= FORK_MIN_WORK,
                    "k={k} t={threads}"
                );
            }
        }
    }

    /// What [`lane`] hands back — 0 the workerless pool, 1 `pool` itself —
    /// for work on both sides of the threshold and at it, however
    /// `len + vol` is split.
    fn lanes(pool: &Pool) -> Vec<u8> {
        let x = FORK_MIN_WORK;
        [
            (0, 0),
            (x - 1, 0),
            (0, x - 1),
            (1, x - 2),
            (x, 0),
            (0, x),
            (1, x - 1),
            (7, 9 * x),
        ]
        .iter()
        .map(|&(len, vol)| {
            let lane = lane(pool, len, vol);
            match (std::ptr::eq(lane, Pool::solo()), std::ptr::eq(lane, pool)) {
                (true, false) => 0,
                (false, true) => 1,
                _ => 2,
            }
        })
        .collect()
    }

    /// The fork policy reads two counts and a constant: the workerless pool
    /// strictly below `FORK_MIN_WORK`, the caller's pool at it — on a pool
    /// of any width, whether or not another thread is inside a query on it.
    #[test]
    fn lane_depends_on_the_work_alone() {
        let want = [0, 0, 0, 0, 1, 1, 1, 1];
        for width in [1, 4] {
            let pool = Pool::new(width);
            assert_eq!(lanes(&pool), want, "width {width}");
            let (entered, leave) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
            // Asserted on after `leave`: a panic before it would strand the
            // other thread at the barrier.
            let beside = std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _other = pool.enter();
                    entered.wait();
                    leave.wait();
                });
                entered.wait();
                let beside = lanes(&pool);
                leave.wait();
                beside
            });
            assert_eq!(beside, want, "width {width}, beside a second caller");
        }
    }

    /// `EdgeSpread` tallies what it staged by direction, and how much of it
    /// the fork policy kept off the workers; draining resets the tallies.
    #[test]
    fn spread_counts_iterations_by_direction_and_lane() {
        let g = gen::rand_local(500, 5, 2);
        let pool = Pool::new(2);
        // A dense store: the frontiers the pushes leave are not the one
        // whose volume is claimed.
        let mut into = MassMap::with_dense_fraction(g.num_vertices(), 0, 0.0);
        let mut spread = EdgeSpread::new(DirectionParams::push_only());
        let mut frontier = VertexSubset::from_sorted(vec![1, 2, 3]);
        let vol = frontier.volume(&g);
        for vol in [vol, vol, FORK_MIN_WORK] {
            into.reset(&pool, 0);
            spread.stage(&pool, &g, &mut frontier, vol, |_| 1.0).absorb(
                Absorb::Sum,
                &mut into,
                Some(|_, _| true),
            );
        }
        let pushed = IterationCounts {
            push: 3,
            pull: 0,
            solo: 2,
            dense_out: 0,
        };
        assert_eq!(spread.take_counts(), pushed, "a push emits no frontier");
        assert_eq!(spread.take_counts(), IterationCounts::default());
        // Of three pulls, the two that were handed a `keep` emit.
        let mut pulling = EdgeSpread::new(DirectionParams::pull_only());
        for keeping in [true, false, true] {
            into.reset(&pool, 0);
            let staged = pulling.stage(&pool, &g, &mut frontier, vol, |_| 1.0);
            match keeping {
                true => staged.absorb(Absorb::Sum, &mut into, Some(|_, _| true)),
                false => staged.absorb(Absorb::Sum, &mut into, NO_ADMIT),
            }
        }
        let pulled = IterationCounts {
            push: 0,
            pull: 3,
            solo: 3,
            dense_out: 2,
        };
        assert_eq!(pulling.take_counts(), pulled);
    }

    /// The push's scratch is built by the first push, one cell and one bit
    /// per vertex, and charged to `resident_bytes`; every push leaves it
    /// clear — summing or per edge, with or without `keep`, on the lane
    /// that forks and the one that does not — and a later push over the
    /// same universe reuses it. A pull builds none.
    #[test]
    fn the_push_scratch_is_charged_once_and_left_clear() {
        let g = gen::rand_local(20_000, 5, 6);
        let n = g.num_vertices();
        let mut pulling = EdgeSpread::new(DirectionParams::pull_only());
        let mut frontier = VertexSubset::from_sorted(vec![3, 7, 11]);
        let vol = frontier.volume(&g);
        pulling
            .stage(&Pool::new(1), &g, &mut frontier, vol, |_| 1.0)
            .absorb(Absorb::Sum, &mut MassMap::new(n, 0), NO_ADMIT);
        assert_eq!(pulling.resident_bytes(), n * 8, "the pull's slots only");

        let mut spread = EdgeSpread::new(DirectionParams::push_only());
        let scratch = n * 8 + n.div_ceil(512) * 64;
        let keep = |v: u32, _: f64| !v.is_multiple_of(3);
        for threads in [1, 2] {
            let pool = Pool::new(threads);
            for claim in [0, FORK_MIN_WORK] {
                for order in [Absorb::Sum, Absorb::PerEdge] {
                    for keeping in [false, true] {
                        let ids: Vec<u32> = (0..n as u32).step_by(50).collect();
                        let mut frontier = VertexSubset::from_sorted(ids);
                        let vol = frontier.volume(&g).max(claim);
                        let mut into = MassMap::new(n, 0);
                        let staged = spread.stage(&pool, &g, &mut frontier, vol, f64::from);
                        match keeping {
                            true => staged.absorb(order, &mut into, Some(keep)),
                            false => staged.absorb(order, &mut into, NO_ADMIT),
                        }
                        let ctx = format!("t={threads} claim={claim} {order:?} keep={keeping}");
                        assert!(spread.is_clear(), "{ctx}");
                        let slots = spread.slots.capacity() * 8;
                        assert_eq!(spread.resident_bytes(), slots + scratch, "{ctx}");
                        assert!(!into.is_empty(), "{ctx}: the push delivered");
                    }
                }
            }
        }
        let pushes = spread.take_counts();
        assert_eq!(
            (pushes.push, pushes.solo),
            (16, 8),
            "half the pushes forked"
        );
    }

    /// A push whose volume is small against the universe (`64·vol < n`)
    /// lists its receivers on first touch and sorts them instead of reading
    /// the bitset's words back — on the lane that forks, too. A long
    /// frontier of mostly isolated vertices puts `k + vol` past
    /// `FORK_MIN_WORK`: at two threads it delivers the one-thread totals,
    /// leaves the same frontier and the scratch clear, in both orders.
    #[test]
    fn a_forked_push_of_small_volume_lists_its_receivers() {
        let n = 40_000;
        let path: Vec<(u32, u32)> = (0..299u32).map(|v| (v, v + 1)).collect();
        let g = lgc_graph::Graph::from_edges(n, &path);
        let ids: Vec<u32> = (0..n as u32).filter(|v| v % 10 != 9).collect();
        let keep = |v: u32, m: f64| m >= 4.0 || v.is_multiple_of(7);
        let run = |threads: usize, order: Absorb| {
            let pool = Pool::new(threads);
            let mut spread = EdgeSpread::new(DirectionParams::push_only());
            let mut frontier = VertexSubset::from_sorted(ids.clone());
            let vol = frontier.volume(&g);
            assert!(64 * vol < n && ids.len() + vol >= FORK_MIN_WORK);
            let mut into = MassMap::new(n, 0);
            spread
                .stage(&pool, &g, &mut frontier, vol, |v| f64::from(v % 3 + 1))
                .absorb(order, &mut into, Some(keep));
            assert!(spread.is_clear(), "t={threads} {order:?}");
            let totals: Vec<f64> = (0..n as u32).map(|v| into.get(v)).collect();
            let forked = pool.stats().loops_forked > 0;
            (totals, frontier.ids(&pool).to_vec(), forked)
        };
        for order in [Absorb::Sum, Absorb::PerEdge] {
            let (want, next, _) = run(1, order);
            assert!(!next.is_empty() && next.len() < 300, "{order:?}");
            let (got, got_next, forked) = run(2, order);
            assert!(forked, "{order:?}: the lane forks");
            assert_eq!((got, got_next), (want, next), "{order:?}");
        }
    }

    /// A random graph over `n` vertices with about `n · avg / 2` edges —
    /// sparse ones leave vertices isolated — and the members `v` of a
    /// frontier picked by `(7v + salt) mod every = 0`.
    fn sparse_graph_and_members(
        n: usize,
        avg: usize,
        salt: u64,
        every: u64,
    ) -> (lgc_graph::Graph, Vec<u32>) {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as u32
        };
        let edges: Vec<(u32, u32)> = (0..n * avg / 2).map(|_| (next(), next())).collect();
        let members = (0..n as u32)
            .filter(|&v| (7 * u64::from(v) + salt).is_multiple_of(every))
            .collect();
        (lgc_graph::Graph::from_edges(n, &edges), members)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A filtering pull, against a plain recount. `keep` is asked
        /// exactly once of every destination that received something, and
        /// of every outgoing member that wrote its own cell of the store
        /// (all of them, unless `receivers_only`), with the value the store
        /// ends up holding — and of nobody else (no untouched vertex, so no
        /// isolated one). The emitted frontier is the asked destinations it
        /// said yes to; its `len` and `volume` are a recount of the emitted
        /// bitset; the id list it packs on demand is that bitset's. A
        /// second pull, staged off the emitted words, calls `contrib_of`
        /// once per member and delivers what a listed frontier of the same
        /// members delivers. Half the cases claim a volume that puts the
        /// loops on the forking lane; half run the store dense.
        #[test]
        fn an_admitting_pull_emits_the_admitted_with_exact_tallies(
            n in 2usize..1500,
            avg in 0usize..7,
            salt in 0u64..1000,
            every in 1u64..9,
            threads in 1usize..=4,
            per_edge in any::<bool>(),
            receivers_only in any::<bool>(),
            fork in any::<bool>(),
            dense in any::<bool>(),
        ) {
            let (g, members) = sparse_graph_and_members(n, avg, salt, every);
            let order = if per_edge { Absorb::PerEdge } else { Absorb::Sum };
            let says_yes = |dst: u32| (5 * u64::from(dst) + salt) % 3 != 0;
            // The recount: who is asked, who is kept, what arrives. A
            // member's own write is 0.5; contributions are `src + 1`, so
            // every total is exact in any bracketing.
            let is_member = |v: u32| members.binary_search(&v).is_ok();
            let received = |dst: u32| g.neighbors(dst).iter().any(|&s| is_member(s));
            let asked_want: Vec<u64> = (0..n as u32)
                .map(|v| u64::from(received(v) || (is_member(v) && !receivers_only)))
                .collect();
            let admitted: Vec<u32> = (0..n as u32)
                .filter(|&v| asked_want[v as usize] != 0 && says_yes(v))
                .collect();
            let totals_from = |set: &[u32], own: f64| {
                let mut totals = vec![0.0f64; n];
                for &src in set {
                    totals[src as usize] += own;
                    for &dst in g.neighbors(src) {
                        totals[dst as usize] += f64::from(src + 1);
                    }
                }
                totals
            };

            let pool = Pool::new(threads);
            let claim = |vol: usize| if fork { vol.max(FORK_MIN_WORK) } else { vol };
            let frac = if dense { 0.0 } else { f64::INFINITY };
            let store = |bound| MassMap::with_dense_fraction(n, bound, frac);
            let read = |m: &MassMap| (0..n as u32).map(|v| m.get(v)).collect::<Vec<_>>();
            let mut spread = EdgeSpread::new(DirectionParams::pull_only());
            let mut frontier = VertexSubset::from_sorted(members.clone());
            let cells = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();

            let (mut first, asked, seen) = (store(members.len()), cells(n), cells(n));
            let vol = claim(frontier.volume(&g));
            let own = if receivers_only { 0.0 } else { 0.5 };
            let staged = spread.stage(&pool, &g, &mut frontier, vol, |v| {
                if !receivers_only {
                    first.add_exclusive(v, own);
                }
                f64::from(v + 1)
            });
            staged.absorb(
                order,
                &mut first,
                Some(|dst: u32, m: f64| {
                    asked[dst as usize].fetch_add(1, Ordering::Relaxed);
                    seen[dst as usize].store(m.to_bits(), Ordering::Relaxed);
                    says_yes(dst)
                }),
            );
            prop_assert_eq!(read(&first), totals_from(&members, own));
            let asked: Vec<u64> = asked.into_iter().map(AtomicU64::into_inner).collect();
            prop_assert_eq!(&asked, &asked_want);
            for v in (0..n as u32).filter(|&v| asked[v as usize] != 0) {
                prop_assert_eq!(seen[v as usize].load(Ordering::Relaxed), first.get(v).to_bits());
            }
            prop_assert_eq!(frontier.len(), admitted.len());
            prop_assert_eq!(
                frontier.volume(&g),
                admitted.iter().map(|&v| g.degree(v)).sum::<usize>()
            );
            prop_assert_eq!(frontier.bits(&pool, n).to_sorted_ids(&pool), admitted.clone());

            let (mut second, calls) = (store(0), cells(n));
            let vol = claim(frontier.volume(&g));
            spread
                .stage(&pool, &g, &mut frontier, vol, |v| {
                    calls[v as usize].fetch_add(1, Ordering::Relaxed);
                    f64::from(v + 1)
                })
                .absorb(order, &mut second, NO_ADMIT);
            prop_assert_eq!(read(&second), totals_from(&admitted, 0.0));
            let calls: Vec<u64> = calls.into_iter().map(AtomicU64::into_inner).collect();
            let once: Vec<u64> = (0..n as u32)
                .map(|v| u64::from(admitted.binary_search(&v).is_ok()))
                .collect();
            prop_assert_eq!(calls, once);
            prop_assert_eq!(frontier.ids(&pool), &admitted[..]);
            prop_assert_eq!(
                spread.take_counts(),
                IterationCounts { push: 0, pull: 2, solo: if fork { 0 } else { 2 }, dense_out: 1 }
            );
            frontier.recycle(&pool);
            prop_assert!(frontier.is_empty() && frontier.buffers_are_clear());
        }

        /// A subset that is both packed and tallied: random sorted members
        /// go through a filtering pull, which leaves the subset
        /// dense-native, and `ids(pool)` then packs its list. The pull's
        /// volume tally is the degree walk over the packed list, `edge_map`
        /// over the subset visits each of its edges exactly once, and after
        /// `advance` and `recycle` every buffer is clear.
        #[test]
        fn a_packed_dense_native_subset_keeps_its_tallies_and_pushes_its_edges(
            n in 2usize..800,
            avg in 0usize..7,
            salt in 0u64..1000,
            every in 1u64..9,
            threads in 1usize..=4,
            fork in any::<bool>(),
        ) {
            let (g, members) = sparse_graph_and_members(n, avg, salt, every);
            let pool = Pool::new(threads);
            let mut subset = VertexSubset::from_sorted(members.clone());
            let vol = subset.volume(&g);
            let vol = if fork { vol.max(FORK_MIN_WORK) } else { vol };
            let keep = |dst: u32, _| !(u64::from(dst) + salt).is_multiple_of(3);
            let mut spread = EdgeSpread::new(DirectionParams::pull_only());
            spread
                .stage(&pool, &g, &mut subset, vol, |_| 1.0)
                .absorb(Absorb::Sum, &mut MassMap::new(n, 0), Some(keep));
            prop_assert_eq!(spread.take_counts().dense_out, 1);
            let packed = subset.ids(&pool).to_vec();
            prop_assert_eq!(subset.len(), packed.len());
            let walk: usize = packed.iter().map(|&v| g.degree(v)).sum();
            prop_assert_eq!(subset.volume(&g), walk);

            // Each adjacency entry by its CSR position: hit once if its
            // source is packed, never otherwise.
            let mut offsets = vec![0usize; n + 1];
            for v in 0..n {
                offsets[v + 1] = offsets[v] + g.degree(v as u32);
            }
            let hits: Vec<AtomicUsize> = (0..offsets[n]).map(|_| AtomicUsize::new(0)).collect();
            edge_map(&pool, &g, &subset, |src, dst| {
                let k = g.neighbors(src).partition_point(|&x| x < dst);
                hits[offsets[src as usize] + k].fetch_add(1, Ordering::Relaxed);
            });
            for v in 0..n as u32 {
                let want = usize::from(packed.binary_search(&v).is_ok());
                let got = &hits[offsets[v as usize]..offsets[v as usize + 1]];
                prop_assert!(got.iter().all(|h| h.load(Ordering::Relaxed) == want), "v={}", v);
            }

            subset.advance(&pool, members);
            subset.recycle(&pool);
            prop_assert!(subset.is_empty() && subset.buffers_are_clear());
        }
    }

    /// A frontier handed from pull to pull to push: each pull emits the
    /// next one dense-native, the push that follows packs the id list it
    /// needs from the bitset, and the chain delivers, step for step, what
    /// the same chain of listed frontiers delivers.
    #[test]
    fn a_dense_native_frontier_feeds_a_pull_then_a_push() {
        let g = gen::rand_local(3000, 5, 8);
        let n = g.num_vertices();
        let keep = |step: u32| move |dst: u32, _: f64| !(dst + step).is_multiple_of(4);
        let totals = |pool: &Pool, dirs: [DirectionParams; 3]| {
            let mut frontier =
                VertexSubset::from_sorted((0..n as u32).filter(|v| v % 3 == 0).collect());
            let mut out = Vec::new();
            for (step, dir) in dirs.into_iter().enumerate() {
                let mut into = MassMap::new(n, 0);
                let mut spread = EdgeSpread::new(dir);
                let vol = frontier.volume(&g);
                spread
                    .stage(pool, &g, &mut frontier, vol, |v| f64::from(v % 7 + 1))
                    .absorb(Absorb::Sum, &mut into, Some(keep(step as u32)));
                let ids = frontier.ids(pool).to_vec();
                assert_eq!(ids, frontier.bits(pool, n).to_sorted_ids(pool));
                assert_eq!((frontier.len(), frontier.volume(&g)), {
                    (ids.len(), VertexSubset::from_sorted(ids.clone()).volume(&g))
                });
                let sums: Vec<u64> = (0..n as u32).map(|v| into.get(v).to_bits()).collect();
                out.push((sums, ids));
            }
            out
        };
        let (push, pull) = (DirectionParams::push_only(), DirectionParams::pull_only());
        let want = totals(&Pool::new(1), [push, push, push]);
        assert!(want.iter().all(|(_, ids)| ids.len() > 100), "a live chain");
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            assert_eq!(totals(&pool, [pull, pull, push]), want, "t={threads}");
            assert_eq!(totals(&pool, [push, pull, pull]), want, "t={threads}");
        }
    }
}
