//! Dense/sparse mass storage for the parallel diffusions.
//!
//! The paper keeps its mass vectors in concurrent hash tables, so that an
//! iteration's work stays `O(|F| + vol(F))`: every touched-vertex operation
//! is a hash probe. Local-clustering software more often keeps dense arrays
//! plus a record of which entries were touched, and pays for the `O(n)`
//! arrays once per workspace rather than per query. [`MassMap`] offers
//! both behind one interface, with the exact-accumulation and
//! phase-concurrency guarantees of [`ConcurrentSparseVec`], and by default
//! runs dense from its first key.
//!
//! # Representation
//!
//! * **Sparse mode** wraps [`ConcurrentSparseVec`] unchanged; keys
//!   enumerate in hash-slot order.
//! * **Dense mode** ([`DenseMassVec`]) stores `n` [`AtomicF64`] cells, the
//!   *touched set* as a [`Bitset`], and a summary bitset with one bit per
//!   word of the touched set — nothing else. A first touch sets one bit in
//!   the word its key indexes, and the touch that finds that word empty
//!   sets the word's summary bit, so no two writers ever meet on a location
//!   that is not already theirs to share through the keys themselves: there
//!   is no counter and no list tail. The sequential points (`entries*`,
//!   `l1_norm`, `len`) enumerate the set through the summary in
//!   `O(n/4096 + touched words + support)`, and `reset` cleans it the same
//!   way — the touched words' cells, then the words, then the summary.
//!   Keys therefore come back **ascending**, which is what lets callers sum
//!   masses without a sort. Accumulation is the same
//!   [`AtomicF64::fetch_add`] as the sparse table's, so concurrent `add`s
//!   to one key never lose mass. `lgc-ligra`'s push sums destinations in a
//!   [`DenseMassVec`] of its own, by the same first-touch rule, and walks
//!   the words its summary lists.
//!
//! # Switch heuristic
//!
//! Mode is chosen at the sequential points ([`MassMap::reset`] /
//! [`MassMap::reserve_more`]) from the caller-supplied key bound `b`
//! (the diffusions use the per-iteration bound `|frontier| +
//! vol(frontier)`, cf. Theorem 3): dense iff `b ≥ frac · n`, with
//! `frac` = [`MassMap::DEFAULT_DENSE_FRACTION`] `= 0` (always dense)
//! unless overridden via [`MassMap::with_dense_fraction`] (`frac > 1`
//! never upgrades). The first dense checkout pays one `O(n)` allocation +
//! zeroing; after that the buffers are cached in the map (even across
//! downgrades) and in the workspace that holds it, and cleaning costs
//! `O(n/4096 + touched words + support)`. Under a fraction `> 0` a
//! sparse map upgrades once its bound crosses `frac · n`, migrating its
//! entries. `lgc-core` asks for `1/8` where the `n` cells are not worth
//! their bytes: in an engine whose workspace budget cannot hold dense
//! stores for each of its threads, and for a sweep's rank table over a
//! workspace that holds no `n` cells yet.
//!
//! # Phase-concurrency contract
//!
//! Identical to the sparse table (see the crate docs): any number of
//! concurrent writers (`add`/`set`), *or* any number of concurrent
//! readers (`get`/`contains`), per parallel phase; `len`, `entries*`,
//! `l1_norm`, `reset`, and `reserve_more` are read-phase or
//! sequential-point operations. Keys must be `< n` (the universe size
//! given at construction) in both modes.
//!
//! One refinement the edge maps rely on: inside a write phase a thread may
//! `get` (or `contains`) a key that only *it* writes in that phase (a pull
//! gather or a push delivery reads a destination's cell back right after
//! its [`MassMap::add_exclusive`], to decide the next frontier). Cells are
//! atomics, keys never move or leave during a write phase, and a probe for
//! an absent key still ends at an empty slot or walks past the keys other
//! threads are claiming — so the read sees the thread's own last write, or
//! `0.0` for a key nobody wrote.

use crate::conc::ConcurrentSparseVec;
use lgc_parallel::{map_index, merge_sort_by, ones, sum_f64_by_index, AtomicF64, Bitset, Pool};

/// `n` mass cells plus first-touch bits over the universe `0..n` — the one
/// dense store: [`MassMap`]'s dense backend and `lgc-ligra`'s push sums.
/// Writers [`mark`](DenseMassVec::mark) the keys they write; between uses
/// it is clean ([`DenseMassVec::is_clear`]), by a dense [`MassMap`]'s reset or
/// by an owner of whole words zeroing their cells, then the words, then
/// [`forgetting`](DenseMassVec::forget_words) which words it touched.
///
/// A second bitset, one bit per word of the first, records the words that
/// hold a key, so every sequential point — [`DenseMassVec::touched_words`]
/// and through it the keys, their count and the clean — walks
/// `n/4096` summary words and the touched words, not all `n/64`.
pub struct DenseMassVec {
    /// Mass per key (`⊥ = 0.0`).
    cells: Box<[AtomicF64]>,
    /// The keys present. Write phases only ever add members.
    touched: Bitset,
    /// The words of `touched` that hold a key: bit `w` is set by the mark
    /// that finds word `w` empty.
    summary: Bitset,
}

impl DenseMassVec {
    /// A clean store over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        DenseMassVec {
            cells: (0..n).map(|_| AtomicF64::default()).collect(),
            touched: Bitset::new(n),
            summary: Bitset::new(n.div_ceil(64)),
        }
    }

    /// The universe size `n` fixed at construction.
    pub fn universe(&self) -> usize {
        self.cells.len()
    }

    /// Resident bytes of the cells and both bitsets.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.cells)
            + self.touched.resident_bytes()
            + self.summary.resident_bytes()
    }

    /// The cell of `key`.
    #[inline]
    pub fn cell(&self, key: u32) -> &AtomicF64 {
        &self.cells[key as usize]
    }

    /// The keys marked since the last clean.
    pub fn touched(&self) -> &Bitset {
        &self.touched
    }

    /// Records `key` as present (write phase) and says whether it was
    /// absent. The load skips the RMW on the hot already-touched path; a
    /// first touch is one `fetch_or` on the word `key` indexes, and the one
    /// that finds that word empty ([`Bitset::insert`] says which) sets the
    /// word's summary bit.
    #[inline]
    pub fn mark(&self, key: u32) -> bool {
        if self.touched.contains(key) {
            return false;
        }
        let (first, word_was_empty) = self.touched.insert(key);
        if word_was_empty {
            self.summary.insert(key >> 6);
        }
        first
    }

    /// The words holding a key, ascending — `O(n/4096 + words)` (read phase).
    pub fn touched_words(&self, pool: &Pool) -> Vec<u32> {
        self.summary.to_sorted_ids(pool)
    }

    /// Forgets which words were touched, once their owners have zeroed
    /// every touched word's cells and then the word (`lgc-ligra`'s walk) —
    /// `n/4096` stores (sequential point).
    pub fn forget_words(&self) {
        self.summary.clear_all();
    }

    /// Zeroes the touched cells and empties the set, by words —
    /// `O(n/4096 + support)` (sequential point): each touched word's cells,
    /// then the word, then its summary word, one summary word (4 096 keys)
    /// per chunk. That is the one loop a store wipe offers the pool, which
    /// `tests/dense_frontier.rs` counts exactly.
    fn clear(&mut self, pool: &Pool) {
        let (cells, touched, summary) = (&self.cells, &self.touched, &self.summary);
        pool.run(summary.num_words(), 1, |s, e| {
            for sw in s..e {
                for w in ones(sw, summary.word(sw)) {
                    let w = w as usize;
                    ones(w, touched.word(w)).for_each(|v| cells[v as usize].store(0.0));
                    touched.store_word(w, 0);
                }
                summary.store_word(sw, 0);
            }
        });
    }

    /// Whether every cell is `0.0` and every bit of both bitsets clear.
    /// `O(n)`: for assertions.
    pub fn is_clear(&self) -> bool {
        let zero = 0f64.to_bits();
        self.touched.count_seq() == 0
            && self.summary.count_seq() == 0
            && self.cells.iter().all(|c| c.load().to_bits() == zero)
    }

    #[inline]
    fn add(&self, key: u32, delta: f64) {
        self.cell(key).fetch_add(delta);
        self.mark(key);
    }

    /// Single-writer-per-key accumulate: plain load/add/store, no CAS.
    /// Returns the new value.
    #[inline]
    fn add_exclusive(&self, key: u32, delta: f64) -> f64 {
        let cell = self.cell(key);
        let sum = cell.load() + delta;
        cell.store(sum);
        self.mark(key);
        sum
    }

    #[inline]
    fn set(&self, key: u32, value: f64) {
        self.cell(key).store(value);
        self.mark(key);
    }

    #[inline]
    fn get(&self, key: u32) -> f64 {
        self.cell(key).load()
    }

    /// The number of keys present — `O(n/4096 + words)` (read phase).
    fn len(&self) -> usize {
        let words = (0..self.summary.num_words()).flat_map(|sw| ones(sw, self.summary.word(sw)));
        words
            .map(|w| self.touched.word(w as usize).count_ones() as usize)
            .sum()
    }

    /// The keys present, ascending — `O(n/4096 + words + support)` (read
    /// phase).
    fn keys(&self, pool: &Pool) -> Vec<u32> {
        self.touched
            .to_sorted_ids_in(pool, &self.touched_words(pool))
    }
}

/// Which backend a [`MassMap`] is currently running on.
enum MassStore {
    Sparse(ConcurrentSparseVec),
    Dense(DenseMassVec),
}

/// Whether a map over `0..n` at dense fraction `frac` runs dense for
/// `bound` keys (clamped to `n`, see [`MassMap::reset`]).
fn wants_dense(n: usize, frac: f64, bound: usize) -> bool {
    n > 0 && (bound.min(n) as f64) >= frac * n as f64
}

/// A clean dense store over `0..n`: `spare` if it has that universe.
fn take_dense(n: usize, spare: &mut Option<DenseMassVec>) -> DenseMassVec {
    let dense = spare.take().filter(|d| d.universe() == n);
    debug_assert!(dense.as_ref().is_none_or(DenseMassVec::is_clear));
    dense.unwrap_or_else(|| DenseMassVec::new(n))
}

impl MassStore {
    /// An empty store fit for `bound` keys over `0..n` at dense fraction
    /// `frac`, exactly as a fresh map gets; a dense one is `spare` if that
    /// fits. Builds only the store it returns.
    fn empty(n: usize, frac: f64, bound: usize, spare: &mut Option<DenseMassVec>) -> Self {
        match wants_dense(n, frac, bound) {
            true => MassStore::Dense(take_dense(n, spare)),
            false => MassStore::Sparse(ConcurrentSparseVec::with_capacity(bound.min(n))),
        }
    }
}

/// A concurrent map from vertex id (`< n`) to `f64` mass on a
/// direct-indexed dense backend — from the first key by default — or, under
/// an explicit fraction `> 0`, on a hash table that upgrades itself to the
/// dense backend when the expected support crosses that fraction of `n`.
///
/// Drop-in for the subset of [`ConcurrentSparseVec`] the diffusions use;
/// see the module docs for the switch heuristic and the concurrency
/// contract.
pub struct MassMap {
    n: usize,
    dense_frac: f64,
    store: MassStore,
    /// Dense buffers are expensive to allocate (`O(n)`); once built they
    /// are kept for the map's lifetime even while running sparse.
    spare_dense: Option<DenseMassVec>,
}

impl MassMap {
    /// Default support-fraction threshold for upgrading to dense mode:
    /// `0`, dense from the first key.
    ///
    /// Every workspace that pushes already holds an `n`-cell
    /// [`DenseMassVec`] as its push scratch, so keeping a query's stores
    /// in hash tables saves a few more `n`-cell arrays and costs a probe
    /// chain per touched vertex, a rehash per growth and a hash-order
    /// enumeration. On the benchmark's point-query workload (500 queries
    /// of 0.4–6 ms on a 64³ torus, `n` = 262 144, 2-vCPU host, 10
    /// alternating pairs of 30-s runs), moving from the old threshold
    /// `n/8` to `0` together with the touched-word summary took the
    /// median query from 0.887 to 0.619 ms and peak RSS from 47.4 to
    /// 51.7 MiB; per `prn_b` query, the stores' growth (`reserve_more`)
    /// fell from 174 to 5 µs and the tail that sums and packs them from
    /// 167 to 30 µs. The hash backend stays reachable through an explicit
    /// fraction `> 0` (`f64::INFINITY` pins it).
    pub const DEFAULT_DENSE_FRACTION: f64 = 0.0;

    /// A map over vertex universe `0..n` expecting up to `bound` keys.
    pub fn new(n: usize, bound: usize) -> Self {
        Self::with_dense_fraction(n, bound, Self::DEFAULT_DENSE_FRACTION)
    }

    /// As [`MassMap::new`] with an explicit dense-switch fraction:
    /// dense mode engages whenever `bound ≥ frac · n`. `frac = 0.0`
    /// forces dense from the start; `frac > 1.0` (e.g. `f64::INFINITY`)
    /// pins the map to sparse mode.
    pub fn with_dense_fraction(n: usize, bound: usize, frac: f64) -> Self {
        assert!(frac >= 0.0 && !frac.is_nan(), "fraction must be ≥ 0");
        MassMap {
            n,
            dense_frac: frac,
            store: MassStore::empty(n, frac, bound, &mut None),
            spare_dense: None,
        }
    }

    /// Clamps a caller bound to the universe: at most `n` distinct keys
    /// can ever exist, so a bound above `n` carries no extra information
    /// (and clamping makes `frac > 1.0` genuinely pin sparse mode).
    fn clamp_bound(&self, bound: usize) -> usize {
        bound.min(self.n)
    }

    /// Whether the map currently runs on the dense backend.
    pub fn is_dense(&self) -> bool {
        matches!(self.store, MassStore::Dense(_))
    }

    /// Whether the map holds `n` dense cells, in service or stashed — so
    /// that recycling it dense allocates nothing.
    pub fn holds_dense(&self) -> bool {
        self.is_dense() || self.spare_dense.is_some()
    }

    /// The vertex-universe size `n` fixed at construction.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Resident bytes of the current store plus any stashed dense
    /// buffers — what a workspace byte budget charges for this map.
    pub fn resident_bytes(&self) -> usize {
        let store = match &self.store {
            MassStore::Sparse(s) => s.resident_bytes(),
            MassStore::Dense(d) => d.resident_bytes(),
        };
        store
            + self
                .spare_dense
                .as_ref()
                .map_or(0, DenseMassVec::resident_bytes)
    }

    /// Number of distinct keys present (read phase). Dense mode counts
    /// the bits of the touched words, `O(n/4096 + touched words)` — call
    /// it at sequential points, not per key.
    pub fn len(&self) -> usize {
        match &self.store {
            MassStore::Sparse(s) => s.len(),
            MassStore::Dense(d) => d.len(),
        }
    }

    /// Whether no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically adds `delta` to the mass at `key` (write phase).
    #[inline]
    pub fn add(&self, key: u32, delta: f64) {
        match &self.store {
            MassStore::Sparse(s) => s.add(key, delta),
            MassStore::Dense(d) => d.add(key, delta),
        }
    }

    /// Adds `delta` to the mass at `key` under a *single-writer-per-key*
    /// contract: the caller guarantees no other thread touches `key`
    /// during this write phase (the dense pull traversals partition work
    /// by destination, which provides exactly that), so the value update
    /// is a plain load/add/store — no CAS loop. Distinct keys may still
    /// be written concurrently; racing on one key loses mass. Returns the
    /// key's new value — what a `get` right after would read, without the
    /// second probe.
    #[inline]
    pub fn add_exclusive(&self, key: u32, delta: f64) -> f64 {
        match &self.store {
            MassStore::Sparse(s) => s.add_exclusive(key, delta),
            MassStore::Dense(d) => d.add_exclusive(key, delta),
        }
    }

    /// Overwrites the value at `key`, inserting if absent (write phase).
    #[inline]
    pub fn set(&self, key: u32, value: f64) {
        match &self.store {
            MassStore::Sparse(s) => s.set(key, value),
            MassStore::Dense(d) => d.set(key, value),
        }
    }

    /// Reads the mass at `key` (`⊥ = 0.0` if absent; read phase).
    #[inline]
    pub fn get(&self, key: u32) -> f64 {
        match &self.store {
            MassStore::Sparse(s) => s.get(key),
            MassStore::Dense(d) => d.get(key),
        }
    }

    /// Whether `key` has been claimed (read phase). Like the sparse
    /// table, a key explicitly written with mass `0.0` is *present*.
    pub fn contains(&self, key: u32) -> bool {
        match &self.store {
            MassStore::Sparse(s) => s.contains(key),
            MassStore::Dense(d) => d.touched.contains(key),
        }
    }

    /// Packs the present `(key, mass)` pairs in parallel: ascending key
    /// order when dense, hash-slot order when sparse (use
    /// [`MassMap::entries_sorted`] for key order in both). Read phase.
    pub fn entries(&self, pool: &Pool) -> Vec<(u32, f64)> {
        match &self.store {
            MassStore::Sparse(s) => s.entries(pool),
            MassStore::Dense(d) => {
                let keys = d.keys(pool);
                map_index(pool, keys.len(), |i| (keys[i], d.get(keys[i])))
            }
        }
    }

    /// Packs the present pairs sorted by key (deterministic; read phase).
    pub fn entries_sorted(&self, pool: &Pool) -> Vec<(u32, f64)> {
        let mut e = self.entries(pool);
        if !self.is_dense() {
            merge_sort_by(pool, &mut e, |a, b| a.0.cmp(&b.0));
        }
        e
    }

    /// Sum of all stored mass (read phase). Deterministic for a given
    /// key set and capacity: dense mode sums in key order, sparse mode in
    /// slot order, both over fixed chunk boundaries.
    pub fn l1_norm(&self, pool: &Pool) -> f64 {
        match &self.store {
            MassStore::Sparse(s) => s.l1_norm(pool),
            MassStore::Dense(d) => {
                let keys = d.keys(pool);
                sum_f64_by_index(pool, keys.len(), 1 << 13, |i| d.get(keys[i]))
            }
        }
    }

    /// Empties the map and re-fits it to `bound` keys. `exact` demands
    /// the store a fresh map would build; otherwise a sparse table that
    /// is already big enough is kept. Dense buffers leaving service are
    /// cleaned and stashed.
    fn refit(&mut self, pool: &Pool, bound: usize, exact: bool) {
        let bound = self.clamp_bound(bound);
        let dense = wants_dense(self.n, self.dense_frac, bound);
        match (&mut self.store, dense) {
            (MassStore::Dense(d), true) => d.clear(pool),
            (MassStore::Sparse(s), false)
                if !exact || s.capacity() == ConcurrentSparseVec::fresh_capacity(bound) =>
            {
                s.reset(pool, bound)
            }
            _ => {
                let fresh = MassStore::empty(self.n, self.dense_frac, bound, &mut self.spare_dense);
                if let MassStore::Dense(mut d) = std::mem::replace(&mut self.store, fresh) {
                    d.clear(pool);
                    self.spare_dense = Some(d);
                }
            }
        }
    }

    /// Empties the map and re-fits it (and its mode) to a new key bound.
    /// Sequential point between phases.
    pub fn reset(&mut self, pool: &Pool, bound: usize) {
        self.refit(pool, bound, false);
    }

    /// Re-fits a recycled map so it is *observably identical* to a
    /// freshly constructed `MassMap::with_dense_fraction(n, bound, frac)`
    /// — same mode choice, same sparse-table capacity (capacity shapes
    /// slot enumeration order, which [`MassMap::l1_norm`] sums in, so a
    /// "keep the bigger table" shortcut would leak the map's history into
    /// result bits) — while retaining the expensive `O(n)` dense buffers
    /// whenever the universe is unchanged. Sequential point.
    ///
    /// This is the workspace-reuse hook: a query engine checks maps out
    /// of a pool, and `recycle` makes the checkout indistinguishable from
    /// a fresh allocation, which is what keeps warm-workspace runs
    /// bit-identical to cold ones.
    pub fn recycle(&mut self, pool: &Pool, n: usize, bound: usize, frac: f64) {
        assert!(frac >= 0.0 && !frac.is_nan(), "fraction must be ≥ 0");
        if self.n != n {
            // Universe changed: every cached buffer is the wrong size.
            *self = MassMap::with_dense_fraction(n, bound, frac);
            return;
        }
        self.dense_frac = frac;
        self.refit(pool, bound, true);
    }

    /// Grows the map to hold `extra` keys beyond those present,
    /// preserving entries — upgrading sparse → dense (with migration)
    /// when that bound crosses the threshold. A dense map already holds
    /// every key `< n`, so this costs nothing there (not even a count).
    /// Sequential point between phases.
    pub fn reserve_more(&mut self, pool: &Pool, extra: usize) {
        let MassStore::Sparse(s) = &self.store else {
            return;
        };
        let bound = self.clamp_bound(s.len() + extra);
        if wants_dense(self.n, self.dense_frac, bound) {
            let entries = s.entries(pool);
            let dense = take_dense(self.n, &mut self.spare_dense);
            pool.run(entries.len(), 1 << 12, |st, en| {
                for &(k, v) in &entries[st..en] {
                    dense.set(k, v);
                }
            });
            self.store = MassStore::Dense(dense);
        } else if let MassStore::Sparse(s) = &mut self.store {
            s.reserve_rehash(pool, bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_map(n: usize, bound: usize) -> MassMap {
        MassMap::with_dense_fraction(n, bound, f64::INFINITY)
    }

    fn dense_map(n: usize, bound: usize) -> MassMap {
        MassMap::with_dense_fraction(n, bound, 0.0)
    }

    /// A map at the fraction `1/8`, so that the mode switch is testable.
    fn eighth_map(n: usize, bound: usize) -> MassMap {
        MassMap::with_dense_fraction(n, bound, 0.125)
    }

    #[test]
    fn mode_selection_follows_threshold() {
        let m = eighth_map(1000, 10);
        assert!(!m.is_dense(), "10 < 1000/8");
        let m = eighth_map(1000, 125);
        assert!(m.is_dense(), "125 ≥ 1000/8");
        assert!(dense_map(10, 0).is_dense());
        assert!(!sparse_map(10, 10).is_dense());
        assert!(
            MassMap::new(1000, 0).is_dense(),
            "the default is dense from the first key"
        );
    }

    #[test]
    fn both_modes_agree_on_basics() {
        for make in [sparse_map, dense_map] {
            let m = make(200, 16);
            m.add(3, 1.25);
            m.add(3, 0.25);
            m.set(7, 2.0);
            m.add(199, -0.5);
            assert_eq!(m.get(3), 1.5);
            assert_eq!(m.get(7), 2.0);
            assert_eq!(m.get(199), -0.5);
            assert_eq!(m.get(5), 0.0);
            assert!(m.contains(3) && !m.contains(5));
            assert_eq!(m.len(), 3);
            let pool = Pool::new(2);
            assert_eq!(
                m.entries_sorted(&pool),
                vec![(3, 1.5), (7, 2.0), (199, -0.5)]
            );
            assert_eq!(m.l1_norm(&pool), 3.0);
        }
    }

    #[test]
    fn concurrent_accumulation_is_exact_in_dense_mode() {
        let pool = Pool::new(4);
        let m = dense_map(64, 64);
        pool.for_each_index(40_000, 64, |i| {
            m.add((i % 10) as u32, 0.5);
        });
        for k in 0..10u32 {
            assert_eq!(m.get(k), 2000.0, "key {k}");
        }
        assert_eq!(m.len(), 10, "each key is counted once");
    }

    #[test]
    fn reset_switches_modes_and_reuses_buffers() {
        let pool = Pool::new(2);
        let mut m = eighth_map(800, 400); // 400 ≥ 100 → dense
        assert!(m.is_dense());
        m.add(5, 1.0);
        m.reset(&pool, 10); // downgrade
        assert!(!m.is_dense());
        assert_eq!(m.get(5), 0.0);
        m.add(6, 2.0);
        m.reset(&pool, 500); // upgrade again (reuses stashed buffers)
        assert!(m.is_dense());
        assert!(m.is_empty(), "reset dropped entries");
        assert_eq!(m.get(6), 0.0, "stashed dense buffers were clean");
    }

    #[test]
    fn reserve_more_upgrades_and_migrates() {
        let pool = Pool::new(2);
        let mut m = eighth_map(1000, 50);
        assert!(!m.is_dense());
        for k in 0..50u32 {
            m.add(k * 3, k as f64);
        }
        m.reserve_more(&pool, 450); // 50 + 450 ≥ 125 → upgrade
        assert!(m.is_dense());
        assert_eq!(m.len(), 50);
        for k in 0..50u32 {
            assert_eq!(m.get(k * 3), k as f64, "entry survived migration");
        }
        // Growing an already-dense map is a no-op.
        m.reserve_more(&pool, 949);
        assert!(m.is_dense());
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn dense_clear_is_support_proportional_and_complete() {
        let pool = Pool::new(2);
        let mut m = dense_map(10_000, 1);
        for k in (0..10_000u32).step_by(7) {
            m.add(k, 1.0);
        }
        let support = m.len();
        assert_eq!(support, 10_000usize.div_ceil(7));
        m.reset(&pool, 10_000);
        assert!(m.is_empty());
        for k in (0..10_000u32).step_by(7) {
            assert_eq!(m.get(k), 0.0);
            assert!(!m.contains(k));
        }
    }

    /// The dense clean, forked: a map over 3 125 words, filled by
    /// key-partitioned writers, comes back clean from `reset` and from
    /// `recycle` — dense → dense, and dense → sparse → dense through the
    /// stash — and a refill then reads what a fresh map reads, to the bit.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn the_dense_clean_forks_by_words_and_leaves_no_trace() {
        let n = 200_000;
        let pool = Pool::new(2);
        // One writer per 4 096-key chunk; the keys reach every word.
        let fill = |m: &MassMap, salt: u32| {
            pool.run(n, 1 << 12, |s, e| {
                for k in s as u32..e as u32 {
                    if (k ^ salt) % 5 < 2 {
                        m.add_exclusive(k, 0.5);
                        m.add_exclusive(k, 1.0 / f64::from(k + 1));
                    }
                    if (k ^ salt) % 11 == 7 {
                        m.set(k, f64::from(k) * 0.125);
                    }
                }
            });
        };
        let is_clear = |m: &MassMap| match &m.store {
            MassStore::Dense(d) => d.is_clear(),
            MassStore::Sparse(_) => false,
        };
        let mut m = dense_map(n, n);
        fill(&m, 0);
        let steps = ["reset", "recycle dense → dense", "dense → sparse → dense"];
        for (salt, what) in (1..).zip(steps) {
            let forked = pool.stats().loops_forked;
            match salt {
                1 => m.reset(&pool, n),
                2 => m.recycle(&pool, n, n, 0.0),
                _ => {
                    m.recycle(&pool, n, 1, f64::INFINITY);
                    assert!(!m.is_dense() && m.is_empty());
                    assert!(m.spare_dense.as_ref().is_some_and(DenseMassVec::is_clear));
                    m.recycle(&pool, n, n, 0.0);
                }
            }
            let forked = pool.stats().loops_forked - forked;
            assert!(forked > 0, "{what}: the clean forks");
            assert!(is_clear(&m), "{what}");
            let fresh = dense_map(n, n);
            fill(&m, salt);
            fill(&fresh, salt);
            assert_eq!(
                m.entries_sorted(&pool),
                fresh.entries_sorted(&pool),
                "{what}"
            );
            let l1 = |m: &MassMap| m.l1_norm(&pool).to_bits();
            assert_eq!(l1(&m), l1(&fresh), "{what}");
        }
    }

    /// The dense store of a dense map.
    fn dense_of(m: &MassMap) -> &DenseMassVec {
        match &m.store {
            MassStore::Dense(d) => d,
            MassStore::Sparse(_) => panic!("a dense map"),
        }
    }

    /// 67 words — 66 full and one of 6 bits — under two summary words.
    const SUMMARY_N: usize = 64 * 66 + 6;

    /// The supports the summary tests fill: no key, one key, one word, and
    /// at least one key in every word.
    fn summary_supports() -> [(&'static str, Vec<u32>); 4] {
        let n = SUMMARY_N as u32;
        [
            ("no key", vec![]),
            ("one key", vec![n - 1]),
            ("one word", (64 * 65..64 * 66).step_by(3).collect()),
            (
                "every word",
                (0..n)
                    .filter(|v| v % 37 == 0 || v % 64 == 63 || *v == n - 1)
                    .collect(),
            ),
        ]
    }

    /// Fills a dense map with `keys` from `pool`'s writers, 16 keys per chunk.
    fn fill_dense(pool: &Pool, keys: &[u32]) -> MassMap {
        let m = dense_map(SUMMARY_N, 0);
        pool.run(keys.len(), 16, |s, e| {
            for &k in &keys[s..e] {
                m.add(k, 1.0 / f64::from(k + 3));
            }
        });
        m
    }

    /// What the summary serves — `len`, `keys`, `entries`, `l1_norm` — is,
    /// bit for bit, what a full scan of the touched bits reads.
    #[test]
    fn the_summary_serves_what_a_full_scan_reads() {
        for threads in [1, 2] {
            let pool = Pool::new(threads);
            for (what, keys) in summary_supports() {
                let m = fill_dense(&pool, &keys);
                let d = dense_of(&m);
                let want = d.touched.to_sorted_ids(&pool);
                assert_eq!(want, keys, "{what}");
                let words: Vec<u32> = (0..d.touched.num_words() as u32)
                    .filter(|&w| d.touched.word(w as usize) != 0)
                    .collect();
                assert_eq!(d.touched_words(&pool), words, "{what}");
                assert_eq!(d.len(), want.len(), "{what}");
                assert_eq!(m.len(), want.len(), "{what}");
                assert_eq!(d.keys(&pool), want, "{what}");
                let entries: Vec<(u32, f64)> = want.iter().map(|&k| (k, m.get(k))).collect();
                assert_eq!(m.entries(&pool), entries, "{what}");
                assert_eq!(m.entries_sorted(&pool), entries, "{what}");
                let l1 = sum_f64_by_index(&pool, want.len(), 1 << 13, |i| m.get(want[i]));
                assert_eq!(m.l1_norm(&pool).to_bits(), l1.to_bits(), "{what}");
            }
        }
    }

    /// A dense reset, and an owner of whole words zeroing their cells, the
    /// words and then forgetting them (the push's walk), leave the store
    /// clear — summary included — and ready for a refill.
    #[test]
    fn the_clean_and_the_walk_clear_the_summary() {
        for threads in [1, 2] {
            let pool = Pool::new(threads);
            for (what, keys) in summary_supports() {
                let mut m = fill_dense(&pool, &keys);
                m.reset(&pool, 0);
                assert!(dense_of(&m).is_clear(), "reset, {what}");
                assert!(m.is_empty() && m.entries(&pool).is_empty(), "{what}");

                let m = fill_dense(&pool, &keys);
                let d = dense_of(&m);
                let words = d.touched_words(&pool);
                pool.run(words.len(), 1, |s, e| {
                    for &w in &words[s..e] {
                        let w = w as usize;
                        ones(w, d.touched.word(w)).for_each(|v| d.cell(v).store(0.0));
                        d.touched.store_word(w, 0);
                    }
                });
                assert_eq!(
                    d.is_clear(),
                    words.is_empty(),
                    "the summary remembers, {what}"
                );
                d.forget_words();
                assert!(d.is_clear(), "walk, {what}");
                pool.run(keys.len(), 16, |s, e| {
                    keys[s..e]
                        .iter()
                        .for_each(|&k| m.add(k, 1.0 / f64::from(k + 3)));
                });
                let fresh = fill_dense(&pool, &keys);
                assert_eq!(m.entries(&pool), fresh.entries(&pool), "refill, {what}");
            }
        }
    }

    #[test]
    fn add_exclusive_accumulates_per_key_partitioned_writers() {
        // Each key is owned by exactly one chunk (grain divides the key
        // range), honoring the single-writer contract from many threads.
        let pool = Pool::new(4);
        for make in [sparse_map, dense_map] {
            let m = make(1024, 1024);
            pool.run(1024, 64, |s, e| {
                for k in s..e {
                    for _ in 0..8 {
                        m.add_exclusive(k as u32, 0.25);
                    }
                }
            });
            for k in 0..1024u32 {
                assert_eq!(m.get(k), 2.0, "key {k} dense={}", m.is_dense());
            }
            assert_eq!(m.len(), 1024);
        }
    }

    #[test]
    fn recycle_is_indistinguishable_from_fresh() {
        let pool = Pool::new(2);
        // Dirty a map in dense mode, then recycle it through a series of
        // (n, bound, frac) configurations; each checkout must match a
        // freshly constructed map in mode, capacity-dependent entry
        // enumeration, and l1 bits.
        let mut m = MassMap::with_dense_fraction(1000, 500, 0.125);
        assert!(m.is_dense());
        for k in 0..300u32 {
            m.add(k * 3, 0.1 * k as f64);
        }
        let configs = [
            (1000usize, 10usize, 0.125f64), // downgrade to sparse
            (1000, 400, 0.125),             // back to dense (reuses buffers)
            (1000, 10, f64::INFINITY),      // pinned sparse
            (500, 300, 0.125),              // universe change
            (500, 0, 0.0),                  // pinned dense
        ];
        for &(n, bound, frac) in &configs {
            m.recycle(&pool, n, bound, frac);
            let fresh = MassMap::with_dense_fraction(n, bound, frac);
            assert_eq!(m.is_dense(), fresh.is_dense(), "mode for {n}/{bound}");
            assert!(m.is_empty(), "recycle must clear");
            // Fill both identically (staying within the sparse bound);
            // every observation must agree bit-for-bit (same backend
            // shape ⇒ same enumeration chunking).
            let k = bound.clamp(4, 64);
            let keys: Vec<u32> = (0..k as u32).map(|i| i * (n / k) as u32).collect();
            for &k in &keys {
                m.add(k, 1.0 / (k as f64 + 3.0));
                fresh.add(k, 1.0 / (k as f64 + 3.0));
            }
            assert_eq!(m.len(), fresh.len());
            assert_eq!(m.entries_sorted(&pool), fresh.entries_sorted(&pool));
            assert_eq!(m.l1_norm(&pool), fresh.l1_norm(&pool), "l1 bits");
        }
    }

    #[test]
    fn recycle_reuses_dense_buffers_across_checkouts() {
        let pool = Pool::new(2);
        let mut m = MassMap::with_dense_fraction(64, 64, 0.0);
        m.add(7, 1.0);
        m.recycle(&pool, 64, 64, 0.0); // dense → dense: cleared in place
        assert!(m.is_dense() && m.is_empty());
        assert_eq!(m.get(7), 0.0);
        m.add(8, 2.0);
        m.recycle(&pool, 64, 1, f64::INFINITY); // stash dense, go sparse
        assert!(!m.is_dense() && m.is_empty());
        m.recycle(&pool, 64, 64, 0.0); // dense again from the stash
        assert!(m.is_dense() && m.is_empty());
        assert_eq!(m.get(8), 0.0, "stashed buffers came back clean");
    }

    #[test]
    fn l1_norm_is_deterministic_and_mode_independent() {
        let pool = Pool::new(4);
        let keys: Vec<u32> = (0..3000).map(|i| (i * 17 + 5) % 4000).collect();
        let a = sparse_map(4000, 3000);
        let b = dense_map(4000, 3000);
        pool.run(keys.len(), 64, |s, e| {
            for &k in &keys[s..e] {
                a.add(k, 1.0 / 3.0);
                b.add(k, 1.0 / 3.0);
            }
        });
        // Identical key sets ⇒ identical sorted entries.
        assert_eq!(a.entries_sorted(&pool), b.entries_sorted(&pool));
        // l1 sums the same values in the same (key-sorted / chunked)
        // order in dense mode regardless of first-touch order — and the
        // fixed chunk boundaries make it thread-count-invariant too.
        let expect = b.l1_norm(&pool);
        for _ in 0..3 {
            assert_eq!(b.l1_norm(&pool), expect);
        }
        let seq_pool = Pool::new(1);
        assert_eq!(b.l1_norm(&seq_pool), expect);
        assert_eq!(a.l1_norm(&seq_pool), a.l1_norm(&pool));
    }
}
