//! A phase-concurrent lock-free sparse set (the paper's reference \[42\]).
//!
//! A linear-probing table whose key slots are claimed by compare-and-swap.
//! `f64` values are `lgc-parallel`'s [`AtomicF64`] cells, as the dense
//! store's are, and accumulate with its fetch-add, so concurrent `edgeMap`
//! updates to the same neighbor never lose mass — the property Theorem 3's
//! work bound relies on.

use crate::hash::hash_u32;
use crate::EMPTY;
use lgc_parallel::{filter_map_index, AtomicF64, Pool};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// A concurrent sparse map from vertex id to `f64` mass (`⊥ = 0.0`).
///
/// See the crate docs for the phase-concurrency contract. Capacity is
/// fixed while a parallel phase is running; the clustering algorithms
/// size each table from the known per-iteration bound
/// `|frontier| + vol(frontier)` before launching the phase.
pub struct ConcurrentSparseVec {
    keys: Box<[AtomicU32]>,
    vals: Box<[AtomicF64]>,
    /// Claimed-slot counts, sharded by the low bits of the slot index so
    /// that concurrent first touches of different keys rarely meet on one
    /// cache line. Each shard is exact; [`Self::len`] sums them.
    occupied: Box<[CountShard; COUNT_SHARDS]>,
    mask: usize,
}

/// Shards of the claimed-slot count (a power of two). Measured on the
/// 2-core box with PR-Nibble(α = .01, ε = 1e-5) on `rand_local(300k)`:
/// T1 ÷ T2 diffusion time 0.57 with one counter, 0.98 with 8 shards,
/// 1.05 with 64 — what is left is lines migrating, not threads colliding.
const COUNT_SHARDS: usize = 64;

/// One count shard on a cache line of its own.
#[derive(Default)]
#[repr(align(64))]
struct CountShard(AtomicUsize);

impl ConcurrentSparseVec {
    /// The slot count a fresh table built for `n` keys gets — the single
    /// source of the sizing policy, exposed so buffer recyclers (e.g.
    /// `MassMap::recycle`) can test whether an existing table is
    /// *exactly* fresh-shaped (capacity shapes slot enumeration order,
    /// which some reductions sum in).
    pub fn fresh_capacity(n: usize) -> usize {
        (n.max(4) * 2).next_power_of_two()
    }

    /// An empty table able to hold at least `n` keys without exceeding a
    /// 50% load factor.
    pub fn with_capacity(n: usize) -> Self {
        let cap = Self::fresh_capacity(n);
        ConcurrentSparseVec {
            keys: (0..cap).map(|_| AtomicU32::new(EMPTY)).collect(),
            vals: (0..cap).map(|_| AtomicF64::default()).collect(),
            occupied: Box::new(std::array::from_fn(|_| CountShard::default())),
            mask: cap - 1,
        }
    }

    /// Number of distinct keys present (exact between write phases).
    pub fn len(&self) -> usize {
        self.occupied
            .iter()
            .map(|c| c.0.load(Ordering::Acquire))
            .sum()
    }

    /// Whether no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots (twice the supported key count).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Resident bytes of the key and value arrays and the count shards.
    pub fn resident_bytes(&self) -> usize {
        self.capacity() * (std::mem::size_of::<AtomicU32>() + std::mem::size_of::<AtomicF64>())
            + std::mem::size_of_val(&*self.occupied)
    }

    /// Finds the slot holding `key`, or claims an empty one for it.
    /// Lock-free: at most `capacity` probes (panics if the table is full,
    /// which sized-by-bound callers never trigger).
    #[inline]
    fn claim_slot(&self, key: u32) -> usize {
        debug_assert!(key != EMPTY, "key u32::MAX is reserved");
        let mut i = (hash_u32(key) as usize) & self.mask;
        let mut probes = 0usize;
        loop {
            let cur = self.keys[i].load(Ordering::Acquire);
            if cur == key {
                return i;
            }
            if cur == EMPTY {
                match self.keys[i].compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        self.occupied[i & (COUNT_SHARDS - 1)]
                            .0
                            .fetch_add(1, Ordering::AcqRel);
                        return i;
                    }
                    Err(actual) if actual == key => return i,
                    Err(_) => { /* lost race to another key; keep probing */ }
                }
            }
            i = (i + 1) & self.mask;
            probes += 1;
            assert!(
                probes <= self.mask,
                "ConcurrentSparseVec overflow: capacity {} exhausted",
                self.capacity()
            );
        }
    }

    /// Atomically adds `delta` to the mass at `key`, inserting if absent.
    /// Safe to call from many threads concurrently (write phase).
    #[inline]
    pub fn add(&self, key: u32, delta: f64) {
        let i = self.claim_slot(key);
        self.vals[i].fetch_add(delta);
    }

    /// Overwrites the value at `key`, inserting if absent (write phase).
    /// If several threads `set` the same key concurrently, one wins.
    #[inline]
    pub fn set(&self, key: u32, value: f64) {
        let i = self.claim_slot(key);
        self.vals[i].store(value);
    }

    /// Adds `delta` to the mass at `key` under a *single-writer-per-key*
    /// contract: the caller guarantees no other thread touches `key` in
    /// this phase (e.g. destination-partitioned pull traversals), so the
    /// value update is a plain load/add/store instead of a CAS loop.
    /// Distinct keys may still be written concurrently; racing on one key
    /// loses mass. Returns the new value.
    #[inline]
    pub fn add_exclusive(&self, key: u32, delta: f64) -> f64 {
        let i = self.claim_slot(key);
        let sum = self.vals[i].load() + delta;
        self.vals[i].store(sum);
        sum
    }

    /// Reads the mass at `key` (`⊥ = 0.0` if absent). Read phase.
    #[inline]
    pub fn get(&self, key: u32) -> f64 {
        let mut i = (hash_u32(key) as usize) & self.mask;
        loop {
            let cur = self.keys[i].load(Ordering::Acquire);
            if cur == key {
                return self.vals[i].load();
            }
            if cur == EMPTY {
                return 0.0;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Whether `key` is present (read phase).
    pub fn contains(&self, key: u32) -> bool {
        let mut i = (hash_u32(key) as usize) & self.mask;
        loop {
            let cur = self.keys[i].load(Ordering::Acquire);
            if cur == key {
                return true;
            }
            if cur == EMPTY {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Packs the occupied slots into `(key, value)` pairs in parallel
    /// (slot order — sort by key for a deterministic order). Read phase.
    pub fn entries(&self, pool: &Pool) -> Vec<(u32, f64)> {
        filter_map_index(pool, self.capacity(), |i| {
            let k = self.keys[i].load(Ordering::Acquire);
            (k != EMPTY).then(|| (k, self.vals[i].load()))
        })
    }

    /// Sum of all stored values (read phase).
    ///
    /// A chunked parallel reduction straight over the slots: each chunk
    /// accumulates locally and writes one partial, so no `O(len)`
    /// intermediate vector is materialized, and the fixed chunk
    /// boundaries of [`lgc_parallel::sum_f64_by_index`] make the result
    /// bit-identical across pools and thread counts.
    pub fn l1_norm(&self, pool: &Pool) -> f64 {
        lgc_parallel::sum_f64_by_index(pool, self.capacity(), 1 << 14, |i| {
            if self.keys[i].load(Ordering::Acquire) != EMPTY {
                self.vals[i].load()
            } else {
                0.0
            }
        })
    }

    /// Empties the table, reallocating only if the current capacity cannot
    /// hold `n` keys. Sequential point between phases.
    pub fn reset(&mut self, pool: &Pool, n: usize) {
        let needed = Self::fresh_capacity(n);
        if needed > self.capacity() {
            *self = ConcurrentSparseVec::with_capacity(n);
            return;
        }
        let keys = &self.keys;
        let vals = &self.vals;
        pool.run(self.capacity(), 1 << 14, |s, e| {
            for i in s..e {
                keys[i].store(EMPTY, Ordering::Relaxed);
                vals[i].store(0.0);
            }
        });
        for c in self.occupied.iter_mut() {
            *c.0.get_mut() = 0;
        }
    }

    /// Grows the table to hold at least `n` keys, preserving entries.
    /// Sequential point between phases.
    pub fn reserve_rehash(&mut self, pool: &Pool, n: usize) {
        let needed = Self::fresh_capacity(n);
        if needed <= self.capacity() {
            return;
        }
        let entries = self.entries(pool);
        let bigger = ConcurrentSparseVec::with_capacity(n);
        pool.run(entries.len(), 1 << 12, |s, e| {
            for &(k, v) in &entries[s..e] {
                bigger.add(k, v);
            }
        });
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_then_get() {
        let t = ConcurrentSparseVec::with_capacity(16);
        t.add(3, 1.25);
        t.add(3, 0.25);
        t.add(100, 2.0);
        assert_eq!(t.get(3), 1.5);
        assert_eq!(t.get(100), 2.0);
        assert_eq!(t.get(7), 0.0);
        assert_eq!(t.len(), 2);
        assert!(t.contains(3));
        assert!(!t.contains(7));
    }

    #[test]
    fn concurrent_accumulation_is_exact() {
        // Many threads hammer a few keys with dyadic increments: the final
        // per-key totals must be exact (no lost updates).
        let pool = Pool::new(4);
        let t = ConcurrentSparseVec::with_capacity(64);
        pool.for_each_index(40_000, 64, |i| {
            t.add((i % 10) as u32, 0.5);
        });
        for k in 0..10u32 {
            assert_eq!(t.get(k), 2000.0, "key {k}");
        }
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn concurrent_distinct_inserts_all_present() {
        let pool = Pool::new(4);
        let n = 50_000;
        let t = ConcurrentSparseVec::with_capacity(n);
        pool.for_each_index(n, 512, |i| {
            t.add(i as u32, i as f64);
        });
        assert_eq!(t.len(), n);
        let mut entries = t.entries(&pool);
        entries.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(entries.len(), n);
        for (i, &(k, v)) in entries.iter().enumerate() {
            assert_eq!(k, i as u32);
            assert_eq!(v, i as f64);
        }
    }

    #[test]
    fn reset_clears_and_reuses_allocation() {
        let pool = Pool::new(2);
        let mut t = ConcurrentSparseVec::with_capacity(1000);
        let cap = t.capacity();
        for k in 0..500u32 {
            t.add(k, 1.0);
        }
        t.reset(&pool, 800);
        assert_eq!(t.capacity(), cap, "no realloc needed");
        assert!(t.is_empty());
        assert_eq!(t.get(5), 0.0);
        t.reset(&pool, 10 * cap);
        assert!(t.capacity() > cap, "grew for larger bound");
    }

    #[test]
    fn reserve_rehash_preserves_entries() {
        let pool = Pool::new(2);
        let mut t = ConcurrentSparseVec::with_capacity(8);
        for k in 0..8u32 {
            t.add(k, k as f64 * 0.5);
        }
        t.reserve_rehash(&pool, 10_000);
        assert!(t.capacity() >= 20_000);
        for k in 0..8u32 {
            assert_eq!(t.get(k), k as f64 * 0.5);
        }
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn l1_norm_sums_all_mass() {
        let pool = Pool::new(2);
        let t = ConcurrentSparseVec::with_capacity(32);
        for k in 0..20u32 {
            t.add(k, 0.25);
        }
        assert_eq!(t.l1_norm(&pool), 5.0);
    }

    #[test]
    fn set_overwrites() {
        let t = ConcurrentSparseVec::with_capacity(8);
        t.set(4, 1.0);
        t.set(4, 9.0);
        assert_eq!(t.get(4), 9.0);
        assert_eq!(t.len(), 1);
    }
}
