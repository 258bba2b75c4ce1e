//! Sequential sparse sets (open addressing, linear probing).

use crate::hash::hash_u32;
use crate::EMPTY;

/// A sequential sparse map from vertex id to a copyable value.
///
/// Reading a missing key yields the map's zero element `⊥` (the paper's
/// convention: "if we attempt to update data for a non-existent key, a
/// pair `(k, ⊥)` will be created"). The table grows automatically; the
/// load factor is kept below 70%.
#[derive(Clone, Debug)]
pub struct SparseMap<V: Copy> {
    keys: Vec<u32>,
    vals: Vec<V>,
    len: usize,
    mask: usize,
    zero: V,
}

impl<V: Copy> SparseMap<V> {
    /// An empty map with the given zero element `⊥`.
    pub fn new(zero: V) -> Self {
        Self::with_capacity(zero, 8)
    }

    /// An empty map pre-sized for roughly `n` keys.
    pub fn with_capacity(zero: V, n: usize) -> Self {
        let cap = (n.max(4) * 2).next_power_of_two();
        SparseMap {
            keys: vec![EMPTY; cap],
            vals: vec![zero; cap],
            len: 0,
            mask: cap - 1,
            zero,
        }
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The zero element returned for missing keys.
    pub fn zero(&self) -> V {
        self.zero
    }

    #[inline]
    fn slot_of(&self, key: u32) -> Option<usize> {
        let mut i = (hash_u32(key) as usize) & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Returns the value for `key`, or `⊥` if absent.
    #[inline]
    pub fn get(&self, key: u32) -> V {
        self.slot_of(key).map_or(self.zero, |i| self.vals[i])
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.slot_of(key).is_some()
    }

    /// Sets `key` to `value`, inserting if absent.
    #[inline]
    pub fn set(&mut self, key: u32, value: V) {
        self.update(key, |_| value);
    }

    /// Applies `f` to the current value of `key` (or `⊥` if absent) and
    /// stores the result, inserting the key if needed.
    #[inline]
    pub fn update(&mut self, key: u32, f: impl FnOnce(V) -> V) {
        debug_assert!(key != EMPTY, "key u32::MAX is reserved");
        if self.len * 10 >= (self.mask + 1) * 7 {
            self.grow();
        }
        let mut i = (hash_u32(key) as usize) & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] = f(self.vals[i]);
                return;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = f(self.zero);
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let mut bigger = SparseMap::with_capacity(self.zero, new_cap / 2);
        debug_assert!(bigger.mask + 1 >= new_cap);
        for (k, v) in self.iter() {
            bigger.set(k, v);
        }
        *self = bigger;
    }

    /// Iterates over `(key, value)` pairs in unspecified (slot) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, V)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }

    /// Collects the entries, sorted by key (deterministic order).
    pub fn entries_sorted(&self) -> Vec<(u32, V)> {
        let mut out: Vec<(u32, V)> = self.iter().collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }
}

/// The paper's probability-mass vector: a sequential sparse map from
/// vertex id to `f64` with `⊥ = 0.0` and an accumulate operation.
pub type SparseVec = SparseMap<f64>;

impl SparseVec {
    /// An empty mass vector (`⊥ = 0.0`).
    pub fn new_f64() -> Self {
        SparseMap::new(0.0)
    }

    /// Adds `delta` to the mass at `key` (creating the entry if absent).
    #[inline]
    pub fn add(&mut self, key: u32, delta: f64) {
        self.update(key, |v| v + delta);
    }

    /// Sum of all stored values (the `ℓ₁` norm for non-negative vectors).
    pub fn l1_norm(&self) -> f64 {
        self.iter().map(|(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_keys_read_as_zero() {
        let m = SparseVec::new_f64();
        assert_eq!(m.get(42), 0.0);
        assert!(!m.contains(42));
        assert!(m.is_empty());
    }

    #[test]
    fn add_creates_and_accumulates() {
        let mut m = SparseVec::new_f64();
        m.add(7, 1.5);
        m.add(7, 0.5);
        m.add(9, 2.0);
        assert_eq!(m.get(7), 2.0);
        assert_eq!(m.get(9), 2.0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.l1_norm(), 4.0);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m = SparseMap::with_capacity(0u64, 4);
        for k in 0..10_000u32 {
            m.set(k, k as u64 * 3);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u32 {
            assert_eq!(m.get(k), k as u64 * 3);
        }
    }

    #[test]
    fn entries_sorted_is_sorted_and_complete() {
        let mut m = SparseVec::new_f64();
        for k in [5u32, 1, 9, 3, 7] {
            m.set(k, k as f64);
        }
        let e = m.entries_sorted();
        assert_eq!(e, vec![(1, 1.0), (3, 3.0), (5, 5.0), (7, 7.0), (9, 9.0)]);
    }

    #[test]
    fn clear_retains_capacity_and_empties() {
        let mut m = SparseVec::new_f64();
        for k in 0..100 {
            m.add(k, 1.0);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(5), 0.0);
        m.add(5, 2.0);
        assert_eq!(m.get(5), 2.0);
    }

    #[test]
    fn update_sees_zero_for_missing() {
        let mut m = SparseMap::new(100i32);
        m.update(3, |v| v + 1);
        assert_eq!(m.get(3), 101, "⊥ = 100 feeds the update closure");
    }

    #[test]
    fn colliding_keys_all_found() {
        // Dense consecutive keys stress linear probing runs.
        let mut m = SparseMap::with_capacity(0u8, 8);
        for k in 0..2000u32 {
            m.set(k, (k % 251) as u8);
        }
        for k in 0..2000u32 {
            assert_eq!(m.get(k), (k % 251) as u8);
        }
        assert_eq!(m.get(2001), 0);
    }
}
