//! Atomic `f64` with `fetch_add` — the paper's `fetchAdd` on probability mass.
//!
//! Modern ISAs have no native atomic float addition, so (exactly like the
//! Ligra/PBBS C++ code the paper uses) we emulate it with a compare-and-swap
//! loop over the bit pattern stored in an `AtomicU64`. [`AtomicF64`] is the
//! project's one atomic `f64`: every mass cell — the sparse table's, the
//! dense store's, the push's sums — is one, so the orderings live here.

use std::sync::atomic::{AtomicU64, Ordering};

/// An `f64` that supports lock-free concurrent accumulation.
///
/// ```
/// use lgc_parallel::AtomicF64;
/// let x = AtomicF64::new(1.0);
/// x.fetch_add(0.5);
/// assert_eq!(x.load(), 1.5);
/// ```
#[derive(Debug)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// Creates a new atomic double with the given initial value.
    #[inline]
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Reads the current value (acquire ordering).
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Overwrites the current value (release ordering).
    #[inline]
    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Release);
    }

    /// Atomically adds `delta`, returning the previous value.
    ///
    /// Implemented as a CAS loop; under contention every retry observes the
    /// latest value, so no update is ever lost (the property Theorem 3's
    /// proof relies on).
    #[inline]
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = (old + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return old,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Consumes the atomic and returns the inner value.
    #[inline]
    pub fn into_inner(self) -> f64 {
        f64::from_bits(self.0.into_inner())
    }
}

impl Default for AtomicF64 {
    fn default() -> Self {
        AtomicF64::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    #[test]
    fn basic_ops() {
        let a = AtomicF64::new(2.5);
        assert_eq!(a.load(), 2.5);
        a.store(-1.0);
        assert_eq!(a.load(), -1.0);
        let prev = a.fetch_add(3.0);
        assert_eq!(prev, -1.0);
        assert_eq!(a.load(), 2.0);
        assert_eq!(a.into_inner(), 2.0);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(AtomicF64::default().load(), 0.0);
    }

    #[test]
    fn concurrent_adds_preserve_mass() {
        // 4 threads each add 1.0 ten thousand times; the total must be
        // exact because each increment is a power of two times an integer.
        let pool = Pool::new(4);
        let acc = AtomicF64::new(0.0);
        pool.for_each_index(40_000, 100, |_| {
            acc.fetch_add(1.0);
        });
        assert_eq!(acc.load(), 40_000.0);
    }

    #[test]
    fn concurrent_fractional_adds() {
        // 0.25 is exactly representable, so the sum is exact too.
        let pool = Pool::new(4);
        let acc = AtomicF64::new(0.0);
        pool.for_each_index(8192, 64, |_| {
            acc.fetch_add(0.25);
        });
        assert_eq!(acc.load(), 2048.0);
    }
}
