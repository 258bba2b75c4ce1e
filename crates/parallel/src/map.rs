//! Parallel map and reduce.

use crate::{default_grain, Pool, UnsafeSlice};

/// Applies `f` to every element of `input` in parallel, collecting results.
///
/// Work `O(n)`, depth `O(1)` loop iterations per chunk.
pub fn map<T: Sync, U: Send>(pool: &Pool, input: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    map_index(pool, input.len(), |i| f(&input[i]))
}

/// Builds a `Vec` of length `len` whose `i`-th element is `f(i)`,
/// computing elements in parallel.
pub fn map_index<U: Send>(pool: &Pool, len: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let mut out: Vec<U> = Vec::with_capacity(len);
    {
        let spare = out.spare_capacity_mut();
        let view = UnsafeSlice::new(spare);
        pool.run(len, default_grain(len, pool.num_threads()), |s, e| {
            for i in s..e {
                // SAFETY: each index written exactly once.
                unsafe { view.write(i, std::mem::MaybeUninit::new(f(i))) };
            }
        });
    }
    // SAFETY: all `len` elements were initialized by the loop above.
    unsafe { out.set_len(len) };
    out
}

/// Overwrites `out[i] = f(i)` for all `i` in parallel.
pub fn fill_with_index<U: Send + Sync>(pool: &Pool, out: &mut [U], f: impl Fn(usize) -> U + Sync) {
    let len = out.len();
    let view = UnsafeSlice::new(out);
    pool.run(len, default_grain(len, pool.num_threads()), |s, e| {
        for i in s..e {
            // SAFETY: disjoint writes.
            unsafe { view.write(i, f(i)) };
        }
    });
}

/// Sums `f(i)` for `i in 0..len` with *fixed* chunk boundaries: each
/// `grain`-sized chunk accumulates locally into its own partial
/// (regardless of how the pool schedules chunks or how many threads it
/// has) and the partials combine sequentially in chunk order. The result
/// is therefore bit-identical across pools and thread counts, and no
/// `O(len)` intermediate vector is materialized — only the
/// `len / grain` partials.
pub fn sum_f64_by_index(
    pool: &Pool,
    len: usize,
    grain: usize,
    f: impl Fn(usize) -> f64 + Sync,
) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let grain = grain.max(1);
    let n_chunks = len.div_ceil(grain);
    let mut partials = vec![0.0f64; n_chunks];
    let view = UnsafeSlice::new(&mut partials);
    pool.for_each_index(n_chunks, 1, |c| {
        let s = c * grain;
        let e = (s + grain).min(len);
        let mut acc = 0.0;
        for i in s..e {
            acc += f(i);
        }
        // SAFETY: one write per chunk index.
        unsafe { view.write(c, acc) };
    });
    partials.iter().sum()
}

/// Reduces `input` with an associative operator `op` and identity element.
///
/// The combine order differs from a sequential left fold, so `op` should be
/// associative (floating-point reductions may differ in the last ulp from a
/// sequential sum; use [`sum_f64`] when that matters and tolerate the
/// reordering, as the paper's algorithms do).
pub fn reduce<T: Copy + Send + Sync>(
    pool: &Pool,
    input: &[T],
    identity: T,
    op: impl Fn(T, T) -> T + Sync,
) -> T {
    let n = input.len();
    if n == 0 {
        return identity;
    }
    if !pool.can_fork() || n < 4096 {
        return input.iter().fold(identity, |a, &b| op(a, b));
    }
    let grain = default_grain(n, pool.num_threads());
    let n_blocks = n.div_ceil(grain);
    let mut partial: Vec<T> = vec![identity; n_blocks];
    {
        let view = UnsafeSlice::new(&mut partial);
        pool.run(n, grain, |s, e| {
            let local = input[s..e].iter().fold(identity, |a, &b| op(a, b));
            // SAFETY: one block per chunk index.
            unsafe { view.write(s / grain, local) };
        });
    }
    partial.into_iter().fold(identity, op)
}

/// Parallel sum of a `u64` slice.
pub fn sum_u64(pool: &Pool, input: &[u64]) -> u64 {
    reduce(pool, input, 0u64, |a, b| a + b)
}

/// Parallel sum of an `f64` slice (associativity caveat of [`reduce`]).
pub fn sum_f64(pool: &Pool, input: &[f64]) -> f64 {
    reduce(pool, input, 0.0f64, |a, b| a + b)
}

/// Returns the index and value of the maximum element under `cmp`
/// (first occurrence on ties), or `None` for an empty slice.
pub fn max_by<T: Copy + Send + Sync>(
    pool: &Pool,
    input: &[T],
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering + Sync,
) -> Option<(usize, T)> {
    let n = input.len();
    if n == 0 {
        return None;
    }
    let pick = |a: (usize, T), b: (usize, T)| -> (usize, T) {
        match cmp(&a.1, &b.1) {
            std::cmp::Ordering::Less => b,
            std::cmp::Ordering::Greater => a,
            std::cmp::Ordering::Equal => {
                if a.0 <= b.0 {
                    a
                } else {
                    b
                }
            }
        }
    };
    if !pool.can_fork() || n < 4096 {
        return Some((1..n).map(|i| (i, input[i])).fold((0, input[0]), pick));
    }
    let grain = default_grain(n, pool.num_threads());
    let n_blocks = n.div_ceil(grain);
    let mut partial: Vec<Option<(usize, T)>> = vec![None; n_blocks];
    {
        let view = UnsafeSlice::new(&mut partial);
        pool.run(n, grain, |s, e| {
            let local = (s + 1..e).map(|i| (i, input[i])).fold((s, input[s]), pick);
            // SAFETY: one block per chunk.
            unsafe { view.write(s / grain, Some(local)) };
        });
    }
    partial.into_iter().flatten().reduce(pick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential() {
        let pool = Pool::new(3);
        let data: Vec<u32> = (0..50_000).collect();
        let out = map(&pool, &data, |&x| x as u64 + 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn map_index_empty() {
        let pool = Pool::new(2);
        let out: Vec<u8> = map_index(&pool, 0, |_| 7);
        assert!(out.is_empty());
    }

    #[test]
    fn fill_with_index_overwrites() {
        let pool = Pool::new(2);
        let mut v = vec![0u32; 9999];
        fill_with_index(&pool, &mut v, |i| i as u32);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn reduce_sum_and_min() {
        let pool = Pool::new(4);
        let data: Vec<u64> = (1..=100_000).collect();
        assert_eq!(reduce(&pool, &data, 0, |a, b| a + b), 100_000 * 100_001 / 2);
        assert_eq!(reduce(&pool, &data, u64::MAX, |a, b| a.min(b)), 1);
        assert_eq!(sum_u64(&pool, &data), 100_000 * 100_001 / 2);
    }

    #[test]
    fn reduce_empty_gives_identity() {
        let pool = Pool::new(2);
        assert_eq!(reduce::<u64>(&pool, &[], 42, |a, b| a + b), 42);
    }

    #[test]
    fn max_by_finds_first_max() {
        let pool = Pool::new(4);
        let mut data = vec![1i64; 30_000];
        data[7777] = 99;
        data[20_000] = 99;
        let (i, v) = max_by(&pool, &data, |a, b| a.cmp(b)).unwrap();
        assert_eq!((i, v), (7777, 99));
        assert!(max_by::<i64>(&pool, &[], |a, b| a.cmp(b)).is_none());
    }

    #[test]
    fn sum_f64_exact_on_dyadic_values() {
        let pool = Pool::new(4);
        let data = vec![0.5f64; 65536];
        assert_eq!(sum_f64(&pool, &data), 32768.0);
    }
}
