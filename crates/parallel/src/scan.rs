//! Parallel prefix sums (scans) over an arbitrary associative operator.
//!
//! The paper uses prefix sums with `+` (volumes, crossing-edge counts,
//! filter offsets) and with `min` (choosing the lowest-conductance sweep
//! prefix). Both are instances of the generic scans here.
//!
//! Implementation: the classic two-pass blocked scan — per-block reductions,
//! a short sequential scan over the block sums, then per-block local scans
//! seeded with the block offsets. `O(n)` work, `O(log n)`-style depth with
//! block count proportional to the thread count.

use crate::{default_grain, map_chunks, Pool};

/// Inclusive scan: `out[i] = x[0] ⊕ x[1] ⊕ … ⊕ x[i]`.
///
/// `identity` must satisfy `op(identity, x) == x`.
///
/// ```
/// use lgc_parallel::{Pool, scan_inclusive};
/// let pool = Pool::new(2);
/// let out = scan_inclusive(&pool, &[1u64, 2, 3, 4], 0, |a, b| a + b);
/// assert_eq!(out, vec![1, 3, 6, 10]);
/// ```
pub fn scan_inclusive<T: Copy + Send + Sync>(
    pool: &Pool,
    input: &[T],
    identity: T,
    op: impl Fn(T, T) -> T + Sync,
) -> Vec<T> {
    scan_impl(pool, input, identity, op, true).0
}

/// Exclusive scan: `out[i] = x[0] ⊕ … ⊕ x[i-1]` (with `out[0] = identity`).
/// Also returns the total reduction of the whole input.
///
/// ```
/// use lgc_parallel::{Pool, scan_exclusive};
/// let pool = Pool::new(2);
/// let (out, total) = scan_exclusive(&pool, &[1u64, 2, 3, 4], 0, |a, b| a + b);
/// assert_eq!(out, vec![0, 1, 3, 6]);
/// assert_eq!(total, 10);
/// ```
pub fn scan_exclusive<T: Copy + Send + Sync>(
    pool: &Pool,
    input: &[T],
    identity: T,
    op: impl Fn(T, T) -> T + Sync,
) -> (Vec<T>, T) {
    scan_impl(pool, input, identity, op, false)
}

fn scan_impl<T: Copy + Send + Sync>(
    pool: &Pool,
    input: &[T],
    identity: T,
    op: impl Fn(T, T) -> T + Sync,
    inclusive: bool,
) -> (Vec<T>, T) {
    let n = input.len();
    if n == 0 {
        return (Vec::new(), identity);
    }
    if !pool.worth_forking(n) {
        // Sequential fallback.
        let mut out = Vec::with_capacity(n);
        let mut acc = identity;
        for &x in input {
            if inclusive {
                acc = op(acc, x);
                out.push(acc);
            } else {
                out.push(acc);
                acc = op(acc, x);
            }
        }
        return (out, acc);
    }

    let grain = default_grain(n, pool.num_threads());

    // Pass 1: per-block reductions.
    let block_sums = map_chunks(pool, n, grain, |s, e| {
        input[s..e].iter().fold(identity, |a, &b| op(a, b))
    });

    // Short sequential scan over the O(threads) block sums.
    let mut offsets = Vec::with_capacity(block_sums.len());
    let mut acc = identity;
    for &s in &block_sums {
        offsets.push(acc);
        acc = op(acc, s);
    }
    let total = acc;

    // Pass 2: per-block local scans seeded with block offsets.
    let mut out = vec![identity; n];
    pool.for_each_chunk_mut(&mut out, grain, |s, chunk| {
        let mut acc = offsets[s / grain];
        for (o, &x) in chunk.iter_mut().zip(&input[s..]) {
            if inclusive {
                acc = op(acc, x);
                *o = acc;
            } else {
                *o = acc;
                acc = op(acc, x);
            }
        }
    });
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_inclusive(xs: &[i64]) -> Vec<i64> {
        let mut acc = 0;
        xs.iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect()
    }

    #[test]
    fn inclusive_matches_sequential_large() {
        let pool = Pool::new(4);
        let data: Vec<i64> = (0..100_000).map(|i| (i % 17) - 8).collect();
        assert_eq!(
            scan_inclusive(&pool, &data, 0, |a, b| a + b),
            seq_inclusive(&data)
        );
    }

    #[test]
    fn exclusive_matches_shifted_inclusive() {
        let pool = Pool::new(4);
        let data: Vec<i64> = (0..50_000).map(|i| i % 23).collect();
        let (ex, total) = scan_exclusive(&pool, &data, 0, |a, b| a + b);
        let inc = scan_inclusive(&pool, &data, 0, |a, b| a + b);
        assert_eq!(total, *inc.last().unwrap());
        assert_eq!(ex[0], 0);
        assert_eq!(&ex[1..], &inc[..inc.len() - 1]);
    }

    #[test]
    fn min_scan() {
        let pool = Pool::new(3);
        let data: Vec<i64> = (0..40_000)
            .map(|i| ((i * 2654435761u64 as i64) % 1000) - 500)
            .collect();
        let got = scan_inclusive(&pool, &data, i64::MAX, |a, b| a.min(b));
        let mut acc = i64::MAX;
        let want: Vec<i64> = data
            .iter()
            .map(|&x| {
                acc = acc.min(x);
                acc
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_input() {
        let pool = Pool::new(2);
        assert!(scan_inclusive::<u32>(&pool, &[], 0, |a, b| a + b).is_empty());
        let (v, t) = scan_exclusive::<u32>(&pool, &[], 0, |a, b| a + b);
        assert!(v.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn single_element() {
        let pool = Pool::new(2);
        assert_eq!(scan_inclusive(&pool, &[5u32], 0, |a, b| a + b), vec![5]);
        let (v, t) = scan_exclusive(&pool, &[5u32], 0, |a, b| a + b);
        assert_eq!(v, vec![0]);
        assert_eq!(t, 5);
    }
}
