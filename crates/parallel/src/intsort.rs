//! Stable parallel integer sort (counting sort for bounded keys).
//!
//! Theorem 5's randomized heat-kernel PageRank integer-sorts walk
//! destinations after remapping them into `[0, N]` — `n` items whose keys
//! are bounded by `O(n)`, which a counting sort handles in `O(n + K)`
//! work. (Theorem 1's sweep cut, as the paper states it, integer-sorts
//! its `Z` array the same way; `lgc-core`'s sweep groups by rank before
//! writing and needs no sort.)
//!
//! The parallel version builds per-block histograms, cuts the output into
//! `(key, block)`-major runs of those sizes, and has each block scatter
//! its elements into its own runs — the textbook stable parallel counting
//! sort.

use crate::{map_chunks, Pool};

/// Stably sorts `input` by `key(x) ∈ [0, num_keys)`, returning a new `Vec`.
///
/// `key` must be pure (it is evaluated twice per element) and must return
/// values strictly below `num_keys`.
///
/// ```
/// use lgc_parallel::{Pool, counting_sort_by_key};
/// let pool = Pool::new(2);
/// let out = counting_sort_by_key(&pool, &[(2, 'a'), (0, 'b'), (2, 'c')], |&(k, _)| k, 3);
/// assert_eq!(out, vec![(0, 'b'), (2, 'a'), (2, 'c')]);
/// ```
pub fn counting_sort_by_key<T: Copy + Send + Sync>(
    pool: &Pool,
    input: &[T],
    key: impl Fn(&T) -> usize + Sync,
    num_keys: usize,
) -> Vec<T> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if !pool.worth_forking(n) {
        return seq_counting_sort(input, key, num_keys);
    }

    // Per-block histograms.
    let block_len = n.div_ceil(pool.num_threads() * 2);
    let counts = map_chunks(pool, n, block_len, |s, e| {
        let mut count = vec![0usize; num_keys];
        for x in &input[s..e] {
            let k = key(x);
            debug_assert!(k < num_keys, "key {k} out of range {num_keys}");
            count[k] += 1;
        }
        count
    });

    // Cut the output (key, block)-major: run `(k, b)` receives block `b`'s
    // elements of key `k`, which is the stable order. Each block gets its
    // `num_keys` runs and fills each from the front.
    let mut out = vec![input[0]; n];
    let mut runs: Vec<Vec<&mut [T]>> = counts
        .iter()
        .map(|_| Vec::with_capacity(num_keys))
        .collect();
    let mut rest = &mut out[..];
    for k in 0..num_keys {
        for (count, runs) in counts.iter().zip(&mut runs) {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(count[k]);
            runs.push(run);
            rest = tail;
        }
    }
    pool.for_each_chunk_mut(&mut runs, 1, |b0, blocks| {
        for (b, runs) in (b0..).zip(blocks) {
            for x in &input[b * block_len..((b + 1) * block_len).min(n)] {
                let run = &mut runs[key(x)];
                let (slot, tail) = std::mem::take(run)
                    .split_first_mut()
                    .expect("the histogram counted it");
                *slot = *x;
                *run = tail;
            }
        }
    });
    drop(runs);
    out
}

/// The one-pass form, for a non-empty `input`.
fn seq_counting_sort<T: Copy>(input: &[T], key: impl Fn(&T) -> usize, num_keys: usize) -> Vec<T> {
    let mut counts = vec![0usize; num_keys + 1];
    for x in input {
        let k = key(x);
        debug_assert!(k < num_keys, "key {k} out of range {num_keys}");
        counts[k + 1] += 1;
    }
    for i in 0..num_keys {
        counts[i + 1] += counts[i];
    }
    let mut out = vec![input[0]; input.len()];
    for x in input {
        let k = key(x);
        out[counts[k]] = *x;
        counts[k] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(n: usize, num_keys: usize, threads: usize) {
        let pool = Pool::new(threads);
        let data: Vec<(usize, usize)> = (0..n)
            .map(|i| ((i.wrapping_mul(2654435761)) % num_keys, i))
            .collect();
        let got = counting_sort_by_key(&pool, &data, |&(k, _)| k, num_keys);
        let mut want = data.clone();
        want.sort_by_key(|&(k, _)| k); // std stable sort as the reference
        assert_eq!(got, want, "n={n} K={num_keys} t={threads}");
    }

    #[test]
    fn parallel_matches_stable_reference() {
        check(100_000, 1000, 4);
        check(50_000, 7, 3);
        check(20_000, 20_001, 2);
    }

    #[test]
    fn sequential_path() {
        check(100, 10, 1);
        check(5000, 50, 1);
    }

    #[test]
    fn empty_and_singleton() {
        let pool = Pool::new(2);
        let empty: Vec<u32> = vec![];
        assert!(counting_sort_by_key(&pool, &empty, |&x| x as usize, 5).is_empty());
        assert_eq!(
            counting_sort_by_key(&pool, &[3u32], |&x| x as usize, 5),
            vec![3]
        );
    }

    #[test]
    fn single_key_preserves_order() {
        let pool = Pool::new(4);
        let data: Vec<(usize, usize)> = (0..30_000).map(|i| (0, i)).collect();
        let got = counting_sort_by_key(&pool, &data, |&(k, _)| k, 1);
        assert_eq!(got, data);
    }
}
