//! Parallel map, chunk-ordered sums and arg-max.

use crate::{default_grain, Pool};

/// Builds a `Vec` of length `len` whose `i`-th element is `f(i)`,
/// computing elements in parallel into a buffer first filled with
/// `U::default()` on the calling thread.
pub fn map_index<U: Clone + Default + Send>(
    pool: &Pool,
    len: usize,
    f: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    let mut out = vec![U::default(); len];
    let grain = default_grain(len, pool.num_threads());
    pool.for_each_chunk_mut(&mut out, grain, |s, chunk| {
        for (i, x) in (s..).zip(chunk) {
            *x = f(i);
        }
    });
    out
}

/// Calls `f(s, e)` on each `grain`-sized chunk of `0..len` — chunk `c` is
/// `c·grain .. min((c + 1)·grain, len)`, whatever pool runs it — and
/// returns the chunks' results in chunk order: a loop whose chunks each
/// hand back a small tally (counts, partial sums) for the caller to fold
/// sequentially, so the fold is the same on every pool.
pub fn map_chunks<U: Send>(
    pool: &Pool,
    len: usize,
    grain: usize,
    f: impl Fn(usize, usize) -> U + Sync,
) -> Vec<U> {
    let grain = grain.max(1);
    let mut out: Vec<Option<U>> = (0..len.div_ceil(grain)).map(|_| None).collect();
    pool.for_each_chunk_mut(&mut out, 1, |c0, tallies| {
        for (c, tally) in (c0..).zip(tallies) {
            let s = c * grain;
            *tally = Some(f(s, (s + grain).min(len)));
        }
    });
    out.into_iter()
        .map(|tally| tally.expect("every chunk ran"))
        .collect()
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
    let partials = map_chunks(pool, len, grain, |s, e| {
        let mut acc = 0.0;
        for i in s..e {
            acc += f(i);
        }
        acc
    });
    partials.iter().sum()
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
    if !pool.worth_forking(n) {
        return Some((1..n).map(|i| (i, input[i])).fold((0, input[0]), pick));
    }
    // Per-chunk maxima folded in chunk order, so the first index still wins.
    let grain = default_grain(n, pool.num_threads());
    let partials = map_chunks(pool, n, grain, |s, e| {
        (s + 1..e).map(|i| (i, input[i])).fold((s, input[s]), pick)
    });
    partials.into_iter().reduce(pick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_index_matches_sequential() {
        let pool = Pool::new(3);
        let out = map_index(&pool, 50_000, |i| i as u64 + 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn map_chunks_returns_each_chunks_result_in_order() {
        for threads in [1, 3] {
            let pool = Pool::new(threads);
            let got = map_chunks(&pool, 10_000, 512, |s, e| (s, e));
            let want: Vec<(usize, usize)> = (0..10_000)
                .step_by(512)
                .map(|s| (s, (s + 512).min(10_000)))
                .collect();
            assert_eq!(got, want, "t={threads}");
            assert!(map_chunks(&pool, 0, 512, |s, e| (s, e)).is_empty());
        }
    }

    #[test]
    fn map_index_empty() {
        let pool = Pool::new(2);
        let out: Vec<u8> = map_index(&pool, 0, |_| 7);
        assert!(out.is_empty());
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
}
