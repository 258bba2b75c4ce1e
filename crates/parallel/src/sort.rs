//! Stable parallel comparison sort (`O(N log N)` work).
//!
//! The sweep cut sorts vertices by degree-normalized mass `p[v]/d(v)`; the
//! paper charges `O(N log N)` work and `O(log N)` depth to this step. We
//! implement a bottom-up parallel merge sort: base runs are sorted
//! independently, then merged pairwise; each pairwise merge is itself
//! parallelized by splitting the *output* into segments whose input
//! boundaries are found with the classic co-ranking binary search, so even
//! the final single merge uses every thread.

use crate::Pool;
use std::cmp::Ordering;

/// Sorts `data` stably by `cmp` using all threads of `pool`.
///
/// Equal elements keep their original relative order (the sweep cut relies
/// on this to break `p/d` ties by vertex id deterministically).
pub fn merge_sort_by<T: Copy + Send + Sync>(
    pool: &Pool,
    data: &mut [T],
    cmp: impl Fn(&T, &T) -> Ordering + Sync,
) {
    let n = data.len();
    if !pool.worth_forking(n) {
        data.sort_by(&cmp);
        return;
    }

    // Power-of-two run count so every merge round pairs runs exactly.
    let n_runs = (pool.num_threads() * 4)
        .next_power_of_two()
        .min(n.next_power_of_two());
    let run_len = n.div_ceil(n_runs);

    // Sort base runs in place, in parallel.
    pool.for_each_chunk_mut(data, run_len, |_, run| run.sort_by(&cmp));

    // Scratch destination for the ping-pong merge rounds. Filling with a
    // copy of `data[0]` (`n >= FORK_MIN_LEN`, checked above) keeps every slot
    // initialized; each round overwrites every slot before it is read, so
    // the fill value is never observed.
    let mut buf: Vec<T> = vec![data[0]; n];

    let mut width = run_len;
    let mut src_is_data = true;
    while width < n {
        if src_is_data {
            merge_round(pool, data, &mut buf, width, &cmp);
        } else {
            merge_round(pool, &buf, data, width, &cmp);
        }
        src_is_data = !src_is_data;
        width *= 2;
    }

    if !src_is_data {
        // Result currently lives in `buf`; copy back in parallel.
        pool.for_each_chunk_mut(data, 1 << 14, |s, chunk| {
            chunk.copy_from_slice(&buf[s..s + chunk.len()]);
        });
    }
}

/// One merge round: pairs of adjacent `width`-long sorted runs in `src`
/// are merged into `dst`. Parallelism is two-level: across pairs and
/// across output segments within each pair.
fn merge_round<T: Copy + Send + Sync>(
    pool: &Pool,
    src: &[T],
    dst: &mut [T],
    width: usize,
    cmp: &(impl Fn(&T, &T) -> Ordering + Sync),
) {
    let n = src.len();
    let pair_span = width * 2;
    let n_pairs = n.div_ceil(pair_span);
    let target_jobs = pool.num_threads() * 4;
    let segs_per_pair = target_jobs.div_ceil(n_pairs).max(1);
    let total_jobs = n_pairs * segs_per_pair;
    // Job `pair · segs_per_pair + seg` writes output positions
    // `[lo + k1, lo + k2)` of its pair: the cut points are the k1s.
    let pair_of = |job: usize| {
        let lo = job / segs_per_pair * pair_span;
        (lo, (lo + width).min(n), (lo + pair_span).min(n))
    };
    let seg_start = |job: usize| {
        let (lo, _, hi) = pair_of(job);
        (hi - lo) * (job % segs_per_pair) / segs_per_pair
    };
    let bounds: Vec<usize> = (0..total_jobs)
        .map(|job| pair_of(job).0 + seg_start(job))
        .chain([n])
        .collect();

    pool.map_ranges_mut(dst, &bounds, |job, out| {
        if out.is_empty() {
            return;
        }
        let (lo, mid, hi) = pair_of(job);
        let (a, b) = (&src[lo..mid], &src[mid..hi]);
        let k1 = seg_start(job);
        let (i1, j1) = co_rank(k1, a, b, cmp);
        let (i2, j2) = co_rank(k1 + out.len(), a, b, cmp);
        // Sequential stable merge of the co-ranked input segments.
        let (mut i, mut j, mut o) = (i1, j1, 0);
        while i < i2 && j < j2 {
            if cmp(&a[i], &b[j]) != Ordering::Greater {
                out[o] = a[i];
                i += 1;
            } else {
                out[o] = b[j];
                j += 1;
            }
            o += 1;
        }
        let (a_rest, b_rest) = (&a[i..i2], &b[j..j2]);
        out[o..o + a_rest.len()].copy_from_slice(a_rest);
        out[o + a_rest.len()..].copy_from_slice(b_rest);
    });
}

/// Finds the stable split `(i, j)` with `i + j == k` such that merging
/// `a[..i]` and `b[..j]` yields the first `k` outputs of the full merge
/// (elements of `a` precede equal elements of `b`).
fn co_rank<T>(k: usize, a: &[T], b: &[T], cmp: &impl Fn(&T, &T) -> Ordering) -> (usize, usize) {
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cmp(&a[mid], &b[k - mid - 1]) == Ordering::Greater {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo, k - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_sort(n: usize, threads: usize, gen: impl Fn(usize) -> u64) {
        let pool = Pool::new(threads);
        let mut data: Vec<(u64, usize)> = (0..n).map(|i| (gen(i), i)).collect();
        let mut want = data.clone();
        want.sort_by_key(|a| a.0);
        merge_sort_by(&pool, &mut data, |a, b| a.0.cmp(&b.0));
        assert_eq!(data, want, "n={n} threads={threads}");
    }

    #[test]
    fn random_like_input() {
        check_sort(100_000, 4, |i| {
            (i as u64).wrapping_mul(2654435761) % 1_000_003
        });
    }

    #[test]
    fn already_sorted_and_reversed() {
        check_sort(50_000, 3, |i| i as u64);
        check_sort(50_000, 3, |i| (50_000 - i) as u64);
    }

    #[test]
    fn many_duplicates_stability() {
        // Keys in {0..8}; stability means payloads stay in index order
        // within each key, which the (key, index) comparison in check_sort
        // verifies via std's stable sort as reference.
        check_sort(80_000, 4, |i| (i as u64 * 7919) % 8);
    }

    #[test]
    fn small_inputs_use_sequential_path() {
        check_sort(0, 2, |i| i as u64);
        check_sort(1, 2, |i| i as u64);
        check_sort(1000, 2, |i| (1000 - i) as u64);
    }

    #[test]
    fn co_rank_splits_correctly() {
        let a = [1, 3, 5, 7];
        let b = [2, 4, 6, 8];
        let cmp = |x: &i32, y: &i32| x.cmp(y);
        for k in 0..=8 {
            let (i, j) = co_rank(k, &a, &b, &cmp);
            assert_eq!(i + j, k);
            // Everything taken must be <= everything not taken.
            if i > 0 && j < b.len() {
                assert!(a[i - 1] <= b[j]);
            }
            if j > 0 && i < a.len() {
                assert!(b[j - 1] < a[i]);
            }
        }
    }

    #[test]
    fn co_rank_with_all_equal_prefers_a() {
        let a = [5, 5, 5];
        let b = [5, 5, 5];
        let cmp = |x: &i32, y: &i32| x.cmp(y);
        let (i, j) = co_rank(3, &a, &b, &cmp);
        assert_eq!((i, j), (3, 0), "stability: a's elements come first");
    }

    #[test]
    fn float_keys_descending() {
        let pool = Pool::new(4);
        let n = 60_000;
        let mut data: Vec<(f64, u32)> =
            (0..n).map(|i| ((i as f64 * 0.7).sin(), i as u32)).collect();
        let mut want = data.clone();
        let cmp =
            |a: &(f64, u32), b: &(f64, u32)| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1));
        want.sort_by(cmp);
        merge_sort_by(&pool, &mut data, cmp);
        assert_eq!(data, want);
    }
}
