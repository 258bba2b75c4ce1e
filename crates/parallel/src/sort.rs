//! Stable parallel comparison sort (`O(N log N)` work).
//!
//! The sweep cut sorts vertices by degree-normalized mass `p[v]/d(v)`; the
//! paper charges `O(N log N)` work and `O(log N)` depth to this step. We
//! implement a bottom-up parallel merge sort: base runs are sorted
//! independently, then merged pairwise; each pairwise merge is itself
//! parallelized by splitting the *output* into segments whose input
//! boundaries are found with the classic co-ranking binary search, so even
//! the final single merge uses every thread.

use crate::{Pool, UnsafeSlice};
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
    {
        let view = UnsafeSlice::new(data);
        pool.for_each_index(n_runs, 1, |r| {
            let s = (r * run_len).min(n);
            let e = ((r + 1) * run_len).min(n);
            if s < e {
                // SAFETY: runs are disjoint subranges of `data`; each job
                // index touches exactly one run.
                let run = unsafe { std::slice::from_raw_parts_mut(view.ptr_at(s), e - s) };
                run.sort_by(&cmp);
            }
        });
    }

    // Scratch destination for the ping-pong merge rounds. Filling with a
    // copy of `data[0]` (`n >= FORK_MIN_LEN`, checked above) keeps every slot
    // initialized without unsafe `set_len`; each round overwrites every
    // slot before it is read, so the fill value is never observed.
    let mut buf: Vec<T> = vec![data[0]; n];

    let mut width = run_len;
    let mut src_is_data = true;
    while width < n {
        {
            let (src_view, dst_view) = if src_is_data {
                (UnsafeSlice::new(data), UnsafeSlice::new(&mut buf))
            } else {
                (UnsafeSlice::new(&mut buf), UnsafeSlice::new(data))
            };
            merge_round(pool, &src_view, &dst_view, n, width, &cmp);
        }
        src_is_data = !src_is_data;
        width *= 2;
    }

    if !src_is_data {
        // Result currently lives in `buf`; copy back in parallel.
        let dst = UnsafeSlice::new(data);
        let src = &buf;
        pool.run(n, 1 << 14, |s, e| {
            #[allow(clippy::needless_range_loop)] // i addresses src and dst
            for i in s..e {
                // SAFETY: disjoint writes; src immutable this phase.
                unsafe { dst.write(i, src[i]) };
            }
        });
    }
}

/// One merge round: pairs of adjacent `width`-long sorted runs in `src`
/// are merged into `dst`. Parallelism is two-level: across pairs and
/// across output segments within each pair.
fn merge_round<T: Copy + Send + Sync>(
    pool: &Pool,
    src: &UnsafeSlice<'_, T>,
    dst: &UnsafeSlice<'_, T>,
    n: usize,
    width: usize,
    cmp: &(impl Fn(&T, &T) -> Ordering + Sync),
) {
    let pair_span = width * 2;
    let n_pairs = n.div_ceil(pair_span);
    let target_jobs = pool.num_threads() * 4;
    let segs_per_pair = target_jobs.div_ceil(n_pairs).max(1);
    let total_jobs = n_pairs * segs_per_pair;

    pool.for_each_index(total_jobs, 1, |job| {
        let pair = job / segs_per_pair;
        let seg = job % segs_per_pair;
        let lo = pair * pair_span;
        let mid = (lo + width).min(n);
        let hi = (lo + pair_span).min(n);
        // SAFETY: this round only writes `dst`; `src` is fully initialized
        // and read-only, so shared reborrows of `[lo, mid)` are sound.
        let a = unsafe { src.slice(lo, mid) };
        // SAFETY: same contract as `a`, for the right half `[mid, hi)`.
        let b = unsafe { src.slice(mid, hi) };
        let out_len = hi - lo;
        let k1 = out_len * seg / segs_per_pair;
        let k2 = out_len * (seg + 1) / segs_per_pair;
        if k1 >= k2 {
            return;
        }
        let (i1, j1) = co_rank(k1, a, b, cmp);
        let (i2, j2) = co_rank(k2, a, b, cmp);
        // Sequential stable merge of the co-ranked input segments.
        let (mut i, mut j, mut o) = (i1, j1, lo + k1);
        while i < i2 && j < j2 {
            if cmp(&a[i], &b[j]) != Ordering::Greater {
                // SAFETY: each output index written by exactly one segment.
                unsafe { dst.write(o, a[i]) };
                i += 1;
            } else {
                // SAFETY: each output index written by exactly one segment.
                unsafe { dst.write(o, b[j]) };
                j += 1;
            }
            o += 1;
        }
        while i < i2 {
            // SAFETY: drains `a`'s remainder into this segment's exclusive
            // output range `[lo + k1, lo + k2)`.
            unsafe { dst.write(o, a[i]) };
            i += 1;
            o += 1;
        }
        while j < j2 {
            // SAFETY: drains `b`'s remainder into this segment's exclusive
            // output range `[lo + k1, lo + k2)`.
            unsafe { dst.write(o, b[j]) };
            j += 1;
            o += 1;
        }
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

impl<T> UnsafeSlice<'_, T> {
    /// Raw pointer to element `i` (bounds-checked in debug builds).
    pub(crate) fn ptr_at(&self, i: usize) -> *mut T {
        debug_assert!(i <= self.len());
        // SAFETY: in-bounds offset of the underlying allocation.
        unsafe { self.as_ptr().add(i) }
    }

    /// Reborrows `[s, e)` as an immutable slice.
    ///
    /// # Safety
    /// No thread may concurrently write any index in `[s, e)` and the range
    /// must be initialized.
    pub(crate) unsafe fn slice(&self, s: usize, e: usize) -> &[T] {
        debug_assert!(s <= e && e <= self.len());
        // SAFETY: caller contract.
        unsafe { std::slice::from_raw_parts(self.as_ptr().add(s), e - s) }
    }
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
