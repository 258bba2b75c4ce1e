//! Parallel filter (a.k.a. pack) — `O(n)` work, logarithmic depth.
//!
//! The paper's algorithms use filter to build the next frontier from the
//! vertices that exceed the diffusion threshold, and inside the parallel
//! sweep cut to extract the last `Z`-array entry of each rank run.

use crate::{default_grain, map_chunks, scan_exclusive, Pool};

/// Returns the elements of `input` satisfying `pred`, preserving order.
pub fn filter<T: Copy + Send + Sync>(
    pool: &Pool,
    input: &[T],
    pred: impl Fn(&T) -> bool + Sync,
) -> Vec<T> {
    let Some(&first) = input.first() else {
        return Vec::new();
    };
    pack(pool, input.len(), first, |i| {
        let x = input[i];
        pred(&x).then_some(x)
    })
}

/// Generalized pack: evaluates `f(i)` for `i in 0..len` and collects the
/// `Some` results in index order. `f` is called at most twice per index
/// (once in the counting pass, once in the writing pass) and must be pure.
pub fn filter_map_index<U: Clone + Default + Send>(
    pool: &Pool,
    len: usize,
    f: impl Fn(usize) -> Option<U> + Sync,
) -> Vec<U> {
    pack(pool, len, U::default(), f)
}

/// [`filter_map_index`] with the value the output buffer is filled with
/// before the survivors overwrite it.
fn pack<U: Clone + Send>(
    pool: &Pool,
    len: usize,
    fill: U,
    f: impl Fn(usize) -> Option<U> + Sync,
) -> Vec<U> {
    if !pool.worth_forking(len) {
        return (0..len).filter_map(f).collect();
    }
    let grain = default_grain(len, pool.num_threads());

    // Pass 1: count survivors per block.
    let counts = map_chunks(pool, len, grain, |s, e| {
        (s..e).filter(|&i| f(i).is_some()).count()
    });

    // Each block's output range starts at its offset.
    let (mut bounds, total) = scan_exclusive(pool, &counts, 0usize, |a, b| a + b);
    bounds.push(total);

    // Pass 2: each block writes its survivors into its range.
    let mut out = vec![fill; total];
    pool.map_ranges_mut(&mut out, &bounds, |b, part| {
        let s = b * grain;
        let survivors = (s..(s + grain).min(len)).filter_map(&f);
        for (slot, v) in part.iter_mut().zip(survivors) {
            *slot = v;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matches_sequential() {
        let pool = Pool::new(4);
        let data: Vec<u32> = (0..100_000).collect();
        let got = filter(&pool, &data, |&x| x % 7 == 0);
        let want: Vec<u32> = data.iter().copied().filter(|&x| x % 7 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn all_and_none() {
        let pool = Pool::new(2);
        let data: Vec<u8> = vec![1; 20_000];
        assert_eq!(filter(&pool, &data, |_| true).len(), 20_000);
        assert!(filter(&pool, &data, |_| false).is_empty());
    }

    #[test]
    fn empty_input() {
        let pool = Pool::new(2);
        assert!(filter::<u8>(&pool, &[], |_| true).is_empty());
        assert!(filter_map_index(&pool, 0, Some).is_empty());
    }

    #[test]
    fn filter_map_transforms() {
        let pool = Pool::new(4);
        let got = filter_map_index(&pool, 30_000, |i| (i % 2 == 0).then_some(i * 10));
        let want: Vec<usize> = (0..30_000).filter(|i| i % 2 == 0).map(|i| i * 10).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn order_is_preserved() {
        let pool = Pool::new(4);
        let data: Vec<u32> = (0..65_536).rev().collect();
        let got = filter(&pool, &data, |&x| x % 3 == 0);
        let want: Vec<u32> = data.iter().copied().filter(|&x| x % 3 == 0).collect();
        assert_eq!(got, want);
    }
}
