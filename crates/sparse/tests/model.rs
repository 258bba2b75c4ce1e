//! Model-based property tests: the sparse sets must behave exactly like a
//! `HashMap` under arbitrary operation sequences.

use lgc_parallel::Pool;
use lgc_sparse::{ConcurrentSparseVec, SparseVec};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Add(u32, f64),
    Set(u32, f64),
    Get(u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..64, -4.0f64..4.0).prop_map(|(k, v)| Op::Add(k, v)),
            (0u32..64, -4.0f64..4.0).prop_map(|(k, v)| Op::Set(k, v)),
            (0u32..96).prop_map(Op::Get),
        ],
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn seq_sparse_vec_matches_hashmap(ops in ops()) {
        let mut sv = SparseVec::new_f64();
        let mut model: HashMap<u32, f64> = HashMap::new();
        for op in ops {
            match op {
                Op::Add(k, v) => {
                    sv.add(k, v);
                    *model.entry(k).or_insert(0.0) += v;
                }
                Op::Set(k, v) => {
                    sv.set(k, v);
                    model.insert(k, v);
                }
                Op::Get(k) => {
                    prop_assert_eq!(sv.get(k), model.get(&k).copied().unwrap_or(0.0));
                }
            }
        }
        prop_assert_eq!(sv.len(), model.len());
        let mut got = sv.entries_sorted();
        let mut want: Vec<(u32, f64)> = model.into_iter().collect();
        want.sort_unstable_by_key(|&(k, _)| k);
        got.sort_unstable_by_key(|&(k, _)| k);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn concurrent_adds_match_sequential_totals(
        keys in prop::collection::vec(0u32..32, 1..2000),
        t in 1usize..=4,
    ) {
        // Parallel accumulation of +0.5 per occurrence must equal the
        // sequential count exactly (dyadic values, atomic fetch-add).
        let pool = Pool::new(t);
        let table = ConcurrentSparseVec::with_capacity(64);
        pool.run(keys.len(), 7, |s, e| {
            for &k in &keys[s..e] {
                table.add(k, 0.5);
            }
        });
        let mut model: HashMap<u32, f64> = HashMap::new();
        for &k in &keys {
            *model.entry(k).or_insert(0.0) += 0.5;
        }
        prop_assert_eq!(table.len(), model.len());
        for (&k, &v) in &model {
            prop_assert_eq!(table.get(k), v);
        }
        let total: f64 = table.entries(&pool).iter().map(|&(_, v)| v).sum();
        prop_assert_eq!(total, keys.len() as f64 * 0.5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dense-mode and sparse-mode `MassMap` must agree with each other
    /// (and with a `HashMap` model) under arbitrary op sequences:
    /// identical `get`s, identical `entries_sorted`, identical mass.
    #[test]
    fn mass_map_dense_and_sparse_modes_agree(ops in ops()) {
        use lgc_sparse::MassMap;
        let pool = Pool::new(2);
        let universe = 96usize;
        let dense = MassMap::with_dense_fraction(universe, 64, 0.0);
        let sparse = MassMap::with_dense_fraction(universe, 64, f64::INFINITY);
        assert!(dense.is_dense() && !sparse.is_dense());
        let mut model: HashMap<u32, f64> = HashMap::new();
        for op in ops {
            match op {
                Op::Add(k, v) => {
                    dense.add(k, v);
                    sparse.add(k, v);
                    *model.entry(k).or_insert(0.0) += v;
                }
                Op::Set(k, v) => {
                    dense.set(k, v);
                    sparse.set(k, v);
                    model.insert(k, v);
                }
                Op::Get(k) => {
                    let want = model.get(&k).copied().unwrap_or(0.0);
                    prop_assert_eq!(dense.get(k), want);
                    prop_assert_eq!(sparse.get(k), want);
                }
            }
        }
        prop_assert_eq!(dense.len(), model.len());
        prop_assert_eq!(sparse.len(), model.len());
        let de = dense.entries_sorted(&pool);
        let se = sparse.entries_sorted(&pool);
        prop_assert_eq!(&de, &se, "modes must enumerate identically");
        let mut want: Vec<(u32, f64)> = model.into_iter().collect();
        want.sort_unstable_by_key(|&(k, _)| k);
        prop_assert_eq!(de, want);
    }

    /// Concurrent dense-mode accumulation is exact (no lost updates) and
    /// the touched set neither drops nor duplicates keys under contention.
    #[test]
    fn mass_map_dense_concurrent_adds_are_exact(
        keys in prop::collection::vec(0u32..48, 1..2000),
        t in 1usize..=4,
    ) {
        use lgc_sparse::MassMap;
        let pool = Pool::new(t);
        let map = MassMap::with_dense_fraction(48, 48, 0.0);
        pool.run(keys.len(), 7, |s, e| {
            for &k in &keys[s..e] {
                map.add(k, 0.5);
            }
        });
        let mut model: HashMap<u32, f64> = HashMap::new();
        for &k in &keys {
            *model.entry(k).or_insert(0.0) += 0.5;
        }
        prop_assert_eq!(map.len(), model.len());
        for (&k, &v) in &model {
            prop_assert_eq!(map.get(k), v);
        }
        let total: f64 = map.entries(&pool).iter().map(|&(_, v)| v).sum();
        prop_assert_eq!(total, keys.len() as f64 * 0.5);
    }

    /// Four writers racing to first-touch overlapping key sets (every key
    /// is written by two of them): the count is exact, every key is
    /// enumerated exactly once — ascending when dense, and ascending from
    /// `entries_sorted` in both modes — and a recycled map is afterwards
    /// indistinguishable from a fresh one, down to enumeration order and
    /// `l1_norm` bits.
    #[test]
    fn mass_map_racing_first_touches_count_and_enumerate_once(
        keys in prop::collection::vec(0u32..4096, 1..6000),
        bound in 1usize..4096,
        dense in any::<bool>(),
    ) {
        use lgc_sparse::MassMap;
        const N: usize = 4096;
        let pool = Pool::new(4);
        let frac = if dense { 0.0 } else { f64::INFINITY };
        let mut map = MassMap::with_dense_fraction(N, N, frac);
        pool.for_each_index(4, 1, |w| {
            for (i, &k) in keys.iter().enumerate() {
                if i % 4 == w || (i + 1) % 4 == w {
                    map.add(k, 0.25);
                }
            }
        });
        let mut want = keys.clone();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(map.len(), want.len());
        let entries = map.entries(&pool);
        let mut got: Vec<u32> = entries.iter().map(|&(k, _)| k).collect();
        if dense {
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "dense enumeration ascends");
        }
        got.sort_unstable();
        prop_assert_eq!(&got, &want, "every key exactly once");
        let mut mass: HashMap<u32, f64> = HashMap::new();
        for &k in &keys {
            *mass.entry(k).or_insert(0.0) += 0.5;
        }
        prop_assert!(entries.iter().all(|&(k, v)| v == mass[&k]));
        let sorted: Vec<u32> = map.entries_sorted(&pool).iter().map(|&(k, _)| k).collect();
        prop_assert_eq!(sorted, want);

        // Recycle to a bound that may land in either mode at the fraction
        // `1/8` (the default, `0`, always lands dense).
        let refit = 0.125;
        map.recycle(&pool, N, bound, refit);
        let fresh = MassMap::with_dense_fraction(N, bound, refit);
        prop_assert_eq!(map.is_dense(), fresh.is_dense());
        prop_assert!(map.is_empty());
        for &k in keys.iter().take(bound) {
            map.add(k, 1.0 / (k as f64 + 3.0));
            fresh.add(k, 1.0 / (k as f64 + 3.0));
        }
        prop_assert_eq!(map.len(), fresh.len());
        prop_assert_eq!(map.entries(&pool), fresh.entries(&pool));
        prop_assert_eq!(map.l1_norm(&pool).to_bits(), fresh.l1_norm(&pool).to_bits());
    }
}
