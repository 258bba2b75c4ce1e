//! Property-based tests on diffusion invariants, over random graphs,
//! seeds, parameters, and thread counts.

use plgc::cluster as lgc;
use plgc::{Algorithm, CsrBackend, LocalDiffusion, Pool, Seed, Workspace};
use proptest::prelude::*;

fn small_graph() -> impl Strategy<Value = (plgc::Graph, u32)> {
    (10usize..200, 0u64..1000).prop_map(|(n, s)| {
        let g = plgc::graph::gen::rand_local(n.max(10), 4, s);
        let seed = plgc::graph::largest_component(&g)[0];
        (g, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nibble_mass_never_exceeds_one((g, v) in small_graph(), t_max in 1usize..12, threads in 1usize..=3) {
        let pool = Pool::new(threads);
        let d = Algorithm::Nibble(lgc::NibbleParams { t_max, eps: 1e-6 }).diffuse(&pool, &g, &Seed::single(v), &mut Workspace::new());
        let total = d.total_mass();
        prop_assert!(total <= 1.0 + 1e-9, "mass {}", total);
        prop_assert!(d.p.iter().all(|&(_, m)| m > 0.0));
        prop_assert!((total + d.stats.residual_mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prnibble_conserves_mass((g, v) in small_graph(), alpha in 0.01f64..0.5, threads in 1usize..=3) {
        let pool = Pool::new(threads);
        let params = lgc::PrNibbleParams { alpha, eps: 1e-5, ..Default::default() };
        let d = Algorithm::PrNibble(params).diffuse(&pool, &g, &Seed::single(v), &mut Workspace::new());
        prop_assert!((d.total_mass() + d.stats.residual_mass - 1.0).abs() < 1e-9);
        // Work bound (Theorem 3).
        prop_assert!((d.stats.pushed_volume as f64) <= 1.0 / (alpha * 1e-5));
    }

    #[test]
    fn hkpr_par_matches_seq_support((g, v) in small_graph(), t in 0.5f64..8.0, threads in 1usize..=3) {
        let params = lgc::HkprParams { t, n_levels: 10, eps: 1e-5 };
        let seq = lgc::hkpr_seq(&g, &Seed::single(v), &params);
        let pool = Pool::new(threads);
        let par = Algorithm::Hkpr(params).diffuse(&pool, &g, &Seed::single(v), &mut Workspace::new());
        prop_assert_eq!(seq.support_size(), par.support_size());
        prop_assert_eq!(seq.stats.pushes, par.stats.pushes);
        for (&(va, ma), &(vb, mb)) in seq.p.iter().zip(&par.p) {
            prop_assert_eq!(va, vb);
            prop_assert!((ma - mb).abs() <= 1e-12 * ma.abs().max(1.0));
        }
    }

    #[test]
    fn rand_hkpr_mass_exactly_one((g, v) in small_graph(), walks in 100usize..5000, threads in 1usize..=3) {
        let pool = Pool::new(threads);
        let params = lgc::RandHkprParams { t: 3.0, max_len: 8, walks, rng_seed: 1 };
        let d = Algorithm::RandHkpr(params).diffuse(&pool, &g, &Seed::single(v), &mut Workspace::new());
        prop_assert!((d.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cluster_results_are_valid_sets((g, v) in small_graph(), threads in 1usize..=3) {
        let pool = Pool::new(threads);
        let res = lgc::find_cluster(
            &pool, &g, &Seed::single(v),
            &lgc::Algorithm::PrNibble(lgc::PrNibbleParams { alpha: 0.1, eps: 1e-5, ..Default::default() }),
        );
        // Cluster is non-empty, duplicate-free, within range, and its
        // conductance equals the direct computation.
        prop_assert!(!res.cluster.is_empty());
        let mut sorted = res.cluster.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), res.cluster.len());
        prop_assert!(res.cluster.iter().all(|&u| (u as usize) < g.num_vertices()));
        let direct = g.conductance(&res.cluster);
        prop_assert!((direct - res.conductance).abs() < 1e-9 || (direct.is_infinite() && res.conductance.is_infinite()));
    }
}

/// `ℓ₁` distance between two sparse diffusion vectors (union of supports).
fn l1_distance(a: &plgc::Diffusion, b: &plgc::Diffusion) -> f64 {
    let mut dist = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < a.p.len() || j < b.p.len() {
        match (a.p.get(i), b.p.get(j)) {
            (Some(&(va, ma)), Some(&(vb, mb))) if va == vb => {
                dist += (ma - mb).abs();
                i += 1;
                j += 1;
            }
            (Some(&(va, ma)), Some(&(vb, _))) if va < vb => {
                dist += ma.abs();
                i += 1;
            }
            (Some(_), Some(&(_, mb))) => {
                dist += mb.abs();
                j += 1;
            }
            (Some(&(_, ma)), None) => {
                dist += ma.abs();
                i += 1;
            }
            (None, Some(&(_, mb))) => {
                dist += mb.abs();
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Traversal direction must be invisible to the algorithms:
    /// push-pinned, pull-pinned, and auto engines return the same vector
    /// from each parallel diffusion.
    /// Nibble and HK-PR pull reproduces the push accumulation order
    /// exactly at one thread (bitwise); PR-Nibble's pull path re-brackets
    /// the residual commit, so everything is held to a tight ℓ₁ tolerance
    /// instead.
    #[test]
    fn diffusions_are_direction_invariant((g, v) in small_graph(), threads in 1usize..=3) {
        use plgc::ligra::DirectionParams;
        let dirs = [
            DirectionParams::push_only(),
            DirectionParams::pull_only(),
            DirectionParams::default(),
        ];
        let engines = dirs.map(|dir| plgc::Engine::builder(&g).threads(threads).direction(dir).build());
        let run = |algo: plgc::Algorithm| -> Vec<_> {
            engines.iter().map(|e| e.diffuse(&Seed::single(v), &algo)).collect()
        };

        let nib = run(plgc::Algorithm::Nibble(lgc::NibbleParams { t_max: 8, eps: 1e-6 }));
        let hk = run(plgc::Algorithm::Hkpr(lgc::HkprParams { t: 3.0, n_levels: 8, eps: 1e-5 }));
        let pr = run(plgc::Algorithm::PrNibble(lgc::PrNibbleParams { alpha: 0.05, eps: 1e-5, ..Default::default() }));

        for runs in [&nib, &hk, &pr] {
            for other in &runs[1..] {
                prop_assert!(l1_distance(&runs[0], other) < 1e-9);
            }
        }
        if threads == 1 {
            // Pull replays the push accumulation order per destination.
            prop_assert_eq!(&nib[0].p, &nib[1].p);
            prop_assert_eq!(&hk[0].p, &hk[1].p);
            prop_assert_eq!(nib[0].stats.pushes, nib[1].stats.pushes);
            prop_assert_eq!(hk[0].stats.pushes, hk[1].stats.pushes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The adaptive mass store must be invisible to the algorithm:
    /// PR-Nibble with dense-pinned and sparse-pinned `MassMap`s returns
    /// identical sorted vectors and conserves mass in both modes (and in
    /// the adaptive default).
    #[test]
    fn prnibble_dense_and_sparse_mass_maps_agree(
        (g, v) in small_graph(),
        alpha in 0.01f64..0.5,
        threads in 1usize..=3,
    ) {
        let pool = Pool::new(threads);
        let run = |dense_frac: f64| {
            let params = lgc::PrNibbleParams {
                alpha,
                eps: 1e-5,
                dense_frac,
                ..Default::default()
            };
            Algorithm::PrNibble(params).diffuse(&pool, &g, &Seed::single(v), &mut Workspace::new())
        };
        let dense = run(0.0);            // every vector direct-indexed
        let sparse = run(f64::INFINITY); // every vector hash-backed
        let adaptive = run(lgc::PrNibbleParams::default().dense_frac);
        // Mass conservation must hold in every mode at every thread
        // count; the discrete comparisons below are gated on a single
        // thread, where runs are fully deterministic. (At threads > 1
        // the scheduler-dependent f64 accumulation order can move a
        // residual across the eps·d(v) threshold by an ulp, legitimately
        // changing push counts between backends.)
        for d in [&dense, &sparse, &adaptive] {
            prop_assert!((d.total_mass() + d.stats.residual_mass - 1.0).abs() < 1e-9);
        }
        if threads == 1 {
            prop_assert_eq!(dense.stats.pushes, sparse.stats.pushes);
            prop_assert_eq!(dense.stats.iterations, sparse.stats.iterations);
            prop_assert_eq!(dense.support_size(), sparse.support_size());
            prop_assert_eq!(adaptive.support_size(), sparse.support_size());
            for ((&(va, ma), &(vb, mb)), &(vc, mc)) in
                dense.p.iter().zip(&sparse.p).zip(&adaptive.p)
            {
                prop_assert_eq!(va, vb);
                prop_assert_eq!(va, vc);
                let scale = ma.abs().max(1.0);
                prop_assert!((ma - mb).abs() <= 1e-12 * scale, "v{}: {} vs {}", va, ma, mb);
                prop_assert!((ma - mc).abs() <= 1e-12 * scale, "v{}: {} vs {}", va, ma, mc);
            }
        }
    }
}
