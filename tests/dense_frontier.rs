//! The dense half of the frontier, end to end: a pull hands the next
//! iteration its frontier as a bitset (`lgc_ligra::Staged::absorb`'s
//! `keep`), and PR-Nibble, HK-PR and Nibble run on that from pull to pull.
//!
//! Every input here is sized so that its wide iterations reach the forking
//! lane (`|F| + vol(F) ≥ FORK_MIN_WORK`) *and* its dense loops are more
//! than one chunk long (`n > 512`): below either size a "T = 2" run is the
//! one-thread code and the comparison is of a function with itself.

use plgc::cluster as lgc;
use plgc::graph::gen;
use plgc::ligra::FORK_MIN_WORK;
use plgc::{Algorithm, DirectionParams, Engine, Graph, LifecycleSnapshot, LocalDiffusion, Seed};

fn prn(alpha: f64, eps: f64, beta: f64) -> Algorithm {
    Algorithm::PrNibble(lgc::PrNibbleParams {
        alpha,
        eps,
        beta,
        ..Default::default()
    })
}

fn hkpr(t: f64, n_levels: usize, eps: f64) -> Algorithm {
    Algorithm::Hkpr(lgc::HkprParams { t, n_levels, eps })
}

fn nibble(t_max: usize, eps: f64) -> Algorithm {
    Algorithm::Nibble(lgc::NibbleParams { t_max, eps })
}

/// Four planted blocks of 300, dense inside: `n` = 1200, `vol` ≈ 10⁵.
fn dense_blocks(seed: u64) -> Graph {
    gen::sbm(&[300; 4], 0.3, 0.01, seed).0
}

/// The paper's *randLocal* at a size whose saturated frontiers fork.
fn local(seed: u64) -> Graph {
    gen::rand_local(15_000, 5, seed)
}

/// The three frontier diffusions at settings that saturate `dense_blocks`
/// and cover most of `local`.
fn saturating() -> [Algorithm; 3] {
    [prn(0.01, 1e-7, 1.0), hkpr(10.0, 20, 1e-6), nibble(14, 1e-8)]
}

/// One diffusion on a fresh engine, with what the engine tallied for it.
fn diffuse(
    g: &Graph,
    threads: usize,
    dir: DirectionParams,
    seed: &Seed,
    algo: &Algorithm,
) -> (lgc::Diffusion, LifecycleSnapshot, u64) {
    let engine = Engine::builder(g).threads(threads).direction(dir).build();
    let d = engine.diffuse(seed, algo);
    (
        d,
        engine.lifecycle_stats(),
        engine.pool().stats().loops_forked,
    )
}

/// Bit for bit: the vector, every count, and the residual.
fn assert_same_bits(got: &lgc::Diffusion, want: &lgc::Diffusion, ctx: &str) {
    assert_eq!(got.p, want.p, "{ctx}: p");
    let (a, b) = (got.stats, want.stats);
    assert_eq!(
        (a.iterations, a.pushes, a.pushed_volume, a.edges_traversed),
        (b.iterations, b.pushes, b.pushed_volume, b.edges_traversed),
        "{ctx}: counts"
    );
    assert_eq!(
        a.residual_mass.to_bits(),
        b.residual_mass.to_bits(),
        "{ctx}: residual_mass {} vs {}",
        a.residual_mass,
        b.residual_mass
    );
}

/// (a) An all-pull query has no atomic add left: two threads return the
/// one-thread result down to `residual_mass`, and it is the all-push result.
/// Every pull emits its successor's frontier, bar HK-PR's flush of level N.
#[test]
fn all_pull_queries_are_bitwise_at_two_threads() {
    for (name, g) in [("blocks", dense_blocks(3)), ("local", local(5))] {
        let seed = Seed::single(plgc::graph::largest_component(&g)[0]);
        for algo in saturating() {
            let ctx = format!("{name} {}", algo.name());
            let pull = DirectionParams::pull_only();
            let (want, s1, forked) = diffuse(&g, 1, pull, &seed, &algo);
            assert_eq!(forked, 0, "{ctx}: one thread");
            assert!(want.support_size() * 2 > g.num_vertices(), "{ctx}: covers");
            let (pushed, _, _) = diffuse(&g, 1, DirectionParams::push_only(), &seed, &algo);
            assert_same_bits(&want, &pushed, &format!("{ctx}: pull vs push, T=1"));

            let (got, s2, forked) = diffuse(&g, 2, pull, &seed, &algo);
            assert_same_bits(&got, &want, &format!("{ctx}: T=2 vs T=1"));
            assert!(forked > 0, "{ctx}: the wide iterations fork");
            assert_eq!(s1, s2, "{ctx}: the same schedule");
            assert_eq!(s1.iterations_pull, want.stats.iterations, "{ctx}");
            assert!(s1.iterations_solo < s1.iterations_pull, "{ctx}: {s1:?}");
            let flushed = matches!(algo, Algorithm::Hkpr(p)
                if want.stats.iterations == p.n_levels as u64);
            assert_eq!(
                s1.iterations_dense_out + u64::from(flushed),
                s1.iterations_pull,
                "{ctx}: {s1:?}"
            );
        }
    }
}

/// (b) Under the default policy a saturating query pushes, pulls — each pull
/// handing the next its frontier dense — and pushes again off an id list
/// packed from the last pull's bitset. It returns the all-push bits at one
/// thread, and `dense_out` obeys its laws: never more than `pull`, and for
/// PR-Nibble and Nibble exactly `pull`.
#[test]
fn a_schedule_that_pushes_pulls_and_pushes_again_returns_the_push_bits() {
    let g = local(7);
    let seed = Seed::single(plgc::graph::largest_component(&g)[0]);
    for algo in saturating() {
        let ctx = algo.name();
        let (want, _, _) = diffuse(&g, 1, DirectionParams::push_only(), &seed, &algo);
        let (got, s, _) = diffuse(&g, 1, DirectionParams::default(), &seed, &algo);
        assert_same_bits(&got, &want, ctx);
        assert!(
            s.iterations_push >= 2 && s.iterations_pull >= 2,
            "{ctx}: {s:?}"
        );
        assert!(s.iterations_dense_out <= s.iterations_pull, "{ctx}: {s:?}");
        assert!(
            s.iterations_dense_out + 1 >= s.iterations_pull,
            "{ctx}: {s:?}"
        );
        // At two threads the pushes add in scheduler order: the support and
        // every count repeat, the masses to rounding.
        let (forked, s2, _) = diffuse(&g, 2, DirectionParams::default(), &seed, &algo);
        assert_eq!(s2, s, "{ctx}: the schedule does not depend on the width");
        assert_eq!(forked.support_size(), want.support_size(), "{ctx}");
        assert_eq!(forked.stats.pushes, want.stats.pushes, "{ctx}");
    }
}

/// (c) `0 ≥ ε·0` holds, so a mass test alone would admit every isolated
/// vertex the gather walks past. It is never asked of them: only a vertex
/// that received something or was in the frontier is a candidate. With an
/// isolated seed beside a connected one, pulls return the push bits (a
/// wrongly admitted vertex would show in `pushes`), and no isolated vertex
/// other than the seed holds mass.
#[test]
fn isolated_vertices_are_never_admitted() {
    let core = dense_blocks(11);
    let n = core.num_vertices();
    let mut edges = Vec::new();
    for v in 0..n as u32 {
        edges.extend(core.neighbors(v).iter().map(|&w| (v, w)));
    }
    let isolated = n as u32..n as u32 + 700;
    let g = Graph::from_edges(isolated.end as usize, &edges);
    assert!(isolated.clone().all(|v| g.degree(v) == 0));
    let lone = isolated.start + 350;
    let seed = Seed::set(vec![0, lone]);
    for algo in saturating() {
        let ctx = algo.name();
        let (want, _, _) = diffuse(&g, 1, DirectionParams::push_only(), &seed, &algo);
        for threads in [1, 2] {
            let (got, s, _) = diffuse(&g, threads, DirectionParams::pull_only(), &seed, &algo);
            assert_same_bits(&got, &want, &format!("{ctx} T={threads}"));
            assert!(s.iterations_dense_out > 0, "{ctx}: {s:?}");
            assert!(
                got.p
                    .iter()
                    .all(|&(v, _)| v == lone || !isolated.contains(&v)),
                "{ctx} T={threads}: an isolated vertex holds mass"
            );
        }
    }
}

/// (d) Below β = 1 the frontier is a selected part of the eligible set, and
/// the eligible vertices that were neither selected nor reached are
/// candidates the gather never asks about. Pulls still return the push bits.
#[test]
fn beta_below_one_pulls_return_the_push_bits() {
    for (name, g) in [("blocks", dense_blocks(4)), ("local", local(9))] {
        let seed = Seed::single(plgc::graph::largest_component(&g)[0]);
        for beta in [0.25, 0.5] {
            let algo = prn(0.01, 1e-6, beta);
            let ctx = format!("{name} β={beta}");
            let (want, _, _) = diffuse(&g, 1, DirectionParams::push_only(), &seed, &algo);
            assert!(
                want.stats.pushed_volume as usize > 4 * FORK_MIN_WORK,
                "{ctx}"
            );
            for threads in [1, 2] {
                let (got, s, _) = diffuse(&g, threads, DirectionParams::pull_only(), &seed, &algo);
                assert_same_bits(&got, &want, &format!("{ctx} T={threads}"));
                assert_eq!(s.iterations_dense_out, s.iterations_pull, "{ctx}");
            }
        }
    }
}

/// The structure of a pull that follows a pull, counted: it offers the pool
/// two loops — `stage` over the frontier's words and the gather over the
/// destinations — plus, for HK-PR and Nibble, the one that wipes the store
/// the gather fills. No loop builds, merges, filters or walks an id list.
/// Two runs of one query that differ only in how many such iterations they
/// make differ in forked loops by that constant per iteration.
#[test]
fn a_pull_after_a_pull_forks_a_small_constant_number_of_loops() {
    let g = local(13);
    let seed = Seed::single(plgc::graph::largest_component(&g)[0]);
    let pull = DirectionParams::pull_only();
    let cases = [
        ("PR-Nibble", prn(0.01, 1e-7, 1.0), prn(0.01, 1e-8, 1.0), 2),
        ("Nibble", nibble(30, 1e-9), nibble(36, 1e-9), 3),
        ("HK-PR", hkpr(10.0, 26, 1e-7), hkpr(10.0, 30, 1e-7), 3),
    ];
    for (name, shorter, longer, per_iteration) in cases {
        let (a, sa, forked_a) = diffuse(&g, 2, pull, &seed, &shorter);
        let (b, sb, forked_b) = diffuse(&g, 2, pull, &seed, &longer);
        // The same tail: both cover the component.
        assert_eq!(a.support_size(), b.support_size(), "{name}");
        let wide = |s: LifecycleSnapshot| s.iterations_pull - s.iterations_solo;
        assert!(wide(sb) > wide(sa), "{name}: {sa:?} {sb:?}");
        assert_eq!(
            forked_b - forked_a,
            per_iteration * (wide(sb) - wide(sa)),
            "{name}: {} wide iterations forked {forked_a} loops, {} forked {forked_b}",
            wide(sa),
            wide(sb)
        );
    }
}
