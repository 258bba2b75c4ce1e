//! Refactor guard: the exact output bits of the four frontier diffusions
//! at one thread, pinned as literals.
//!
//! The other suites compare the code with itself (par ≡ seq, push ≡ pull,
//! warm ≡ cold, plain ≡ compressed). None of that notices a change that
//! moves *all* of them together — a different accumulation bracketing, a
//! mass map that upgrades one iteration earlier — which is exactly what a
//! rewrite of the traversal layer can do. Each case below is a 64-bit
//! FNV-1a digest over every `(v, mass.to_bits())` of the returned vector
//! and every field of its `DiffusionStats` (for the evolving-set process:
//! the best set, its conductance bits, the step count and the size
//! trajectory), and must match on the plain and the byte-compressed
//! backend alike.
//!
//! Every case runs through one-thread engines built with
//! `.direction(..)` — the one place a direction can be pinned — under
//! `push_only()`, `pull_only()` and the default `Auto` policy. The
//! parameters saturate both graphs, so the `Auto` runs genuinely flip from
//! push to pull part-way through.
//!
//! If a digest moves, the change altered result bits. Do not re-record
//! the table to make a refactor pass.

use plgc::cluster as lgc;
use plgc::ligra::DirectionParams;
use plgc::{Algorithm, CsrBackend, CsrCompressed, Diffusion, Engine, Graph, Query, Seed};

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest_diffusion(d: &Diffusion) -> u64 {
    let s = &d.stats;
    fnv1a(
        d.p.iter()
            .flat_map(|&(v, m)| [u64::from(v), m.to_bits()])
            .chain([
                s.iterations,
                s.pushes,
                s.pushed_volume,
                s.edges_traversed,
                s.residual_mass.to_bits(),
            ]),
    )
}

fn digest_evolving(r: &lgc::EvolvingResult) -> u64 {
    fnv1a(
        r.best_set
            .iter()
            .map(|&v| u64::from(v))
            .chain([r.best_conductance.to_bits(), r.steps as u64])
            .chain(r.sizes.iter().map(|&s| s as u64)),
    )
}

/// The eight diffusion configurations, run through `engine` — one
/// backend under one direction policy.
fn run_all<B: CsrBackend>(
    engine: &Engine<'_, B>,
    seed: &Seed,
    set_seed: &Seed,
) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    let diffuse = |algo: Algorithm| digest_diffusion(&engine.diffuse(seed, &algo));

    let nib = lgc::NibbleParams {
        t_max: 25,
        eps: 1e-7,
    };
    out.push(("nibble", diffuse(Algorithm::Nibble(nib))));

    for (name, rule, beta) in [
        ("prn-orig-b1", lgc::PushRule::Original, 1.0),
        ("prn-orig-b.5", lgc::PushRule::Original, 0.5),
        ("prn-opt-b1", lgc::PushRule::Optimized, 1.0),
        ("prn-opt-b.5", lgc::PushRule::Optimized, 0.5),
    ] {
        let prn = lgc::PrNibbleParams {
            alpha: 0.02,
            eps: 1e-6,
            rule,
            beta,
            ..Default::default()
        };
        out.push((name, diffuse(Algorithm::PrNibble(prn))));
    }

    // Mass maps pinned to their hash tables: `residual_mass` is then
    // summed in slot order, which also pins the residual table's capacity
    // and insertion history (the `reset`/`reserve_more` sequence).
    let sparse = lgc::PrNibbleParams {
        alpha: 0.05,
        eps: 1e-5,
        dense_frac: f64::INFINITY,
        ..Default::default()
    };
    out.push(("prn-sparse", diffuse(Algorithm::PrNibble(sparse))));

    let hk = lgc::HkprParams {
        t: 10.0,
        n_levels: 20,
        eps: 1e-7,
    };
    out.push(("hkpr", diffuse(Algorithm::Hkpr(hk))));

    // From a single vertex the set usually dies within a few steps; a
    // quarter of the component keeps it alive long enough to cross the
    // dense threshold in both directions.
    //
    // An engine reports the process's best set but not the size
    // trajectory the digest covers, so the digest is taken from the free
    // function (default policy) and the engine — whatever its policy —
    // must agree with it on everything it does report. (The trajectory
    // under each pinned direction is held to the sequential one by
    // `evolving.rs::pull_direction_keeps_the_trajectory`.)
    let ev = lgc::EvolvingParams {
        max_steps: 40,
        rng_seed: 11,
        ..Default::default()
    };
    let full = lgc::evolving_set_par(engine.pool(), engine.graph(), set_seed, &ev);
    let via = engine.run(&Query::new(set_seed.clone(), Algorithm::Evolving(ev)));
    assert_eq!(via.cluster, full.best_set, "evolving: best set");
    assert_eq!(via.conductance.to_bits(), full.best_conductance.to_bits());
    assert_eq!(via.diffusion.stats.iterations, full.steps as u64);
    out.push(("evolving", digest_evolving(&full)));
    out
}

/// `graph/algorithm` → digest. One literal covers six runs: the plain
/// and the compressed backend under each direction policy. (At one thread
/// the pull traversals replay the push accumulation order per
/// destination, so the direction is invisible in the bits — for PR-Nibble
/// too, whose delta-map commit and register-sum gather bracket
/// identically.)
fn actual() -> Vec<(String, u64)> {
    let graphs: [(&str, Graph); 2] = [
        ("randlocal", plgc::graph::gen::rand_local(2000, 5, 7)),
        ("rmat", plgc::graph::gen::rmat_graph500(10, 8, 3)),
    ];
    let dirs = [
        ("push", DirectionParams::push_only()),
        ("pull", DirectionParams::pull_only()),
        ("auto", DirectionParams::default()),
    ];
    let mut table = Vec::new();
    for (gname, g) in &graphs {
        let compressed = CsrCompressed::from_graph(g);
        let comp = plgc::graph::largest_component(g);
        let seed = Seed::single(comp[0]);
        let set_seed = Seed::set(comp[..comp.len() / 4].to_vec());
        let mut reference: Option<Vec<(&str, u64)>> = None;
        for (dname, dir) in dirs {
            let plain = Engine::builder(g).threads(1).direction(dir).build();
            let packed = Engine::builder(&compressed)
                .threads(1)
                .direction(dir)
                .build();
            let plain = run_all(&plain, &seed, &set_seed);
            let packed = run_all(&packed, &seed, &set_seed);
            let want = reference.get_or_insert_with(|| plain.clone());
            for ((&(algo, want), (_, a)), (_, b)) in want.iter().zip(plain).zip(packed) {
                assert_eq!(a, want, "{gname}/{algo}: plain {dname} differs from push");
                assert_eq!(b, want, "{gname}/{algo}: compressed {dname} differs");
            }
        }
        let reference = reference.expect("at least one direction ran");
        table.extend(
            reference
                .into_iter()
                .map(|(algo, d)| (format!("{gname}/{algo}"), d)),
        );
    }
    table
}

/// Recorded from the code as it stood before the diffusions were moved
/// onto one spreading edge map (commit fe2d93b).
const EXPECTED: &[(&str, u64)] = &[
    ("randlocal/nibble", 0x2e31d7f0b78a4539),
    ("randlocal/prn-orig-b1", 0xa224a4d752ea51e1),
    ("randlocal/prn-orig-b.5", 0x67a13e1d43a28e0b),
    ("randlocal/prn-opt-b1", 0x39437e8e9556117b),
    ("randlocal/prn-opt-b.5", 0x103b78169385f8a4),
    ("randlocal/prn-sparse", 0x4e6b78d72c55fe31),
    ("randlocal/hkpr", 0x159ce1715e4eedb4),
    ("randlocal/evolving", 0x02bbb4869146f373),
    ("rmat/nibble", 0x12f6158fe05af034),
    ("rmat/prn-orig-b1", 0x69080de009a04a6d),
    ("rmat/prn-orig-b.5", 0x5e28479e2d7a4a81),
    ("rmat/prn-opt-b1", 0xaf827ad30e664fc6),
    ("rmat/prn-opt-b.5", 0x198b088633acc636),
    ("rmat/prn-sparse", 0xc0653d1e7460a6bf),
    ("rmat/hkpr", 0x75606bf572b97e75),
    ("rmat/evolving", 0xb48f5ee26bf86ddb),
];

#[test]
fn diffusion_bits_match_the_recorded_digests() {
    let got = actual();
    let same = |i: usize| {
        EXPECTED
            .get(i)
            .is_some_and(|(n, d)| *n == got[i].0 && *d == got[i].1)
    };
    if got.len() != EXPECTED.len() || !(0..got.len()).all(same) {
        let mut report = String::from("digest table differs from EXPECTED; computed table:\n");
        for (i, (name, d)) in got.iter().enumerate() {
            let mark = if same(i) { ' ' } else { '!' };
            report.push_str(&format!("{mark}   (\"{name}\", {d:#018x}),\n"));
        }
        panic!("{report}");
    }
}
