//! Community detection on a planted-partition (SBM) graph.
//!
//! The paper's motivating application: find the community containing a
//! query vertex without touching the whole graph. We generate a
//! stochastic block model with known ground truth, run each of the four
//! diffusions *untuned* from the same seed, and pass its sweep cut
//! through the MQI max-flow stage (`Engine::improve`). Refinement never
//! worsens conductance — the example asserts `phi_mqi <= phi` for every
//! cut. Where a walk over-mixes (Nibble at the paper's full
//! `t_max = 30` floods several blocks), the merged cut is simply what
//! low conductance looks like locally; the printed F1 against the
//! planted block says how close each cut came. The evolving-set process
//! (§5) closes the run through the same engine.
//!
//! ```sh
//! cargo run --release --example community_detection
//! ```

use plgc::{
    Algorithm, Engine, EvolvingParams, HkprParams, NibbleParams, PrNibbleParams, Query,
    RandHkprParams, Seed,
};
use std::collections::HashSet;

fn f1(found: &HashSet<u32>, truth: &HashSet<u32>) -> f64 {
    if found.is_empty() {
        return 0.0;
    }
    let tp = found.intersection(truth).count() as f64;
    let precision = tp / found.len() as f64;
    let recall = tp / truth.len() as f64;
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

fn main() {
    // 8 blocks of 64 vertices; dense inside (p=0.25), sparse across.
    let block_sizes = vec![64usize; 8];
    let (g, labels) = plgc::graph::gen::sbm(&block_sizes, 0.25, 0.003, 20260610);
    println!(
        "SBM: {} vertices, {} edges, {} planted blocks of 64",
        g.num_vertices(),
        g.num_edges(),
        block_sizes.len()
    );

    let engine = Engine::builder(&g).build();
    let seed_vertex = 70u32; // inside block 1
    let truth: HashSet<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| labels[v as usize] == labels[seed_vertex as usize])
        .collect();
    println!(
        "seed {seed_vertex} (block {}), |truth| = {}",
        labels[seed_vertex as usize],
        truth.len()
    );
    println!();
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "algorithm", "|cluster|", "phi", "phi_mqi", "F1", "F1_mqi"
    );

    let algorithms: Vec<(&str, Algorithm)> = vec![
        (
            "Nibble",
            Algorithm::Nibble(NibbleParams {
                // The paper's full mixing: the walk floods a few blocks,
                // and their union genuinely has lower conductance than
                // one block — no tuning hides that any more.
                t_max: 30,
                eps: 1e-7,
            }),
        ),
        (
            "PR-Nibble",
            Algorithm::PrNibble(PrNibbleParams {
                alpha: 0.05,
                eps: 1e-7,
                ..Default::default()
            }),
        ),
        (
            "HK-PR",
            Algorithm::Hkpr(HkprParams {
                t: 8.0,
                n_levels: 20,
                eps: 1e-6,
            }),
        ),
        (
            "rand-HK-PR",
            Algorithm::RandHkpr(RandHkprParams {
                t: 8.0,
                max_len: 20,
                walks: 200_000,
                rng_seed: 1,
            }),
        ),
    ];

    for (name, algo) in algorithms {
        // One warm engine serves every algorithm's query; each sweep cut
        // then goes through the max-flow refinement stage.
        let result = engine.run(&Query::new(Seed::single(seed_vertex), algo));
        let refined = engine.improve(&result);
        assert!(
            refined.conductance <= result.conductance,
            "{name}: refinement must never worsen conductance"
        );
        let found: HashSet<u32> = result.cluster.iter().copied().collect();
        let kept: HashSet<u32> = refined.cluster.iter().copied().collect();
        println!(
            "{:<12} {:>8} {:>10.5} {:>10.5} {:>8.3} {:>8.3}",
            name,
            found.len(),
            result.conductance,
            refined.conductance,
            f1(&found, &truth),
            f1(&kept, &truth)
        );
    }
    println!();
    println!("=> phi_mqi <= phi for every algorithm (MQI is provably monotone)");

    // The evolving-set extension (§5) through the same engine surface.
    // Its trajectory "varies widely" with the random choices (the
    // paper's observation), so take the best of a small RNG ensemble —
    // sixteen more queries over the same warm engine — and refine that.
    let esp = (0..16u64)
        .map(|rng_seed| {
            engine.run(&Query::new(
                Seed::single(seed_vertex),
                Algorithm::Evolving(EvolvingParams {
                    max_steps: 120,
                    rng_seed,
                    ..Default::default()
                }),
            ))
        })
        .min_by(|a, b| a.conductance.total_cmp(&b.conductance))
        .unwrap();
    let esp_refined = engine.improve(&esp);
    println!(
        "{:<12} {:>8} {:>10.5} {:>10.5}   (best of 16 randomized runs)",
        "evolving-set",
        esp.cluster.len(),
        esp.conductance,
        esp_refined.conductance
    );
}
