//! Network community profile (NCP) of a graph — Figure 12 of the paper.
//!
//! Runs PR-Nibble from many random seeds across a parameter grid and
//! prints the best conductance found at each cluster size, as CSV
//! (`size,conductance`). Pipe to a file and plot log-log to see the
//! paper's characteristic dip-then-rise shape on community-bearing
//! graphs.
//!
//! ```sh
//! cargo run --release --example ncp > ncp.csv
//! ```

use plgc::{Engine, NcpParams};

fn main() {
    // An R-MAT graph standing in for the paper's social networks.
    let g = plgc::graph::gen::rmat_graph500(13, 8, 99);
    eprintln!(
        "R-MAT scale 13: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // An NCP scan is hundreds of independent PR-Nibble + sweep queries
    // over one graph: the engine runs them as a batch, one query per
    // pool thread at a time, each thread recycling its workspace.
    let engine = Engine::builder(&g).build();
    let params = NcpParams {
        num_seeds: 60,
        alphas: vec![0.1, 0.01],
        epsilons: vec![1e-4, 1e-5, 1e-6],
        rng_seed: 4,
    };
    eprintln!(
        "running {} PR-Nibble diffusions ({} seeds x {} alphas x {} epsilons)...",
        params.num_seeds * params.alphas.len() * params.epsilons.len(),
        params.num_seeds,
        params.alphas.len(),
        params.epsilons.len()
    );

    let t0 = std::time::Instant::now();
    let points = engine.ncp(&params);
    eprintln!(
        "done in {:.2?}; {} profile points",
        t0.elapsed(),
        points.len()
    );

    println!("size,conductance");
    for p in &points {
        println!("{},{}", p.size, p.conductance);
    }

    if let Some(best) = points
        .iter()
        .min_by(|a, b| a.conductance.partial_cmp(&b.conductance).unwrap())
    {
        eprintln!(
            "profile minimum: phi = {:.5} at size {}",
            best.conductance, best.size
        );
    }
}
