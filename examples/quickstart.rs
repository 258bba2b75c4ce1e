//! Quickstart: find a local cluster around a seed vertex.
//!
//! Builds a small planted-cluster graph, constructs the query [`Engine`]
//! (pool + graph + recyclable workspace), and runs the full paper
//! pipeline (PR-Nibble diffusion + parallel sweep cut) — then a second
//! query over the warm engine, which reuses every scratch buffer the
//! first one allocated.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use plgc::{
    Algorithm, CsrBackend, CsrCompressed, Engine, EngineLimits, HkprParams, PrNibbleParams, Query,
    Seed,
};

fn main() {
    // Two 20-cliques joined by a single bridge edge: the left clique is a
    // planted cluster with conductance 1/(20·19 + 1).
    let g = plgc::graph::gen::two_cliques_bridge(20);
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Build the engine once; query it as many times as you like.
    let engine = Engine::builder(&g).build();
    println!("engine: {} threads", engine.num_threads());

    let seed = Seed::single(3); // any vertex of the left clique
    let result = engine.run(&Query::new(
        seed.clone(),
        Algorithm::PrNibble(PrNibbleParams::default()),
    ));

    let mut members = result.cluster.clone();
    members.sort_unstable();
    println!("cluster ({} vertices): {:?}", members.len(), members);
    println!("conductance: {:.6}", result.conductance);
    println!(
        "diffusion touched {} vertices with {} pushes over {} iterations",
        result.diffusion.support_size(),
        result.diffusion.stats.pushes,
        result.diffusion.stats.iterations
    );
    assert_eq!(members, (0..20).collect::<Vec<u32>>());
    println!("=> recovered the planted cluster exactly");

    // A second query — different algorithm, same engine: the mass
    // arenas, frontier bitsets, and sweep scratch are recycled, and the
    // result is bit-identical to a cold run.
    let hk = engine.run(&Query::new(
        seed.clone(),
        Algorithm::Hkpr(HkprParams::default()),
    ));
    let mut members = hk.cluster.clone();
    members.sort_unstable();
    assert_eq!(members, (0..20).collect::<Vec<u32>>());
    println!("=> HK-PR over the warm engine agrees");

    // The engine is generic over the storage backend: the same queries
    // run unchanged over the byte-compressed CSR (delta + varint
    // adjacency), trading decode work for a smaller cache footprint.
    // Decoding preserves ascending neighbor order, so results match the
    // plain backend bit for bit. A workspace byte budget caps how much
    // scratch memory the engine may keep parked between queries.
    let compact = CsrCompressed::from_graph(&g);
    println!(
        "compressed adjacency: {} bytes vs {} plain",
        compact.adjacency_bytes(),
        g.adjacency_bytes()
    );
    let limits = EngineLimits {
        workspace_budget: Some(16 << 20), // keep at most 16 MiB of warm scratch
        ..Default::default()
    };
    let packed = Engine::builder(&compact).limits(limits).build();
    let hk2 = packed.run(&Query::new(seed, Algorithm::Hkpr(HkprParams::default())));
    assert_eq!(hk2.diffusion.p, hk.diffusion.p);
    assert_eq!(hk2.cluster, hk.cluster);
    println!("=> compressed backend is bit-identical");
}
