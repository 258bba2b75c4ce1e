//! Interactive cluster exploration — the paper's motivating workload:
//! "an analyst would run a computation, study the result, and based on
//! that determine what computation to run next. To keep response times
//! low, it is important that a single local computation be made
//! efficient."
//!
//! This is exactly the workload the [`Service`] exists for: several
//! resident graphs registered at startup over one shared pool, every
//! command served as a `&self` query through the graph's engine, scratch
//! buffers checked out warm from command to command.
//!
//! A tiny command-driven explorer over two generated graphs. Reads
//! commands from stdin (one per line) and answers instantly using the
//! parallel algorithms:
//!
//! ```text
//! graphs                         list the registered graphs
//! use <graph>                    switch the active graph
//! cluster <seed> [alpha] [eps]   PR-Nibble + sweep from <seed>
//! nibble <seed> [T] [eps]        Nibble + sweep from <seed>
//! hk <seed> [t] [N] [eps]        HK-PR + sweep from <seed>
//! esp <seed> [steps]             evolving-set process from <seed>
//! degree <v>                     degree of v
//! stats                          graph statistics
//! quit
//! ```
//!
//! ```sh
//! printf 'stats\ncluster 42\nuse rmat\ncluster 7\nquit\n' | \
//!     cargo run --release --example interactive
//! ```

use plgc::cluster as lgc;
use plgc::{Algorithm, Pool, Query, Seed, Service};
use std::io::BufRead;
use std::time::Instant;

fn main() {
    let (sbm, _labels) = plgc::graph::gen::sbm(&[80; 12], 0.2, 0.002, 11);
    let service = Service::builder()
        .pool(Pool::shared(
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ))
        .add_graph("sbm", sbm)
        .add_graph("rmat", plgc::graph::gen::rmat_graph500(11, 8, 5))
        .build();
    let mut active = "sbm".to_string();
    println!(
        "serving {} graphs over one {}-thread pool: {}. Type 'help'.",
        service.num_graphs(),
        service.pool().num_threads(),
        service
            .names()
            .map(|n| {
                let s = service.summary(n).unwrap();
                format!("{n} ({}v/{}e)", s.num_vertices, s.num_edges)
            })
            .collect::<Vec<_>>()
            .join(", ")
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let parts: Vec<&str> = line.split_whitespace().collect();
        let t0 = Instant::now();
        let engine = service.engine(&active).expect("active graph registered");
        let g = service
            .graph(&active)
            .expect("interactive graphs use the plain backend")
            .as_ref();
        // Parsed command → one engine query (None for non-query commands).
        let query: Option<Query> = match parts.as_slice() {
            [] => continue,
            ["quit"] | ["exit"] => break,
            ["help"] => {
                println!("commands: graphs | use <graph> | cluster <seed> [alpha] [eps] | nibble <seed> [T] [eps] | hk <seed> [t] [N] [eps] | esp <seed> [steps] | degree <v> | stats | quit");
                None
            }
            ["graphs"] => {
                for name in service.names() {
                    let marker = if name == active { "*" } else { " " };
                    println!("{marker} {name}");
                }
                None
            }
            ["use", name] => {
                if service.engine(name).is_some() {
                    active = name.to_string();
                    println!("now querying '{active}'");
                } else {
                    println!(
                        "unknown graph (have: {})",
                        service.names().collect::<Vec<_>>().join(", ")
                    );
                }
                None
            }
            ["stats"] => {
                let s = service.summary(&active).expect("active graph registered");
                println!(
                    "{active}: n = {}, m = {}, max degree = {}, isolated = {}",
                    s.num_vertices, s.num_edges, s.max_degree, s.isolated
                );
                None
            }
            ["degree", v] => {
                match parse_vertex(v, g) {
                    Some(v) => println!("d({v}) = {}", g.degree(v)),
                    None => println!("vertex out of range"),
                }
                None
            }
            ["cluster", s, rest @ ..] => vertex_or_complain(s, g).map(|v| {
                let alpha = rest.first().and_then(|x| x.parse().ok()).unwrap_or(0.05);
                let eps = rest.get(1).and_then(|x| x.parse().ok()).unwrap_or(1e-6);
                Query::new(
                    Seed::single(v),
                    Algorithm::PrNibble(lgc::PrNibbleParams {
                        alpha,
                        eps,
                        ..Default::default()
                    }),
                )
            }),
            ["nibble", s, rest @ ..] => vertex_or_complain(s, g).map(|v| {
                let t_max = rest.first().and_then(|x| x.parse().ok()).unwrap_or(20);
                let eps = rest.get(1).and_then(|x| x.parse().ok()).unwrap_or(1e-7);
                Query::new(
                    Seed::single(v),
                    Algorithm::Nibble(lgc::NibbleParams { t_max, eps }),
                )
            }),
            ["hk", s, rest @ ..] => vertex_or_complain(s, g).map(|v| {
                let t = rest.first().and_then(|x| x.parse().ok()).unwrap_or(10.0);
                let n_levels = rest.get(1).and_then(|x| x.parse().ok()).unwrap_or(20);
                let eps = rest.get(2).and_then(|x| x.parse().ok()).unwrap_or(1e-6);
                Query::new(
                    Seed::single(v),
                    Algorithm::Hkpr(lgc::HkprParams { t, n_levels, eps }),
                )
            }),
            ["esp", s, rest @ ..] => vertex_or_complain(s, g).map(|v| {
                let max_steps = rest.first().and_then(|x| x.parse().ok()).unwrap_or(50);
                Query::new(
                    Seed::single(v),
                    Algorithm::Evolving(lgc::EvolvingParams {
                        max_steps,
                        ..Default::default()
                    }),
                )
            }),
            [cmd] if ["cluster", "nibble", "hk", "esp"].contains(cmd) => {
                println!("missing seed vertex (try '{cmd} 0')");
                None
            }
            _ => {
                println!("unknown command (try 'help')");
                None
            }
        };
        if let Some(q) = query {
            answer(&engine.run(&q), t0);
        }
    }
}

fn parse_vertex(s: &str, g: &plgc::Graph) -> Option<u32> {
    s.parse::<u32>()
        .ok()
        .filter(|&v| (v as usize) < g.num_vertices())
}

/// As [`parse_vertex`], but tells the user when the argument is bad.
fn vertex_or_complain(s: &str, g: &plgc::Graph) -> Option<u32> {
    let v = parse_vertex(s, g);
    if v.is_none() {
        println!("vertex out of range");
    }
    v
}

fn answer(res: &lgc::ClusterResult, t0: Instant) {
    let mut preview: Vec<u32> = res.cluster.clone();
    preview.sort_unstable();
    preview.truncate(12);
    println!(
        "cluster of {} vertices, phi = {:.5}, support = {}, {:.1} ms  (first members: {:?}{})",
        res.cluster.len(),
        res.conductance,
        res.diffusion.support_size(),
        t0.elapsed().as_secs_f64() * 1e3,
        preview,
        if res.cluster.len() > 12 { ", ..." } else { "" }
    );
}
