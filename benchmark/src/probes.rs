//! Micro-probes of single layers, run after the replay of a traced run on
//! the workload's own graph. Each calls only a layer's public functions.

use crate::report::Metric;
use crate::stats::median;
use crate::workloads::SplitMix64;
use lgc_core::{ClusterResult, Engine, Query};
use lgc_graph::{CsrBackend, CsrCompressed, Graph};
use lgc_ligra::{edge_map, edge_map_dense, VertexSubset};
use lgc_parallel::{filter, merge_sort_by, scan_exclusive, AtomicF64, Bitset, Pool};
use lgc_server::wire::{decode_query_request, decode_result, encode_query_request, encode_result};
use lgc_server::{Priority, QueryRequest, Scheduler, SchedulerMode};
use lgc_sparse::MassMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds `f` takes, as the median of `reps` calls.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The first `k` vertices a breadth-first search from `start` reaches,
/// ascending.
fn bfs_ball(g: &Graph, start: u32, k: usize) -> Vec<u32> {
    let mut seen = vec![false; g.num_vertices()];
    let mut order = vec![start];
    seen[start as usize] = true;
    let mut head = 0;
    while head < order.len() && order.len() < k {
        let v = order[head];
        head += 1;
        for &w in g.neighbors(v) {
            if !seen[w as usize] && order.len() < k {
                seen[w as usize] = true;
                order.push(w);
            }
        }
    }
    order.sort_unstable();
    order
}

/// `ligra`: cost per edge of the sparse push `edge_map` at three frontier
/// sizes, cost per scanned adjacency entry of the dense pull, and the
/// frontier volume (as a share of `2m`) above which pull is cheaper.
pub fn ligra(g: &Graph, pool: &Pool, start: u32) -> Vec<Metric> {
    let n = g.num_vertices();
    let acc: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    let mut out = Vec::new();
    let mut push_quarter = f64::NAN;
    let mut quarter = Vec::new();
    for (label, k) in [("k256", 256), ("k16384", 16384), ("kquarter", n / 4)] {
        let ball = bfs_ball(g, start, k.min(n));
        let frontier = VertexSubset::from_sorted(ball.clone());
        let vol = frontier.volume(g).max(1);
        // Enough calls per sample to traverse ~2M edges.
        let calls = (2_000_000 / vol).clamp(1, 5_000);
        let secs = median_secs(5, || {
            for _ in 0..calls {
                edge_map(pool, g, &frontier, |_, dst| {
                    acc[dst as usize].fetch_add(1.0);
                });
            }
        });
        let ns_per_edge = secs * 1e9 / (calls * vol) as f64;
        out.push(
            Metric::new(format!("ligra.push.ns_per_edge.{label}"), ns_per_edge, "ns").note(
                format!(
                    "|F| = {}, vol(F) = {vol}, AtomicF64 add per edge",
                    ball.len()
                ),
            ),
        );
        if label == "kquarter" {
            push_quarter = ns_per_edge;
            quarter = ball;
        }
    }
    let bits = Bitset::new(n);
    bits.set_sorted(pool, &quarter);
    let vol = VertexSubset::from_sorted(quarter).volume(g).max(1);
    let scanned = g.total_degree().max(1);
    let secs = median_secs(5, || {
        edge_map_dense(pool, g, &bits, |_, dst| {
            // One writer per destination: a plain add.
            let cell = &acc[dst as usize];
            cell.store(cell.load() + 1.0);
        });
    });
    let scan_ns = secs * 1e9 / scanned as f64;
    out.push(
        Metric::new("ligra.pull.ns_per_scanned_edge", scan_ns, "ns")
            .note(format!("{scanned} adjacency entries scanned per pull")),
    );
    out.push(
        Metric::new(
            "ligra.pull.scan_ratio",
            scanned as f64 / vol as f64,
            "ratio",
        )
        .note("2m ÷ vol(F) at |F| = n/4"),
    );
    out.push(
        Metric::new("ligra.crossover_vol_frac", scan_ns / push_quarter, "ratio")
            .note("c_scan ÷ c_push: pull wins once vol(F)/2m exceeds this"),
    );
    black_box(&acc);
    out
}

/// `sparse`: `MassMap` adds in each mode, packing and recycling, on a key
/// stream captured from a result of this workload (its sweep order, i.e.
/// keys in no id order).
pub fn sparse(n: usize, keys: &[u32], pool: &Pool) -> Vec<Metric> {
    let bound = keys.len().max(1);
    let rounds = (1_000_000 / bound).clamp(1, 2_000);
    let add_ns = |frac: f64| {
        let mut map = MassMap::with_dense_fraction(n, bound, frac);
        let mut samples = Vec::new();
        for _ in 0..5 {
            let mut secs = 0.0;
            for _ in 0..rounds {
                let t0 = Instant::now();
                for &k in keys {
                    map.add(k, 1.0);
                }
                secs += t0.elapsed().as_secs_f64();
                map.reset(pool, bound);
            }
            samples.push(secs * 1e9 / (rounds * bound) as f64);
        }
        median(&samples)
    };
    let sparse_add = add_ns(f64::INFINITY);
    let dense_add = add_ns(0.0);
    // Packing and recycling in whichever mode the engine would pick.
    let mut map = MassMap::new(n, bound);
    let (mut entries, mut recycle) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for &k in keys {
            map.add(k, 1.0);
        }
        let t0 = Instant::now();
        let packed = map.entries(pool);
        entries.push(t0.elapsed().as_secs_f64() * 1e9 / packed.len().max(1) as f64);
        black_box(packed);
        let t0 = Instant::now();
        map.recycle(pool, n, bound, MassMap::DEFAULT_DENSE_FRACTION);
        recycle.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mode = if map.is_dense() { "dense" } else { "sparse" };
    vec![
        Metric::new("sparse.massmap.sparse_add_ns", sparse_add, "ns")
            .note(format!("{bound} captured keys, hash mode")),
        Metric::new("sparse.massmap.dense_add_ns", dense_add, "ns")
            .note(format!("{bound} captured keys, direct-indexed mode")),
        Metric::new("sparse.massmap.entries_ns_per_key", median(&entries), "ns")
            .note(format!("default mode for this support: {mode}")),
        Metric::new("sparse.massmap.recycle_us", median(&recycle), "us")
            .note(format!("after {bound} keys, {mode} mode")),
    ]
}

/// `parallel`: fork-join cost and the three bulk primitives on 10⁶
/// elements, at `T` threads and (for the speed-up) at one.
pub fn parallel(pool: &Pool, one: &Pool) -> Vec<Metric> {
    const N: usize = 1_000_000;
    let mut rng = SplitMix64::new(42);
    let pairs: Vec<(u32, f64)> = (0..N as u32)
        .map(|i| (i, (rng.next() >> 11) as f64))
        .collect();
    let words: Vec<u64> = (0..N).map(|_| rng.next() & 0xff).collect();
    let ids: Vec<u32> = (0..N).map(|_| rng.next() as u32).collect();
    let t = pool.num_threads();

    const FORKS: usize = 20_000;
    let forkjoin = median_secs(5, || {
        for _ in 0..FORKS {
            pool.run(t, 1, |s, e| {
                black_box((s, e));
            });
        }
    }) * 1e6
        / FORKS as f64;

    let sort = |p: &Pool| {
        median_secs(3, || {
            let mut copy = pairs.clone();
            merge_sort_by(p, &mut copy, |a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
            black_box(copy);
        })
    };
    // The copy is part of both sides; time it alone and take it off.
    let copy = median_secs(3, || {
        black_box(pairs.clone());
    });
    let scan = |p: &Pool| {
        median_secs(5, || {
            black_box(scan_exclusive(p, &words, 0u64, |a, b| a + b));
        })
    };
    let pack = |p: &Pool| {
        median_secs(5, || {
            black_box(filter(p, &ids, |x| x & 1 == 0));
        })
    };
    let mut out = vec![Metric::new("parallel.pool.forkjoin_us", forkjoin, "us")
        .note(format!("Pool::run of {t} no-op chunks"))];
    for (name, at_t, at_1) in [
        ("sort", sort(pool) - copy, sort(one) - copy),
        ("scan", scan(pool), scan(one)),
        ("filter", pack(pool), pack(one)),
    ] {
        out.push(
            Metric::new(
                format!("parallel.{name}.ns_per_elem"),
                at_t * 1e9 / N as f64,
                "ns",
            )
            .note(format!("10^6 elements at T = {t}")),
        );
        if t >= 2 {
            out.push(
                Metric::new(format!("parallel.{name}.speedup_t2"), at_1 / at_t, "ratio")
                    .note("T1 ÷ T2"),
            );
        }
    }
    out
}

fn scan_secs<B: CsrBackend>(g: &B) -> f64 {
    median_secs(3, || {
        let mut sum = 0u64;
        for v in 0..g.num_vertices() as u32 {
            g.for_each_neighbor(v, |w| sum += u64::from(w));
        }
        black_box(sum);
    })
}

/// `graph`: build times, sizes, and a full one-thread neighbor sweep of
/// each backend. `build_s` is the generator + CSR build the run's set-up
/// measured.
pub fn graph(plain: &Graph, build_s: f64) -> (CsrCompressed, Vec<Metric>) {
    let t0 = Instant::now();
    let comp = CsrCompressed::from_graph(plain);
    let comp_build_s = t0.elapsed().as_secs_f64();
    let plain_scan = scan_secs(plain);
    let comp_scan = scan_secs(&comp);
    let entries = plain.total_degree().max(1) as f64;
    let metrics = vec![
        Metric::new("graph.build_s", build_s, "s").note("generator + CSR build"),
        Metric::new("graph.bytes", plain.memory_bytes() as f64, "B").note(format!(
            "n = {}, m = {}",
            plain.num_vertices(),
            plain.num_edges()
        )),
        Metric::new("graph.compressed.build_s", comp_build_s, "s"),
        Metric::new(
            "graph.compressed.bytes_ratio",
            plain.memory_bytes() as f64 / CsrBackend::memory_bytes(&comp) as f64,
            "ratio",
        )
        .note("plain ÷ compressed"),
        Metric::new("graph.scan_ns_per_edge", plain_scan * 1e9 / entries, "ns")
            .note("for_each_neighbor over every vertex, one thread"),
        Metric::new(
            "graph.compressed.scan_ratio",
            comp_scan / plain_scan,
            "ratio",
        )
        .note("compressed ÷ plain"),
    ];
    (comp, metrics)
}

/// `flow`: max-flow refinement of local cuts this workload produced.
pub fn flow<B: CsrBackend>(engine: &Engine<'_, B>, results: &[ClusterResult]) -> Vec<Metric> {
    let mut ms = Vec::new();
    let mut ratio = Vec::new();
    let mut improved = 0usize;
    for r in results {
        let t0 = Instant::now();
        let refined = engine.improve(r);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ratio.push(refined.conductance / refined.initial_conductance);
        improved += usize::from(refined.improved());
    }
    let n = results.len().max(1) as f64;
    vec![
        Metric::new(
            "flow.improve_ms",
            if ms.is_empty() { 0.0 } else { median(&ms) },
            "ms",
        )
        .note(format!("median over {} local cuts", results.len())),
        Metric::new("flow.phi_ratio", ratio.iter().sum::<f64>() / n, "ratio")
            .note("mean refined φ ÷ sweep φ"),
        Metric::new("flow.improved_frac", improved as f64 / n, "ratio"),
    ]
}

/// `server` codec and scheduler: encode/decode of one request and of the
/// workload's largest result, and a push+pop through an idle scheduler.
pub fn server_codec(query: &Query, largest: &ClusterResult, mean_result_bytes: f64) -> Vec<Metric> {
    let req = QueryRequest {
        tenant: crate::serve::TENANT.to_string(),
        priority: Priority::Interactive,
        query: query.clone(),
    };
    const CALLS: usize = 20_000;
    let body = encode_query_request(&req);
    let enc_q = median_secs(5, || {
        for _ in 0..CALLS {
            black_box(encode_query_request(black_box(&req)));
        }
    }) * 1e9
        / CALLS as f64;
    let dec_q = median_secs(5, || {
        for _ in 0..CALLS {
            black_box(decode_query_request(black_box(&body)).expect("own encoding decodes"));
        }
    }) * 1e9
        / CALLS as f64;
    let entries = largest.diffusion.p.len().max(1);
    let calls = (2_000_000 / entries).clamp(1, 5_000);
    let payload = encode_result(largest);
    let enc_r = median_secs(5, || {
        for _ in 0..calls {
            black_box(encode_result(black_box(largest)));
        }
    }) * 1e9
        / (calls * entries) as f64;
    let dec_r = median_secs(5, || {
        for _ in 0..calls {
            black_box(decode_result(black_box(&payload)).expect("own encoding decodes"));
        }
    }) * 1e9
        / (calls * entries) as f64;
    const JOBS: usize = 200_000;
    let sched: Scheduler<u64> = Scheduler::new(SchedulerMode::Priority, 64, 256);
    let push_pop = median_secs(5, || {
        for i in 0..JOBS as u64 {
            sched
                .push(Priority::Interactive, i)
                .expect("an empty queue has room");
            black_box(sched.pop());
        }
    }) * 1e9
        / JOBS as f64;
    vec![
        Metric::new("server.wire.encode_query_ns", enc_q, "ns"),
        Metric::new("server.wire.decode_query_ns", dec_q, "ns"),
        Metric::new("server.wire.encode_result_ns_per_entry", enc_r, "ns").note(format!(
            "largest result: {entries} entries, {} bytes",
            payload.len()
        )),
        Metric::new("server.wire.decode_result_ns_per_entry", dec_r, "ns"),
        Metric::new("server.wire.result_bytes", mean_result_bytes, "B")
            .note("mean encoded result of this workload's list"),
        Metric::new("server.sched.push_pop_ns", push_pop, "ns").note("uncontended push + pop"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;

    #[test]
    fn bfs_ball_is_a_connected_prefix_of_the_right_size() {
        let g = gen::path(100);
        assert_eq!(bfs_ball(&g, 50, 5), vec![48, 49, 50, 51, 52]);
        assert_eq!(bfs_ball(&g, 0, 1000).len(), 100);
    }
}
