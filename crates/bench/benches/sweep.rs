//! Sweep-cut benchmarks (Table 3 "Sweep" row, Figures 10–11):
//! sequential vs parallel across input volumes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lgc_core::{nibble_seq, sweep_cut_par, sweep_cut_seq, NibbleParams, Seed};
use lgc_graph::gen;
use lgc_parallel::Pool;
use std::hint::black_box;

fn bench_sweep(c: &mut Criterion) {
    let g = gen::rmat_graph500(15, 8, 6);
    let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);

    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    // Three input sizes from increasingly deep Nibble runs (Figure 11).
    // Tag ids with eps too: deep runs can saturate the seed's component
    // and produce identical support sizes.
    for eps in [1e-6, 1e-8, 1e-10] {
        let d = nibble_seq(&g, &seed, &NibbleParams { t_max: 20, eps });
        let tag = format!("n{}_eps{:.0e}", d.support_size(), eps);
        group.bench_with_input(BenchmarkId::new("sequential", &tag), &tag, |b, _| {
            b.iter(|| black_box(sweep_cut_seq(&g, black_box(&d.p))))
        });
        for t in [1usize, threads] {
            let pool = Pool::new(t);
            group.bench_with_input(
                BenchmarkId::new(format!("parallel_{t}t"), &tag),
                &tag,
                |b, _| b.iter(|| black_box(sweep_cut_par(&pool, &g, black_box(&d.p)))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
