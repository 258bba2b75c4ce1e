//! Diffusion kernels (Table 3 rows): each algorithm, sequential vs
//! parallel at 1 thread and all threads, on one social-graph stand-in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lgc_core as lgc;
use lgc_core::Seed;
use lgc_graph::gen;
use lgc_parallel::Pool;
use std::hint::black_box;

fn bench_diffusions(c: &mut Criterion) {
    let g = gen::rmat_graph500(13, 10, 1);
    let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);

    let nibble = lgc::NibbleParams {
        t_max: 20,
        eps: 1e-7,
    };
    let pr = lgc::PrNibbleParams {
        alpha: 0.01,
        eps: 1e-6,
        ..Default::default()
    };
    let hk = lgc::HkprParams {
        t: 10.0,
        n_levels: 20,
        eps: 1e-6,
    };
    let rhk = lgc::RandHkprParams {
        t: 10.0,
        max_len: 10,
        walks: 50_000,
        rng_seed: 1,
    };

    let mut group = c.benchmark_group("diffusion");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("nibble/seq", |b| {
        b.iter(|| black_box(lgc::nibble_seq(&g, &seed, &nibble)))
    });
    group.bench_function("prnibble/seq", |b| {
        b.iter(|| black_box(lgc::prnibble_seq(&g, &seed, &pr)))
    });
    group.bench_function("hkpr/seq", |b| {
        b.iter(|| black_box(lgc::hkpr_seq(&g, &seed, &hk)))
    });
    group.bench_function("rand_hkpr/seq", |b| {
        b.iter(|| black_box(lgc::rand_hkpr_seq(&g, &seed, &rhk)))
    });

    for t in [1usize, threads] {
        let pool = Pool::new(t);
        group.bench_with_input(BenchmarkId::new("nibble/par", t), &t, |b, _| {
            b.iter(|| black_box(lgc::nibble_par(&pool, &g, &seed, &nibble)))
        });
        group.bench_with_input(BenchmarkId::new("prnibble/par", t), &t, |b, _| {
            b.iter(|| black_box(lgc::prnibble_par(&pool, &g, &seed, &pr)))
        });
        group.bench_with_input(BenchmarkId::new("hkpr/par", t), &t, |b, _| {
            b.iter(|| black_box(lgc::hkpr_par(&pool, &g, &seed, &hk)))
        });
        group.bench_with_input(BenchmarkId::new("rand_hkpr/par", t), &t, |b, _| {
            b.iter(|| black_box(lgc::rand_hkpr_par(&pool, &g, &seed, &rhk)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_diffusions);
criterion_main!(benches);
