//! The traced run: the same query lists, replayed through the layers'
//! public functions with a span around each call, then the micro-probes.
//! Nothing here feeds an end-to-end metric.
//!
//! Each query is replayed as `core.engine.run` (the whole) and, apart
//! from it, as `core.diffusion` (`Engine::diffuse`) and `core.sweep`
//! (`sweep_cut_par` on that diffusion's vector) — the parts. What the
//! whole costs beyond its parts is `core.engine.overhead_us`, signed.

use crate::library::one_pass;
use crate::oracle::{Expect, Oracle};
use crate::probes;
use crate::provenance::Provenance;
use crate::report::{Metric, Outcome};
use crate::serve::{self, TENANT};
use crate::setup::{bench_dir, check_lock};
use crate::spans::{render_trace, self_time_by_name_ns, Tracer};
use crate::stats::{median, sorted, tail};
use crate::workloads::{Fingerprint, Item, Spec, WorkloadId, SERVE_RATE_HZ};
use lgc_core::{
    find_cluster, sweep_cut_par, sweep_cut_seq, Algorithm, ClusterResult, DirectionParams, Engine,
    GraphStore, NcpParams, PrNibbleParams, Query, QueryBudget, Seed,
};
use lgc_graph::{CsrBackend, CsrCompressed, Graph};
use lgc_parallel::Pool;
use lgc_server::client::Client;
use lgc_server::Priority;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay passes; counts must repeat exactly between them.
const PASSES: usize = 2;
/// Local cuts handed to the flow stage.
const FLOW_MAX: usize = 16;
/// Light queries in each fixed-overhead comparison.
const LIGHT_MAX: usize = 50;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// What the replay records per list item. Times are in ns, averaged over
/// the passes where there are several.
#[derive(Clone, Default)]
struct Acc {
    run: [f64; PASSES],
    diffuse: [f64; PASSES],
    sweep: [f64; PASSES],
    /// `(edges_traversed, pushes, support, vol(support))` per pass.
    counts: [(u64, u64, u64, u64); PASSES],
    seq_sweep: f64,
    /// The comparison pass: default, push-only and other-thread-count
    /// diffusion of the same query, back to back.
    base: f64,
    push_only: f64,
    other_threads: f64,
}

/// Sums of [`Acc`] fields over a set of items (per-pass times averaged).
#[derive(Default)]
struct Sums {
    run: f64,
    diffuse: f64,
    sweep: f64,
    last_sweep: f64,
    seq_sweep: f64,
    edges: f64,
    vol: f64,
    base: f64,
    push_only: f64,
    other_threads: f64,
}

impl Sums {
    fn over<'a>(accs: impl Iterator<Item = &'a Acc>) -> Sums {
        let mean = |v: &[f64; PASSES]| v.iter().sum::<f64>() / PASSES as f64;
        let mut s = Sums::default();
        for a in accs {
            s.run += mean(&a.run);
            s.diffuse += mean(&a.diffuse);
            s.sweep += mean(&a.sweep);
            s.last_sweep += a.sweep[PASSES - 1];
            s.seq_sweep += a.seq_sweep;
            s.edges += a.counts[0].0 as f64;
            s.vol += a.counts[0].3 as f64;
            s.base += a.base;
            s.push_only += a.push_only;
            s.other_threads += a.other_threads;
        }
        s
    }

    /// The diffusion and sweep rows for one set of items: `label` is
    /// `all` (declared in `BENCHMARK.json`; exists on every workload) or a
    /// kind's name (table and trace file only). `t1_over_t2` turns the
    /// other-thread-count ratio into T1 ÷ T2; `None` on one core.
    fn rows(&self, label: &str, t1_over_t2: Option<&dyn Fn(f64) -> f64>) -> Vec<Metric> {
        let row = |layer: &str, what: &str, value: f64, unit| {
            let m = Metric::new(format!("core.{layer}.{label}.{what}"), value, unit);
            if label == "all" {
                m
            } else {
                m.detail()
            }
        };
        let mut rows = vec![
            row("diffusion", "time_ms", self.diffuse / 1e6, "ms"),
            row("diffusion", "edges_traversed", self.edges, "count")
                .note("repeats exactly between passes (asserted)"),
            row(
                "diffusion",
                "ns_per_edge",
                self.diffuse / self.edges.max(1.0),
                "ns",
            ),
            row("diffusion", "dir_gain", self.push_only / self.base, "ratio")
                .note("push-only ÷ default diffusion time, same queries back to back"),
            row("sweep", "time_ms", self.sweep / 1e6, "ms"),
            row("sweep", "vol", self.vol, "count").note("Σ vol(support) swept"),
        ];
        if let Some(orient) = t1_over_t2 {
            rows.push(
                row(
                    "diffusion",
                    "speedup_t2",
                    orient(self.other_threads / self.base),
                    "ratio",
                )
                .note("diffusion time at T1 ÷ at T2"),
            );
        }
        rows
    }
}

struct Replayed {
    metrics: Vec<Metric>,
    attempted: u64,
    failures: Vec<String>,
    tracer: Tracer,
}

/// An NCP-shaped grid for the batch-layer probes: the workload's own
/// `(α, ε)` grid where it has one, a small local one elsewhere.
fn batch_grid(spec: &Spec, items: &[Item]) -> (Vec<Query>, NcpParams) {
    let mut seeds: Vec<u32> = Vec::new();
    for it in items {
        let v = it.query.seed.vertices()[0];
        if !seeds.contains(&v) {
            seeds.push(v);
        }
    }
    let epsilons = if spec.id == WorkloadId::Batch {
        vec![1e-4, 1e-5, 1e-6]
    } else {
        vec![1e-4, 1e-5]
    };
    let alphas = vec![0.1, 0.01];
    const GRID_SEEDS: usize = 4;
    // One seed vertex (deep): neighbours in id space are as good as any.
    while seeds.len() < GRID_SEEDS {
        seeds.push(seeds[seeds.len() - 1].wrapping_add(1));
    }
    seeds.truncate(GRID_SEEDS);
    let mut grid = Vec::new();
    for &v in &seeds {
        for &alpha in &alphas {
            for &eps in &epsilons {
                grid.push(Query::new(
                    Seed::single(v),
                    Algorithm::PrNibble(PrNibbleParams {
                        alpha,
                        eps,
                        ..Default::default()
                    }),
                ));
            }
        }
    }
    let ncp = NcpParams {
        num_seeds: GRID_SEEDS,
        alphas,
        epsilons,
        ..Default::default()
    };
    (grid, ncp)
}

/// Wall time of `run_batch(grid)` on a warm engine over `g`.
fn batch_wall<B: CsrBackend>(g: &B, pool: &Arc<Pool>, grid: &[Query]) -> f64 {
    let engine = Engine::builder(g).shared_pool(Arc::clone(pool)).build();
    drop(engine.run_batch(grid));
    timed(|| engine.run_batch(grid)).1
}

/// The light queries of a list: the ones the fixed-overhead comparisons
/// and the server probes run.
fn light_queries(spec: &Spec, items: &[Item]) -> Vec<Query> {
    items
        .iter()
        .filter(|it| spec.kinds[it.kind].light)
        .take(LIGHT_MAX)
        .map(|it| it.query.clone())
        .collect()
}

fn replay<B: CsrBackend>(
    spec: &Spec,
    plain: &Graph,
    comp: &CsrCompressed,
    g: &B,
    items: &[Item],
    pool_t: &Arc<Pool>,
    pool_1: &Arc<Pool>,
) -> Replayed {
    let mut tracer = Tracer::new();
    let threads = pool_t.num_threads();
    let is_batch = spec.id == WorkloadId::Batch;
    let queries: Vec<Query> = items.iter().map(|it| it.query.clone()).collect();
    let engine_on = |pool: &Arc<Pool>| Engine::builder(g).shared_pool(Arc::clone(pool)).build();
    // `main` is the engine the workload measures. A batch runs each query
    // on one thread, so its queries are decomposed on a 1-thread engine.
    let main = engine_on(pool_t);
    let (decomp_pool, other_pool) = if is_batch {
        (pool_1, pool_t)
    } else {
        (pool_t, pool_1)
    };
    let one_thread = is_batch.then(|| engine_on(pool_1));
    let decomp = one_thread.as_ref().unwrap_or(&main);
    drop(one_pass(spec, &main, items, &queries)); // warm-up
    if is_batch {
        for it in items.iter().take(spec.kinds.len()) {
            drop(decomp.run(&it.query));
        }
    }

    // The replay decomposes the leading `replay_items` of the list (all
    // of it, except on `batch`, whose one-thread decomposition of every
    // query would take several batch passes).
    let full = items;
    let items = &items[..spec.replay_items.min(items.len())];

    // One pass exactly as the untraced run makes it, for the overhead.
    let (untraced_wall, untraced_lat, results) = one_pass(spec, &main, full, &queries);
    let untraced_s = if is_batch {
        untraced_wall
    } else {
        untraced_lat[..items.len()].iter().sum::<f64>() / 1e3
    };
    drop(results);

    let mut oracle = Oracle::new(g.num_vertices());
    let mut failures = Vec::new();
    let mut accs = vec![Acc::default(); items.len()];
    let mut traced_s = Vec::new();
    let mut flow_inputs: Vec<ClusterResult> = Vec::new();
    let mut largest: Option<ClusterResult> = None;
    let mut result_bytes = 0usize;
    for pass in 0..PASSES {
        let last = pass + 1 == PASSES;
        let id_of = |i: usize| (pass * items.len() + i) as u64;
        if is_batch {
            let (rs, d) = tracer.scope("core.batch.run_batch", u64::MAX, |_| {
                main.run_batch(&queries)
            });
            traced_s.push(d as f64 / 1e9);
            drop(rs);
        }
        // The whole: one `run` per query, results kept to the end of the
        // pass exactly as the untraced run keeps them.
        let mut kept = Vec::with_capacity(items.len());
        for (i, it) in items.iter().enumerate() {
            let (res, _) = tracer.scope("query", id_of(i), |t| {
                let (res, run_ns) = t.scope("core.engine.run", id_of(i), |_| decomp.run(&it.query));
                accs[i].run[pass] = run_ns as f64;
                res
            });
            kept.push(res);
        }
        if !is_batch {
            traced_s.push(accs.iter().map(|a| a.run[pass]).sum::<f64>() / 1e9);
        }
        for (i, (it, res)) in items.iter().zip(kept).enumerate() {
            if let Err(why) = oracle.check(g, &it.query.algo, &res, &Expect::default()) {
                failures.push(format!("query {i} ({}): {why}", spec.kinds[it.kind].name));
            }
            if last {
                result_bytes += lgc_server::wire::encode_result(&res).len();
                if spec.kinds[it.kind].flow && flow_inputs.len() < FLOW_MAX {
                    flow_inputs.push(res.clone());
                }
                if largest
                    .as_ref()
                    .is_none_or(|l| l.diffusion.p.len() < res.diffusion.p.len())
                {
                    largest = Some(res);
                }
            }
        }
        // The parts, separately: the same queries as diffusion, then sweep.
        for (i, it) in items.iter().enumerate() {
            let q = &it.query;
            let ((diffusion, sweep), _) = tracer.scope("query", id_of(i), |t| {
                let (d, diff_ns) = t.scope("core.diffusion", id_of(i), |_| {
                    decomp.diffuse(&q.seed, &q.algo)
                });
                let (s, sweep_ns) = t.scope("core.sweep", id_of(i), |_| {
                    sweep_cut_par(decomp.pool(), g, &d.p)
                });
                accs[i].diffuse[pass] = diff_ns as f64;
                accs[i].sweep[pass] = sweep_ns as f64;
                (d, s)
            });
            accs[i].counts[pass] = (
                diffusion.stats.edges_traversed,
                diffusion.stats.pushes,
                diffusion.p.len() as u64,
                g.volume(&sweep.order),
            );
            if last {
                let (seq, secs) = timed(|| sweep_cut_seq(g, &diffusion.p));
                accs[i].seq_sweep = secs * 1e9;
                if seq.best_conductance.to_bits() != sweep.best_conductance.to_bits() {
                    failures.push(format!("query {i}: sequential and parallel sweep disagree"));
                }
            }
        }
    }
    for (i, a) in accs.iter().enumerate() {
        if a.counts.iter().any(|c| *c != a.counts[0]) {
            failures.push(format!(
                "query {i}: work counts differ between passes: {:?}",
                a.counts
            ));
        }
    }
    let attempted = (PASSES * items.len()) as u64;

    // The same diffusions with direction optimisation off, and at the
    // other thread count, each next to a default run of the same query.
    // A short query is first run once unmeasured, so that all three find
    // its neighbourhood equally warm in cache.
    {
        let push_only = Engine::builder(g)
            .shared_pool(Arc::clone(decomp_pool))
            .direction(DirectionParams::push_only())
            .build();
        let other = engine_on(other_pool);
        for (acc, it) in accs.iter_mut().zip(items) {
            let (seed, algo) = (&it.query.seed, &it.query.algo);
            if acc.diffuse[0] < 20e6 {
                drop(decomp.diffuse(seed, algo));
            }
            acc.base = timed(|| decomp.diffuse(seed, algo)).1 * 1e9;
            acc.push_only = timed(|| push_only.diffuse(seed, algo)).1 * 1e9;
            if threads >= 2 {
                acc.other_threads = timed(|| other.diffuse(seed, algo)).1 * 1e9;
            }
        }
    }

    let all = Sums::over(accs.iter());
    let n_items = items.len() as f64;
    let decomp_threads = decomp_pool.num_threads();
    // T1 ÷ T2, whichever of the two the decomposition engine ran at.
    let orient = |other_over_base: f64| {
        if is_batch {
            1.0 / other_over_base
        } else {
            other_over_base
        }
    };
    let t1_over_t2: Option<&dyn Fn(f64) -> f64> = (threads >= 2).then_some(&orient);
    let mut metrics = vec![
        Metric::new("core.engine.run.time_ms", all.run / 1e6, "ms").note(format!(
            "Σ Engine::run over the {} replayed queries per pass, at {decomp_threads} thread(s); parts ÷ whole = {:.4}",
            items.len(),
            (all.diffuse + all.sweep) / all.run
        )),
        Metric::new("core.diffusion.share", all.diffuse / all.run, "ratio").note("Σ diffuse ÷ Σ run"),
        Metric::new("core.sweep.share", all.sweep / all.run, "ratio").note("Σ sweep ÷ Σ run"),
        Metric::new("core.sweep.ns_per_vol", all.sweep / all.vol.max(1.0), "ns"),
        Metric::new("core.sweep.par_over_seq", all.seq_sweep / all.last_sweep, "ratio").note(format!(
            "sweep_cut_seq ÷ sweep_cut_par at {decomp_threads} thread(s)"
        )),
        Metric::new(
            "core.engine.overhead_us",
            (all.run - all.diffuse - all.sweep) / 1e3 / n_items,
            "us",
        )
        .note("(run − diffuse − sweep) per query: workspace checkout + pack; signed"),
    ];
    metrics.extend(all.rows("all", t1_over_t2));
    for (k, kind) in spec.kinds.iter().enumerate() {
        let of_kind = accs.iter().zip(items).filter(|(_, it)| it.kind == k);
        metrics.extend(Sums::over(of_kind.map(|(a, _)| a)).rows(kind.name, t1_over_t2));
    }

    // Fixed per-query overheads, on the light kinds.
    let light = light_queries(spec, items);
    let far = QueryBudget::unlimited().with_deadline(Duration::from_secs(3600));
    let (mut warm_s, mut cold_s, mut guard_s) = (0.0, 0.0, 0.0);
    for (j, q) in light.iter().enumerate() {
        drop(decomp.run(q));
        // Each repeat of a short query finds more of it in cache, so the
        // three variants take turns going first.
        let guarded = q.clone().with_budget(far.clone());
        for turn in 0..3 {
            match (j + turn) % 3 {
                0 => warm_s += timed(|| decomp.run(q)).1,
                1 => cold_s += timed(|| find_cluster(decomp.pool(), g, &q.seed, &q.algo)).1,
                _ => {
                    let (r, s) = timed(|| decomp.try_run(&guarded));
                    guard_s += s;
                    if r.is_err() {
                        failures.push("try_run with a far deadline did not complete".into());
                    }
                }
            }
        }
    }
    let life = decomp.lifecycle_stats();
    metrics.extend([
        Metric::new("core.engine.cold_over_warm", cold_s / warm_s, "ratio").note(format!(
            "find_cluster ÷ Engine::run over {} light queries",
            light.len()
        )),
        Metric::new("core.engine.guard_over_plain", guard_s / warm_s, "ratio")
            .note("try_run with a far deadline ÷ run"),
        Metric::new(
            "core.engine.warm_workspaces",
            decomp.warm_workspaces() as f64,
            "count",
        ),
        Metric::new(
            "core.engine.lifecycle.admitted",
            life.admitted as f64,
            "count",
        ),
        Metric::new(
            "core.engine.lifecycle.completed",
            life.completed as f64,
            "count",
        ),
        Metric::new("core.engine.lifecycle.shed", life.shed() as f64, "count"),
    ]);

    // Inter-query parallelism: run_batch on an NCP-shaped grid.
    {
        let (grid, ncp) = batch_grid(spec, items);
        let one = engine_on(pool_1);
        let wall_t = batch_wall(g, pool_t, &grid);
        let wall_1 = batch_wall(g, pool_1, &grid);
        let serial: f64 = grid.iter().map(|q| timed(|| one.run(q)).1).sum();
        let ncp_s = timed(|| main.ncp(&ncp)).1;
        let note = format!("{}-query PR-Nibble grid", grid.len());
        if threads >= 2 {
            metrics.push(
                Metric::new("core.batch.speedup_t2", wall_1 / wall_t, "ratio").note(note.clone()),
            );
        }
        metrics.extend([
            Metric::new(
                "core.batch.efficiency",
                serial / (threads as f64 * wall_t),
                "ratio",
            )
            .note("Σ 1-thread per-query time ÷ (T × batch wall)"),
            Metric::new(
                "core.batch.compressed_over_plain",
                batch_wall(comp, pool_t, &grid) / batch_wall(plain, pool_t, &grid),
                "ratio",
            )
            .note(note),
            Metric::new("core.ncp.over_batch", ncp_s / wall_t, "ratio").note(
                "Engine::ncp (own seeds, one query at a time at T) ÷ run_batch, same grid shape",
            ),
        ]);
    }

    metrics.extend(probes::flow(&main, &flow_inputs));
    let largest = largest.expect("the list is not empty");
    metrics.extend(probes::server_codec(
        light.first().unwrap_or(&items[0].query),
        &largest,
        result_bytes as f64 / n_items,
    ));
    metrics.extend(probes::sparse(
        g.num_vertices(),
        &largest.sweep.order,
        pool_t,
    ));
    metrics.push(
        Metric::new(
            "trace.overhead_frac",
            (median(&traced_s) - untraced_s) / untraced_s,
            "ratio",
        )
        .note(format!(
            "(traced − untraced) ÷ untraced time of the workload's own calls; untraced {untraced_s:.4} s"
        )),
    );
    Replayed {
        metrics,
        attempted,
        failures,
        tracer,
    }
}

/// The server path with nothing else running: light queries one at a
/// time over TCP, then the same queries through `ServiceEngine::try_run`
/// in-process. The difference is codec + kernel + the connection's
/// reader and writer threads.
fn server_alone(store: GraphStore, light: &[Query], threads: usize) -> Result<Vec<Metric>, String> {
    let (service, server) = serve::start_server(store, threads)?;
    let mut client =
        Client::connect(server.local_addr()).map_err(|e| format!("probe connection: {e}"))?;
    let engine = service
        .engine(TENANT)
        .expect("the tenant was just registered");
    let mut tcp_ms = Vec::new();
    let mut direct_ms = Vec::new();
    for round in 0..2 {
        for q in light {
            let (r, s) = timed(|| client.query(TENANT, Priority::Interactive, q));
            if !matches!(r, Ok(Ok(_))) {
                return Err("probe query over TCP failed".into());
            }
            let (d, ds) = timed(|| engine.try_run(q));
            if d.is_err() {
                return Err("probe query in-process failed".into());
            }
            if round == 1 {
                tcp_ms.push(s * 1e3);
                direct_ms.push(ds * 1e3);
            }
        }
    }
    let page = client
        .metrics()
        .map_err(|e| format!("probe METRICS: {e}"))?;
    let exec_p50 = serve::scrape(
        &page,
        "lgc_query_latency_seconds",
        &["class=\"interactive\"", "quantile=\"0.5\""],
    );
    // The page only has log2-bucket quantiles; the exact mean is on the
    // registry the page is rendered from.
    let exec_mean_ms = server
        .metrics()
        .class(TENANT, Priority::Interactive)
        .latency
        .mean()
        .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
    server.shutdown();
    let tcp = median(&tcp_ms);
    let direct = median(&direct_ms);
    let tcp_mean = tcp_ms.iter().sum::<f64>() / tcp_ms.len() as f64;
    Ok(vec![
        Metric::new("server.direct_p50_ms", direct, "ms").note(format!(
            "ServiceEngine::try_run in-process, {} light queries",
            light.len()
        )),
        Metric::new("server.alone_p50_ms", tcp, "ms")
            .note("the same queries over TCP, one at a time, no bulk"),
        Metric::new("server.tcp_over_direct", tcp / direct, "ratio"),
        Metric::new("server.conn.gap_ms", tcp_mean - exec_mean_ms, "ms")
            .note("client-observed − server-recorded mean: wire + kernel + reader/writer threads"),
        Metric::new(
            "server.exec_p50_ms",
            exec_p50.map_or(f64::NAN, |s| s * 1e3),
            "ms",
        )
        .note("scraped from the METRICS page (log2-bucket upper bound)"),
    ])
}

/// `serve` only: the loaded window with client spans and METRICS
/// scrapes around it, and the rate ladder. Table and trace file only.
fn serve_under_load(
    spec: &Spec,
    graph: &Arc<Graph>,
    seed: u64,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<(Vec<Metric>, u64, Vec<String>), String> {
    const WINDOW_S: f64 = 4.0;
    const RUNG_S: f64 = 2.0;
    let mut metrics = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let store = || GraphStore::from(Arc::clone(graph));
    let (interactive, bulk) = serve::traffic(spec, graph, seed, (400.0 * RUNG_S) as usize);

    let (_service, server) = serve::start_server(store(), threads)?;
    serve::warm_up(server.local_addr(), &interactive, &bulk)?;
    let mut scraper =
        Client::connect(server.local_addr()).map_err(|e| format!("scrape connection: {e}"))?;
    let before = scraper.metrics().map_err(|e| format!("METRICS: {e}"))?;
    let base_ns = tracer.now_ns();
    let (sent, done) = serve::window(
        server.local_addr(),
        &interactive,
        SERVE_RATE_HZ,
        WINDOW_S,
        &bulk,
    )?;
    let after = scraper.metrics().map_err(|e| format!("METRICS: {e}"))?;
    server.shutdown();
    // The window's clock starts 20 ms after `base_ns` was read.
    let offset = base_ns + 20_000_000;
    for (i, s) in sent.iter().enumerate() {
        tracer.push(
            "client.send",
            i as u64,
            offset + s.intended_ns,
            offset + s.sent_ns,
        );
        if let Some(recv) = s.recv_ns {
            tracer.push("client.recv", i as u64, offset + s.sent_ns, offset + recv);
        }
    }
    failures.extend(serve::verify(
        graph,
        &interactive[..sent.len()],
        &sent,
        &bulk,
        &done,
    ));
    attempted += (sent.len() + done.len()) as u64;
    let summary = serve::account(&sent, spec.limit_ms);
    let lat = sorted(&summary.latency_ms);
    let ms = |s: Option<f64>| s.map_or(f64::NAN, |s| s * 1e3);
    for class in ["interactive", "bulk"] {
        let label = format!("class=\"{class}\"");
        for (q, name) in [("quantile=\"0.5\"", "p50"), ("quantile=\"0.99\"", "p99")] {
            metrics.push(
                Metric::new(
                    format!("server.exec_{name}_ms.{class}"),
                    ms(serve::scrape(
                        &after,
                        "lgc_query_latency_seconds",
                        &[&label, q],
                    )),
                    "ms",
                )
                .note("enqueue→completion under load, scraped (log2-bucket upper bound)")
                .detail(),
            );
        }
    }
    let delta = |name: &str, labels: &[&str]| {
        serve::scrape(&after, name, labels).unwrap_or(0.0)
            - serve::scrape(&before, name, labels).unwrap_or(0.0)
    };
    metrics.push(
        Metric::new(
            "server.shed.queue_full",
            delta("lgc_shed_total", &["reason=\"queue_full\""]),
            "count",
        )
        .detail(),
    );
    metrics.push(
        Metric::new(
            "server.shed.overloaded",
            delta("lgc_lifecycle_total", &["event=\"shed_overloaded\""]),
            "count",
        )
        .detail(),
    );
    metrics.push(
        Metric::new("server.loaded_p50_ms", median(&lat), "ms")
            .note(format!(
                "client-observed, {WINDOW_S} s at {SERVE_RATE_HZ} req/s with the bulk background"
            ))
            .detail(),
    );
    metrics.push(
        Metric::new(
            "server.generator_lag_p99_ms",
            tail(&sorted(&summary.lag_ms), 99.0).value,
            "ms",
        )
        .note("how late the open-loop generator sent")
        .detail(),
    );

    // The ladder: the same mix at three fixed rates.
    let mut max_ok = 0.0;
    for rate in [100.0, 200.0, 400.0] {
        let (_service, server) = serve::start_server(store(), threads)?;
        serve::warm_up(server.local_addr(), &interactive, &bulk)?;
        let (sent, done) = serve::window(server.local_addr(), &interactive, rate, RUNG_S, &bulk)?;
        server.shutdown();
        attempted += (sent.len() + done.len()) as u64;
        let s = serve::account(&sent, spec.limit_ms);
        failures.extend((0..s.failed).map(|_| format!("ladder r{rate}: a request failed")));
        let p99 = tail(&sorted(&s.latency_ms), 99.0);
        // A backlog that outlives the last send by more than a handful
        // of requests is growing.
        let backlog_ok = s.backlog_at_end <= 8.max(sent.len() / 50);
        if p99.value <= spec.limit_ms && backlog_ok && s.failed == 0 {
            max_ok = rate;
        }
        metrics.push(
            Metric::new(format!("server.ladder.p99_ms.r{rate}"), p99.value, "ms")
                .note(format!(
                    "p{:.1} of {} samples; {} unanswered at the last send",
                    p99.pct,
                    s.latency_ms.len(),
                    s.backlog_at_end
                ))
                .detail(),
        );
    }
    metrics.push(
        Metric::new("server.max_rate_ok_qps", max_ok, "1/s")
            .note("highest ladder rate with p99 ≤ limit and no growing backlog")
            .detail(),
    );
    Ok((metrics, attempted, failures))
}

/// Runs one workload traced and writes `out/trace-<workload>.json`.
pub fn run(spec: &Spec, seed: u64, threads: usize, prov: &Provenance) -> Result<Outcome, String> {
    let (plain, build_s) = timed(|| spec.graph(seed));
    let items = spec.list(&plain, seed);
    let fingerprint = Fingerprint::of(spec, &plain, seed);
    check_lock(spec, &fingerprint, seed)?;
    let pool_t = Pool::shared(threads);
    let pool_1 = Pool::shared(1);

    let (comp, graph_metrics) = probes::graph(&plain, build_s);
    let mut replayed = if spec.compressed {
        replay(spec, &plain, &comp, &comp, &items, &pool_t, &pool_1)
    } else {
        replay(spec, &plain, &comp, &plain, &items, &pool_t, &pool_1)
    };
    let mut metrics = std::mem::take(&mut replayed.metrics);
    metrics.extend(probes::ligra(
        &plain,
        &pool_t,
        items[0].query.seed.vertices()[0],
    ));
    metrics.extend(probes::parallel(&pool_t, &pool_1));
    metrics.extend(graph_metrics);

    let light = light_queries(spec, &items);
    // The replay's engines are gone; the server brings its own pool.
    drop((pool_t, pool_1));
    let plain = Arc::new(plain);
    let store: GraphStore = if spec.compressed {
        comp.into()
    } else {
        Arc::clone(&plain).into()
    };
    metrics.extend(server_alone(store, &light, threads)?);
    if spec.id == WorkloadId::Serve {
        let (m, attempted, failures) =
            serve_under_load(spec, &plain, seed, threads, &mut replayed.tracer)?;
        metrics.extend(m);
        replayed.attempted += attempted;
        replayed.failures.extend(failures);
    }
    metrics.sort_by(|a, b| a.name.cmp(&b.name));

    let outcome = Outcome {
        workload: spec.id.name(),
        seed,
        traced: true,
        threads,
        fingerprint,
        metrics,
        attempted: replayed.attempted,
        failed: (replayed.failures.len() as u64).min(replayed.attempted),
        failures: replayed.failures.into_iter().take(5).collect(),
        generator: "1 thread in-process replay; server probes: 1 connection, 1 in flight".into(),
    };
    let self_times: Vec<String> = self_time_by_name_ns(&replayed.tracer.spans)
        .into_iter()
        .map(|(name, t, n)| {
            format!(
                "{}: {{\"self_ms\": {}, \"spans\": {n}}}",
                crate::json::quote(name),
                t as f64 / 1e6
            )
        })
        .collect();
    let header = format!(
        "{},\n\"metrics\": {},\n\"self_time_by_span\": {{{}}}",
        outcome.provenance_json(prov),
        outcome.metrics_json(false),
        self_times.join(", ")
    );
    let dir = bench_dir().join("out");
    let path = dir.join(format!("trace-{}.json", spec.id.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, render_trace(&header, &replayed.tracer.spans)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        replayed.tracer.spans.len(),
        path.display()
    );
    Ok(outcome)
}
