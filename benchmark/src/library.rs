//! The three library workloads, untraced: set up (several times), run the
//! fixed list pass after pass for `--seconds`, check every answer, report
//! the end-to-end metrics.

use crate::oracle::{Expect, Oracle};
use crate::provenance::peak_rss_mib;
use crate::report::{Metric, Outcome};
use crate::setup::{check_lock, expectations};
use crate::stats::{median, quiet_quartile, sorted, tail};
use crate::workloads::{Fingerprint, Item, Spec, WorkloadId, SETUP_REPS};
use lgc_core::{ClusterResult, Engine, Query};
use lgc_graph::{CsrBackend, CsrCompressed};
use std::time::Instant;

/// One pass over the list: the pass's wall time, each query's latency in
/// ms (none for a batch, whose results arrive together), and the results,
/// position-aligned with the list.
pub fn one_pass<B: CsrBackend>(
    spec: &Spec,
    engine: &Engine<'_, B>,
    items: &[Item],
    queries: &[Query],
) -> (f64, Vec<f64>, Vec<ClusterResult>) {
    let t0 = Instant::now();
    if spec.id == WorkloadId::Batch {
        let results = engine.run_batch(queries);
        let wall = t0.elapsed().as_secs_f64();
        return (wall, Vec::new(), results);
    }
    let mut latencies = Vec::with_capacity(items.len());
    let mut results = Vec::with_capacity(items.len());
    for it in items {
        let q0 = Instant::now();
        let r = engine.run(&it.query);
        latencies.push(q0.elapsed().as_secs_f64() * 1e3);
        results.push(r);
    }
    (t0.elapsed().as_secs_f64(), latencies, results)
}

/// Oracle failures among one pass's results, as messages.
pub fn check_pass<B: CsrBackend>(
    spec: &Spec,
    g: &B,
    oracle: &mut Oracle,
    items: &[Item],
    expect: &[Expect],
    results: &[ClusterResult],
) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, ((it, e), r)) in items.iter().zip(expect).zip(results).enumerate() {
        if let Err(why) = oracle.check(g, &it.query.algo, r, e) {
            failures.push(format!("query {i} ({}): {why}", spec.kinds[it.kind].name));
        }
    }
    failures
}

/// What the timed passes of one run amount to.
struct Measured {
    pass_s: Vec<f64>,
    /// Per pass, its latency samples in list order: one per query, or the
    /// pass's own wall time where a sample is a whole pass.
    latency_ms: Vec<Vec<f64>>,
    attempted: u64,
    failures: Vec<String>,
}

/// Fewest timed passes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Passes over the list until `seconds` have gone by: a fixed window, not
/// a fixed count, so a slow box costs samples and not the driver's time
/// limit. Every answer of every pass goes through the oracle.
fn measure<B: CsrBackend>(
    spec: &Spec,
    g: &B,
    engine: &Engine<'_, B>,
    items: &[Item],
    expect: &[Expect],
    seconds: f64,
) -> Measured {
    let queries: Vec<Query> = items.iter().map(|it| it.query.clone()).collect();
    let mut oracle = Oracle::new(g.num_vertices());
    let mut m = Measured {
        pass_s: Vec::new(),
        latency_ms: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let start = Instant::now();
    while m.pass_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (wall, latencies, results) = one_pass(spec, engine, items, &queries);
        m.pass_s.push(wall);
        m.latency_ms.push(if spec.latency_per_pass {
            vec![wall * 1e3]
        } else {
            latencies
        });
        m.attempted += results.len() as u64;
        m.failures
            .extend(check_pass(spec, g, &mut oracle, items, expect, &results));
    }
    m
}

/// The backend-generic part of one set-up repetition: engine construction
/// and the warm-up pass. Returns the set-up time counted from `t0` and,
/// for the repetition that is measured on (`timed` says how), the
/// measurement.
fn set_up<B: CsrBackend>(
    spec: &Spec,
    g: &B,
    items: &[Item],
    t0: Instant,
    threads: usize,
    timed: Option<(&[Expect], f64)>,
) -> (f64, Option<Measured>) {
    let engine = Engine::builder(g).threads(threads).build();
    let queries: Vec<Query> = items.iter().map(|it| it.query.clone()).collect();
    drop(one_pass(spec, &engine, items, &queries));
    let setup_s = t0.elapsed().as_secs_f64();
    let measured = timed.map(|(expect, seconds)| measure(spec, g, &engine, items, expect, seconds));
    (setup_s, measured)
}

/// Runs one library workload untraced.
pub fn run(spec: &Spec, seed: u64, seconds: f64, threads: usize) -> Result<Outcome, String> {
    // Harness work, outside both set-up and the timed passes: the lock
    // (before any time is spent) and the references the oracle needs.
    let (fingerprint, expect) = {
        let plain = spec.graph(seed);
        let fingerprint = Fingerprint::of(spec, &plain, seed);
        check_lock(spec, &fingerprint, seed)?;
        let expect = expectations(spec, &plain, &spec.list(&plain, seed), seed)?;
        (fingerprint, expect)
    };
    let mut setup_s = Vec::new();
    let mut measured = None;
    for rep in 0..SETUP_REPS {
        // Set-up: graph generation + CSR (+ compression) build + engine
        // construction + one warm-up pass. Each repetition starts from
        // nothing; the last one is measured on.
        let timed = (rep + 1 == SETUP_REPS).then_some((expect.as_slice(), seconds));
        let t0 = Instant::now();
        let plain = spec.graph(seed);
        let items = spec.list(&plain, seed);
        let (s, m) = if spec.compressed {
            let g = CsrCompressed::from_graph(&plain);
            set_up(spec, &g, &items, t0, threads, timed)
        } else {
            set_up(spec, &plain, &items, t0, threads, timed)
        };
        setup_s.push(s);
        measured = m;
    }
    let m = measured.expect("the last set-up repetition measures");

    let passes = m.pass_s.len();
    let pass_s = quiet_quartile(&m.pass_s, true);
    let list_len = (m.attempted as usize / passes) as f64;
    // The list is the same in every pass, so each of its samples has been
    // taken `passes` times: its quiet-side quartile over the passes is what
    // the query costs when nothing disturbs it, and the percentiles are
    // taken across the list of those. (Pooling all samples instead makes
    // the tail a measure of the box: the slowest hundredth of a pooled
    // sample is whatever was running while a neighbour had the core.)
    let samples = m.latency_ms[0].len();
    let quiet: Vec<f64> = (0..samples)
        .map(|i| {
            let over_passes: Vec<f64> = m.latency_ms.iter().map(|pass| pass[i]).collect();
            quiet_quartile(&over_passes, true)
        })
        .collect();
    let quiet = sorted(&quiet);
    let p99 = tail(&quiet, 99.0);
    let failed = m.failures.len() as u64;
    // A query the oracle rejects misses the limit too; the oracle does not
    // say which sample it was, so failures are taken off the count.
    let in_time = m
        .latency_ms
        .iter()
        .flatten()
        .filter(|&&l| l <= spec.limit_ms)
        .count() as u64;
    let within = in_time.saturating_sub(failed) as f64 / (samples * passes) as f64;
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s").note(format!(
            "median of {} set-ups: {:?}",
            setup_s.len(),
            setup_s
        )),
        Metric::new("pass_s", pass_s, "s").note(format!(
            "first quartile of {passes} passes' wall times (their median {:.6}); {list_len} queries a pass",
            median(&m.pass_s)
        )),
        Metric::new("latency_p50_ms", median(&quiet), "ms").note(format!(
            "median over the list's {samples} samples of each one's first quartile over {passes} passes"
        )),
        Metric::new("latency_p99_ms", p99.value, "ms").note(format!(
            "p{:.1} over the same {samples}: the highest percentile ≤ p99 with ≥ 10 of them beyond it (one sample: itself)",
            p99.pct
        )),
        Metric::new("within_limit_frac", within, "ratio").note(format!(
            "of {} samples; limit {} ms per sample",
            samples * passes,
            spec.limit_ms
        )),
        Metric::new("bulk_qps", list_len / pass_s, "1/s")
            .note("library workload: list length ÷ pass_s"),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB").note("VmHWM of this process"),
    ];
    Ok(Outcome {
        workload: spec.id.name(),
        seed,
        traced: false,
        threads,
        fingerprint,
        metrics,
        attempted: m.attempted,
        failed,
        failures: m.failures.into_iter().take(5).collect(),
        generator: "1 thread, closed loop, 1 in flight, in-process".into(),
    })
}
