//! `repro` — regenerates every table and figure of the paper's
//! evaluation (§4) on the stand-in graph suite.
//!
//! ```sh
//! cargo run --release -p lgc-bench --bin repro -- all
//! cargo run --release -p lgc-bench --bin repro -- table3 --quick
//! ```
//!
//! Subcommands: `table1 table2 table3 fig4 fig8 fig9 fig10 fig11 fig12
//! evolving all`. `--quick` shrinks the graphs ~4× for smoke runs.
//!
//! Absolute numbers will differ from the paper (its testbed was a 40-core
//! Xeon over billion-edge graphs); the *shapes* — which algorithm wins,
//! optimized-rule speedups, push-count ratios, parallel sweep behaviour,
//! NCP dips — are the reproduction targets. The numbers a change to this
//! repository is judged by come from `benchmark/` (its `README.md` says
//! how they are taken).

// Atomic orderings and hash containers only where a file says why.
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

use lgc_bench::{
    evolving_claim, fig10_claim, fig4_claim, hardware_threads, suite, suite_seed, table1_claim,
    time, time_best_of, SuiteGraph,
};
use lgc_core as lgc;
use lgc_core::{Algorithm, Engine, LocalDiffusion, PrNibbleParams, PushRule, Seed, Workspace};
use lgc_parallel::Pool;

/// Paper parameters, scaled once for laptop-size graphs (ε relaxed ~10×
/// vs. the paper because our graphs are ~1000× smaller).
mod params {
    use lgc_core::*;
    pub fn prnibble() -> PrNibbleParams {
        PrNibbleParams {
            alpha: 0.01,
            eps: 1e-6,
            ..Default::default()
        }
    }
    /// The four diffusions Table 3 and Figure 9 time, with their row
    /// labels; Nibble first (Table 3 sweeps its output).
    pub fn diffusions() -> [(&'static str, Algorithm); 4] {
        let nibble = NibbleParams {
            t_max: 20,
            eps: 1e-7,
        };
        let hkpr = HkprParams {
            t: 10.0,
            n_levels: 20,
            eps: 1e-6,
        };
        let rand_hkpr = RandHkprParams {
            t: 10.0,
            max_len: 10,
            walks: 100_000,
            rng_seed: 42,
        };
        [
            ("Nibble", Algorithm::Nibble(nibble)),
            ("PR-Nibble", Algorithm::PrNibble(prnibble())),
            ("HK-PR", Algorithm::Hkpr(hkpr)),
            ("rand-HK-PR", Algorithm::RandHkpr(rand_hkpr)),
        ]
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let max_threads = hardware_threads();
    println!("# repro: machine has {max_threads} hardware threads; quick={quick}");
    let (graphs, gen_secs) = time(|| suite(quick));
    println!("# graph suite generated in {gen_secs:.1}s\n");

    // Whether every checked claim held (`fig4`, `table1`, `fig10`,
    // `evolving`).
    let mut ok = true;
    match cmd {
        "table2" => table2(&graphs),
        "fig4" => ok = fig4(&graphs),
        "table1" => ok = table1(&graphs, max_threads),
        "table3" => table3(&graphs, max_threads),
        "fig8" => fig8(&graphs),
        "fig9" => fig9(&graphs, max_threads),
        "fig10" => ok = fig10(&graphs, max_threads),
        "fig11" => fig11(&graphs, max_threads),
        "fig12" => fig12(&graphs, max_threads),
        "evolving" => ok = evolving(&graphs, max_threads),
        "all" => {
            table2(&graphs);
            ok = fig4(&graphs);
            ok &= table1(&graphs, max_threads);
            table3(&graphs, max_threads);
            fig8(&graphs);
            fig9(&graphs, max_threads);
            ok &= fig10(&graphs, max_threads);
            fig11(&graphs, max_threads);
            fig12(&graphs, max_threads);
            ok &= evolving(&graphs, max_threads);
        }
        other => {
            eprintln!("unknown subcommand {other:?}; try: table1 table2 table3 fig4 fig8 fig9 fig10 fig11 fig12 evolving all");
            std::process::exit(2);
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Table 2: the graph inventory.
fn table2(graphs: &[SuiteGraph]) {
    println!("== Table 2: graph inputs (stand-ins; original in parentheses) ==");
    println!(
        "{:<18} {:>12} {:>14}  replaces",
        "graph", "vertices", "edges"
    );
    for sg in graphs {
        println!(
            "{:<18} {:>12} {:>14}  {}",
            sg.name,
            sg.graph.num_vertices(),
            sg.graph.num_edges(),
            sg.replaces
        );
    }
    println!();
}

/// Figure 4: original vs optimized sequential PR-Nibble, normalized.
/// Returns whether every row met the deterministic half of the paper's
/// claim ([`fig4_claim`]: pushes and conductance, not time); a row that
/// did not is named on stderr and `repro` exits 1.
fn fig4(graphs: &[SuiteGraph]) -> bool {
    println!("== Figure 4: PR-Nibble original vs optimized update rule (sequential) ==");
    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>12} {:>12} {:>11}",
        "graph", "orig (ms)", "opt (ms)", "speedup", "phi(orig)", "phi(opt)", "push ratio"
    );
    let mut ok = true;
    for sg in graphs {
        let seed = Seed::single(suite_seed(&sg.graph));
        let base = params::prnibble();
        let (d_orig, t_orig) = time_best_of(2, || {
            lgc::prnibble_seq(
                &sg.graph,
                &seed,
                &PrNibbleParams {
                    rule: PushRule::Original,
                    ..base
                },
            )
        });
        let (d_opt, t_opt) = time_best_of(2, || {
            lgc::prnibble_seq(
                &sg.graph,
                &seed,
                &PrNibbleParams {
                    rule: PushRule::Optimized,
                    ..base
                },
            )
        });
        // The paper observes both rules return same-conductance clusters.
        let phi_orig = lgc::sweep_cut_seq(&sg.graph, &d_orig.p).best_conductance;
        let phi_opt = lgc::sweep_cut_seq(&sg.graph, &d_opt.p).best_conductance;
        let (orig_pushes, opt_pushes) = (d_orig.stats.pushes, d_opt.stats.pushes);
        println!(
            "{:<18} {:>12.1} {:>12.1} {:>9.2}x {:>12.5} {:>12.5} {:>10.2}x",
            sg.name,
            t_orig * 1e3,
            t_opt * 1e3,
            t_orig / t_opt,
            phi_orig,
            phi_opt,
            opt_pushes as f64 / orig_pushes.max(1) as f64
        );
        if let Err(why) = fig4_claim(orig_pushes, opt_pushes, phi_orig, phi_opt) {
            eprintln!("fig4: {}: {why}", sg.name);
            ok = false;
        }
    }
    println!("# paper: optimized wins by 1.4-6.4x with identical conductance");
    println!(
        "# checked: opt pushes <= orig pushes and phi(opt) <= phi(orig) + 0.01 (times are not)\n"
    );
    ok
}

/// Table 1: pushes (sequential vs parallel) and parallel iterations.
/// Returns whether every row met the paper's claim ([`table1_claim`]);
/// a row that did not is named on stderr and `repro` exits 1.
fn table1(graphs: &[SuiteGraph], max_threads: usize) -> bool {
    println!("== Table 1: PR-Nibble pushes and iterations ==");
    println!(
        "{:<18} {:>14} {:>14} {:>8} {:>12}",
        "graph", "pushes (seq)", "pushes (par)", "ratio", "iters (par)"
    );
    let pool = Pool::new(max_threads);
    let mut ok = true;
    for sg in graphs {
        let seed = Seed::single(suite_seed(&sg.graph));
        let p = params::prnibble();
        let d_seq = lgc::prnibble_seq(&sg.graph, &seed, &p);
        let d_par = Algorithm::PrNibble(p).diffuse(&pool, &sg.graph, &seed, &mut Workspace::new());
        println!(
            "{:<18} {:>14} {:>14} {:>8.2} {:>12}",
            sg.name,
            d_seq.stats.pushes,
            d_par.stats.pushes,
            d_par.stats.pushes as f64 / d_seq.stats.pushes.max(1) as f64,
            d_par.stats.iterations
        );
        if let Err(why) = table1_claim(
            d_seq.stats.pushes,
            d_par.stats.pushes,
            d_par.stats.iterations,
        ) {
            eprintln!("table1: {}: {why}", sg.name);
            ok = false;
        }
    }
    println!("# paper: parallel does <=1.6x the pushes, in far fewer iterations\n");
    ok
}

/// Table 3: running times of all algorithms + sweep, sequential vs
/// parallel at 1 thread and at all threads. On a one-thread box the
/// `T1/T_P` column is `-`: both pools are one thread wide, and the ratio
/// of two such runs is not a speedup.
fn table3(graphs: &[SuiteGraph], max_threads: usize) {
    println!("== Table 3: running times (seconds) ==");
    println!(
        "{:<18} {:<14} {:>10} {:>10} {:>10} {:>9}",
        "graph", "algorithm", "seq", "par T1", "par T_P", "T1/T_P"
    );
    let pool1 = Pool::new(1);
    let poolp = Pool::new(max_threads);
    for sg in graphs {
        let g = &sg.graph;
        let seed = Seed::single(suite_seed(g));
        let row = |alg: &str, tseq: f64, t1: f64, tp: f64| {
            let speedup = if max_threads == 1 {
                "-".to_string()
            } else {
                format!("{:.2}", t1 / tp)
            };
            println!(
                "{:<18} {:<14} {:>10.3} {:>10.3} {:>10.3} {:>9}",
                sg.name, alg, tseq, t1, tp, speedup
            );
        };

        let mut d_nibble = None;
        for (alg, algo) in params::diffusions() {
            let (_, ts) = time_best_of(2, || algo.diffuse_seq(g, &seed));
            let (_, t1) = time_best_of(2, || algo.diffuse(&pool1, g, &seed, &mut Workspace::new()));
            let (d, tp) = time_best_of(2, || algo.diffuse(&poolp, g, &seed, &mut Workspace::new()));
            row(alg, ts, t1, tp);
            if matches!(algo, Algorithm::Nibble(_)) {
                d_nibble = Some(d);
            }
        }
        let d_nibble = d_nibble.expect("Table 3 times Nibble");

        // Sweep cut on the Nibble output (as in the paper).
        let (_, ts) = time_best_of(3, || lgc::sweep_cut_seq(g, &d_nibble.p));
        let (_, t1) = time_best_of(3, || lgc::sweep_cut_par(&pool1, g, &d_nibble.p));
        let (_, tp) = time_best_of(3, || lgc::sweep_cut_par(&poolp, g, &d_nibble.p));
        row("Sweep", ts, t1, tp);
    }
    println!("# paper: T40/T1 speedups 9-35x on 40 cores; here the ceiling is the core count\n");
}

/// Figure 8: runtime and conductance vs parameter settings, on the
/// largest stand-in (yahoo-sim).
fn fig8(graphs: &[SuiteGraph]) {
    let sg = graphs
        .iter()
        .find(|s| s.name == "yahoo-sim")
        .expect("suite has yahoo-sim");
    let g = &sg.graph;
    let seed = Seed::single(suite_seed(g));
    println!("== Figure 8: parameter sweeps on {} ==", sg.name);

    println!(
        "{:<10} {:>10} {:>12} {:>12}  (a/b) Nibble: vary T, eps",
        "T", "eps", "time (ms)", "phi"
    );
    for t_max in [5usize, 10, 20, 40] {
        for eps in [1e-5, 1e-6, 1e-7, 1e-8] {
            let p = lgc::NibbleParams { t_max, eps };
            let (d, secs) = time(|| lgc::nibble_seq(g, &seed, &p));
            let phi = lgc::sweep_cut_seq(g, &d.p).best_conductance;
            println!(
                "{:<10} {:>10.0e} {:>12.1} {:>12.5}",
                t_max,
                eps,
                secs * 1e3,
                phi
            );
        }
    }

    println!(
        "{:<10} {:>10} {:>12} {:>12}  (c/d) PR-Nibble: vary alpha, eps",
        "alpha", "eps", "time (ms)", "phi"
    );
    for alpha in [0.1, 0.01, 0.001] {
        for eps in [1e-5, 1e-6, 1e-7] {
            let p = PrNibbleParams {
                alpha,
                eps,
                ..Default::default()
            };
            let (d, secs) = time(|| lgc::prnibble_seq(g, &seed, &p));
            let phi = lgc::sweep_cut_seq(g, &d.p).best_conductance;
            println!(
                "{:<10} {:>10.0e} {:>12.1} {:>12.5}",
                alpha,
                eps,
                secs * 1e3,
                phi
            );
        }
    }

    println!(
        "{:<10} {:>10} {:>12} {:>12}  (e/f) HK-PR: vary N, eps (t=10)",
        "N", "eps", "time (ms)", "phi"
    );
    for n_levels in [5usize, 10, 20, 40] {
        for eps in [1e-4, 1e-5, 1e-6] {
            let p = lgc::HkprParams {
                t: 10.0,
                n_levels,
                eps,
            };
            let (d, secs) = time(|| lgc::hkpr_seq(g, &seed, &p));
            let phi = lgc::sweep_cut_seq(g, &d.p).best_conductance;
            println!(
                "{:<10} {:>10.0e} {:>12.1} {:>12.5}",
                n_levels,
                eps,
                secs * 1e3,
                phi
            );
        }
    }

    println!(
        "{:<10} {:>10} {:>12} {:>12}  (g/h) rand-HK-PR: vary N, K (t=10)",
        "walks", "K", "time (ms)", "phi"
    );
    for walks in [10_000usize, 100_000, 1_000_000] {
        for max_len in [5usize, 10, 20] {
            let p = lgc::RandHkprParams {
                t: 10.0,
                max_len,
                walks,
                rng_seed: 42,
            };
            let (d, secs) = time(|| lgc::rand_hkpr_seq(g, &seed, &p));
            let phi = lgc::sweep_cut_seq(g, &d.p).best_conductance;
            println!(
                "{:<10} {:>10} {:>12.1} {:>12.5}",
                walks,
                max_len,
                secs * 1e3,
                phi
            );
        }
    }
    println!("# paper: more work (higher T/N/walks, lower eps) => better conductance\n");
}

/// Figure 9: self-relative speedup vs thread count.
fn fig9(graphs: &[SuiteGraph], max_threads: usize) {
    println!("== Figure 9: self-relative speedup vs thread count ==");
    let thread_counts: Vec<usize> = (1..=max_threads).collect();
    println!(
        "{:<18} {:<14} speedup per thread count (T1/Tt)",
        "graph", "algorithm"
    );
    for sg in graphs
        .iter()
        .filter(|s| ["soc-lj-sim", "twitter-sim", "yahoo-sim", "randLocal"].contains(&s.name))
    {
        let g = &sg.graph;
        let seed = Seed::single(suite_seed(g));
        let report = |alg: &str, run: &dyn Fn(&Pool)| {
            let mut t1 = 0.0;
            let mut cells = Vec::new();
            for &t in &thread_counts {
                let pool = Pool::new(t);
                let (_, secs) = time_best_of(2, || run(&pool));
                if t == 1 {
                    t1 = secs;
                }
                cells.push(format!("{}t:{:.2}x", t, t1 / secs));
            }
            println!("{:<18} {:<14} {}", sg.name, alg, cells.join("  "));
        };
        for (alg, algo) in params::diffusions() {
            report(alg, &|pool| {
                algo.diffuse(pool, g, &seed, &mut Workspace::new());
            });
        }
    }
    println!("# paper: 9-35x on 40 cores (rand-HK-PR >40x); ceiling here = core count\n");
}

/// Figure 10: sweep cut runtime vs thread count on one large cluster.
/// Returns whether the parallel sweep found the sequential sweep's cut at
/// every thread count ([`fig10_claim`]); a thread count at which it did not
/// is named on stderr and `repro` exits 1.
fn fig10(graphs: &[SuiteGraph], max_threads: usize) -> bool {
    let sg = graphs
        .iter()
        .find(|s| s.name == "yahoo-sim")
        .expect("suite has yahoo-sim");
    let g = &sg.graph;
    let seed = Seed::single(suite_seed(g));
    // A deep Nibble run to produce a big cluster (the paper used
    // T=20, eps=1e-9 on Yahoo: 1.3M vertices, 566M volume).
    let d = lgc::nibble_seq(
        g,
        &seed,
        &lgc::NibbleParams {
            t_max: 20,
            eps: 1e-9,
        },
    );
    let vol: u64 = d.p.iter().map(|&(v, _)| g.degree(v) as u64).sum();
    println!("== Figure 10: sweep cut time vs thread count ==");
    println!(
        "# input cluster: {} vertices, volume {}",
        d.support_size(),
        vol
    );
    let (want, t_seq) = time_best_of(3, || lgc::sweep_cut_seq(g, &d.p));
    println!("{:<10} {:>12}  vs sequential sweep", "threads", "time (ms)");
    let mut ok = true;
    for t in 1..=max_threads {
        let pool = Pool::new(t);
        let (got, secs) = time_best_of(3, || lgc::sweep_cut_par(&pool, g, &d.p));
        println!(
            "{:<10} {:>12.1}  seq/par = {:.2}x (seq {:.1} ms)",
            t,
            secs * 1e3,
            t_seq / secs,
            t_seq * 1e3
        );
        if let Err(why) = fig10_claim(&want, &got) {
            eprintln!("fig10: {t} threads: {why}");
            ok = false;
        }
    }
    println!("# paper: parallel sweep overtakes sequential at >=4 threads, 23-28x at 40\n");
    ok
}

/// Figure 11: parallel sweep runtime vs input volume (linear shape).
fn fig11(graphs: &[SuiteGraph], max_threads: usize) {
    let sg = graphs
        .iter()
        .find(|s| s.name == "yahoo-sim")
        .expect("suite has yahoo-sim");
    let g = &sg.graph;
    let seed = Seed::single(suite_seed(g));
    let pool = Pool::new(max_threads);
    println!("== Figure 11: parallel sweep time vs input volume ==");
    println!(
        "{:<14} {:>12} {:>12} {:>14}",
        "eps (Nibble)", "vertices", "volume", "sweep (ms)"
    );
    for eps in [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10] {
        let d = lgc::nibble_seq(g, &seed, &lgc::NibbleParams { t_max: 20, eps });
        let vol: u64 = d.p.iter().map(|&(v, _)| g.degree(v) as u64).sum();
        let (_, secs) = time_best_of(3, || lgc::sweep_cut_par(&pool, g, &d.p));
        println!(
            "{:<14.0e} {:>12} {:>12} {:>14.1}",
            eps,
            d.support_size(),
            vol,
            secs * 1e3
        );
    }
    println!("# paper: runtime scales near-linearly with volume\n");
}

/// Figure 12: network community profiles.
fn fig12(graphs: &[SuiteGraph], max_threads: usize) {
    println!("== Figure 12: network community profiles (min phi per size bucket) ==");
    let pool = Pool::shared(max_threads);
    for name in ["twitter-sim", "friendster-sim", "yahoo-sim"] {
        let sg = graphs.iter().find(|s| s.name == name).expect("suite graph");
        let params = lgc::NcpParams {
            num_seeds: 30,
            alphas: vec![0.1, 0.01],
            epsilons: vec![1e-4, 1e-5, 1e-6],
            rng_seed: 9,
        };
        let engine = Engine::builder(&sg.graph).shared_pool(pool.clone()).build();
        let (points, secs) = time(|| engine.ncp(&params));
        // Bucket by powers of two for a compact table.
        let mut buckets: Vec<(usize, f64)> = Vec::new();
        for p in &points {
            let b = p.size.next_power_of_two().max(1);
            match buckets.last_mut() {
                Some((size, phi)) if *size == b => *phi = phi.min(p.conductance),
                _ => buckets.push((b, p.conductance)),
            }
        }
        println!("{} ({} diffusions, {:.1}s):", sg.name, 30 * 2 * 3, secs);
        println!("  {:<12} {:>12}", "size <=", "min phi");
        for (size, phi) in buckets {
            println!("  {:<12} {:>12.5}", size, phi);
        }
    }
    println!("# paper: conductance dips at small community sizes then rises (social nets)\n");
}

/// The §5 evolving-set extension (exploratory, as in the paper). Returns
/// whether the parallel process matched the sequential reference for every
/// rng seed ([`evolving_claim`]); an rng seed for which it did not is named
/// on stderr and `repro` exits 1.
fn evolving(graphs: &[SuiteGraph], max_threads: usize) -> bool {
    println!("== Evolving sets (Section 5 extension) ==");
    let pool = Pool::new(max_threads);
    let sg = graphs
        .iter()
        .find(|s| s.name == "soc-lj-sim")
        .expect("suite graph");
    println!(
        "{:<18} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "run (rng seed)", "steps", "best |S|", "best phi", "time (ms)", "seq (ms)"
    );
    let mut ok = true;
    for rng_seed in 0..5u64 {
        let seed = Seed::single(suite_seed(&sg.graph));
        let p = lgc::EvolvingParams {
            max_steps: 60,
            rng_seed,
            ..Default::default()
        };
        let (res, secs) = time(|| lgc::evolving_set_par(&pool, &sg.graph, &seed, &p));
        let (want, seq_secs) = time(|| lgc::evolving_set_seq(&sg.graph, &seed, &p));
        println!(
            "{:<18} {:>8} {:>12} {:>10.5} {:>10.1} {:>10.1}",
            format!("{} (#{rng_seed})", sg.name),
            res.steps,
            res.best_set.len(),
            res.best_conductance,
            secs * 1e3,
            seq_secs * 1e3
        );
        if let Err(why) = evolving_claim(&want, &res) {
            eprintln!("evolving: rng seed {rng_seed}: {why}");
            ok = false;
        }
    }
    println!("# checked: the parallel process takes the sequential steps to the same best set and phi bits");
    println!("# paper: \"behavior varies widely with the random choices\" — visible above\n");
    ok
}
