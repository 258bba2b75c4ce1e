//! Whole-suite commands: every workload in a process of its own (so each
//! one's `VmHWM` is its own), and the A/A check of the benchmark against
//! its own bounds.

use crate::json::{self, Json};
use crate::setup::bench_dir;
use crate::workloads::WorkloadId;
use crate::Args;
use std::process::Command;

/// One declared end-to-end metric of `BENCHMARK.json`.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn benchmark_json() -> Result<Json, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// The workloads `BENCHMARK.json` declares: the ones gated by the bounds.
/// (`batch` is not among them; see the README's *Noise floor*.)
fn declared_workloads() -> Result<Vec<WorkloadId>, String> {
    benchmark_json()?
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .map(|w| WorkloadId::parse(w.get("name")?.as_str()?))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: a workload the harness does not know".to_string())
}

fn declared_end_to_end() -> Result<Vec<Declared>, String> {
    benchmark_json()?
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Runs one workload in a child process; returns its result line parsed,
/// after passing its report through.
fn child(args: &Args, id: WorkloadId, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", id.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &args.threads.to_string()])
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", id.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    json::parse(line).map_err(|e| {
        format!(
            "the {} run ({}) printed no result line: {e}",
            id.name(),
            out.status
        )
    })
}

fn value_of(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn is_correct(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

/// `all`: every workload once, then every end-to-end metric side by side.
pub fn all(args: &Args) -> Result<bool, String> {
    let mut results = Vec::new();
    for id in WorkloadId::ALL {
        results.push((id, child(args, id, args.trace)?));
        println!();
    }
    if !args.trace {
        println!(
            "== end-to-end metrics, all workloads (seed {}) ==",
            args.seed
        );
        print!("  {:<20}", "");
        for (id, _) in &results {
            print!(" {:>14}", id.name());
        }
        println!();
        let mut names: Vec<String> = declared_end_to_end()?.into_iter().map(|d| d.name).collect();
        names.push("fail_frac".into());
        for name in names {
            print!("  {name:<20}");
            for (_, r) in &results {
                let v = if name == "fail_frac" {
                    let n = |k: &str| r.get(k).and_then(Json::as_f64);
                    n("failed").zip(n("attempted")).map(|(f, a)| f / a.max(1.0))
                } else {
                    value_of(r, &name)
                };
                print!(" {:>14}", v.map_or("-".to_string(), |v| format!("{v:.6}")));
            }
            println!();
        }
    }
    Ok(results.iter().all(|(_, r)| is_correct(r)))
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// `aa`: the declared workloads untraced, twice, back to back, on the
/// same code. Passes when no end-to-end metric moved, in either
/// direction, by more than its own regression bound — a benchmark that
/// fails this cannot tell a regression from its own noise.
pub fn aa(args: &Args) -> Result<bool, String> {
    let declared = declared_end_to_end()?;
    let workloads = declared_workloads()?;
    let mut runs = Vec::new();
    for round in ["A", "A'"] {
        println!("==== A/A round {round} ====");
        let mut set = Vec::new();
        for &id in &workloads {
            set.push(child(args, id, false)?);
        }
        runs.push(set);
    }
    println!(
        "== A/A: second run against first, same code (seed {}) ==",
        args.seed
    );
    println!(
        "  {:<12} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "A'", "worse by", "bound"
    );
    let mut ok = true;
    for (w, id) in workloads.into_iter().enumerate() {
        let (a, b) = (&runs[0][w], &runs[1][w]);
        ok &= is_correct(a) && is_correct(b);
        for d in &declared {
            let (Some(va), Some(vb)) = (value_of(a, &d.name), value_of(b, &d.name)) else {
                return Err(format!("{} did not report {}", id.name(), d.name));
            };
            let diff = worse_by(va, vb, d.lower_is_better);
            let within = diff.abs() <= d.bound;
            ok &= within;
            println!(
                "  {:<12} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}% {}",
                id.name(),
                d.name,
                va,
                vb,
                diff * 100.0,
                d.bound * 100.0,
                if within { "" } else { "EXCEEDS ITS BOUND" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Spec;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, false) - 0.1).abs() < 1e-12);
    }

    /// `BENCHMARK.json` and the harness must name the same things.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let declared = declared_end_to_end().unwrap();
        let names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "pass_s",
                "latency_p50_ms",
                "latency_p99_ms",
                "within_limit_frac",
                "bulk_qps",
                "peak_rss_mb"
            ]
        );
        let setup = &declared[0];
        assert!(declared
            .iter()
            .all(|d| d.bound <= setup.bound && d.bound > 0.0 && d.bound <= 0.25));
        let doc = benchmark_json().unwrap();
        assert_eq!(
            declared_workloads().unwrap(),
            [WorkloadId::Deep, WorkloadId::Interactive, WorkloadId::Serve]
        );
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::Str("benchmark".into())]
        );
        let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert!(!per_layer.is_empty() && per_layer.len() <= 128);
        // Nothing workload-specific is declared: kind names stay out.
        for id in WorkloadId::ALL {
            for kind in Spec::of(id, 1).kinds {
                let infix = format!(".{}.", kind.name);
                assert!(per_layer.iter().all(|m| !m
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap()
                    .contains(&infix)));
            }
        }
    }
}
