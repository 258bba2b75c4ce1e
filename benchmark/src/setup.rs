//! Pieces every run shares before it measures: the workload lock, the
//! sequential references the oracle compares against, and the files both
//! live in.

use crate::oracle::Expect;
use crate::workloads::{Fingerprint, Item, Spec, WorkloadId, DEFAULT_SEED};
use lgc_core::{sweep_cut_seq, LocalDiffusion, Query};
use lgc_graph::Graph;
use std::path::PathBuf;

/// The benchmark's own directory (fixed at build time: the harness is
/// always built from the checkout it runs in).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn lock_path() -> PathBuf {
    bench_dir().join("workloads.lock")
}

fn expected_path(id: WorkloadId) -> PathBuf {
    bench_dir()
        .join("expected")
        .join(format!("{}.txt", id.name()))
}

/// On the default seed the generated load must be the locked one; any
/// other seed (the held-out seed a claim must also hold on) only prints
/// its fingerprint.
pub fn check_lock(spec: &Spec, fp: &Fingerprint, seed: u64) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let text = std::fs::read_to_string(lock_path())
        .map_err(|e| format!("cannot read {}: {e}", lock_path().display()))?;
    let locked = crate::workloads::locked_fingerprint(&text, spec.id.name())
        .ok_or_else(|| format!("workloads.lock has no line for {}", spec.id.name()))?;
    if locked == fp.render() {
        Ok(())
    } else {
        Err(format!(
            "workload {} changed under the default seed:\n  locked    {locked}\n  generated {}\n\
             (a generator or seed-selection change; if intended, re-record with `record-expected` \
             in a change of its own)",
            spec.id.name(),
            fp.render()
        ))
    }
}

/// Conductance the sequential reference reaches for one query.
pub fn reference_phi(g: &Graph, q: &Query) -> f64 {
    let d = q.algo.diffuse_seq(g, &q.seed);
    sweep_cut_seq(g, &d.p).best_conductance
}

fn seed_vertex(q: &Query) -> u32 {
    q.seed.vertices()[0]
}

/// Per list item, what the oracle compares against. The default seed
/// reads every reference from `expected/`; any other seed computes the
/// ones whose sequential run is cheap (a saturating query's reference
/// costs several timed passes, which no run can afford).
pub fn expectations(
    spec: &Spec,
    g: &Graph,
    items: &[Item],
    seed: u64,
) -> Result<Vec<Expect>, String> {
    if seed == DEFAULT_SEED {
        if let Ok(text) = std::fs::read_to_string(expected_path(spec.id)) {
            return parse_expected(spec, items, &text);
        }
    }
    Ok(items
        .iter()
        .map(|it| Expect {
            phi_ref: spec.kinds[it.kind]
                .cheap_ref
                .then(|| reference_phi(g, &it.query)),
        })
        .collect())
}

fn parse_expected(spec: &Spec, items: &[Item], text: &str) -> Result<Vec<Expect>, String> {
    let stale = |why: String| {
        format!(
            "expected/{}.txt does not match the generated list ({why}); re-record with `record-expected`",
            spec.id.name()
        )
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    if lines.len() != items.len() {
        return Err(stale(format!(
            "{} lines for {} queries",
            lines.len(),
            items.len()
        )));
    }
    items
        .iter()
        .zip(lines)
        .enumerate()
        .map(|(i, (it, line))| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let ok = f.len() == 4
                && f[0].parse() == Ok(i)
                && f[1] == spec.kinds[it.kind].name
                && f[2].parse() == Ok(seed_vertex(&it.query));
            let phi = f.get(3).and_then(|p| p.parse::<f64>().ok());
            match (ok, phi) {
                (true, Some(phi)) => Ok(Expect { phi_ref: Some(phi) }),
                _ => Err(stale(format!("line {i}: {line:?}"))),
            }
        })
        .collect()
}

/// `record-expected`: recomputes the lock and, for the library workloads,
/// the sequential reference of *every* list item at the default seed.
pub fn record_expected() -> Result<(), String> {
    let mut lock = String::from(
        "# (n, m, FNV-1a of CSR offsets+adjacency, FNV-1a of the query list) per workload at the\n\
         # default seed. Written by `record-expected`; checked by every default-seed run.\n",
    );
    std::fs::create_dir_all(bench_dir().join("expected")).map_err(|e| e.to_string())?;
    for id in WorkloadId::ALL {
        let spec = Spec::of(id, DEFAULT_SEED);
        let g = spec.graph(DEFAULT_SEED);
        let fp = Fingerprint::of(&spec, &g, DEFAULT_SEED);
        println!("{} {}", id.name(), fp.render());
        lock.push_str(&format!("{} {}\n", id.name(), fp.render()));
        if id == WorkloadId::Serve {
            // Server responses are checked by recomputation, not by file.
            continue;
        }
        let mut out = format!(
            "# index kind seed_vertex conductance of the sequential reference; seed {DEFAULT_SEED}\n"
        );
        for (i, it) in spec.list(&g, DEFAULT_SEED).iter().enumerate() {
            let phi = reference_phi(&g, &it.query);
            out.push_str(&format!(
                "{i} {} {} {phi}\n",
                spec.kinds[it.kind].name,
                seed_vertex(&it.query)
            ));
        }
        std::fs::write(expected_path(id), out).map_err(|e| e.to_string())?;
        println!("  wrote {}", expected_path(id).display());
    }
    std::fs::write(lock_path(), lock).map_err(|e| e.to_string())?;
    println!("wrote {}", lock_path().display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;

    #[test]
    fn expected_file_must_match_the_list() {
        let spec = Spec::of(WorkloadId::Interactive, 1);
        let g = gen::grid_3d(8, 8, 8);
        let items: Vec<Item> = spec.list(&g, 1).into_iter().take(2).collect();
        let v0 = seed_vertex(&items[0].query);
        let good = format!("# header\n0 prn_a {v0} 0.25\n1 prn_b {v0} 0.5\n");
        let e = parse_expected(&spec, &items, &good).unwrap();
        assert_eq!(e[1].phi_ref, Some(0.5));
        let wrong_vertex = format!("0 prn_a {} 0.25\n1 prn_b {v0} 0.5\n", v0 + 1);
        assert!(parse_expected(&spec, &items, &wrong_vertex).is_err());
        assert!(parse_expected(&spec, &items, "0 prn_a 1 0.25\n").is_err());
    }

    #[test]
    fn reference_matches_a_direct_sequential_run() {
        let spec = Spec::of(WorkloadId::Interactive, 1);
        let g = gen::two_cliques_bridge(12);
        let q = Query::new(lgc_core::Seed::single(3), spec.kinds[0].algo.clone());
        // One clique of 12: 1 cut edge over volume 12·11 + 1.
        assert!((reference_phi(&g, &q) - 1.0 / 133.0).abs() < 1e-15);
    }
}
