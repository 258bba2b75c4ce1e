//! The audited-workspace policy: which files may do what, and why.
//!
//! Everything here is data, not code — the per-file allowlists are the
//! reviewable half of each rule. Adding a file to a list is a change to
//! `lgc-lint` itself, which is exactly the point: new atomics, new clock
//! reads, and new diffusion drivers should be a reviewed decision, not
//! an accident.

/// Engine configuration. [`Config::workspace_default`] embeds the live
/// policy; tests construct custom configs to scope rules onto fixtures.
#[derive(Clone)]
pub struct Config {
    /// Files allowed to use `std::sync::atomic::Ordering`, with the
    /// justification shown when anything else trips the rule.
    pub atomic_allowlist: Vec<(String, String)>,
    /// Files whose *job* is reading the clock (deadline mechanisms).
    /// Everything else in the timing scope must not call `Instant::now`
    /// or `SystemTime::now` without a pragma.
    pub timing_allowlist: Vec<String>,
    /// Path prefixes whose non-test code feeds query results — the scope
    /// of the determinism rule's hash-iteration check.
    pub determinism_scope: Vec<String>,
    /// Path prefixes in which timing reads are policed.
    pub timing_scope: Vec<String>,
    /// The diffusion/sweep driver files in which every outermost
    /// `loop`/`while` must carry a `Checkpoint` tick.
    pub checkpoint_files: Vec<String>,
    /// Path prefixes in which `unwrap`/`expect`/`panic!` are banned in
    /// non-test code.
    pub panic_scope: Vec<String>,
}

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

impl Config {
    /// The policy for this workspace.
    pub fn workspace_default() -> Config {
        Config {
            atomic_allowlist: [
                (
                    "crates/parallel/src/pool.rs",
                    "job publication/attach/complete protocol (orderings are the pool's core discipline); relaxed caller count and loop tallies, which steer where a loop runs and never what it computes",
                ),
                (
                    "crates/parallel/src/atomic.rs",
                    "AtomicF64, the one atomic f64: every mass cell's load/store orderings and the CAS-loop float add",
                ),
                (
                    "crates/parallel/src/bitset.rs",
                    "concurrent frontier bitset: fetch_or marks, boundary-word RMWs",
                ),
                (
                    "crates/sparse/src/conc.rs",
                    "concurrent sparse set: lock-free claim/update CAS loops",
                ),
                (
                    "crates/core/src/budget.rs",
                    "lifecycle counters (admitted/shed/tripped) and the in-flight gate",
                ),
                (
                    "crates/ligra/src/interrupt.rs",
                    "CancelToken flag + fault-plan tick counter (one relaxed load per check)",
                ),
                (
                    "crates/server/src/lib.rs",
                    "shutdown flag + connection bookkeeping",
                ),
                (
                    "crates/server/src/conn.rs",
                    "per-connection in-flight cap and shutdown observation",
                ),
                (
                    "crates/server/src/metrics.rs",
                    "monotonic serving counters and latency histograms",
                ),
            ]
            .iter()
            .map(|(p, j)| (p.to_string(), j.to_string()))
            .collect(),
            timing_allowlist: s(&[
                "crates/ligra/src/interrupt.rs", // the deadline mechanism: budgets arm there
            ]),
            determinism_scope: s(&["crates/core/src/", "crates/graph/src/"]),
            timing_scope: s(&[
                "crates/core/src/",
                "crates/graph/src/",
                "crates/ligra/src/",
                "crates/sparse/src/",
            ]),
            checkpoint_files: s(&[
                "crates/core/src/driver.rs",
                "crates/core/src/nibble.rs",
                "crates/core/src/prnibble/par.rs",
                "crates/core/src/hkpr/par.rs",
                "crates/core/src/rand_hkpr.rs",
                "crates/core/src/evolving.rs",
                "crates/core/src/ncp.rs",
                "crates/core/src/sweep/par.rs",
                "crates/core/src/batch.rs",
            ]),
            panic_scope: s(&["crates/server/src/"]),
        }
    }

    /// Whether `rel_path` is on the atomic allowlist.
    pub fn atomic_allowed(&self, rel_path: &str) -> bool {
        self.atomic_allowlist.iter().any(|(p, _)| rel_path == p)
    }

    /// Whether `rel_path` may read clocks freely.
    pub fn timing_allowed(&self, rel_path: &str) -> bool {
        self.timing_allowlist.iter().any(|p| rel_path == p)
    }

    /// Whether `rel_path` is in the determinism-rule scope.
    pub fn in_determinism_scope(&self, rel_path: &str) -> bool {
        self.determinism_scope
            .iter()
            .any(|p| rel_path.starts_with(p))
    }

    /// Whether `rel_path` is in the timing-rule scope.
    pub fn in_timing_scope(&self, rel_path: &str) -> bool {
        self.timing_scope.iter().any(|p| rel_path.starts_with(p))
    }

    /// Whether `rel_path` is a checkpoint-audited diffusion driver.
    pub fn is_checkpoint_file(&self, rel_path: &str) -> bool {
        self.checkpoint_files.iter().any(|p| rel_path == p)
    }

    /// Whether `rel_path` is in the no-panic scope.
    pub fn in_panic_scope(&self, rel_path: &str) -> bool {
        self.panic_scope.iter().any(|p| rel_path.starts_with(p))
    }
}
