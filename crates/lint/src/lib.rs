//! `lgc-lint` — the workspace invariant auditor.
//!
//! Clippy checks Rust; this crate checks *this repo*. The invariants
//! that make the workspace's crown-jewel guarantee true — bitwise
//! deterministic clustering results across thread counts, CSR backends,
//! and warm/cold workspaces — are not expressible as general Rust
//! lints:
//!
//! | rule | invariant it protects |
//! |------|----------------------|
//! | `unsafe-safety` | every `unsafe` site states the invariant that makes it sound |
//! | `atomic-ordering` | atomics only in files that own a documented protocol; no `SeqCst` |
//! | `determinism` | no hash-order iteration or clock reads feeding query results |
//! | `checkpoint-tick` | every diffusion frontier loop stays interruptible |
//! | `no-panic-in-server` | the serving layer returns typed errors, never dies |
//!
//! Run it as `cargo run -p lgc-lint` from anywhere in the workspace; it
//! exits 0 when clean, 1 with `file:line` diagnostics otherwise, and is
//! a required CI gate. Escape hatch (reviewed, reasoned):
//!
//! ```text
//! // lgc-lint: allow(rule-name) -- why the invariant holds here
//! ```
//!
//! The per-file allowlists in [`config`] are exemptions too, and a
//! workspace scan reports (reserved rule `allowlist`) every entry that
//! suppressed nothing — so code that moves or goes takes its exemption
//! with it.
//!
//! The engine is hand-rolled and dependency-free (the build container
//! has no registry access): a line-oriented lexer that strips comments
//! and literal bodies ([`lexer`]), a per-file scan model with
//! `#[cfg(test)]` region and pragma tracking ([`scan`]), and five rule
//! passes ([`rules`]). See `crates/lint/README.md` for the rule
//! catalog and the policy tables in [`config`].

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scan;

pub use config::Config;
pub use diag::Diagnostic;

use scan::SourceFile;
use std::path::{Path, PathBuf};

/// Checks one in-memory source file (the fixture-test entry point).
/// `rel_path` decides which rule scopes apply.
pub fn check_source(cfg: &Config, rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel_path, source);
    let mut out = Vec::new();
    rules::check_file(&file, cfg, &mut out);
    out
}

/// Audits every `src/**/*.rs` file under `root` (crate sources only:
/// integration tests, examples, benches, and fixtures are out of scope
/// — the rules police production code paths), then the allowlists
/// themselves: an entry that suppressed nothing is itself a violation.
pub fn check_workspace(cfg: &Config, root: &Path) -> std::io::Result<(usize, Vec<Diagnostic>)> {
    let mut files = Vec::new();
    collect_sources(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        sources.push((rel.to_string_lossy().replace('\\', "/"), source));
    }
    Ok((files.len(), check_sources(cfg, &sources)))
}

/// Checks a whole scan of `(rel_path, source)` files: every file under
/// every rule, plus one `allowlist` diagnostic per atomic-ordering or
/// timing allowlist entry that suppressed nothing — an entry whose
/// removal would not add a single diagnostic to the scan (its file is
/// gone, or no longer does what the entry excuses).
fn check_sources(cfg: &Config, sources: &[(String, String)]) -> Vec<Diagnostic> {
    let strict = Config {
        atomic_allowlist: Vec::new(),
        timing_allowlist: Vec::new(),
        ..cfg.clone()
    };
    let mut out = Vec::new();
    let mut earned: Vec<(&str, &str)> = Vec::new(); // (rule, path) of entries that suppressed something
    for (rel, source) in sources {
        let diags = check_source(cfg, rel, source);
        if cfg.atomic_allowed(rel) || cfg.timing_allowed(rel) {
            let bare = check_source(&strict, rel, source);
            for rule in [rules::atomic_ordering::NAME, rules::determinism::NAME] {
                let count = |ds: &[Diagnostic]| ds.iter().filter(|d| d.rule == rule).count();
                if count(&bare) > count(&diags) {
                    earned.push((rule, rel));
                }
            }
        }
        out.extend(diags);
    }
    let atomic = cfg.atomic_allowlist.iter().map(|(p, _)| p);
    let entries = atomic.map(|p| (rules::atomic_ordering::NAME, p)).chain(
        cfg.timing_allowlist
            .iter()
            .map(|p| (rules::determinism::NAME, p)),
    );
    for (rule, path) in entries {
        if !earned.contains(&(rule, path.as_str())) {
            out.push(Diagnostic {
                file: path.clone(),
                line: 1,
                rule: "allowlist",
                message: format!("the {rule} allowlist entry for this file suppressed nothing"),
                hint: "delete the entry from crates/lint/src/config.rs: an exemption goes \
                       when the code it excused moves or goes"
                    .into(),
            });
        }
    }
    out
}

/// Recursively collects `.rs` files living under a `src/` directory,
/// skipping build output, VCS metadata, and lint fixtures.
fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_sources(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            if rel_str.starts_with("src/") || rel_str.contains("/src/") {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_source_runs_all_rules() {
        let cfg = Config::workspace_default();
        let src = "fn f() { unsafe { g() } }\nx.load(Ordering::SeqCst);\n";
        let d = check_source(&cfg, "crates/x/src/lib.rs", src);
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"unsafe-safety"));
        assert!(rules.contains(&"atomic-ordering"));
    }

    /// The allowlists audit themselves: of three exemptions, the one
    /// whose file still uses its privilege is silent, the one whose
    /// file stopped and the one whose file left the scan are reported.
    #[test]
    fn allowlist_entries_that_suppress_nothing_are_reported() {
        let cfg = Config {
            atomic_allowlist: vec![
                ("crates/x/src/live.rs".into(), "counters".into()),
                ("crates/x/src/quiet.rs".into(), "used to count".into()),
            ],
            timing_allowlist: vec!["crates/core/src/moved.rs".into()],
            ..Config::workspace_default()
        };
        let sources = [
            (
                "crates/x/src/live.rs".to_string(),
                "fn f() { c.load(Ordering::Relaxed); }\n".to_string(),
            ),
            (
                "crates/x/src/quiet.rs".to_string(),
                "fn f() {}\n".to_string(),
            ),
        ];
        let d = check_sources(&cfg, &sources);
        let stale: Vec<&str> = d.iter().map(|d| d.file.as_str()).collect();
        assert_eq!(stale, ["crates/x/src/quiet.rs", "crates/core/src/moved.rs"]);
        assert!(d.iter().all(|d| d.rule == "allowlist"));
    }

    #[test]
    fn workspace_root_discovery() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/lint").is_dir());
    }
}
