//! Rule `determinism`: the bitwise-determinism contract (identical
//! results across thread counts, backends, and warm/cold workspaces)
//! dies by a thousand innocent cuts. This rule polices the two cut
//! patterns static analysis can see:
//!
//! 1. **Hash-order iteration** — iterating a `std::collections`
//!    `HashMap`/`HashSet` in `lgc-core`/`lgc-graph` non-test code.
//!    `RandomState` seeds differ per process, so any iteration whose
//!    order can reach a result (or even an allocation pattern that
//!    feeds one) silently breaks reproducibility. Keyed lookups are
//!    fine; iteration must be over sorted materializations.
//! 2. **Timing reads in query paths** — `Instant::now` /
//!    `SystemTime::now` anywhere in the query-path crates outside the
//!    deadline machinery (`interrupt.rs`, `budget.rs`). A decision
//!    keyed on the clock is a decision keyed on scheduler noise.
//!
//! Both checks are heuristic (no type inference), which is the right
//! trade: they catch the naming patterns this workspace actually uses,
//! and a reviewed pragma handles the rest.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::rules::{is_ident_byte, word_positions};
use crate::scan::SourceFile;

pub const NAME: &str = "determinism";

/// Methods whose call on a hash container observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

pub fn check(file: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if cfg.in_determinism_scope(&file.rel_path) {
        check_hash_iteration(file, out);
    }
    if cfg.in_timing_scope(&file.rel_path) && !cfg.timing_allowed(&file.rel_path) {
        check_timing(file, out);
    }
}

fn check_hash_iteration(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    // Pass 1: collect identifiers bound to hash containers — type
    // aliases, `let` bindings, and `name: HashMap<...>` ascriptions
    // (fields and parameters; the receiver may then be `self.name`).
    let mut hash_types: Vec<String> = vec!["HashMap".into(), "HashSet".into()];
    for line in &file.lines {
        let c = line.code.trim();
        if let Some(rest) = c.strip_prefix("type ") {
            if let Some((name, def)) = rest.split_once('=') {
                if mentions_hash_type(def, &hash_types) {
                    let name: String = name
                        .trim()
                        .chars()
                        .take_while(|ch| is_ident_byte(*ch as u8))
                        .collect();
                    if !name.is_empty() {
                        hash_types.push(name);
                    }
                }
            }
        }
    }
    let mut idents: Vec<String> = Vec::new();
    for line in &file.lines {
        let code = &line.code;
        if !mentions_hash_type(code, &hash_types) {
            continue;
        }
        // `let [mut] name ... = ...` / `let [mut] name: T = ...`
        if let Some(rest) = code.trim_start().strip_prefix("let ") {
            let rest = rest
                .trim_start()
                .strip_prefix("mut ")
                .unwrap_or(rest.trim_start());
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|ch| is_ident_byte(*ch as u8))
                .collect();
            if !name.is_empty() && !idents.contains(&name) {
                idents.push(name);
            }
        }
        // `name: HashMap<..>` ascriptions (struct fields, parameters).
        for pos in find_ascriptions(code, &hash_types) {
            if !idents.contains(&pos) {
                idents.push(pos);
            }
        }
    }

    // Pass 2: flag order-observing uses of tracked identifiers.
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test_region(i) {
            continue;
        }
        for name in &idents {
            for pos in word_positions(&line.code, name) {
                let after = &line.code[pos + name.len()..];
                let method_hit = ITER_METHODS.iter().any(|m| {
                    after
                        .strip_prefix('.')
                        .and_then(|a| a.strip_prefix(m))
                        .is_some_and(|a| a.starts_with('('))
                });
                let for_hit = is_for_in_target(&line.code, pos);
                if (method_hit || for_hit) && !file.suppressed(i, NAME) {
                    out.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line: i + 1,
                        rule: NAME,
                        message: format!(
                            "iteration over hash container `{name}` — RandomState order is \
                             nondeterministic across processes"
                        ),
                        hint: "materialize and sort the entries before they can feed a result \
                               (or switch to a sorted/dense structure); if the order provably \
                               cannot reach results, pragma-justify it"
                            .into(),
                    });
                }
            }
        }
    }
}

/// Whether `code` contains any of `types` as a word.
fn mentions_hash_type(code: &str, types: &[String]) -> bool {
    types.iter().any(|t| !word_positions(code, t).is_empty())
}

/// Finds `name` in `name: Hashy<...>` ascriptions.
fn find_ascriptions(code: &str, types: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for t in types {
        for pos in word_positions(code, t) {
            // Walk back over `: ` to the identifier before it.
            let before = code[..pos].trim_end();
            let Some(before) = before.strip_suffix(':') else {
                continue;
            };
            let before = before.trim_end();
            let name: String = before
                .chars()
                .rev()
                .take_while(|c| is_ident_byte(*c as u8))
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if !name.is_empty() && name != "let" && !out.contains(&name) {
                out.push(name);
            }
        }
    }
    out
}

/// Whether the identifier at `pos` is the target of a `for … in` (with
/// optional `&`/`&mut`), i.e. the loop iterates the container directly.
fn is_for_in_target(code: &str, pos: usize) -> bool {
    let before = code[..pos].trim_end();
    let before = before
        .strip_suffix("&mut")
        .or_else(|| before.strip_suffix('&'))
        .unwrap_or(before)
        .trim_end();
    if !before.ends_with(" in") && before != "in" {
        return false;
    }
    // Require a `for` earlier on the line so `x in set` inside e.g. a
    // `contains` call chain is not misread.
    !word_positions(before, "for").is_empty()
}

fn check_timing(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test_region(i) {
            continue;
        }
        for probe in ["Instant::now", "SystemTime::now"] {
            if line.code.contains(probe) && !file.suppressed(i, NAME) {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: i + 1,
                    rule: NAME,
                    message: format!(
                        "`{probe}` in a query-path crate outside the deadline machinery"
                    ),
                    hint: "query decisions must never depend on wall-clock readings; route \
                           deadlines through lgc_ligra::interrupt, or pragma-justify \
                           metrics-only reads that cannot feed a decision"
                        .into(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(path, src);
        let mut out = Vec::new();
        check(&f, &Config::workspace_default(), &mut out);
        out
    }

    const IN_SCOPE: &str = "crates/core/src/foo.rs";

    #[test]
    fn let_bound_map_iteration_is_flagged() {
        let src = "let mut m: HashMap<u32, f64> = HashMap::new();\nfor (k, v) in m.iter() { }\n";
        let d = run(IN_SCOPE, src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn for_in_reference_is_flagged() {
        let src = "let members: HashSet<u32> = x.collect();\nfor v in &members { }\n";
        assert_eq!(run(IN_SCOPE, src).len(), 1);
    }

    #[test]
    fn keyed_lookup_is_fine() {
        let src = "let m: HashMap<u32, f64> = HashMap::new();\nlet v = m.get(&3);\nif m.contains_key(&7) { }\n";
        assert!(run(IN_SCOPE, src).is_empty());
    }

    #[test]
    fn alias_types_are_tracked() {
        let src = "type PsiMap = HashMap<u64, f64>;\nstruct C { table: PsiMap }\nfn f(c: &C) { for k in c.table.keys() { } }\n";
        let d = run(IN_SCOPE, src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("table"));
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\nfor k in m.keys() { }\n";
        assert!(run("crates/server/src/conn.rs", src).is_empty());
    }

    #[test]
    fn timing_read_is_flagged_outside_allowlist() {
        let d = run(IN_SCOPE, "let t0 = Instant::now();\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Instant::now"));
    }

    #[test]
    fn timing_allowlisted_files_pass() {
        assert!(run("crates/ligra/src/interrupt.rs", "let t = Instant::now();\n").is_empty());
        // Arming moved into `interrupt.rs`: `budget.rs` reads no clock.
        assert_eq!(
            run("crates/core/src/budget.rs", "let t = Instant::now();\n").len(),
            1
        );
    }

    #[test]
    fn pragma_suppresses_metrics_read() {
        let src = "// lgc-lint: allow(determinism) -- latency metric, never a decision\n\
                   let t0 = Instant::now();\n";
        assert!(run(IN_SCOPE, src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        let m: HashMap<u32,u32> = HashMap::new();\n        for k in m.keys() { }\n        let t0 = Instant::now();\n    }\n}\n";
        assert!(run(IN_SCOPE, src).is_empty());
    }
}
