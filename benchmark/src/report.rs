//! What a run reports: named metrics with units, the failure count, the
//! provenance block — as a table for people and, last, the one JSON line
//! the driver reads.

use crate::json;
use crate::provenance::Provenance;
use crate::workloads::Fingerprint;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile actually used, and the like.
    pub note: String,
    /// Whether the metric is part of the driver's JSON line (declared in
    /// `BENCHMARK.json`) or only of the table and the trace file.
    pub declared: bool,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
            declared: true,
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// Table-and-trace-file only (per-kind and `serve`-only detail).
    pub fn detail(mut self) -> Metric {
        self.declared = false;
        self
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub threads: usize,
    pub fingerprint: Fingerprint,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// First few oracle failures, for the table.
    pub failures: Vec<String>,
    /// Load-generator shape (threads, connections).
    pub generator: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `(errored + refused + failed the oracle) / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Provenance as JSON members (shared by the table and trace file).
    pub fn provenance_json(&self, prov: &Provenance) -> String {
        format!(
            "\"workload\": {}, \"seed\": {}, \"traced\": {}, \"threads\": {}, \"generator\": {}, \"nproc\": {}, \"cpu\": {}, \"l2\": {}, \"l3\": {}, \"rustc\": {}, \"commit\": {}, \"fingerprint\": {}",
            json::quote(self.workload),
            self.seed,
            self.traced,
            self.threads,
            json::quote(&self.generator),
            prov.nproc,
            json::quote(&prov.cpu_model),
            json::quote(&prov.l2),
            json::quote(&prov.l3),
            json::quote(&prov.rustc),
            json::quote(&prov.commit),
            json::quote(&self.fingerprint.render()),
        )
    }

    /// Every metric as a JSON object `{name: {value, unit}}`; with
    /// `declared_only`, just the ones `BENCHMARK.json` lists.
    pub fn metrics_json(&self, declared_only: bool) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.declared || !declared_only)
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// The human-readable block, then the driver's line — which must stay
    /// the last line of standard output.
    pub fn print(&self, prov: &Provenance) {
        println!(
            "== {} (seed {}, {}) ==",
            self.workload,
            self.seed,
            if self.traced {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            }
        );
        println!(
            "provenance: nproc={} cpu=\"{}\" L2={} L3={} {} commit={}",
            prov.nproc, prov.cpu_model, prov.l2, prov.l3, prov.rustc, prov.commit
        );
        println!(
            "            T={} worker threads; generator: {}",
            self.threads, self.generator
        );
        println!("workload:   {}", self.fingerprint.render());
        for m in &self.metrics {
            println!(
                "  {:<44} {:>16} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        println!(
            "  {:<44} {:>16} {:<6} {} failed of {} attempted",
            "fail_frac",
            format_value(self.fail_frac()),
            "ratio",
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  ORACLE FAILURE: {f}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(true)
        );
    }
}

/// Six significant digits for the table (the JSON line keeps them all).
fn format_value(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let mag = v.abs().log10().floor() as i32;
    let decimals = (5 - mag).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_values_keep_six_significant_digits() {
        assert_eq!(format_value(1234.56789), "1234.57");
        assert_eq!(format_value(0.000123456789), "0.000123457");
        assert_eq!(format_value(2.0), "2.00000");
        assert_eq!(format_value(0.0), "0");
    }

    #[test]
    fn json_line_lists_declared_metrics_only() {
        let o = Outcome {
            workload: "deep",
            seed: 1,
            traced: true,
            threads: 2,
            fingerprint: Fingerprint {
                n: 1,
                m: 1,
                graph: 0,
                queries: 0,
            },
            metrics: vec![
                Metric::new("a.b", 1.5, "ms"),
                Metric::new("a.kind.c", 2.5, "ms").detail(),
            ],
            attempted: 4,
            failed: 1,
            failures: vec![],
            generator: "x".into(),
        };
        let declared = json::parse(&o.metrics_json(true)).unwrap();
        assert!(declared.get("a.b").is_some() && declared.get("a.kind.c").is_none());
        let all = json::parse(&o.metrics_json(false)).unwrap();
        assert_eq!(
            all.get("a.kind.c").unwrap().get("value").unwrap().as_f64(),
            Some(2.5)
        );
        assert_eq!(o.fail_frac(), 0.25);
        assert!(!o.correct());
    }
}
