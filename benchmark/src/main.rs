//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! plgc-benchmark --workload <deep|interactive|batch|serve> [--seed N] [--seconds S] [--trace 0|1] [--threads T]
//! plgc-benchmark all  [--seed N] [--seconds S] [--trace 0|1]   every workload, each in its own process
//! plgc-benchmark aa   [--seed N] [--seconds S]                 the declared workloads untraced, twice; differences vs bounds
//! plgc-benchmark record-expected                               re-record workloads.lock and expected/
//! ```

mod fnv;
mod json;
mod library;
mod oracle;
mod probes;
mod provenance;
mod report;
mod serve;
mod setup;
mod spans;
mod stats;
mod suite;
mod traced;
mod workloads;

use provenance::Provenance;
use std::process::ExitCode;
use workloads::{Spec, WorkloadId, DEFAULT_SEED};

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub command: Option<String>,
    pub workload: Option<WorkloadId>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let nproc = provenance::nproc();
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        // Worker pool T = min(nproc, 2): the box this benchmark was
        // defined on has two cores, and numbers must compare across runs.
        threads: nproc.min(2),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workload =
                    Some(WorkloadId::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number from 1 to 600")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .ok()
                    .filter(|t| *t >= 1)
                    .ok_or("--threads takes a positive integer")?;
            }
            cmd @ ("all" | "aa" | "record-expected") if args.command.is_none() => {
                args.command = Some(cmd.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.threads > nproc {
        // More workers than cores measures the scheduler, not the code.
        return Err(format!(
            "refusing T = {} worker threads on {nproc} hardware threads",
            args.threads
        ));
    }
    Ok(args)
}

fn run_one(args: &Args, id: WorkloadId) -> Result<bool, String> {
    let spec = Spec::of(id, args.seed);
    let prov = Provenance::collect();
    let outcome = match (args.trace, id) {
        (false, WorkloadId::Serve) => serve::run(&spec, args.seed, args.seconds, args.threads)?,
        (false, _) => library::run(&spec, args.seed, args.seconds, args.threads)?,
        (true, _) => traced::run(&spec, args.seed, args.threads, &prov)?,
    };
    outcome.print(&prov);
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result =
        parse_args(&argv).and_then(|args| match (args.command.as_deref(), args.workload) {
            (None, Some(id)) => run_one(&args, id),
            (Some("all"), None) => suite::all(&args),
            (Some("aa"), None) => suite::aa(&args),
            (Some("record-expected"), None) => setup::record_expected().map(|()| true),
            _ => Err("give --workload <name>, or one of: all, aa, record-expected".into()),
        });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("plgc-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv("--workload serve --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(WorkloadId::Serve));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert!(a.threads <= provenance::nproc());
    }

    #[test]
    fn more_threads_than_cores_is_refused() {
        let too_many = provenance::nproc() + 1;
        let err = parse_args(&argv(&format!("--workload deep --threads {too_many}"))).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
    }
}
