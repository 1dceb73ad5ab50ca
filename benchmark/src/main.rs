//! The repo benchmark: five workflow workloads, five end-to-end metrics and
//! an outside-in per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! d4py-benchmark run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
//! d4py-benchmark compare <a.json> <b.json>
//! ```
//!
//! `worker`, `reference` and `serve` are the hidden subcommands `run`
//! spawns: a fresh process per workload, a sequential reference run, and
//! the redis-lite child.

mod compare;
mod json;
mod ledger;
mod procs;
mod report;
mod tap;
mod trace;
mod worker;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  d4py-benchmark run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
  d4py-benchmark compare <a.json> <b.json>";

/// The options shared by `run`, `worker` and `reference`.
pub struct Options {
    /// `--workload`, repeatable; `run` takes none to mean all.
    pub workloads: Vec<workloads::Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Result file of `run`; `benchmark/out/result.json` when absent.
    pub out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let known = workloads::ALL.map(|w| w.name).join(", ");
                opts.workloads.push(
                    workloads::by_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}; one of: {known}"))?,
                );
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => opts.quick = true,
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn single_workload(opts: &Options) -> Result<workloads::Workload, String> {
    match opts.workloads[..] {
        [w] => Ok(w),
        _ => Err("exactly one --workload is needed here".into()),
    }
}

/// Runs a subcommand; `Ok(false)` is a measured failure (exit code 1).
fn dispatch(args: &[String]) -> Result<bool, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    match command.as_str() {
        "run" => report::run(&parse_options(rest)?),
        "compare" => match rest {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.into()),
        },
        "worker" => {
            let opts = parse_options(rest)?;
            println!("{}", worker::run(single_workload(&opts)?, &opts)?);
            Ok(true)
        }
        "reference" => {
            let opts = parse_options(rest)?;
            let digest = single_workload(&opts)?
                .reference(opts.seed, opts.quick)
                .map_err(|e| e.to_string())?;
            println!("{}", digest.join("\n"));
            Ok(true)
        }
        "serve" => procs::serve().map(|()| true),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("d4py-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
