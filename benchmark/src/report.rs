//! The `run` subcommand: fresh worker processes per workload, a table of
//! every metric by name and unit, a result file for `compare`, and the
//! single-line result the benchmark contract asks for.

use crate::json::Json;
use crate::ledger;
use crate::procs;
use crate::worker::{out_dir, END_TO_END};
use crate::workloads::{self, Workload};
use crate::Options;
use d4py_sync::stats::median;
use std::path::{Path, PathBuf};

/// Fresh worker processes an untraced workload's time budget is split over.
const PROCESSES: usize = 5;

/// The repository root: the benchmark's directory sits directly under it.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark directory has a parent")
}

/// The checked-out commit, read from `.git` directly so nothing outside the
/// checkout is touched; "unknown" where there is no repository.
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn env_stamp(args: &Options) -> Json {
    Json::obj([
        ("nproc", Json::Num(workloads::nproc() as f64)),
        ("rustc", Json::Str(rustc_version())),
        ("git_commit", Json::Str(git_commit())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "sizes",
            Json::obj(
                workloads::ALL
                    .iter()
                    .map(|w| (w.name, Json::Num(w.items(args.quick) as f64))),
            ),
        ),
    ])
}

/// Runs one workload in a fresh child process for `seconds` and parses the
/// result object it prints as its last line.
fn run_worker(w: Workload, args: &Options, seconds: f64, tmp: &Path) -> Result<Json, String> {
    let mut cmd = procs::self_command();
    cmd.args(["worker", "--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        // The seismic sink writes through `std::env::temp_dir()`: keep that
        // inside the checkout too.
        .env("TMPDIR", tmp);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run the worker for {}: {e}", w.name))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("worker for {} exited with {}", w.name, out.status));
    }
    Json::parse(last).map_err(|e| format!("worker for {} printed no result: {e}", w.name))
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Combines the worker processes of one workload into its result object.
///
/// An end-to-end value is the mean over the processes of each process's own
/// figure (itself a median over repetitions). The mean, because the largest
/// noise on a shared box is a per-process factor (the same code lands
/// 20 % apart from one process to the next and stays there): a median of
/// five flips between its modes, a mean averages them. `setup_s` is the
/// median of the processes' set-ups.
fn combine(w: Workload, args: &Options, workers: &[Json]) -> Json {
    let sum = |k: &str| -> f64 {
        workers
            .iter()
            .filter_map(|p| p.get(k).and_then(Json::as_f64))
            .fold(0.0, |a, b| a + b)
    };
    let mut out = vec![
        ("workload", Json::str(w.name)),
        ("mapping", Json::str(w.mapping())),
        ("seed", Json::Num(args.seed as f64)),
        ("items", Json::Num(w.items(args.quick) as f64)),
        ("workers", Json::Num(w.workers() as f64)),
        ("processes", Json::Num(workers.len() as f64)),
        ("timed_reps", Json::Num(sum("timed_reps"))),
        ("traced_reps", Json::Num(sum("traced_reps"))),
        ("items_attempted", Json::Num(sum("items_attempted"))),
        ("items_failed", Json::Num(sum("items_failed"))),
    ];
    let section = |key: &str, units: &[(&str, &str, &str)]| -> Option<Json> {
        let metrics: Vec<(&str, Json)> = units
            .iter()
            .filter_map(|(name, unit, _)| {
                let samples: Vec<f64> = workers
                    .iter()
                    .filter_map(|p| p.get(key)?.get(name)?.as_f64())
                    .collect();
                let value = match *name {
                    _ if samples.is_empty() => return None,
                    "setup_s" => median(&samples),
                    _ => mean(&samples),
                };
                Some((
                    *name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::str(*unit)),
                        ("samples", Json::nums(&samples)),
                    ]),
                ))
            })
            .collect();
        (!metrics.is_empty()).then(|| Json::obj(metrics))
    };
    if let Some(e2e) = section("end_to_end", &END_TO_END) {
        out.push(("end_to_end", e2e));
    }
    if let Some(layers) = section("per_layer", &ledger::PER_LAYER) {
        out.push(("per_layer", layers));
    }
    for key in ["ledger_shares", "trace_file"] {
        if let Some(v) = workers.iter().find_map(|p| p.get(key)) {
            out.push((key, v.clone()));
        }
    }
    let errors = workers
        .iter()
        .flat_map(|p| p.get("errors").map_or(&[][..], Json::as_arr))
        .cloned();
    out.push(("errors", Json::Arr(errors.collect())));
    Json::obj(out)
}

fn print_metrics(title: &str, metrics: Option<&Json>) {
    let Some(metrics) = metrics else { return };
    println!("  {title}");
    for (name, m) in metrics.as_obj() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("    {name:<44} {value:>16.4} {unit}");
    }
}

/// `{"name": {"value": v, "unit": u}}` without the per-process samples.
fn contract_metrics(prefix: &str, metrics: &Json) -> Vec<(String, Json)> {
    metrics
        .as_obj()
        .iter()
        .map(|(name, m)| {
            let pick = |k: &str| m.get(k).cloned().unwrap_or(Json::Null);
            (
                format!("{prefix}{name}"),
                Json::obj([("value", pick("value")), ("unit", pick("unit"))]),
            )
        })
        .collect()
}

/// Runs the selected workloads. `Ok(true)` when every output was correct.
///
/// Untraced, a workload's time budget is split over [`PROCESSES`] fresh
/// worker processes, one after the other. Traced, one process spends half
/// the budget untraced (the base of `trace.overhead_pct`, from the same
/// process as the traced repetitions) and half traced.
pub fn run(args: &Options) -> Result<bool, String> {
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;

    let (processes, seconds) = if args.trace {
        (1, args.seconds / 2.0)
    } else {
        (PROCESSES, args.seconds / PROCESSES as f64)
    };
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut results = Vec::new();
    let mut final_metrics: Vec<(String, Json)> = Vec::new();
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let selected = if args.workloads.is_empty() {
        &workloads::ALL[..]
    } else {
        &args.workloads[..]
    };
    let out_file = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    for w in selected {
        let mut workers = Vec::with_capacity(processes);
        for _ in 0..processes {
            let result = run_worker(*w, args, seconds, &tmp);
            let _ = std::fs::remove_dir_all(&tmp).and_then(|()| std::fs::create_dir_all(&tmp));
            workers.push(result?);
        }
        let result = combine(*w, args, &workers);
        let count = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{} ({}, {} items, {} workers, seed {}; {} timed and {} traced repetitions in {} processes)\n  {}",
            w.name,
            w.mapping(),
            count("items"),
            count("workers"),
            args.seed,
            count("timed_reps"),
            count("traced_reps"),
            count("processes"),
            w.why
        );
        print_metrics("end to end (untraced)", result.get("end_to_end"));
        print_metrics("per layer (traced repetitions)", result.get("per_layer"));
        println!(
            "    {:<44} {:>16}\n    {:<44} {:>16}",
            "items_attempted",
            count("items_attempted"),
            "items_failed",
            count("items_failed")
        );
        for e in result.get("errors").map_or(&[][..], Json::as_arr) {
            println!("    error: {}", e.as_str().unwrap_or("?"));
        }
        attempted += count("items_attempted");
        failed += count("items_failed");
        let prefix = if selected.len() == 1 {
            String::new()
        } else {
            format!("{}:", w.name)
        };
        match result.get(section) {
            Some(metrics) => final_metrics.extend(contract_metrics(&prefix, metrics)),
            // Nothing could be measured: every repetition failed.
            None => failed = failed.max(1.0),
        }
        results.push(result);
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let file = Json::obj([
        ("benchmark", Json::str("d4py-benchmark")),
        ("smoke", Json::Bool(args.quick)),
        ("env", env_stamp(args)),
        ("workloads", Json::Arr(results)),
    ]);
    if let Some(dir) = out_file.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_file, file.to_string() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out_file.display()))?;
    println!("results written to {}", out_file.display());

    // The contract's result: one JSON object, the last line of stdout.
    let correct = failed == 0.0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted.max(1.0))),
            ("failed", Json::Num(failed)),
            ("metrics", Json::Obj(final_metrics)),
        ])
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this holds it to the code.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let spec = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layers: Vec<&str> = ledger::PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        let workload_names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workload_names);

        let table = |key: &str| spec.get(key).unwrap().as_arr().to_vec();
        let all = END_TO_END.iter().chain(ledger::PER_LAYER.iter());
        for (m, (name, unit, better)) in table("end_to_end")
            .iter()
            .chain(table("per_layer").iter())
            .zip(all)
        {
            assert_eq!(m.get("unit").unwrap().as_str(), Some(*unit), "{name}");
            assert_eq!(m.get("better").unwrap().as_str(), Some(*better), "{name}");
        }
        for (spec_w, w) in table("workloads").iter().zip(workloads::ALL) {
            assert_eq!(spec_w.get("why").unwrap().as_str(), Some(w.why));
        }
    }
}
