//! One workload, measured in a process of its own (`worker` subcommand).
//!
//! Set-up (reference run, server spawn and connect, graph build), one
//! warm-up repetition, then timed repetitions until the requested seconds
//! have passed; every timing is the median over the timed repetitions. With
//! `--trace 1` traced repetitions follow for as long again and feed only the
//! per-layer metrics: end-to-end numbers never come from a traced run.
//! `run` starts several such processes per workload and combines them (see
//! `report.rs`).

use crate::json::Json;
use crate::ledger::{self, Ledger, TracedRun};
use crate::procs::{self, ServerProc};
use crate::trace;
use crate::workloads::{Built, Workload};
use crate::Options;
use d4py_sync::stats::median;
use dispel4py::prelude::*;
use dispel4py::redis_lite::client::Connection;
use dispel4py::redis_lite::resp::Frame;
use std::time::Instant;

/// End-to-end metrics: name, unit, better direction (the `BENCHMARK.json`
/// list, held together by a test).
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("items_per_s", "items/s", "higher"),
    ("cpu_us_per_item", "us", "lower"),
    ("first_result_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Repetitions a phase runs at least, however short its time budget.
const MIN_REPS: usize = 3;
/// Delivered tasks the traced pass aims to keep for the replay.
const REPLAY_SAMPLES: u64 = 3_000;

/// Where trace files and per-run scratch files go: inside the benchmark's
/// own directory, wherever the checkout is.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything set-up produces; dropping it stops the server child.
struct Prepared {
    built: Built,
    reference: Vec<String>,
    backend: Option<RedisBackend>,
    admin: Option<Box<dyn Connection>>,
    server: Option<ServerProc>,
}

/// The reference output, computed by a sequential `Simple` run in a child
/// process so that neither its memory high-water mark nor its warmed
/// allocator is inherited by the measured process.
fn reference_from_child(w: Workload, args: &Options) -> Result<Vec<String>, String> {
    let mut cmd = procs::self_command();
    cmd.args(["reference", "--workload", w.name])
        .args(["--seed", &args.seed.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run the reference child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the reference run failed: {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect())
}

fn set_up(w: Workload, args: &Options) -> Result<Prepared, String> {
    let reference = reference_from_child(w, args)?;
    let (mut server, mut backend, mut admin) = (None, None, None);
    if w.uses_redis() {
        let child = ServerProc::spawn()?;
        let tcp = RedisBackend::Tcp(child.addr());
        admin = Some(tcp.connect().map_err(|e| e.to_string())?);
        backend = Some(tcp);
        server = Some(child);
    }
    Ok(Prepared {
        built: w.build(args.seed, args.quick, None),
        reference,
        backend,
        admin,
        server,
    })
}

impl Prepared {
    /// A fresh, verified-empty keyspace before every repetition: a
    /// long-lived keyspace slows monotonically across repetitions.
    fn clean_keyspace(&mut self) -> Result<(), String> {
        let Some(admin) = self.admin.as_mut() else {
            return Ok(());
        };
        admin.request(&[b"FLUSHALL"]).map_err(|e| e.to_string())?;
        match admin.request(&[b"DBSIZE"]).map_err(|e| e.to_string())? {
            Frame::Integer(0) => Ok(()),
            other => Err(format!("keyspace not empty before a repetition: {other:?}")),
        }
    }

    fn server_pid(&self) -> Option<u32> {
        self.server.as_ref().map(ServerProc::pid)
    }

    /// CPU seconds so far: this process plus the redis-lite child.
    fn cpu_s(&self) -> f64 {
        procs::cpu_seconds(std::process::id()) + self.server_cpu_s()
    }

    fn server_cpu_s(&self) -> f64 {
        self.server_pid().map_or(0.0, procs::cpu_seconds)
    }

    fn peak_rss_mib(&self) -> f64 {
        procs::peak_rss_mib(std::process::id()) + self.server_peak_rss_mib()
    }

    fn server_peak_rss_mib(&self) -> f64 {
        self.server_pid().map_or(0.0, procs::peak_rss_mib)
    }
}

/// What one successful repetition measured.
struct Rep {
    wall_s: f64,
    first_result_s: f64,
    /// `RunReport::tasks_executed`: must repeat exactly, traced or not.
    tasks: u64,
}

/// Correctness accounting across every repetition of the process.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

struct Measurement {
    workload: Workload,
    /// Items one repetition attempts.
    items: u64,
    prep: Prepared,
    tally: Tally,
    /// Median wall time of the untraced timed repetitions, once known: the
    /// base of `trace.overhead_pct`.
    untraced_wall_s: f64,
    /// The trace file of the latest traced repetition; written once, at the
    /// end.
    trace_file: Option<Json>,
}

impl Measurement {
    /// Runs one repetition and checks its output against the reference. A
    /// repetition that errs, loses or drops anything, or differs from the
    /// reference fails all its items and yields no timing.
    fn repetition(&mut self, traced: Option<&Built>) -> Option<(Rep, Option<Ledger>)> {
        self.tally.attempted += self.items;
        match self.try_repetition(traced) {
            Ok(done) => Some(done),
            Err(why) => {
                self.tally.failed += self.items;
                self.tally.errors.push(why);
                None
            }
        }
    }

    fn try_repetition(&mut self, traced: Option<&Built>) -> Result<(Rep, Option<Ledger>), String> {
        let w = self.workload;
        self.prep.clean_keyspace()?;
        let built = traced.unwrap_or(&self.prep.built);
        if traced.is_some() {
            trace::begin();
        }
        let server_cpu_before = self.prep.server_cpu_s();
        let start_ns = trace::now_ns();
        let result = match traced {
            Some(_) => w.execute_traced(&built.exe, self.prep.backend.as_ref()),
            None => w.execute(&built.exe, self.prep.backend.as_ref()),
        };
        let end_ns = trace::now_ns();
        let server_cpu_s = self.prep.server_cpu_s() - server_cpu_before;
        let threads = traced.map(|_| trace::finish());
        let output = built.take_output();
        let report = result.map_err(|e| format!("{} failed: {e}", w.mapping()))?;
        if report.failed_tasks > 0 || report.dropped_emissions > 0 {
            return Err(format!(
                "{} failed tasks, {} dropped emissions",
                report.failed_tasks, report.dropped_emissions
            ));
        }
        if output.digest != self.prep.reference {
            return Err(format!(
                "output differs from the Simple reference: got {:?}, expected {:?}",
                &output.digest[..output.digest.len().min(3)],
                &self.prep.reference[..self.prep.reference.len().min(3)]
            ));
        }
        let first_ns = output
            .tap
            .first_ns
            .ok_or("no item reached a sink")?
            .saturating_sub(start_ns);
        let ledger = match threads {
            None => None,
            Some(threads) => {
                let mut run = TracedRun {
                    graph: built.exe.graph(),
                    report: &report,
                    threads,
                    uses_redis: w.uses_redis(),
                    workers: w.workers(),
                    start_ns,
                    end_ns,
                    tap: output.tap,
                    server_cpu_s,
                    server_peak_rss_mib: self.prep.server_peak_rss_mib(),
                    untraced_wall_s: self.untraced_wall_s,
                };
                let ledger = ledger::derive(&mut run);
                self.trace_file = Some(ledger::trace_file(&run.threads, run.graph, &ledger));
                Some(ledger)
            }
        };
        let rep = Rep {
            wall_s: (end_ns - start_ns) as f64 / 1e9,
            first_result_s: first_ns as f64 / 1e9,
            tasks: report.tasks_executed,
        };
        Ok((rep, ledger))
    }
}

/// Measures one workload in this process and returns its result object:
/// one set-up, one warm-up repetition, timed repetitions for `seconds`,
/// then (with `trace`) traced repetitions for as long again. `Err` means
/// nothing could be measured at all.
pub fn run(w: Workload, args: &Options) -> Result<Json, String> {
    let items = w.items(args.quick) as f64;

    let started = Instant::now();
    let prep = set_up(w, args)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut m = Measurement {
        workload: w,
        items: w.items(args.quick),
        prep,
        tally: Tally::default(),
        untraced_wall_s: 0.0,
        trace_file: None,
    };

    // Warm-up: checked like any repetition, never timed.
    m.repetition(None);

    let cpu_before = m.prep.cpu_s();
    let timed = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut runs = 0;
    while runs < MIN_REPS || timed.elapsed().as_secs_f64() < args.seconds {
        runs += 1;
        reps.extend(m.repetition(None).map(|(rep, _)| rep));
    }
    // CPU over the whole timed region: a tick is 10 ms, too coarse for one
    // repetition, and CPU time adds up where wall time does not.
    let cpu_s = m.prep.cpu_s() - cpu_before;
    let peak_rss_mib = m.prep.peak_rss_mib();

    let mut result = vec![
        ("workload", Json::str(w.name)),
        ("items", Json::Num(items)),
        ("workers", Json::Num(w.workers() as f64)),
        ("timed_reps", Json::Num(reps.len() as f64)),
    ];
    if !reps.is_empty() {
        let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
        m.untraced_wall_s = median(&per_rep(&|r| r.wall_s));
        let values = [
            items / m.untraced_wall_s,
            cpu_s * 1e6 / (items * runs as f64),
            median(&per_rep(&|r| r.first_result_s * 1e3)),
            peak_rss_mib,
            setup_s,
        ];
        let named = END_TO_END.iter().zip(values);
        result.push((
            "end_to_end",
            Json::obj(named.map(|((name, _, _), v)| (*name, Json::Num(v)))),
        ));
    }

    if args.trace && !reps.is_empty() {
        let tasks = reps[0].tasks;
        let sample_every = (tasks / REPLAY_SAMPLES).max(1);
        let traced_build = w.build(args.seed, args.quick, Some(sample_every));
        let mut ledgers: Vec<Ledger> = Vec::new();
        let traced = Instant::now();
        let mut runs = 0;
        while runs < MIN_REPS || traced.elapsed().as_secs_f64() < args.seconds {
            runs += 1;
            let Some((rep, Some(ledger))) = m.repetition(Some(&traced_build)) else {
                continue;
            };
            if rep.tasks == tasks {
                ledgers.push(ledger);
            } else {
                m.tally.failed += items as u64;
                m.tally.errors.push(format!(
                    "traced run executed {} tasks, untraced {tasks}",
                    rep.tasks
                ));
            }
        }
        if let Some(last) = ledgers.last() {
            // Each metric is the median over the traced repetitions.
            let per_layer = ledger::PER_LAYER
                .iter()
                .enumerate()
                .map(|(i, (name, _, _))| {
                    let xs: Vec<f64> = ledgers.iter().map(|l| l.metrics[i].1).collect();
                    (*name, Json::Num(median(&xs)))
                });
            result.push(("per_layer", Json::obj(per_layer)));
            result.push((
                "ledger_shares",
                Json::obj(last.shares.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ));
            result.push(("traced_reps", Json::Num(ledgers.len() as f64)));
            let path = out_dir().join(format!("trace_{}.json", w.name));
            let file = m.trace_file.take().expect("a ledger came with a trace");
            std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(&path, file.to_string()))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            result.push(("trace_file", Json::Str(path.display().to_string())));
        }
    }

    result.push(("items_attempted", Json::Num(m.tally.attempted as f64)));
    result.push(("items_failed", Json::Num(m.tally.failed as f64)));
    result.push((
        "errors",
        Json::Arr(m.tally.errors.iter().map(Json::str).collect()),
    ));
    Ok(Json::obj(result))
}
