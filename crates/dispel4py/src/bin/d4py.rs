//! `d4py` — command-line runner for the built-in workflows.
//!
//! ```sh
//! d4py list
//! d4py dot sentiment
//! d4py run galaxies --mapping dyn_auto_multi --workers 8 --platform server
//! d4py run sentiment --mapping hybrid_redis --workers 14 --redis tcp
//! d4py run seismic-phase2 --mapping hybrid_multi --workers 4 --time-scale 0
//! ```

use dispel4py::prelude::*;
use dispel4py::redis_lite::server::Server;
use dispel4py::workflows::{astro, seismic, sentiment};
use std::process::exit;

const WORKFLOWS: &[(&str, &str)] = &[
    (
        "galaxies",
        "Internal Extinction of Galaxies (4 PEs, stateless)",
    ),
    (
        "seismic",
        "Seismic Cross-Correlation phase 1 (9 PEs, stateless)",
    ),
    (
        "seismic-phase2",
        "Seismic Cross-Correlation phase 2 (stateful pairing)",
    ),
    (
        "sentiment",
        "Sentiment Analyses for News Articles (stateful)",
    ),
];

const MAPPINGS: &[&str] = &[
    "simple",
    "multi",
    "dyn_multi",
    "dyn_auto_multi",
    "dyn_redis",
    "dyn_auto_redis",
    "hybrid_multi",
    "hybrid_redis",
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  d4py list\n  d4py dot <workflow>\n  d4py run <workflow> \
         [--mapping M] [--workers N] [--platform server|cloud|hpc]\n\
         \x20              [--scale S] [--heavy] [--time-scale F] [--seed U]\n\
         \x20              [--redis tcp|inproc]\n\nworkflows: {}\nmappings:  {}",
        WORKFLOWS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(", "),
        MAPPINGS.join(", ")
    );
    exit(2)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

struct BuiltWorkflow {
    exe: Executable,
    /// Prints a summary of the run's outputs.
    describe: Box<dyn FnOnce()>,
}

fn build_workflow(name: &str, cfg: &WorkloadConfig) -> BuiltWorkflow {
    match name {
        "galaxies" => {
            let (exe, results) = astro::build(cfg);
            BuiltWorkflow {
                exe,
                describe: Box::new(move || {
                    let got = results.lock();
                    println!("{} galaxies processed", got.len());
                    for r in got.iter().take(3) {
                        println!(
                            "  galaxy {}: A_int = {:.4} mag",
                            r.get("id").unwrap(),
                            r.get("extinction").unwrap().as_float().unwrap()
                        );
                    }
                }),
            }
        }
        "seismic" => {
            let (exe, written) = seismic::build(cfg);
            BuiltWorkflow {
                exe,
                describe: Box::new(move || {
                    println!("{} station traces written to disk", written.lock().len());
                }),
            }
        }
        "seismic-phase2" => {
            let (exe, results, pairs) = seismic::phase2::build(cfg);
            BuiltWorkflow {
                exe,
                describe: Box::new(move || {
                    println!("{pairs} station pairs correlated; strongest couplings:");
                    for r in results.lock().iter().take(5) {
                        println!(
                            "  {}: r = {:+.4} at lag {}",
                            r.get("pair").unwrap().as_str().unwrap(),
                            r.get("r").unwrap().as_float().unwrap(),
                            r.get("lag").unwrap().as_int().unwrap()
                        );
                    }
                }),
            }
        }
        "sentiment" => {
            let (exe, results) = sentiment::build(cfg);
            BuiltWorkflow {
                exe,
                describe: Box::new(move || {
                    println!("top 3 happiest states:");
                    for r in results.lock().iter() {
                        println!(
                            "  #{} {:<12} mean {:+.3} ({} articles)",
                            r.get("rank").unwrap(),
                            r.get("state").unwrap().as_str().unwrap(),
                            r.get("mean").unwrap().as_float().unwrap(),
                            r.get("count").unwrap()
                        );
                    }
                }),
            }
        }
        other => {
            eprintln!("unknown workflow '{other}'");
            usage()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };

    match command.as_str() {
        "list" => {
            println!("built-in workflows:");
            for (name, blurb) in WORKFLOWS {
                println!("  {name:<16} {blurb}");
            }
        }
        "dot" => {
            let Some(name) = args.get(1) else { usage() };
            let built = build_workflow(name, &WorkloadConfig::standard());
            print!("{}", built.exe.graph().to_dot());
        }
        "run" => {
            let Some(name) = args.get(1) else { usage() };
            let mapping_name = arg_value(&args, "--mapping").unwrap_or_else(|| "dyn_multi".into());
            let workers: usize = arg_value(&args, "--workers")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(8);
            let platform = match arg_value(&args, "--platform").as_deref() {
                None => None,
                Some("server") => Some(Platform::SERVER),
                Some("cloud") => Some(Platform::CLOUD),
                Some("hpc") | Some("HPC") => Some(Platform::HPC),
                Some(other) => {
                    eprintln!("unknown platform '{other}'");
                    usage()
                }
            };
            let scale: u32 = arg_value(&args, "--scale")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(1);
            let time_scale: f64 = arg_value(&args, "--time-scale")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(0.1);
            let seed: u64 = arg_value(&args, "--seed")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(42);

            let mut cfg = WorkloadConfig::standard()
                .with_scale(scale)
                .with_time_scale(time_scale)
                .with_seed(seed);
            if args.iter().any(|a| a == "--heavy") {
                cfg = cfg.heavy();
            }
            if let Some(p) = platform {
                cfg = cfg.with_limiter(p.limiter());
            }

            // Redis backend: a fresh TCP server (default) or in-process.
            let needs_redis = mapping_name.contains("redis");
            let server = (needs_redis && arg_value(&args, "--redis").as_deref() != Some("inproc"))
                .then(|| Server::start(0).expect("start redis-lite"));
            let backend = || match &server {
                Some(s) => RedisBackend::Tcp(s.addr()),
                None => RedisBackend::in_proc(),
            };
            if let Some(s) = &server {
                eprintln!("redis-lite on {}", s.addr());
            }

            let mapping: Box<dyn Mapping> = match mapping_name.as_str() {
                "simple" => Box::new(Simple),
                "multi" => Box::new(Multi),
                "dyn_multi" => Box::new(DynMulti),
                "dyn_auto_multi" => Box::new(DynAutoMulti::new()),
                "dyn_redis" => Box::new(DynRedis::new(backend())),
                "dyn_auto_redis" => Box::new(DynAutoRedis::new(backend())),
                "hybrid_multi" => Box::new(HybridMulti),
                "hybrid_redis" => Box::new(HybridRedis::new(backend())),
                other => {
                    eprintln!("unknown mapping '{other}'");
                    usage()
                }
            };

            let built = build_workflow(name, &cfg);
            match mapping.execute(&built.exe, &ExecutionOptions::new(workers)) {
                Ok(report) => {
                    println!("{report}");
                    if let (Some(p50), Some(p99)) =
                        (report.task_latency.p50, report.task_latency.p99)
                    {
                        println!(
                            "task service time: p50 ≤ {:.1?}, p99 ≤ {:.1?} over {} tasks",
                            p50, p99, report.task_latency.count
                        );
                    }
                    if report.peak_outstanding > 0 {
                        println!("peak outstanding tasks: {}", report.peak_outstanding);
                    }
                    println!("per-PE breakdown:");
                    for (pe, n) in &report.per_pe_tasks {
                        println!("  {pe:<20} {n:>8} items");
                    }
                    if report.failed_tasks > 0 {
                        eprintln!("warning: {} task(s) failed", report.failed_tasks);
                    }
                    (built.describe)();
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(1);
                }
            }
        }
        _ => usage(),
    }
}
