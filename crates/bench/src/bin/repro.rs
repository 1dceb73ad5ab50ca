//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run -p d4py-bench --release --bin repro -- <experiment> [--quick] [--inproc] [--shards N]
//! ```
//!
//! Experiments: `fig8 fig9 fig10 fig11a fig11b fig11c fig12a fig12b fig13
//! table1 table2 table3 chaos all`.
//!
//! * `--quick`    — smaller workloads and a 5× smaller time scale; for smoke
//!   runs and CI. For `chaos` it also selects the 3-cell smoke subset.
//! * `--inproc`   — use the in-process Redis backend instead of spawning a
//!   redis-lite TCP server (faster, but hides the wire overhead the paper's
//!   Multiprocessing-vs-Redis comparison measures).
//! * `--shards N` — spawn N redis-lite servers and hash-slot shard the
//!   keyspace across them (`RedisBackend::Cluster`). Mutually exclusive
//!   with `--inproc`.
//!
//! Service times are scaled down uniformly (see EXPERIMENTS.md); every
//! reported *ratio* is invariant to that scaling.
//!
//! `chaos` additionally persists `BENCH_chaos_matrix.json` (to
//! `$D4PY_BENCH_OUT_DIR` or `target/bench/`) for `bench-compare`, and exits
//! nonzero if any non-smoke cell violates its correctness invariant.

use d4py_bench::ratios::ratio_table;
use d4py_bench::render::{render_figure, render_ratio, render_trace};
use d4py_bench::scenario;
use d4py_bench::sweep::{run_cell, MappingKind, RedisTarget, RunRow, Sweep, WorkflowKind};
use dispel4py::prelude::*;
use dispel4py::redis_lite::server::Server;

/// Harness-wide options.
#[derive(Clone)]
struct Opts {
    time_scale: f64,
    quick: bool,
    redis: RedisTarget,
}

fn base_cfg(opts: &Opts) -> WorkloadConfig {
    WorkloadConfig::standard().with_time_scale(opts.time_scale)
}

/// Astro workload grid for one platform.
fn astro_workloads(opts: &Opts, hpc: bool) -> Vec<(String, u32, bool)> {
    if opts.quick {
        if hpc {
            vec![("5X std".into(), 5, false)]
        } else {
            vec![("1X std".into(), 1, false), ("1X heavy".into(), 1, true)]
        }
    } else if hpc {
        // §5.2: HPC runs heavier workloads: 5X, 10X standard and 5X heavy.
        vec![
            ("5X std".into(), 5, false),
            ("10X std".into(), 10, false),
            ("5X heavy".into(), 5, true),
        ]
    } else {
        vec![
            ("1X std".into(), 1, false),
            ("5X std".into(), 5, false),
            ("1X heavy".into(), 1, true),
        ]
    }
}

fn run_grid(
    wf: WorkflowKind,
    platform: Platform,
    workloads: &[(String, u32, bool)],
    mappings: &[MappingKind],
    workers: &[usize],
    opts: &Opts,
) -> Sweep {
    let mut sweep = Sweep::default();
    for (label, scale, heavy) in workloads {
        let mut cfg = base_cfg(opts).with_scale(*scale);
        if *heavy {
            cfg = cfg.heavy();
        }
        for &mapping in mappings {
            for &w in workers {
                if let Some(row) = run_cell(wf, &cfg, platform, mapping, w, label, &opts.redis) {
                    eprintln!(
                        "  [{}] {} {:<16} workers={:<3} runtime={:.3}s proc={:.3}s",
                        platform.name, label, row.mapping, w, row.runtime_s, row.process_s
                    );
                    for warning in &row.warnings {
                        eprintln!("      warning: {warning}");
                    }
                    sweep.rows.push(row);
                }
            }
        }
    }
    sweep
}

// ---- Figures 8–10: Internal Extinction of Galaxies ----

fn fig_galaxy(platform: Platform, opts: &Opts) -> Sweep {
    let hpc = platform.name == "HPC";
    let mappings: Vec<MappingKind> = if hpc {
        MappingKind::multi_family().to_vec() // no Redis on HPC (§5.1.1)
    } else {
        MappingKind::all().to_vec()
    };
    run_grid(
        WorkflowKind::Astro,
        platform,
        &astro_workloads(opts, hpc),
        &mappings,
        platform.process_sweep(),
        opts,
    )
}

// ---- Figure 11: Seismic Cross-Correlation ----

fn fig_seismic(platform: Platform, opts: &Opts) -> Sweep {
    let hpc = platform.name == "HPC";
    let mappings: Vec<MappingKind> = if hpc {
        MappingKind::multi_family().to_vec()
    } else {
        MappingKind::all().to_vec()
    };
    // Consistent 50-station workload everywhere (§5.3). multi cannot run
    // below 9 processes; run_cell drops those cells, so its series starts
    // at 12 — exactly the paper's constraint.
    let workloads = vec![("50 stations".to_string(), 1, false)];
    run_grid(
        WorkflowKind::Seismic,
        platform,
        &workloads,
        &mappings,
        platform.process_sweep(),
        opts,
    )
}

// ---- Figure 12: Sentiment Analyses ----

fn fig_sentiment(platform: Platform, opts: &Opts) -> Sweep {
    let scale = if opts.quick { 1 } else { 3 };
    let workloads = vec![(format!("{}00 articles", scale), scale, false)];
    // The sentiment comparison measures modelled work (scaled) against real
    // queue/wire overhead (unscaled); shrinking the time scale too far
    // would distort that ratio, so clamp it for this experiment.
    let opts = Opts {
        time_scale: opts.time_scale.max(0.5),
        ..opts.clone()
    };
    // Finer increments 8..16 (§5.4); multi only fits at ≥14.
    run_grid(
        WorkflowKind::Sentiment,
        platform,
        &workloads,
        &[MappingKind::Multi, MappingKind::HybridRedis],
        &[8, 10, 12, 14, 16],
        &opts,
    )
}

// ---- Figure 13: auto-scaler traces ----

fn fig13(opts: &Opts) {
    println!("== Figure 13: active size vs monitored metric ==\n");
    let cells: Vec<(&str, WorkflowKind, u32, Platform, MappingKind, &str)> = vec![
        (
            "(a)",
            WorkflowKind::Astro,
            3,
            Platform::SERVER,
            MappingKind::DynAutoMulti,
            "queue size",
        ),
        (
            "(b)",
            WorkflowKind::Astro,
            3,
            Platform::SERVER,
            MappingKind::DynAutoRedis,
            "idle time (s)",
        ),
        (
            "(c)",
            WorkflowKind::Astro,
            5,
            Platform::HPC,
            MappingKind::DynAutoMulti,
            "queue size",
        ),
        (
            "(d)",
            WorkflowKind::Seismic,
            1,
            Platform::SERVER,
            MappingKind::DynAutoMulti,
            "queue size",
        ),
        (
            "(e)",
            WorkflowKind::Seismic,
            1,
            Platform::SERVER,
            MappingKind::DynAutoRedis,
            "idle time (s)",
        ),
        (
            "(f)",
            WorkflowKind::Seismic,
            1,
            Platform::HPC,
            MappingKind::DynAutoMulti,
            "queue size",
        ),
    ];
    for (tag, wf, scale, platform, mapping, metric) in cells {
        let cfg = base_cfg(opts).with_scale(if opts.quick { 1 } else { scale });
        let workers = if platform.name == "HPC" { 64 } else { 16 };
        let label = format!("{tag} {:?} on {}", wf, platform.name);
        if let Some(row) = run_cell(wf, &cfg, platform, mapping, workers, &label, &opts.redis) {
            println!(
                "{}",
                render_trace(row.mapping, &row.workload, metric, &row.trace)
            );
        }
    }
}

// ---- Tables ----

fn table_galaxy(sweeps: &[(&str, &Sweep)]) {
    println!("== Table 1: Internal Extinction of Galaxies — ratio summary ==\n");
    for (platform, sweep) in sweeps {
        for (a, b) in [
            ("dyn_auto_multi", "dyn_multi"),
            ("dyn_auto_redis", "dyn_redis"),
        ] {
            if let Some(summary) = ratio_table(sweep, a, b) {
                println!("{}", render_ratio(platform, &summary));
            }
        }
    }
}

fn table_seismic(sweeps: &[(&str, &Sweep)]) {
    println!("== Table 2: Seismic Cross-Correlation — ratio summary ==\n");
    for (platform, sweep) in sweeps {
        for (a, b) in [
            ("dyn_auto_multi", "dyn_multi"),
            ("dyn_auto_redis", "dyn_redis"),
        ] {
            if let Some(summary) = ratio_table(sweep, a, b) {
                println!("{}", render_ratio(platform, &summary));
            }
        }
    }
}

fn table_sentiment(sweeps: &[(&str, &Sweep)]) {
    println!("== Table 3: Sentiment Analyses — ratio summary ==\n");
    for (platform, sweep) in sweeps {
        if let Some(summary) = ratio_table(sweep, "hybrid_redis", "multi") {
            println!("{}", render_ratio(platform, &summary));
        }
    }
}

/// Ablations over the design choices DESIGN.md §5 calls out:
/// (1) auto-scaling strategy (none / naive queue-delta / proportional),
/// (2) hybrid queue transport (in-process / Redis in-proc / TCP),
/// (3) staging placed on `multi`.
/// The three rows of (1) share one queue, `dyn_multi`'s, so they differ
/// only in the strategy.
fn ablation(opts: &Opts) {
    use dispel4py::workflows::astro;

    println!("== Ablation 1: auto-scaling strategy (galaxy 3X, 16 workers, server) ==\n");
    let cfg = base_cfg(opts)
        .with_scale(if opts.quick { 1 } else { 3 })
        .with_limiter(Platform::SERVER.limiter());
    let workers = 16;

    let (exe, _) = astro::build(&cfg);
    let plain = DynMulti
        .execute(&exe, &ExecutionOptions::new(workers))
        .unwrap();
    println!(
        "{:<24} runtime {:>7.3}s  process {:>8.3}s",
        "no auto-scaling",
        plain.runtime.as_secs_f64(),
        plain.process_time.as_secs_f64()
    );

    let (exe, _) = astro::build(&cfg);
    let naive = DynAutoMulti::with_config(AutoscaleConfig {
        tick: std::time::Duration::from_millis(2),
        ..AutoscaleConfig::default()
    })
    .execute(&exe, &ExecutionOptions::new(workers))
    .unwrap();
    println!(
        "{:<24} runtime {:>7.3}s  process {:>8.3}s",
        "naive queue-delta (±1)",
        naive.runtime.as_secs_f64(),
        naive.process_time.as_secs_f64()
    );

    let (exe, _) = astro::build(&cfg);
    let prop = DynAutoMulti::with_config(AutoscaleConfig {
        tick: std::time::Duration::from_millis(2),
        ..AutoscaleConfig::default()
    })
    .with_strategy(ScalingStrategyKind::Proportional {
        items_per_worker: 4.0,
        alpha: 0.5,
        max_step: 4,
    })
    .execute(&exe, &ExecutionOptions::new(workers))
    .unwrap();
    println!(
        "{:<24} runtime {:>7.3}s  process {:>8.3}s",
        "proportional (EWMA)",
        prop.runtime.as_secs_f64(),
        prop.process_time.as_secs_f64()
    );

    println!("\n== Ablation 2: hybrid queue transport (sentiment, 14 workers, server) ==\n");
    use dispel4py::workflows::sentiment;
    let scfg = WorkloadConfig::standard()
        .with_scale(if opts.quick { 1 } else { 3 })
        .with_time_scale(opts.time_scale.max(0.5))
        .with_limiter(Platform::SERVER.limiter());
    let transports: Vec<(&str, Box<dyn Mapping>)> = vec![
        ("in-process (hybrid_multi)", Box::new(HybridMulti)),
        (
            "redis in-proc",
            Box::new(HybridRedis::new(RedisBackend::in_proc())),
        ),
        (
            "redis tcp (hybrid_redis)",
            Box::new(HybridRedis::new(opts.redis.backend())),
        ),
    ];
    for (label, mapping) in transports {
        let (exe, _) = sentiment::build(&scfg);
        let report = mapping.execute(&exe, &ExecutionOptions::new(14)).unwrap();
        println!(
            "{:<26} runtime {:>7.3}s  process {:>8.3}s",
            label,
            report.runtime.as_secs_f64(),
            report.process_time.as_secs_f64()
        );
    }

    // The dynamic family calls a staged hop inline on its own, so staging
    // is compared where it changes the placement: under `multi`, with one
    // worker per PE, which the staged placement spends on instances of its
    // body cluster instead. `tasks_executed` counts PE calls in both arms.
    use dispel4py::graph::optimize::staging;
    use dispel4py::workflows::seismic;
    let kcfg = base_cfg(opts).with_limiter(Platform::SERVER.limiter());
    let (exe, _) = seismic::build(&kcfg);
    let pes = exe.graph().pe_count();
    println!("\n== Ablation 3: staging under multi (seismic phase 1, {pes} workers, server) ==\n");
    let unfused = Multi.execute(&exe, &ExecutionOptions::new(pes)).unwrap();
    println!(
        "{:<26} runtime {:>7.3}s  process {:>8.3}s  calls {}",
        format!("{pes} PEs (unfused)"),
        unfused.runtime.as_secs_f64(),
        unfused.process_time.as_secs_f64(),
        unfused.tasks_executed
    );
    let (exe, _) = seismic::build(&kcfg);
    let clustering = staging(exe.graph());
    let stages = clustering.len();
    let staged = Multi::clustered(clustering)
        .execute(&exe, &ExecutionOptions::new(pes))
        .unwrap();
    println!(
        "{:<26} runtime {:>7.3}s  process {:>8.3}s  calls {}",
        format!("{stages} cluster(s) (staged)"),
        staged.runtime.as_secs_f64(),
        staged.process_time.as_secs_f64(),
        staged.tasks_executed
    );
}

fn print_row_dump(sweep: &Sweep) {
    for RunRow {
        platform,
        workload,
        mapping,
        workers,
        runtime_s,
        process_s,
        ..
    } in &sweep.rows
    {
        println!("{platform},{workload},{mapping},{workers},{runtime_s:.4},{process_s:.4}");
    }
}

/// The chaos scenario matrix (see `d4py_bench::scenario`).
fn chaos(opts: &Opts) {
    let sopts = scenario::ScenarioOpts::standard(opts.quick, opts.redis.clone());
    eprintln!(
        "chaos matrix on {} backend ({} cells, {} iteration(s))\n",
        opts.redis.label(),
        scenario::matrix(sopts.quick).len(),
        sopts.iters
    );
    let (outcomes, report) = scenario::run_matrix(&sopts).expect("chaos matrix run");
    println!("\n{}", scenario::render_matrix(&outcomes));
    let out = d4py_sync::bench::out_dir().join("BENCH_chaos_matrix.json");
    report.save(&out).expect("persist chaos report");
    println!("report: {}", out.display());
    let violations = scenario::total_violations(&outcomes);
    if violations > 0 && !report.smoke {
        eprintln!("chaos matrix: {violations} invariant violation(s)");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let inproc = args.iter().any(|a| a == "--inproc");
    let shards: usize = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|n| n.parse().expect("--shards takes a count"))
        .unwrap_or(0);
    assert!(
        !(inproc && shards > 0),
        "--inproc and --shards are mutually exclusive"
    );
    let experiment = args
        .iter()
        .find(|a| !a.starts_with("--") && a.parse::<usize>().is_err())
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    // `check` is pure static analysis: dispatch before any server spawn.
    // (`--all` is accepted for symmetry with the docs; check always covers
    // every built-in workflow.)
    if experiment == "check" {
        let json = args.iter().any(|a| a == "--json");
        std::process::exit(d4py_bench::check::run(json));
    }

    // The redis-lite server(s) shared by every Redis-backed cell: one by
    // default, N hash-slot shards under --shards N, none under --inproc.
    // Kept alive here for the whole run.
    let servers: Vec<Server> = if inproc {
        Vec::new()
    } else {
        (0..shards.max(1))
            .map(|_| Server::start(0).expect("start redis-lite"))
            .collect()
    };
    let redis = match servers.as_slice() {
        [] => RedisTarget::InProc,
        [one] if shards == 0 => RedisTarget::Tcp(one.addr()),
        many => RedisTarget::Cluster(many.iter().map(|s| s.addr()).collect()),
    };
    let opts = Opts {
        time_scale: if quick { 0.05 } else { 0.25 },
        quick,
        redis,
    };
    match servers.as_slice() {
        [] => {}
        [one] if shards == 0 => eprintln!(
            "redis-lite server on {} (pass --inproc to skip the wire)",
            one.addr()
        ),
        many => eprintln!(
            "redis-lite cluster: {} shard(s) on {:?}",
            many.len(),
            many.iter().map(|s| s.addr()).collect::<Vec<_>>()
        ),
    }
    eprintln!(
        "time scale {} (all service times scaled; ratios are scale-invariant)\n",
        opts.time_scale
    );

    match experiment.as_str() {
        "fig8" => {
            let sweep = fig_galaxy(Platform::SERVER, &opts);
            println!(
                "{}",
                render_figure("Figure 8: galaxies on server (≤16 procs)", &sweep)
            );
            print_row_dump(&sweep);
        }
        "fig9" => {
            let sweep = fig_galaxy(Platform::CLOUD, &opts);
            println!(
                "{}",
                render_figure("Figure 9: galaxies on cloud (8 cores)", &sweep)
            );
            print_row_dump(&sweep);
        }
        "fig10" => {
            let sweep = fig_galaxy(Platform::HPC, &opts);
            println!(
                "{}",
                render_figure("Figure 10: galaxies on HPC (≤64 procs)", &sweep)
            );
            print_row_dump(&sweep);
        }
        "fig11a" | "fig11b" | "fig11c" => {
            let platform = match experiment.as_str() {
                "fig11a" => Platform::SERVER,
                "fig11b" => Platform::CLOUD,
                _ => Platform::HPC,
            };
            let sweep = fig_seismic(platform, &opts);
            println!(
                "{}",
                render_figure(
                    &format!("Figure 11: seismic on {} (50 stations)", platform.name),
                    &sweep
                )
            );
            print_row_dump(&sweep);
        }
        "fig12a" | "fig12b" => {
            let platform = if experiment == "fig12a" {
                Platform::SERVER
            } else {
                Platform::CLOUD
            };
            let sweep = fig_sentiment(platform, &opts);
            println!(
                "{}",
                render_figure(
                    &format!("Figure 12: sentiment on {}", platform.name),
                    &sweep
                )
            );
            print_row_dump(&sweep);
        }
        "fig13" => fig13(&opts),
        "ablation" => ablation(&opts),
        "chaos" => chaos(&opts),
        "table1" => {
            let server_sweep = fig_galaxy(Platform::SERVER, &opts);
            let cloud_sweep = fig_galaxy(Platform::CLOUD, &opts);
            let hpc_sweep = fig_galaxy(Platform::HPC, &opts);
            table_galaxy(&[
                ("server", &server_sweep),
                ("cloud", &cloud_sweep),
                ("HPC", &hpc_sweep),
            ]);
        }
        "table2" => {
            let server_sweep = fig_seismic(Platform::SERVER, &opts);
            let cloud_sweep = fig_seismic(Platform::CLOUD, &opts);
            let hpc_sweep = fig_seismic(Platform::HPC, &opts);
            table_seismic(&[
                ("server", &server_sweep),
                ("cloud", &cloud_sweep),
                ("HPC", &hpc_sweep),
            ]);
        }
        "table3" => {
            let server_sweep = fig_sentiment(Platform::SERVER, &opts);
            let cloud_sweep = fig_sentiment(Platform::CLOUD, &opts);
            table_sentiment(&[("server", &server_sweep), ("cloud", &cloud_sweep)]);
        }
        "all" => {
            let g_server = fig_galaxy(Platform::SERVER, &opts);
            println!(
                "{}",
                render_figure("Figure 8: galaxies on server", &g_server)
            );
            let g_cloud = fig_galaxy(Platform::CLOUD, &opts);
            println!("{}", render_figure("Figure 9: galaxies on cloud", &g_cloud));
            let g_hpc = fig_galaxy(Platform::HPC, &opts);
            println!("{}", render_figure("Figure 10: galaxies on HPC", &g_hpc));
            let s_server = fig_seismic(Platform::SERVER, &opts);
            println!(
                "{}",
                render_figure("Figure 11a: seismic on server", &s_server)
            );
            let s_cloud = fig_seismic(Platform::CLOUD, &opts);
            println!(
                "{}",
                render_figure("Figure 11b: seismic on cloud", &s_cloud)
            );
            let s_hpc = fig_seismic(Platform::HPC, &opts);
            println!("{}", render_figure("Figure 11c: seismic on HPC", &s_hpc));
            let n_server = fig_sentiment(Platform::SERVER, &opts);
            println!(
                "{}",
                render_figure("Figure 12a: sentiment on server", &n_server)
            );
            let n_cloud = fig_sentiment(Platform::CLOUD, &opts);
            println!(
                "{}",
                render_figure("Figure 12b: sentiment on cloud", &n_cloud)
            );
            table_galaxy(&[("server", &g_server), ("cloud", &g_cloud), ("HPC", &g_hpc)]);
            table_seismic(&[("server", &s_server), ("cloud", &s_cloud), ("HPC", &s_hpc)]);
            table_sentiment(&[("server", &n_server), ("cloud", &n_cloud)]);
            fig13(&opts);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'. Choose one of: fig8 fig9 fig10 fig11a \
                 fig11b fig11c fig12a fig12b fig13 table1 table2 table3 ablation chaos \
                 check all"
            );
            std::process::exit(2);
        }
    }
}
