//! Connection-scaling ablation: the reactor under many connections.
//!
//! N concurrent clients each drive unpipelined PING round-trips against a
//! fresh server, so the cost under measurement is the per-connection
//! machinery itself — swept nonblocking state machines on a fixed worker
//! set. The full run sweeps 64 / 256 / 1024 clients; the committed baseline
//! (`bench/baselines/BENCH_connections.json`) is what `bench-compare` gates
//! against in CI.
//!
//! * `D4PY_BENCH_QUICK=1` — small smoke matrix, tagged non-gateable.
//! * `D4PY_BENCH_HANDICAP=<f>` — divide throughput (gate self-tests only).
//! * `D4PY_CONN_OPS` / `D4PY_CONN_REPS` — override the op and rep counts;
//!   the nightly soak uses these to hold 1024 connections under load far
//!   longer than the per-PR path ever runs.

use d4py_bench::connscale::{cell_id, run_matrix, ConnScaleOpts};
use d4py_sync::report::BenchReport;
use d4py_sync::stats::Summary;
use std::path::PathBuf;

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2} M/s", r / 1e6)
    } else {
        format!("{:.1} k/s", r / 1e3)
    }
}

fn workspace_root() -> PathBuf {
    // crates/bench -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn baseline_path() -> PathBuf {
    workspace_root().join("bench/baselines/BENCH_connections.json")
}

fn main() {
    let quick = std::env::var("D4PY_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    let handicap = std::env::var("D4PY_BENCH_HANDICAP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|f| f.is_finite() && *f > 0.0)
        .unwrap_or(1.0);
    let env_usize = |name: &str| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n > 0)
    };
    let mut opts = if quick {
        ConnScaleOpts {
            counts: vec![16, 64],
            ops_total: 2_048,
            reps: 2,
            smoke: true,
            handicap,
        }
    } else {
        ConnScaleOpts {
            counts: vec![64, 256, 1024],
            ops_total: 49_152,
            reps: 11,
            smoke: false,
            handicap,
        }
    };
    if let Some(ops) = env_usize("D4PY_CONN_OPS") {
        opts.ops_total = ops;
    }
    if let Some(reps) = env_usize("D4PY_CONN_REPS") {
        opts.reps = reps;
    }

    println!("== ablation_connections: reactor throughput vs concurrent clients ==");
    println!(
        "   ({} unpipelined round-trips split across N clients, {} reps)\n",
        opts.ops_total, opts.reps
    );
    if handicap != 1.0 {
        println!("   !! D4PY_BENCH_HANDICAP={handicap} — throughput divided for gate testing\n");
    }

    let report = run_matrix(&opts);

    // Median ±σ and the 95% bootstrap CI of the median, per client count.
    for &c in &opts.counts {
        let e = report
            .benches
            .iter()
            .find(|b| b.id == cell_id(c))
            .expect("one entry per cell");
        let s: &Summary = &e.summary;
        println!(
            "  c{c:<5} {} ±{}  ci [{} .. {}]",
            fmt_rate(s.median),
            fmt_rate(s.stddev),
            fmt_rate(s.ci_lo),
            fmt_rate(s.ci_hi),
        );
    }

    // Informational inline comparison (the hard gate is `bench-compare`).
    if let Ok(baseline) = BenchReport::load(&baseline_path()) {
        println!("\nvs baseline:");
        for cur in &report.benches {
            if let Some(base) = baseline.benches.iter().find(|b| b.id == cur.id) {
                let delta =
                    (cur.summary.median - base.summary.median) / base.summary.median * 100.0;
                println!(
                    "  {}: {} -> {} ({delta:+.1}%)",
                    cur.id,
                    fmt_rate(base.summary.median),
                    fmt_rate(cur.summary.median),
                );
            }
        }
    }

    let out = d4py_sync::bench::out_dir().join("BENCH_connections.json");
    match report.save(&out) {
        Ok(()) => println!(
            "\nwrote {} ({}{})",
            out.display(),
            if report.smoke {
                "smoke mode — not gateable"
            } else {
                "gateable"
            },
            if handicap != 1.0 { ", handicapped" } else { "" },
        ),
        Err(e) => eprintln!("note: could not persist bench report: {e}"),
    }
}
