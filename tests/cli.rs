//! Integration: the `d4py` command-line runner.

use std::process::Command;

fn d4py(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_d4py"))
        .args(args)
        .output()
        .expect("spawn d4py")
}

#[test]
fn list_names_all_workflows() {
    let out = d4py(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for wf in ["galaxies", "seismic", "seismic-phase2", "sentiment"] {
        assert!(text.contains(wf), "missing {wf} in:\n{text}");
    }
}

#[test]
fn dot_emits_graphviz() {
    let out = d4py(&["dot", "sentiment"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("happyState"));
    assert!(text.contains("group-by state"));
}

#[test]
fn run_galaxies_dynamic() {
    let out = d4py(&[
        "run",
        "galaxies",
        "--mapping",
        "dyn_multi",
        "--workers",
        "4",
        "--time-scale",
        "0.005",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dyn_multi"));
    assert!(text.contains("100 galaxies processed"));
    assert!(text.contains("per-PE breakdown"));
    assert!(text.contains("getVOTable"));
}

#[test]
fn run_sentiment_hybrid_over_tcp() {
    let out = d4py(&[
        "run",
        "sentiment",
        "--mapping",
        "hybrid_redis",
        "--workers",
        "10",
        "--time-scale",
        "0.01",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("top 3 happiest states"));
    // Hybrid runs report per-task latency like the `dyn_*` mappings do.
    assert!(text.contains("task service time"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("redis-lite on"),
        "TCP server should be spawned: {err}"
    );
}

#[test]
fn unknown_workflow_exits_nonzero() {
    let out = d4py(&["run", "nope"]);
    assert!(!out.status.success());
}

#[test]
fn unknown_mapping_exits_nonzero() {
    let out = d4py(&["run", "galaxies", "--mapping", "warp-drive"]);
    assert!(!out.status.success());
}

#[test]
fn infeasible_configuration_reports_error() {
    // multi needs 14 workers for sentiment; 8 must fail cleanly.
    let out = d4py(&[
        "run",
        "sentiment",
        "--mapping",
        "multi",
        "--workers",
        "8",
        "--time-scale",
        "0",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "stderr: {err}");
}
