//! Environment knobs shared by the ablation benches, `repro` and the chaos
//! runner.
//!
//! Each of those times its own runs, summarizes them through
//! [`crate::stats`] and writes a machine-readable `BENCH_<name>.json`
//! ([`crate::report`]) for the `bench-compare` regression gate; this module
//! only answers the three questions they share.
//!
//! Quick mode: set `D4PY_BENCH_QUICK=1` to cut repetitions for smoke runs
//! (CI uses this to verify the benches still execute). Quick runs are below
//! statistical validity, so their JSON is tagged `smoke: true` and
//! comparators refuse to gate on it.
//!
//! Test-only handicap: `D4PY_BENCH_HANDICAP=<factor>` slows every recorded
//! measurement by that factor. It exists so the regression gate can be
//! exercised end-to-end (a handicapped run *must* fail `bench-compare`);
//! never set it outside tests.

/// True when `D4PY_BENCH_QUICK` is set (and not "0"): smoke-sized runs
/// whose reports are tagged `smoke: true` and refused by the gate.
pub fn quick_mode() -> bool {
    std::env::var("D4PY_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Test-only slowdown factor (see module docs); `1.0` when unset/invalid.
pub fn handicap() -> f64 {
    std::env::var("D4PY_BENCH_HANDICAP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|f| f.is_finite() && *f > 0.0)
        .unwrap_or(1.0)
}

/// Directory current-run reports land in: `$D4PY_BENCH_OUT_DIR`, else
/// `<target>/bench` next to the running bench binary, else `target/bench`
/// under the working directory.
pub fn out_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("D4PY_BENCH_OUT_DIR") {
        return dir.into();
    }
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors() {
            if dir.file_name().is_some_and(|n| n == "target") {
                return dir.join("bench");
            }
        }
    }
    std::path::PathBuf::from("target/bench")
}
