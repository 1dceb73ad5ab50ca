//! `repro check` — static diagnostics over every built-in workflow.
//!
//! Runs `d4py_graph::analyze` under the strictest context
//! ([`AnalysisContext::full`]: the staging and autoscaling rules enabled,
//! no mapping's placement refusals) on
//! each of the paper's workflows plus the chaos workload, renders a
//! rustc-style report per workflow and a summary table, and persists the
//! machine-readable JSON to `target/bench/DIAGNOSTICS_check.json` so CI
//! can archive it. `scripts/verify.sh` gates on the exit status: any
//! Error-severity diagnostic fails the build.

use d4py_graph::analyze::{AnalysisContext, Diagnostics, Severity};
use dispel4py::workflows::{astro, chaos, seismic, sentiment, WorkloadConfig};

/// Name of the JSON report written into `d4py_sync::bench::out_dir()`.
pub const DIAGNOSTICS_FILE: &str = "DIAGNOSTICS_check.json";

/// Analyzes every built-in workflow and returns the per-workflow results.
///
/// Workload compute time is irrelevant to static analysis; the graphs are
/// built at time scale 0 so this is instant.
pub fn check_all() -> Vec<Diagnostics> {
    let cfg = WorkloadConfig::standard().with_time_scale(0.0);
    let ctx = AnalysisContext::full();
    vec![
        astro::build(&cfg).0.graph().analyze(&ctx),
        seismic::build(&cfg).0.graph().analyze(&ctx),
        seismic::phase2::build(&cfg).0.graph().analyze(&ctx),
        sentiment::build(&cfg).0.graph().analyze(&ctx),
        chaos::build(&cfg).0.graph().analyze(&ctx),
    ]
}

/// The combined JSON document: one object per workflow.
pub fn to_json(results: &[Diagnostics]) -> String {
    let mut out = String::from("{\"workflows\":[");
    for (i, d) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_json());
    }
    out.push_str("]}");
    out
}

/// The human-readable report: per-workflow diagnostics (rustc-style) when
/// any exist, then a fixed-width summary table.
pub fn render_table(results: &[Diagnostics]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in results {
        if !d.findings.is_empty() {
            out.push_str(&d.render());
            out.push('\n');
        }
    }
    let width = results
        .iter()
        .map(|d| d.workflow.len())
        .max()
        .unwrap_or(8)
        .max("workflow".len());
    let _ = writeln!(
        out,
        "{:<width$}  errors  warnings  info  waived",
        "workflow"
    );
    for d in results {
        let _ = writeln!(
            out,
            "{:<width$}  {:>6}  {:>8}  {:>4}  {:>6}",
            d.workflow,
            d.count(Severity::Error),
            d.count(Severity::Warning),
            d.count(Severity::Info),
            d.waived
        );
    }
    out
}

/// Entry point for the `repro check` subcommand. Prints the table (or the
/// JSON document with `--json`), always persists the JSON report for CI,
/// and returns the process exit code: 0 when no workflow carries an
/// Error-severity diagnostic, 1 otherwise.
pub fn run(json: bool) -> i32 {
    let results = check_all();
    let doc = to_json(&results);
    let path = d4py_sync::bench::out_dir().join(DIAGNOSTICS_FILE);
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    if json {
        println!("{doc}");
    } else {
        print!("{}", render_table(&results));
    }
    let errors: usize = results.iter().map(|d| d.count(Severity::Error)).sum();
    if errors > 0 {
        eprintln!("repro check: {errors} Error-severity diagnostic(s)");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_workflows_carry_zero_errors() {
        // The gate verify.sh enforces, as a unit test: every shipped
        // workflow satisfies the stateful/grouping contract under the
        // strictest analysis context.
        for d in check_all() {
            assert!(
                !d.has_errors(),
                "workflow '{}' has errors:\n{}",
                d.workflow,
                d.render()
            );
        }
    }

    #[test]
    fn table_lists_every_workflow() {
        let results = check_all();
        let table = render_table(&results);
        for name in ["galax", "sentiment", "seismic", "chaos"] {
            assert!(
                results.iter().any(|d| d.workflow.contains(name)),
                "missing workflow matching '{name}' in {table}"
            );
        }
        assert!(table.contains("errors"), "{table}");
    }

    #[test]
    fn json_document_is_wrapped() {
        let doc = to_json(&check_all());
        assert!(doc.starts_with("{\"workflows\":["), "{doc}");
        assert!(doc.ends_with("]}"), "{doc}");
        assert!(doc.contains("\"errors\":0"), "{doc}");
    }
}
