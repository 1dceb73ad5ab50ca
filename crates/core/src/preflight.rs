//! Engine pre-flight static analysis: the one gate of every mapping.
//!
//! Every enactment engine calls [`preflight`] before spawning workers: the
//! workflow is run through `d4py_graph::analyze` under the engine's
//! [`Placement`] and worker count. Error-severity diagnostics abort the
//! run with [`CoreError::Analysis`], which names the mapping and whose
//! rendered report carries the `D4PY` rule codes, while Warning-severity
//! findings are returned for the engine to fold into `RunReport::warnings`.
//! Info-severity findings are advisory and not propagated.
//!
//! No front door checks the graph itself, so a workflow a mapping refuses
//! is refused here, by a placement rule `repro check` and the analyzer's
//! tests see too: a stateful PE under a dynamic pool, too few workers for
//! a hybrid or static placement, a stateful multi-instance PE fed by
//! `Grouping::Shuffle`, and so on — none reaches a worker thread.

use crate::error::CoreError;
use crate::executable::Executable;
use crate::options::ExecutionOptions;
use d4py_graph::analyze::{AnalysisContext, Placement, Severity};

/// Analyzes the executable's workflow for `mapping`'s `placement` on
/// `opts.workers` and either aborts (any Error-severity diagnostic) or
/// returns the warnings to fold into the run report, formatted as
/// `"<code>: <message>"`.
pub fn preflight(
    exe: &Executable,
    opts: &ExecutionOptions,
    mapping: &'static str,
    placement: Placement,
) -> Result<Vec<String>, CoreError> {
    let ctx = AnalysisContext::placed(opts.workers, placement);
    let diags = exe.graph().analyze(&ctx);
    if diags.has_errors() {
        return Err(CoreError::Analysis {
            mapping,
            report: diags.render(),
        });
    }
    Ok(diags
        .findings
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .map(|d| format!("{}: {}", d.code, d.message))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

    fn exe_with(graph: WorkflowGraph) -> Executable {
        // Pre-flight only reads the graph; no factories needed.
        Executable::new(graph).expect("graph validates")
    }

    #[test]
    fn stateful_multi_instance_under_shuffle_is_rejected() {
        let mut g = WorkflowGraph::new("bad");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in").stateful().with_instances(4));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let exe = exe_with(g);
        let err = preflight(&exe, &ExecutionOptions::new(4), "t", Placement::Sequential);
        match err.unwrap_err() {
            CoreError::Analysis { mapping, report } => {
                assert_eq!(mapping, "t");
                assert!(report.contains("D4PY101"), "{report}");
            }
            other => panic!("expected Analysis error, got {other:?}"),
        }
    }

    #[test]
    fn clean_workflow_passes_with_no_warnings() {
        let mut g = WorkflowGraph::new("ok");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let exe = exe_with(g);
        let warnings =
            preflight(&exe, &ExecutionOptions::new(4), "t", Placement::Sequential).unwrap();
        assert!(warnings.is_empty());
    }

    #[test]
    fn warnings_are_surfaced_with_codes() {
        let mut g = WorkflowGraph::new("warny");
        let a =
            g.add_pe(PeSpec::source("a", "out").with_port(d4py_graph::PortDecl::output("debug")));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let exe = exe_with(g);
        let warnings =
            preflight(&exe, &ExecutionOptions::new(4), "t", Placement::Sequential).unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].starts_with("D4PY202: "), "{}", warnings[0]);
    }
}
