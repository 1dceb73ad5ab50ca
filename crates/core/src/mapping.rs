//! The mapping ("enactment engine") interface.
//!
//! A mapping translates an abstract workflow into a concrete execution on
//! some substrate (Figure 1 of the paper). Mappings in this crate:
//! [`Simple`](crate::mappings::simple::Simple) (sequential),
//! [`Multi`](crate::mappings::multi::Multi) (static multiprocessing: every
//! instance pinned, of a PE or, under `Multi::clustered`, of a cluster),
//! [`DynMulti`](crate::mappings::dynamic::DynMulti) (dynamic scheduling),
//! and [`DynAutoMulti`](crate::mappings::dynamic::DynAutoMulti)
//! (dynamic scheduling + auto-scaling). The Redis-backed mappings live in
//! the `d4py-redis` crate and implement the same trait.

use crate::error::CoreError;
use crate::executable::Executable;
use crate::metrics::RunReport;
use crate::options::ExecutionOptions;

/// An enactment engine: executes an [`Executable`] workflow.
pub trait Mapping {
    /// The mapping's name as used in the paper's evaluation
    /// (`multi`, `dyn_multi`, `dyn_auto_multi`, `dyn_redis`, …).
    fn name(&self) -> &'static str;

    /// Runs the workflow to completion and reports metrics.
    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError>;
}

/// Validates that a workflow is executable by *plain* dynamic scheduling,
/// which supports neither stateful PEs nor groupings (§2.2: "dynamic
/// scheduling exclusively manages stateless PEs and lacks support for
/// grouping").
pub fn require_stateless(exe: &Executable, mapping: &'static str) -> Result<(), CoreError> {
    let graph = exe.graph();
    if let Some(pe) = graph.stateful_pes().first() {
        let name = graph.pe(*pe).map(|p| p.name.clone()).unwrap_or_default();
        return Err(CoreError::UnsupportedWorkflow {
            mapping,
            reason: format!(
                "PE '{name}' is stateful (or fed by a group-by/global grouping); \
                 use the hybrid mapping or the static multi mapping"
            ),
        });
    }
    if let Some(c) = graph
        .connections()
        .iter()
        .find(|c| c.grouping.is_broadcast())
    {
        let name = graph
            .pe(c.to_pe)
            .map(|p| p.name.clone())
            .unwrap_or_default();
        return Err(CoreError::UnsupportedWorkflow {
            mapping,
            reason: format!(
                "connection into '{name}' uses one-to-all broadcast, which \
                 dynamic scheduling cannot route"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{Context, FnSource, FnTransform};
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

    fn exe_with_grouping(grouping: Grouping) -> Executable {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", grouping).unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || Box::new(FnSource(|_: &mut dyn Context| {})));
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        exe.seal().unwrap()
    }

    #[test]
    fn stateless_shuffle_workflow_accepted() {
        let exe = exe_with_grouping(Grouping::Shuffle);
        require_stateless(&exe, "dyn_multi").unwrap();
    }

    #[test]
    fn group_by_rejected() {
        let exe = exe_with_grouping(Grouping::group_by("k"));
        let err = require_stateless(&exe, "dyn_multi").unwrap_err();
        assert!(matches!(
            err,
            CoreError::UnsupportedWorkflow {
                mapping: "dyn_multi",
                ..
            }
        ));
    }

    #[test]
    fn global_grouping_rejected() {
        let exe = exe_with_grouping(Grouping::Global);
        assert!(require_stateless(&exe, "dyn_redis").is_err());
    }

    #[test]
    fn broadcast_rejected() {
        let exe = exe_with_grouping(Grouping::OneToAll);
        assert!(require_stateless(&exe, "dyn_multi").is_err());
    }
}
