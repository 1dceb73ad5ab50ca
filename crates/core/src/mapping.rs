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
//!
//! Which graphs a mapping may run is not decided here or in any front
//! door: each mapping's pre-flight ([`crate::preflight`]) analyzes the
//! graph under the mapping's placement, and the analyzer's placement rules
//! (`D4PY4xx`) are the only refusals.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mappings::dynamic::run_dynamic;
    use crate::pe::{Context, FnSource, FnTransform};
    use crate::queue::WorkStealQueue;
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
    use std::sync::Arc;

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

    /// Runs `exe` under the dynamic pool as `mapping`, on two workers.
    fn run_pool(exe: &Executable, mapping: &'static str) -> Result<RunReport, CoreError> {
        let queue = Arc::new(WorkStealQueue::new(2));
        run_dynamic(exe, &ExecutionOptions::new(2), queue, mapping, None)
    }

    /// The report `mapping`'s pre-flight refuses `exe` with.
    fn refusal(exe: &Executable, mapping: &'static str) -> String {
        match run_pool(exe, mapping) {
            Err(CoreError::Analysis { mapping: m, report }) => {
                assert_eq!(m, mapping);
                report
            }
            other => panic!(
                "expected a refusal, got {:?}",
                other.map(|r| r.tasks_executed)
            ),
        }
    }

    #[test]
    fn stateless_shuffle_workflow_accepted() {
        let exe = exe_with_grouping(Grouping::Shuffle);
        run_pool(&exe, "dyn_multi").unwrap();
    }

    #[test]
    fn group_by_rejected() {
        let exe = exe_with_grouping(Grouping::group_by("k"));
        let report = refusal(&exe, "dyn_multi");
        assert!(report.contains("error[D4PY401]"), "{report}");
    }

    #[test]
    fn global_grouping_rejected() {
        let exe = exe_with_grouping(Grouping::Global);
        let report = refusal(&exe, "dyn_redis");
        assert!(report.contains("error[D4PY401]"), "{report}");
    }

    #[test]
    fn broadcast_rejected() {
        let exe = exe_with_grouping(Grouping::OneToAll);
        let report = refusal(&exe, "dyn_multi");
        assert!(report.contains("error[D4PY402]"), "{report}");
    }
}
