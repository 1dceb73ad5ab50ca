//! Workflow validation.
//!
//! dispel4py validates abstract workflows before mapping them: names must be
//! unique, the graph must be a DAG, every PE must be reachable from a source,
//! and isolated (port-less) PEs are rejected. Validation runs once at
//! composition time so the mappings can assume a well-formed graph. The
//! checks themselves are the analyzer's structural rules
//! ([`crate::analyze`]); this module maps their first finding back to a
//! [`GraphError`].

use crate::graph::WorkflowGraph;
use crate::node::PeId;
use crate::port::PortDirection;

/// Errors produced while composing or validating a workflow graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A referenced PE id does not exist in the graph.
    UnknownPe(PeId),
    /// A referenced port does not exist on the PE.
    UnknownPort {
        /// Owning PE name.
        pe: String,
        /// Port name that failed to resolve.
        port: String,
        /// Direction the port was expected to have.
        direction: PortDirection,
    },
    /// Two PEs share a name.
    DuplicateName(String),
    /// The graph contains a directed cycle through the named PE.
    Cycle(String),
    /// The graph has no source PE (no node without inputs).
    NoSource,
    /// A PE declares no ports at all.
    IsolatedPe(String),
    /// A PE is not reachable from any source.
    Unreachable(String),
    /// A PE has an input port with no incoming connection.
    DanglingInput {
        /// Owning PE name.
        pe: String,
        /// Unconnected input port.
        port: String,
    },
    /// An explicit instance request is zero.
    ZeroInstances(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownPe(id) => write!(f, "unknown PE {id}"),
            GraphError::UnknownPort {
                pe,
                port,
                direction,
            } => {
                write!(f, "PE '{pe}' has no {direction:?} port '{port}'")
            }
            GraphError::DuplicateName(n) => write!(f, "duplicate PE name '{n}'"),
            GraphError::Cycle(n) => write!(f, "workflow contains a cycle through '{n}'"),
            GraphError::NoSource => write!(f, "workflow has no source PE"),
            GraphError::IsolatedPe(n) => write!(f, "PE '{n}' declares no ports"),
            GraphError::Unreachable(n) => {
                write!(f, "PE '{n}' is not reachable from any source")
            }
            GraphError::DanglingInput { pe, port } => {
                write!(
                    f,
                    "input port '{port}' of PE '{pe}' has no incoming connection"
                )
            }
            GraphError::ZeroInstances(n) => {
                write!(f, "PE '{n}' requests zero instances")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl WorkflowGraph {
    /// Validates the workflow, returning the first problem found: the
    /// first Error-severity structural diagnostic of
    /// [`analyze`](WorkflowGraph::analyze), whether or not a PE waives it.
    ///
    /// Checks, in order: unique names; per PE, no port-less PE and no
    /// explicit zero-instance request; at least one source; acyclicity;
    /// reachability from sources; no dangling input ports.
    pub fn validate(&self) -> Result<(), GraphError> {
        let Some(finding) = self.first_structural_error() else {
            return Ok(());
        };
        let pe = finding.pe.unwrap_or_default();
        Err(match finding.code {
            "D4PY001" => GraphError::DuplicateName(pe),
            "D4PY002" => GraphError::IsolatedPe(pe),
            "D4PY003" => GraphError::NoSource,
            // Kahn's pass names the first PE stuck on or behind the cycle.
            "D4PY004" => return self.topological_order().map(drop),
            "D4PY005" => GraphError::Unreachable(pe),
            "D4PY006" => GraphError::DanglingInput {
                pe,
                port: finding.port.unwrap_or_default(),
            },
            "D4PY007" => GraphError::ZeroInstances(pe),
            other => unreachable!("{other} is not a structural rule of validate()"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::Grouping;
    use crate::node::PeSpec;
    use crate::port::PortDecl;

    fn valid_linear() -> WorkflowGraph {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        g
    }

    #[test]
    fn valid_graph_passes() {
        valid_linear().validate().unwrap();
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = valid_linear();
        g.add_pe(PeSpec::source("a", "out"));
        assert!(matches!(g.validate(), Err(GraphError::DuplicateName(_))));
    }

    #[test]
    fn cycle_rejected() {
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let a = g.add_pe(PeSpec::transform("a", "in", "out").with_port(PortDecl::input("loop")));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        g.connect(s, "out", a, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", a, "loop", Grouping::Shuffle).unwrap();
        assert!(matches!(g.validate(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn no_source_rejected() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::transform("a", "in", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", a, "in", Grouping::Shuffle).unwrap();
        assert!(matches!(g.validate(), Err(GraphError::NoSource)));
    }

    #[test]
    fn isolated_pe_rejected() {
        let mut g = valid_linear();
        g.add_pe(PeSpec::new("island", vec![]));
        assert!(matches!(g.validate(), Err(GraphError::IsolatedPe(_))));
    }

    #[test]
    fn waivers_do_not_silence_validate() {
        let mut g = valid_linear();
        g.add_pe(PeSpec::new("island", vec![]).allow("D4PY002"));
        let ctx = crate::analyze::AnalysisContext::full();
        assert!(!g.analyze(&ctx).has_errors(), "the analyzer honours it");
        assert!(matches!(g.validate(), Err(GraphError::IsolatedPe(_))));
    }

    #[test]
    fn unreachable_pe_rejected() {
        let mut g = valid_linear();
        // A second component that is itself source-rooted is fine; make one
        // whose transform is orphaned (input never fed → dangling first).
        g.add_pe(PeSpec::source("s2", "out"));
        // s2 is a source with no successors — reachable trivially. Now add a
        // sink fed by nothing.
        g.add_pe(PeSpec::sink("orphan", "in"));
        let err = g.validate().unwrap_err();
        assert!(
            matches!(err, GraphError::Unreachable(ref n) if n == "orphan"),
            "{err:?}"
        );
    }

    #[test]
    fn dangling_input_rejected() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out").with_port(PortDecl::input("extra")));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        // reachable, acyclic, but b.extra is never fed
        let err = g.validate().unwrap_err();
        assert!(matches!(err, GraphError::DanglingInput { ref port, .. } if port == "extra"));
    }

    #[test]
    fn zero_instances_rejected() {
        let mut g = WorkflowGraph::new("t");
        g.add_pe(PeSpec::source("a", "out").with_instances(0));
        assert!(matches!(g.validate(), Err(GraphError::ZeroInstances(_))));
    }

    #[test]
    fn diamond_graph_passes() {
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let l = g.add_pe(PeSpec::transform("l", "in", "out"));
        let r = g.add_pe(PeSpec::transform("r", "in", "out"));
        let k = g.add_pe(PeSpec::sink("k", "in"));
        g.connect(s, "out", l, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "out", r, "in", Grouping::Shuffle).unwrap();
        g.connect(l, "out", k, "in", Grouping::Shuffle).unwrap();
        g.connect(r, "out", k, "in", Grouping::Shuffle).unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn parallel_edges_between_same_pair_pass() {
        // Two connections a→b (distinct ports): indegree[b] seeds to 2 and
        // must be decremented by exactly 2 when a is visited. If the Kahn
        // pass (`topo::kahn`, shared with `topological_order`) ever
        // subtracted per successor instead of per edge, or both, this would
        // underflow-panic or misreport a cycle.
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out").with_port(PortDecl::output("aux")));
        let b = g.add_pe(PeSpec::sink("b", "in").with_port(PortDecl::input("side")));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "aux", b, "side", Grouping::Shuffle).unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn parallel_edge_cycle_still_detected() {
        // Parallel edges a→b plus a back-edge b→a: the parallel pair must
        // not mask the cycle.
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let a = g.add_pe(
            PeSpec::transform("a", "in", "out")
                .with_port(PortDecl::output("aux"))
                .with_port(PortDecl::input("loop")),
        );
        let b = g.add_pe(PeSpec::transform("b", "in", "out").with_port(PortDecl::input("side")));
        g.connect(s, "out", a, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "aux", b, "side", Grouping::Shuffle).unwrap();
        g.connect(b, "out", a, "loop", Grouping::Shuffle).unwrap();
        assert!(matches!(g.validate(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::DanglingInput {
            pe: "x".into(),
            port: "p".into(),
        };
        assert!(e.to_string().contains("x"));
        assert!(e.to_string().contains("p"));
    }
}
