//! Cluster fusion: turning a static-optimization [`Clustering`] into an
//! executable workflow.
//!
//! The *staging* and *naive assignment* optimizations (§2.2; implemented in
//! [`d4py_graph::optimize`]) partition a workflow's PEs into clusters whose
//! internal edges should not pay communication costs. [`fuse`] applies such
//! a clustering: every cluster becomes one **composite PE** that executes
//! its members inline, in dataflow order, inside a single task — no queue
//! hop, no serialization, no channel — while cross-cluster edges keep their
//! original groupings.
//!
//! Port names on the fused graph are namespaced `"<pe>.<port>"` so fan-in
//! from several clusters stays distinguishable.
//!
//! [`fuse`] is the static mappings' tool: under `simple` and `multi` a
//! composite changes the partition (one process runs a whole stage). The
//! dynamic-family engine needs no fused graph — it runs a staged hop inline
//! on the worker that made its input (`mappings::engine`), keeping the
//! user's PEs in its report.
//!
//! Restrictions (checked, not assumed):
//! * a multi-member cluster must not contain a PE with a pinned instance
//!   count (fusing would change its parallelism);
//! * clusters must not be bridged by an internal affinity or broadcast
//!   grouping (staging never produces these; hand-written clusterings are
//!   validated).

use crate::error::CoreError;
use crate::executable::Executable;
use crate::pe::{Context, EmitBuffer, ProcessingElement};
use crate::task::KICKOFF_PORT;
use crate::value::Value;
use d4py_graph::optimize::Clustering;
use d4py_graph::{PeId, PeSpec, PortDecl, WorkflowGraph};
use std::collections::HashMap;
use std::sync::Arc;

/// Where an internal emission goes: another member or a composite output.
#[derive(Debug, Clone)]
enum InternalRoute {
    /// Deliver inline to member `member_idx` on its original port.
    Member { member_idx: usize, port: String },
    /// Emit on the composite's namespaced output port.
    External { composite_port: String },
}

/// Compile-time plan of one composite PE.
struct CompositePlan {
    /// Member PE ids, in topological order.
    members: Vec<PeId>,

    /// Input routing: composite input port → (member_idx, member port).
    inputs: HashMap<String, (usize, String)>,
    /// Emission routing per member: (member_idx, port) → routes.
    routes: HashMap<(usize, String), Vec<InternalRoute>>,
    /// Member indices that are sources (receive the kickoff).
    source_members: Vec<usize>,
}

/// The runtime composite PE: owns one instance of every member.
struct CompositePe {
    plan: Arc<CompositePlan>,
    instances: Vec<Box<dyn ProcessingElement>>,
}

impl CompositePe {
    /// Runs `member` on (port, value), inlining downstream members
    /// breadth-first and forwarding external emissions to `ctx`.
    fn run_member(&mut self, member: usize, port: &str, value: Value, ctx: &mut dyn Context) {
        let mut work: std::collections::VecDeque<(usize, String, Value)> =
            std::collections::VecDeque::new();
        work.push_back((member, port.to_string(), value));
        while let Some((m, port, value)) = work.pop_front() {
            let mut buf = EmitBuffer::new(ctx.instance(), ctx.instance_count());
            self.instances[m].process(&port, value, &mut buf);
            for (out_port, out_value) in buf.drain() {
                let Some(routes) = self.plan.routes.get(&(m, out_port.clone())) else {
                    continue; // unconnected member port
                };
                for route in routes {
                    match route {
                        InternalRoute::Member { member_idx, port } => {
                            work.push_back((*member_idx, port.clone(), out_value.clone()));
                        }
                        InternalRoute::External { composite_port } => {
                            ctx.emit(composite_port, out_value.clone());
                        }
                    }
                }
            }
        }
    }
}

impl ProcessingElement for CompositePe {
    fn process(&mut self, port: &str, value: Value, ctx: &mut dyn Context) {
        if port == KICKOFF_PORT {
            for m in self.plan.source_members.clone() {
                self.run_member(m, KICKOFF_PORT, Value::Null, ctx);
            }
            return;
        }
        let Some((member, member_port)) = self.plan.inputs.get(port).cloned() else {
            return; // unknown port: drop (validated at fuse time)
        };
        self.run_member(member, &member_port, value, ctx);
    }

    fn on_done(&mut self, ctx: &mut dyn Context) {
        // Flush members in topological order, inlining whatever they emit.
        for m in 0..self.instances.len() {
            let mut buf = EmitBuffer::new(ctx.instance(), ctx.instance_count());
            self.instances[m].on_done(&mut buf);
            for (out_port, out_value) in buf.drain() {
                let Some(routes) = self.plan.routes.get(&(m, out_port.clone())) else {
                    continue;
                };
                for route in routes.clone() {
                    match route {
                        InternalRoute::Member { member_idx, port } => {
                            // Later members still have on_done ahead of them,
                            // so inline delivery preserves dataflow order.
                            self.run_member(member_idx, &port, out_value.clone(), ctx);
                        }
                        InternalRoute::External { composite_port } => {
                            ctx.emit(&composite_port, out_value.clone());
                        }
                    }
                }
            }
        }
    }
}

fn namespaced(pe_name: &str, port: &str) -> String {
    format!("{pe_name}.{port}")
}

/// Applies `clustering` to `exe`, producing a fused executable whose PEs
/// are the clusters. Single-member clusters pass through unchanged (same
/// spec, same factory).
pub fn fuse(exe: &Executable, clustering: &Clustering) -> Result<Executable, CoreError> {
    let graph = exe.graph();
    let order = graph.topological_order()?;
    let topo_pos: HashMap<PeId, usize> = order.iter().enumerate().map(|(i, id)| (*id, i)).collect();

    // Validate and normalise clusters (members in topological order).
    let mut clusters: Vec<Vec<PeId>> = Vec::new();
    for cluster in &clustering.clusters {
        let mut members = cluster.clone();
        members.sort_by_key(|id| topo_pos[id]);
        if members.len() > 1 {
            for &pe in &members {
                let spec = graph.pe(pe).ok_or(CoreError::MissingFactory(pe))?;
                if spec.instances.is_some() {
                    return Err(CoreError::UnsupportedWorkflow {
                        mapping: "fuse",
                        reason: format!(
                            "PE '{}' pins an instance count and cannot be fused",
                            spec.name
                        ),
                    });
                }
            }
        }
        clusters.push(members);
    }
    let cluster_of: HashMap<PeId, usize> = clusters
        .iter()
        .enumerate()
        .flat_map(|(ci, ms)| ms.iter().map(move |&pe| (pe, ci)))
        .collect();

    // Validate internal edges: no affinity/broadcast groupings inside a
    // multi-member cluster (their semantics need real instance routing).
    for c in graph.connections() {
        if cluster_of[&c.from_pe] == cluster_of[&c.to_pe]
            && clusters[cluster_of[&c.from_pe]].len() > 1
            && (c.grouping.requires_affinity() || c.grouping.is_broadcast())
        {
            return Err(CoreError::UnsupportedWorkflow {
                mapping: "fuse",
                reason: format!(
                    "internal edge into '{}' carries a {:?} grouping",
                    graph.pe(c.to_pe).map(|s| s.name.as_str()).unwrap_or("?"),
                    c.grouping
                ),
            });
        }
    }

    // Build the fused graph.
    let mut fused = WorkflowGraph::new(format!("{}(fused)", graph.name()));
    let mut plans: Vec<CompositePlan> = Vec::new();
    for members in &clusters {
        let member_names: Vec<String> = members
            .iter()
            .map(|&pe| graph.pe(pe).map(|s| s.name.clone()).unwrap_or_default())
            .collect();
        let member_idx: HashMap<PeId, usize> =
            members.iter().enumerate().map(|(i, &pe)| (pe, i)).collect();

        let mut spec = PeSpec::new(member_names.join("+"), vec![]);
        spec.stateful = members.iter().any(|&pe| graph.is_effectively_stateful(pe));
        if members.len() == 1 {
            spec.instances = graph.pe(members[0]).and_then(|s| s.instances);
        }

        let mut plan = CompositePlan {
            members: members.clone(),
            inputs: HashMap::new(),
            routes: HashMap::new(),
            source_members: Vec::new(),
        };

        for (mi, &pe) in members.iter().enumerate() {
            let pe_spec = graph.pe(pe).expect("cluster members come from this graph");
            // Sources inside the cluster take the composite kickoff.
            if graph.incoming(pe).next().is_none() {
                plan.source_members.push(mi);
            }
            // External inputs: connections arriving from other clusters.
            for (_, conn) in graph.incoming(pe) {
                if cluster_of[&conn.from_pe] != cluster_of[&pe] {
                    let cport = namespaced(&pe_spec.name, &conn.to_port);
                    if spec
                        .port(&cport, d4py_graph::PortDirection::Input)
                        .is_none()
                    {
                        spec.ports.push(PortDecl::input(cport.clone()));
                    }
                    plan.inputs.insert(cport, (mi, conn.to_port.clone()));
                }
            }
            // Emission routing.
            for (_, conn) in graph.outgoing(pe) {
                let entry = plan.routes.entry((mi, conn.from_port.clone())).or_default();
                if cluster_of[&conn.to_pe] == cluster_of[&pe] {
                    entry.push(InternalRoute::Member {
                        member_idx: member_idx[&conn.to_pe],
                        port: conn.to_port.clone(),
                    });
                } else {
                    let cport = namespaced(&pe_spec.name, &conn.from_port);
                    if spec
                        .port(&cport, d4py_graph::PortDirection::Output)
                        .is_none()
                    {
                        spec.ports.push(PortDecl::output(cport.clone()));
                    }
                    // One External route per composite port: the *outer*
                    // engine fans a port out across its connections, so a
                    // second push here would duplicate deliveries.
                    let already = entry.iter().any(|r| {
                        matches!(r, InternalRoute::External { composite_port } if *composite_port == cport)
                    });
                    if !already {
                        entry.push(InternalRoute::External {
                            composite_port: cport,
                        });
                    }
                }
            }
        }
        // A cluster that swallowed the whole workflow (source through sink)
        // has no external ports; declare a vestigial output so it validates
        // as a source. Nothing ever emits on it.
        if spec.ports.is_empty() {
            spec.ports.push(PortDecl::output("__fused_out__"));
        }
        fused.add_pe(spec);
        plans.push(plan);
    }

    // Cross-cluster connections.
    for c in graph.connections() {
        let (from_c, to_c) = (cluster_of[&c.from_pe], cluster_of[&c.to_pe]);
        if from_c == to_c {
            continue;
        }
        let from_name = &graph
            .pe(c.from_pe)
            .expect("connection endpoints come from this graph")
            .name;
        let to_name = &graph
            .pe(c.to_pe)
            .expect("connection endpoints come from this graph")
            .name;
        fused
            .connect(
                d4py_graph::PeId(from_c),
                namespaced(from_name, &c.from_port),
                d4py_graph::PeId(to_c),
                namespaced(to_name, &c.to_port),
                c.grouping.clone(),
            )
            .map_err(CoreError::Graph)?;
    }

    // Attach factories: composites instantiate all members; singletons pass
    // straight through.
    let mut fused_exe = Executable::new(fused)?;
    for (ci, plan) in plans.into_iter().enumerate() {
        let plan = Arc::new(plan);
        let exe = exe.clone();
        fused_exe.register(d4py_graph::PeId(ci), move || {
            let instances = plan
                .members
                .iter()
                .map(|&pe| exe.instantiate(pe).expect("member factory exists"))
                .collect();
            Box::new(CompositePe {
                plan: plan.clone(),
                instances,
            })
        });
    }
    fused_exe.seal()
}

/// Convenience: fuse using the shape-based *staging* clustering.
pub fn fuse_staged(exe: &Executable) -> Result<Executable, CoreError> {
    let clustering = d4py_graph::optimize::staging(exe.graph());
    fuse(exe, &clustering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::mappings::{DynMulti, Simple};
    use crate::options::ExecutionOptions;
    use crate::pe::{Collector, FnSource, FnTransform};
    use d4py_graph::Grouping;

    fn pipeline_exe() -> (Executable, std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) {
        let mut g = WorkflowGraph::new("p");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::transform("c", "in", "out"));
        let d = g.add_pe(PeSpec::sink("d", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        g.connect(c, "out", d, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..30 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(v.as_int().unwrap() * 2));
            }))
        });
        exe.register(c, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(v.as_int().unwrap() + 1));
            }))
        });
        exe.register(d, move || Box::new(Collector::into_handle(h.clone())));
        (exe.seal().unwrap(), handle)
    }

    fn sorted_ints(h: &std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) -> Vec<i64> {
        let mut v: Vec<i64> = h.lock().iter().map(|x| x.as_int().unwrap()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn staging_fuses_a_pipeline_into_source_plus_body() {
        let (exe, results) = pipeline_exe();
        let fused = fuse_staged(&exe).unwrap();
        assert_eq!(
            fused.graph().pe_count(),
            2,
            "the source stage plus the fused b+c+d body"
        );
        Simple.execute(&fused, &ExecutionOptions::new(1)).unwrap();
        assert_eq!(
            sorted_ints(&results),
            (0..30).map(|i| i * 2 + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn full_fusion_still_works_when_forced() {
        // A hand-built clustering that swallows the whole pipeline — legal,
        // single task, vestigial output port.
        let (exe, results) = pipeline_exe();
        let all: Vec<d4py_graph::PeId> = exe.graph().pe_ids().collect();
        let fused = fuse(
            &exe,
            &Clustering {
                clusters: vec![all],
            },
        )
        .unwrap();
        assert_eq!(fused.graph().pe_count(), 1);
        Simple.execute(&fused, &ExecutionOptions::new(1)).unwrap();
        assert_eq!(
            sorted_ints(&results),
            (0..30).map(|i| i * 2 + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fused_and_unfused_agree_under_dynamic_scheduling() {
        let (exe, r1) = pipeline_exe();
        DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
        let (exe, r2) = pipeline_exe();
        let fused = fuse_staged(&exe).unwrap();
        DynMulti.execute(&fused, &ExecutionOptions::new(4)).unwrap();
        assert_eq!(sorted_ints(&r1), sorted_ints(&r2));
    }

    #[test]
    fn fusion_preserves_cross_cluster_groupings() {
        // a → b (shuffle, fusable) and b → c (group-by, stage boundary).
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::group_by("k"))
            .unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || Box::new(FnSource(|_: &mut dyn Context| {})));
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", v)
            }))
        });
        exe.register(c, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let exe = exe.seal().unwrap();

        let fused = fuse_staged(&exe).unwrap();
        // Source stays alone, so nothing fuses here: 3 singleton stages.
        assert_eq!(fused.graph().pe_count(), 3);
        let group_by_edges: Vec<_> = fused
            .graph()
            .connections()
            .iter()
            .filter(|c| c.grouping == Grouping::group_by("k"))
            .collect();
        assert_eq!(group_by_edges.len(), 1, "group-by boundary preserved");
        assert!(fused
            .graph()
            .is_effectively_stateful(group_by_edges[0].to_pe));
    }

    #[test]
    fn fusion_rejects_pinned_members() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || Box::new(FnSource(|_: &mut dyn Context| {})));
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let exe = exe.seal().unwrap();
        // Hand-build a clustering fusing a (no pin) with a *pretend* pinned
        // b by editing the graph is awkward; instead pin b in a new graph.
        let mut g = WorkflowGraph::new("t2");
        let a2 = g.add_pe(PeSpec::source("a", "out"));
        let b2 = g.add_pe(PeSpec::sink("b", "in").with_instances(2));
        g.connect(a2, "out", b2, "in", Grouping::Shuffle).unwrap();
        let mut exe2 = Executable::new(g).unwrap();
        exe2.register(a2, || Box::new(FnSource(|_: &mut dyn Context| {})));
        exe2.register(b2, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let exe2 = exe2.seal().unwrap();
        let clustering = Clustering {
            clusters: vec![vec![a2, b2]],
        };
        assert!(matches!(
            fuse(&exe2, &clustering),
            Err(CoreError::UnsupportedWorkflow {
                mapping: "fuse",
                ..
            })
        ));
        let _ = exe;
    }

    #[test]
    fn fused_on_done_chains_stateful_flushes() {
        // a → counter → sink, all fused: counter emits its total in
        // on_done, which must reach the sink inside the composite.
        struct Counter {
            n: i64,
        }
        impl ProcessingElement for Counter {
            fn process(&mut self, _p: &str, _v: Value, _ctx: &mut dyn Context) {
                self.n += 1;
            }
            fn on_done(&mut self, ctx: &mut dyn Context) {
                ctx.emit("out", Value::Int(self.n));
            }
        }
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..9 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || Box::new(Counter { n: 0 }));
        exe.register(c, move || Box::new(Collector::into_handle(h.clone())));
        let exe = exe.seal().unwrap();
        let fused = fuse_staged(&exe).unwrap();
        Simple.execute(&fused, &ExecutionOptions::new(1)).unwrap();
        assert_eq!(handle.lock().as_slice(), &[Value::Int(9)]);
    }

    #[test]
    fn diamond_fuses_into_expected_stages() {
        // s → (l, r) → k: fan-out and fan-in prevent fusion entirely.
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let l = g.add_pe(PeSpec::transform("l", "in", "out"));
        let r = g.add_pe(PeSpec::transform("r", "in", "out"));
        let k = g.add_pe(PeSpec::sink("k", "in"));
        g.connect(s, "out", l, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "out", r, "in", Grouping::Shuffle).unwrap();
        g.connect(l, "out", k, "in", Grouping::Shuffle).unwrap();
        g.connect(r, "out", k, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(s, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(1))
            }))
        });
        for pe in [l, r] {
            exe.register(pe, || {
                Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                    ctx.emit("out", v)
                }))
            });
        }
        exe.register(k, move || Box::new(Collector::into_handle(h.clone())));
        let exe = exe.seal().unwrap();
        let fused = fuse_staged(&exe).unwrap();
        assert_eq!(fused.graph().pe_count(), 4, "diamond cannot fuse");
        Simple.execute(&fused, &ExecutionOptions::new(1)).unwrap();
        assert_eq!(handle.lock().len(), 2, "both branches deliver");
    }

    #[test]
    fn member_names_survive_in_composite_name() {
        let (exe, _) = pipeline_exe();
        let fused = fuse_staged(&exe).unwrap();
        let names: Vec<&str> = fused
            .graph()
            .pes()
            .map(|(_, spec)| spec.name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b+c+d"]);
    }
}
