//! The `simple` mapping: sequential in-process execution.
//!
//! dispel4py's Simple mapping runs the whole workflow in one process — the
//! reference semantics every parallel mapping must match, and the reason
//! dynamic scheduling "is ineffective with Simple mapping, where tasks are
//! executed sequentially" (§2.2). One instance per PE; all groupings
//! degenerate to instance 0, except that group-by/global semantics are
//! trivially satisfied by the single instance.

use crate::error::CoreError;
use crate::executable::Executable;
use crate::mapping::Mapping;
use crate::metrics::{RunReport, WorkerStats};
use crate::options::ExecutionOptions;
use crate::pe::EmitBuffer;
use crate::routing::{hand_over, RouteTable, Router};
use crate::task::Task;

use d4py_graph::PeId;
use std::collections::VecDeque;
use std::time::Instant;

/// Sequential single-process mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simple;

impl Mapping for Simple {
    fn name(&self) -> &'static str {
        "simple"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        let preflight_warnings = crate::preflight::preflight(exe, opts, false)?;
        let started = Instant::now();
        let graph = exe.graph();

        let mut pes: Vec<_> = graph
            .pe_ids()
            .map(|id| exe.instantiate(id))
            .collect::<Result<_, _>>()?;
        let routes = RouteTable::new(graph);
        let mut router = Router::new();
        let mut queue: VecDeque<Task> = graph.sources().into_iter().map(Task::kickoff).collect();
        // The sequential mapping is the debugging engine: panics propagate
        // to the caller instead of being contained and counted.
        let mut stats = WorkerStats::new(graph.pe_count());
        stats.warnings = preflight_warnings;

        let mut run_task = |task: Task,
                            pes: &mut Vec<Box<dyn crate::pe::ProcessingElement>>,
                            router: &mut Router,
                            queue: &mut VecDeque<Task>| {
            let mut buf = EmitBuffer::new(0, 1);
            pes[task.pe.0].process(&task.port, task.value, &mut buf);
            stats.per_pe[task.pe.0] += 1;
            route_emissions(&routes, task.pe, buf, router, queue);
        };

        // Main stream.
        while let Some(task) = queue.pop_front() {
            run_task(task, &mut pes, &mut router, &mut queue);
        }

        // Completion phase: on_done in topological order, draining any
        // emissions it produces before moving to downstream PEs.
        for id in graph.topological_order()? {
            let mut buf = EmitBuffer::new(0, 1);
            pes[id.0].on_done(&mut buf);
            route_emissions(&routes, id, buf, &mut router, &mut queue);
            while let Some(task) = queue.pop_front() {
                run_task(task, &mut pes, &mut router, &mut queue);
            }
        }

        let runtime = started.elapsed();
        stats.active = runtime;
        Ok(RunReport::new(self.name(), 1, runtime, graph, stats))
    }
}

fn route_emissions(
    routes: &RouteTable,
    from: PeId,
    mut buf: EmitBuffer,
    router: &mut Router,
    queue: &mut VecDeque<Task>,
) {
    for (port, value) in buf.drain() {
        let edges = routes.edges(from, &port);
        let mut value = Some(value);
        for (i, edge) in edges.iter().enumerate() {
            // One instance per PE: routing is needed only to consume the
            // round-robin state consistently; the target is always 0.
            let routed = value.as_ref().expect("moved only on the last edge");
            let _ = router.route(edge.id, &edge.grouping, routed, 1);
            let value = hand_over(&mut value, i + 1 == edges.len());
            queue.push_back(Task::new(edge.to_pe, edge.to_port.clone(), value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{Collector, Context, FnSource, FnTransform, ProcessingElement};
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

    fn pipeline_exe() -> (Executable, std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h2 = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..10 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(v.as_int().unwrap() * 2));
            }))
        });
        exe.register(c, move || Box::new(Collector::into_handle(h2.clone())));
        (exe.seal().unwrap(), handle)
    }

    #[test]
    fn pipeline_produces_all_items() {
        let (exe, results) = pipeline_exe();
        let report = Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        let got = results.lock();
        assert_eq!(got.len(), 10);
        let mut ints: Vec<i64> = got.iter().map(|v| v.as_int().unwrap()).collect();
        ints.sort_unstable();
        assert_eq!(ints, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        // kickoff + 10 transforms + 10 sink deliveries
        assert_eq!(report.tasks_executed, 21);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn runtime_and_process_time_match_for_single_worker() {
        let (exe, _) = pipeline_exe();
        let report = Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        assert_eq!(report.runtime, report.process_time);
    }

    #[test]
    fn on_done_emissions_are_delivered_downstream() {
        // A stateful counter that only emits its total in on_done.
        struct CountingReducer {
            seen: i64,
        }
        impl ProcessingElement for CountingReducer {
            fn process(&mut self, _p: &str, _v: Value, _ctx: &mut dyn Context) {
                self.seen += 1;
            }
            fn on_done(&mut self, ctx: &mut dyn Context) {
                ctx.emit("out", Value::Int(self.seen));
            }
        }
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out").stateful());
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h2 = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..7 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || Box::new(CountingReducer { seen: 0 }));
        exe.register(c, move || Box::new(Collector::into_handle(h2.clone())));
        let exe = exe.seal().unwrap();
        Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        let got = handle.lock();
        assert_eq!(got.as_slice(), &[Value::Int(7)]);
    }

    #[test]
    fn diamond_fan_out_duplicates_items() {
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
        let h2 = handle.clone();
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
        exe.register(k, move || Box::new(Collector::into_handle(h2.clone())));
        let exe = exe.seal().unwrap();
        Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        assert_eq!(handle.lock().len(), 2, "item must flow down both branches");
    }
}
