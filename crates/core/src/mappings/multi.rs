//! The `multi` mapping: static multiprocessing.
//!
//! The native parallel mapping and the paper's baseline. Instances are
//! pre-assigned to workers by [`d4py_graph::partition`] (one worker per
//! instance; surplus workers stay idle, as in Figure 1), data flows through
//! per-instance channels, and termination uses classic poison pills: when an
//! instance has received one pill from every upstream producer instance, it
//! flushes (`on_done`), forwards pills, and exits.
//!
//! Because instances are pinned, `multi` "can effectively manage both
//! stateful and stateless applications" — it is the only baseline usable for
//! the stateful sentiment workflow (§5).

use crate::error::CoreError;
use crate::executable::Executable;
use crate::mapping::Mapping;
use crate::metrics::{RunReport, WorkerStats};
use crate::options::ExecutionOptions;
use crate::pe::{process_guarded, EmitBuffer, ProcessingElement};
use crate::routing::{Route, RouteTable, Router};
use crate::task::KICKOFF_PORT;
use crate::value::Value;
use d4py_graph::{partition, InstanceId, PartitionPlan, PeId, WorkflowGraph};
use d4py_sync::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Message delivered to a static PE instance.
#[derive(Debug)]
enum Msg {
    /// A data item for an input port.
    Data(String, Value),
    /// One upstream producer instance finished.
    Pill,
}

/// Static multiprocessing mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct Multi;

impl Mapping for Multi {
    fn name(&self) -> &'static str {
        "multi"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        let preflight_warnings = crate::preflight::preflight(exe, opts, false)?;
        let graph = exe.graph();
        let plan = partition::partition(graph, opts.workers).map_err(|e| {
            CoreError::UnsupportedWorkflow {
                mapping: "multi",
                reason: e.to_string(),
            }
        })?;
        let started = Instant::now();

        let instances = plan.instances();

        // One channel per instance, indexed [pe][instance].
        let mut senders: Vec<Vec<Sender<Msg>>> = Vec::with_capacity(graph.pe_count());
        let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> = Vec::with_capacity(graph.pe_count());
        for pe in graph.pe_ids() {
            let n = plan.instances_of(pe);
            let mut tx_row = Vec::with_capacity(n);
            let mut rx_row = Vec::with_capacity(n);
            for _ in 0..n {
                let (tx, rx) = unbounded();
                tx_row.push(tx);
                rx_row.push(Some(rx));
            }
            senders.push(tx_row);
            receivers.push(rx_row);
        }
        let senders = Arc::new(senders);

        let plan = Arc::new(plan);
        let routes = Arc::new(RouteTable::new(graph));
        let mut handles = Vec::with_capacity(instances.len());
        for inst in instances.iter().copied() {
            let rx = receivers[inst.pe.0][inst.index]
                .take()
                .expect("receiver taken twice");
            let pe_impl = exe.instantiate(inst.pe)?;
            let senders = senders.clone();
            let graph = exe.graph_arc();
            let plan = plan.clone();
            let routes = routes.clone();
            handles.push(std::thread::spawn(move || {
                instance_worker(inst, pe_impl, rx, &graph, &plan, &routes, &senders)
            }));
        }

        let mut stats = WorkerStats::new(graph.pe_count());
        stats.warnings = preflight_warnings;
        for h in handles {
            let worker = h
                .join()
                .map_err(|_| CoreError::WorkerPanic { worker: usize::MAX })?;
            stats.merge(&worker);
        }

        let runtime = started.elapsed();
        Ok(RunReport::new(
            self.name(),
            opts.workers,
            runtime,
            graph,
            stats,
        ))
    }
}

/// Pills an instance of `pe` must collect before finishing: one per upstream
/// producer instance per connection.
fn expected_pills(graph: &WorkflowGraph, plan: &PartitionPlan, pe: PeId) -> usize {
    graph
        .incoming(pe)
        .map(|(_, c)| plan.instances_of(c.from_pe))
        .sum()
}

fn instance_worker(
    inst: InstanceId,
    mut pe_impl: Box<dyn ProcessingElement>,
    rx: Receiver<Msg>,
    graph: &WorkflowGraph,
    plan: &PartitionPlan,
    routes: &RouteTable,
    senders: &[Vec<Sender<Msg>>],
) -> WorkerStats {
    let active_since = Instant::now();
    let expected_pills = expected_pills(graph, plan, inst.pe);
    let mut stats = WorkerStats::new(graph.pe_count());
    let mut router = Router::new();
    let n_instances = plan.instances_of(inst.pe);
    // One guarded call into a fresh buffer; a panicking call's emissions
    // are discarded with its item.
    let guarded = |pe: &mut dyn ProcessingElement, port: &str, value, stats: &mut WorkerStats| {
        let mut buf = EmitBuffer::new(inst.index, n_instances);
        if process_guarded(pe, port, value, &mut buf) {
            stats.per_pe[inst.pe.0] += 1;
        } else {
            stats.failed += 1;
            buf.drain();
        }
        buf
    };

    let is_source = expected_pills == 0;
    if is_source {
        // Sources receive a synthetic kickoff and emit their stream.
        let buf = guarded(&mut *pe_impl, KICKOFF_PORT, Value::Null, &mut stats);
        deliver(routes, plan, inst.pe, buf, &mut router, senders);
    } else {
        let mut pills = 0usize;
        while pills < expected_pills {
            match rx.recv() {
                Ok(Msg::Data(port, value)) => {
                    let buf = guarded(&mut *pe_impl, &port, value, &mut stats);
                    deliver(routes, plan, inst.pe, buf, &mut router, senders);
                }
                Ok(Msg::Pill) => pills += 1,
                Err(_) => break, // all senders dropped: treat as complete
            }
        }
    }

    // Flush and propagate completion.
    let mut buf = EmitBuffer::new(inst.index, n_instances);
    pe_impl.on_done(&mut buf);
    deliver(routes, plan, inst.pe, buf, &mut router, senders);
    for (_, conn) in graph.outgoing(inst.pe) {
        for tx in &senders[conn.to_pe.0] {
            let _ = tx.send(Msg::Pill);
        }
    }
    stats.active = active_since.elapsed();
    stats
}

/// Routes every buffered emission to the target instances' channels,
/// grouped per target instance and flushed as batch sends: one wakeup per
/// target per `process()` call instead of one per tuple. Grouping keys on
/// `(PE, instance)` in emission order, so the per-producer FIFO each
/// receiving instance observes is unchanged.
fn deliver(
    routes: &RouteTable,
    plan: &PartitionPlan,
    from: PeId,
    mut buf: EmitBuffer,
    router: &mut Router,
    senders: &[Vec<Sender<Msg>>],
) {
    let mut batches: std::collections::HashMap<(usize, usize), Vec<Msg>> =
        std::collections::HashMap::new();
    for (port, value) in buf.drain() {
        for edge in routes.edges(from, &port) {
            let n = plan.instances_of(edge.to_pe);
            match router.route(edge.id, &edge.grouping, &value, n) {
                Route::One(i) => {
                    batches
                        .entry((edge.to_pe.0, i))
                        .or_default()
                        .push(Msg::Data(edge.to_port.clone(), value.clone()));
                }
                Route::All => {
                    for i in 0..senders[edge.to_pe.0].len() {
                        batches
                            .entry((edge.to_pe.0, i))
                            .or_default()
                            .push(Msg::Data(edge.to_port.clone(), value.clone()));
                    }
                }
            }
        }
    }
    for ((pe, i), msgs) in batches {
        let _ = senders[pe][i].send_batch(msgs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{Collector, Context, FnSource, FnTransform, ProcessingElement};
    use d4py_graph::{Grouping, PeSpec};
    use d4py_sync::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn run(exe: &Executable, workers: usize) -> RunReport {
        Multi.execute(exe, &ExecutionOptions::new(workers)).unwrap()
    }

    #[test]
    fn linear_pipeline_delivers_everything() {
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
                for i in 0..50 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(v.as_int().unwrap() + 100));
            }))
        });
        exe.register(c, move || Box::new(Collector::into_handle(h.clone())));
        let exe = exe.seal().unwrap();
        let report = run(&exe, 8);
        let mut got: Vec<i64> = handle.lock().iter().map(|v| v.as_int().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (100..150).collect::<Vec<_>>());
        assert_eq!(report.mapping, "multi");
        assert!(report.tasks_executed >= 101);
    }

    #[test]
    fn too_few_workers_is_unsupported() {
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
        let err = Multi.execute(&exe, &ExecutionOptions::new(1)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::UnsupportedWorkflow {
                mapping: "multi",
                ..
            }
        ));
    }

    #[test]
    fn group_by_routes_keys_to_stable_instances() {
        // Each instance of the grouped PE records which keys it saw; no key
        // may appear on two instances.
        struct KeyRecorder {
            seen: Arc<Mutex<Vec<Vec<String>>>>,
            instance: Option<usize>,
            keys: Vec<String>,
        }
        impl ProcessingElement for KeyRecorder {
            fn process(&mut self, _p: &str, v: Value, ctx: &mut dyn Context) {
                self.instance = Some(ctx.instance());
                let k = v.get("state").unwrap().as_str().unwrap().to_string();
                if !self.keys.contains(&k) {
                    self.keys.push(k);
                }
            }
            fn on_done(&mut self, _ctx: &mut dyn Context) {
                if let Some(i) = self.instance {
                    self.seen.lock()[i] = self.keys.clone();
                }
            }
        }

        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in").stateful().with_instances(3));
        g.connect(a, "out", b, "in", Grouping::group_by("state"))
            .unwrap();
        let seen = Arc::new(Mutex::new(vec![Vec::new(); 3]));
        let s2 = seen.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                let states = ["TX", "CA", "NY", "WA", "OH"];
                for round in 0..20 {
                    let s = states[round % states.len()];
                    ctx.emit("out", Value::map([("state", s)]));
                }
            }))
        });
        exe.register(b, move || {
            Box::new(KeyRecorder {
                seen: s2.clone(),
                instance: None,
                keys: vec![],
            })
        });
        let exe = exe.seal().unwrap();
        run(&exe, 4);
        let seen = seen.lock();
        let mut all: Vec<&String> = seen.iter().flatten().collect();
        let total: usize = all.len();
        all.sort();
        all.dedup();
        assert_eq!(
            total,
            all.len(),
            "a key appeared on two instances: {seen:?}"
        );
        assert_eq!(all.len(), 5, "all five states must be seen somewhere");
    }

    #[test]
    fn global_grouping_funnels_to_instance_zero() {
        let counts = Arc::new(Mutex::new(vec![0usize; 2]));
        struct InstanceCounter {
            counts: Arc<Mutex<Vec<usize>>>,
        }
        impl ProcessingElement for InstanceCounter {
            fn process(&mut self, _p: &str, _v: Value, ctx: &mut dyn Context) {
                self.counts.lock()[ctx.instance()] += 1;
            }
        }
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in").stateful().with_instances(2));
        g.connect(a, "out", b, "in", Grouping::Global).unwrap();
        let c2 = counts.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..12 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, move || Box::new(InstanceCounter { counts: c2.clone() }));
        let exe = exe.seal().unwrap();
        run(&exe, 4);
        assert_eq!(*counts.lock(), vec![12, 0]);
    }

    #[test]
    fn one_to_all_broadcasts_to_every_instance() {
        let count = Arc::new(AtomicU64::new(0));
        let c2 = count.clone();
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in").with_instances(3));
        g.connect(a, "out", b, "in", Grouping::OneToAll).unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..4 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, move || {
            Box::new(crate::pe::CountingSink::into_handle(c2.clone()))
        });
        let exe = exe.seal().unwrap();
        run(&exe, 4);
        assert_eq!(count.load(Ordering::Relaxed), 12, "4 items × 3 instances");
    }

    #[test]
    fn multi_instance_shuffle_balances_work() {
        let counts = Arc::new(Mutex::new(std::collections::HashMap::<usize, usize>::new()));
        struct PerInstanceCounter {
            counts: Arc<Mutex<std::collections::HashMap<usize, usize>>>,
        }
        impl ProcessingElement for PerInstanceCounter {
            fn process(&mut self, _p: &str, _v: Value, ctx: &mut dyn Context) {
                *self.counts.lock().entry(ctx.instance()).or_insert(0) += 1;
            }
        }
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in").with_instances(4));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let c2 = counts.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..40 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, move || {
            Box::new(PerInstanceCounter { counts: c2.clone() })
        });
        let exe = exe.seal().unwrap();
        run(&exe, 5);
        let counts = counts.lock();
        assert_eq!(counts.len(), 4, "all four instances used");
        for (&inst, &n) in counts.iter() {
            assert_eq!(n, 10, "instance {inst} should see exactly 10 of 40");
        }
    }

    #[test]
    fn process_time_counts_all_workers() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ctx.emit("out", Value::Int(1));
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let exe = exe.seal().unwrap();
        let report = run(&exe, 2);
        // Both instance workers live ≥ the source's 20ms (the sink waits for
        // the source's pill), so process time ≈ 2 × runtime.
        assert!(report.process_time >= report.runtime);
    }
}
