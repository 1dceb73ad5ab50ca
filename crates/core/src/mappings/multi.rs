//! The `multi` mapping: static multiprocessing, the front door.
//!
//! The native parallel mapping and the paper's baseline. Instances are
//! pre-assigned to workers by [`d4py_graph::partition`] (one worker per
//! instance; surplus workers stay idle, as in Figure 1). This module only
//! plans that placement: every instance is a slot of the engine core
//! (`mappings::engine`) with a queue of its own, and no worker pops the
//! global queue. Every PE is therefore a stage, flushed (`on_done`) in
//! topological order by the settles that take the outstanding-task count
//! to zero, and every hop is one queue trip. A source is bounded by its
//! credit like any other: its worker waits once it is a credit ahead.
//!
//! A clustering (§2.2's staging or naive assignment) is a placement too,
//! not a graph rewrite: [`Multi::clustered`] partitions the clusters as if
//! each were one PE, and each instance of a cluster is one slot whose
//! worker holds an instance of every member. A hop inside a cluster is a
//! call that worker makes itself, not a queue trip; a task from outside
//! the cluster into any member is routed over the cluster's slots by the
//! edge's grouping; a cluster is one stage, whose Flush runs its members'
//! `on_done` in topological order.
//!
//! Because instances are pinned, `multi` "can effectively manage both
//! stateful and stateless applications" — it is the only baseline usable for
//! the stateful sentiment workflow (§5).

use super::engine::{self, Plan, Slot};
use crate::error::CoreError;
use crate::executable::Executable;
use crate::fault::FaultPlan;
use crate::mapping::Mapping;
use crate::metrics::RunReport;
use crate::options::ExecutionOptions;
use crate::queue::{TaskQueue, WorkStealQueue};
use d4py_graph::optimize::Clustering;
use d4py_graph::{partition, PeId, PeKind, WorkflowGraph};
use std::sync::Arc;
use std::time::Instant;

/// Static multiprocessing mapping: one slot per PE instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Multi;

/// `multi` with a clustering placed on it; see [`Multi::clustered`].
#[derive(Debug, Clone)]
pub struct Clustered(Clustering);

impl Multi {
    /// `multi` placing `clustering`: one slot per instance of a cluster,
    /// whose worker calls the hops inside the cluster itself. Running it
    /// fails with [`CoreError::UnsupportedWorkflow`] when the clusters do
    /// not partition the PEs or form a cycle, when a multi-member cluster
    /// holds a PE that pins its instance count, when an edge inside a
    /// cluster groups by key, funnels or broadcasts, when a cluster holding
    /// a source takes input from outside it (its worker waits for credit,
    /// so nobody else would pop its queue), and on the analyzer's
    /// `D4PY102` (a stateful member behind an unkeyed cluster entry).
    pub fn clustered(clustering: Clustering) -> Clustered {
        Clustered(clustering)
    }
}

impl Mapping for Multi {
    fn name(&self) -> &'static str {
        "multi"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        place(exe, opts, &Clustering::singletons(exe.graph()))
    }
}

impl Mapping for Clustered {
    fn name(&self) -> &'static str {
        "multi"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        place(exe, opts, &self.0)
    }
}

fn unsupported(reason: String) -> CoreError {
    CoreError::UnsupportedWorkflow {
        mapping: "multi",
        reason,
    }
}

/// Plans and runs the placement of `clustering`: its clusters partitioned
/// over the workers, one slot per instance of a cluster.
fn place(
    exe: &Executable,
    opts: &ExecutionOptions,
    clustering: &Clustering,
) -> Result<RunReport, CoreError> {
    let warnings = crate::preflight::preflight(exe, opts, false)?;
    let graph = exe.graph();
    let clustering = checked(graph, clustering)?;
    let partitioned = partition::partition(graph, &clustering, opts.workers)
        .map_err(|e| unsupported(e.to_string()))?;
    let started = Instant::now();
    let queue = || -> Arc<dyn TaskQueue> { Arc::new(WorkStealQueue::new(1)) };
    let mut slots = Vec::new();
    for members in &clustering.clusters {
        for instance in 0..partitioned.instances_of(members[0]) {
            let pes = members.clone();
            slots.push(Slot {
                pes,
                instance,
                queue: queue(),
            });
        }
    }
    let healthy = FaultPlan::default();
    let plan = Plan {
        exe,
        opts,
        mapping: "multi",
        started,
        global: queue(),
        pool: 0,
        slots,
        clustering,
        state: None,
        faults: &healthy,
        warnings,
    };
    engine::run(plan, None)
}

/// `clustering` in dataflow order, or why `multi` cannot place it.
fn checked(graph: &WorkflowGraph, clustering: &Clustering) -> Result<Clustering, CoreError> {
    let clustering = clustering.in_dataflow_order(graph).ok_or_else(|| {
        unsupported("the clusters must partition the PEs and form no cycle".into())
    })?;
    let cluster = |pe| &clustering.clusters[clustering.cluster_of(pe).expect("a partition")];
    let name = |pe| graph.pe(pe).map_or("?", |spec| spec.name.as_str());
    let is_source = |pe: &PeId| graph.pe(*pe).is_some_and(|s| s.kind() == PeKind::Source);
    let pins =
        |pe: PeId| cluster(pe).len() > 1 && graph.pe(pe).is_some_and(|s| s.instances.is_some());
    for c in graph.connections() {
        let (from, to) = (cluster(c.from_pe), cluster(c.to_pe));
        let (pe, why) = if let Some(pe) = [c.from_pe, c.to_pe].into_iter().find(|&pe| pins(pe)) {
            (pe, "pins an instance count and cannot share a cluster")
        } else if from == to && (c.grouping.requires_affinity() || c.grouping.is_broadcast()) {
            (c.to_pe, "takes a keyed or broadcast edge in its cluster")
        } else if from != to && to.iter().any(is_source) {
            (c.to_pe, "takes outside input into a cluster with a source")
        } else {
            continue;
        };
        return Err(unsupported(format!("PE '{}' {why}", name(pe))));
    }
    let finding = graph.check_clustering(&clustering).into_iter().next();
    finding.map_or(Ok(clustering), |f| {
        Err(unsupported(format!("{}: {}", f.code, f.message)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mappings::Simple;
    use crate::pe::{Collector, Context, FnSource, FnTransform, ProcessingElement};
    use crate::value::Value;
    use d4py_graph::optimize::staging;
    use d4py_graph::{Grouping, PeId, PeSpec, WorkflowGraph};
    use d4py_sync::Mutex;
    use std::collections::HashMap;
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

    /// a (`0..30`) → b (×2) → c (+1) → d, collecting.
    fn pipeline_exe() -> (Executable, Arc<Mutex<Vec<Value>>>) {
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
                (0..30).for_each(|i| ctx.emit("out", Value::Int(i)));
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

    fn sorted_ints(h: &Mutex<Vec<Value>>) -> Vec<i64> {
        let mut v: Vec<i64> = h.lock().iter().map(|x| x.as_int().unwrap()).collect();
        v.sort_unstable();
        v
    }

    fn run_clustered(exe: &Executable, clusters: Vec<Vec<PeId>>, workers: usize) -> RunReport {
        let clustered = Multi::clustered(Clustering { clusters });
        clustered
            .execute(exe, &ExecutionOptions::new(workers))
            .unwrap()
    }

    #[test]
    fn staging_places_a_pipeline_on_a_source_slot_and_a_body_slot() {
        let (exe, results) = pipeline_exe();
        let staged = staging(exe.graph());
        assert_eq!(staged.len(), 2, "the source, then the b+c+d body");
        let too_few = Multi::clustered(staged.clone()).execute(&exe, &ExecutionOptions::new(1));
        assert!(matches!(
            too_few,
            Err(CoreError::UnsupportedWorkflow {
                mapping: "multi",
                ..
            })
        ));
        let report = run_clustered(&exe, staged.clusters, 2);
        assert_eq!(
            sorted_ints(&results),
            (0..30).map(|i| i * 2 + 1).collect::<Vec<_>>()
        );
        let calls: Vec<u64> = report.per_pe_tasks.iter().map(|(_, n)| *n).collect();
        assert_eq!(calls, [1, 30, 30, 30], "the report keeps the user's PEs");
    }

    #[test]
    fn a_cluster_may_hold_the_whole_pipeline_with_its_source() {
        // One cluster: one instance, whatever the worker count, whose
        // worker makes every call of the run.
        for workers in [1, 3] {
            let (exe, results) = pipeline_exe();
            let all: Vec<PeId> = exe.graph().pe_ids().collect();
            let report = run_clustered(&exe, vec![all], workers);
            assert_eq!(
                sorted_ints(&results),
                (0..30).map(|i| i * 2 + 1).collect::<Vec<_>>()
            );
            assert_eq!(report.tasks_executed, 1 + 3 * 30);
        }
    }

    #[test]
    fn a_stateful_on_done_chain_flushes_inside_a_cluster() {
        // a → b → c → d with {b, c, d} one cluster: b and c sum what they
        // get and emit the total in `on_done`. c's total reaches d only if
        // b's `on_done` output is called inline before c's `on_done`.
        struct Summer(i64);
        impl ProcessingElement for Summer {
            fn process(&mut self, _p: &str, v: Value, _ctx: &mut dyn Context) {
                self.0 += v.as_int().unwrap();
            }
            fn on_done(&mut self, ctx: &mut dyn Context) {
                ctx.emit("out", Value::Int(self.0));
            }
        }
        let mut g = WorkflowGraph::new("t");
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
                (0..10).for_each(|i| ctx.emit("out", Value::Int(i)));
            }))
        });
        exe.register(b, || Box::new(Summer(0)));
        exe.register(c, || Box::new(Summer(0)));
        exe.register(d, move || Box::new(Collector::into_handle(h.clone())));
        let exe = exe.seal().unwrap();
        run_clustered(&exe, staging(exe.graph()).clusters, 2);
        assert_eq!(handle.lock().as_slice(), &[Value::Int(45)]);
    }

    #[test]
    fn a_group_by_boundary_between_clusters_routes_by_key() {
        // a → b (shuffle) → c (group-by "k") → d: staging keeps the group-by
        // edge between clusters and places {c, d} together, so each key
        // reaches one instance of the cluster, and d sees it there too.
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::transform("c", "in", "out").stateful());
        let d = g.add_pe(PeSpec::sink("d", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::group_by("k"))
            .unwrap();
        g.connect(c, "out", d, "in", Grouping::Shuffle).unwrap();
        type Seen = Arc<Mutex<Vec<(&'static str, String, usize)>>>;
        let seen: Seen = Arc::default();
        let record = |pe: &'static str, seen: &Seen| {
            let seen = seen.clone();
            move || -> Box<dyn ProcessingElement> {
                let seen = seen.clone();
                Box::new(FnTransform(
                    move |_: &str, v: Value, ctx: &mut dyn Context| {
                        let key = v.get("k").unwrap().as_str().unwrap().to_string();
                        seen.lock().push((pe, key, ctx.instance()));
                        ctx.emit("out", v);
                    },
                ))
            }
        };
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                let keys = ["TX", "CA", "NY", "WA", "OH"];
                (0..40).for_each(|i| ctx.emit("out", Value::map([("k", keys[i % 5])])));
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", v)
            }))
        });
        exe.register(c, record("c", &seen));
        exe.register(d, record("d", &seen));
        let exe = exe.seal().unwrap();
        let staged = staging(exe.graph());
        assert_eq!(staged.len(), 3, "{staged:?}");
        // {a} takes one worker; {b} and {c, d} two instances each.
        run_clustered(&exe, staged.clusters, 5);
        let seen = seen.lock();
        assert_eq!(seen.len(), 80, "every item reached c and d");
        let mut instance_of: HashMap<&str, usize> = HashMap::new();
        for (pe, key, instance) in seen.iter() {
            let first = *instance_of.entry(key).or_insert(*instance);
            assert_eq!(first, *instance, "{pe} saw {key} on a second instance");
        }
        assert_eq!(instance_of.len(), 5);
    }

    #[test]
    fn the_members_of_a_cluster_run_on_the_thread_of_its_entry() {
        // source → a → b → c with {a, b, c} one cluster over three slots:
        // for every item, a, b and c ran on one thread, so neither hop
        // inside the cluster was a queue trip.
        type Threads = Arc<Mutex<HashMap<(i64, usize), std::thread::ThreadId>>>;
        let threads: Threads = Arc::default();
        let mut g = WorkflowGraph::new("t");
        let source = g.add_pe(PeSpec::source("source", "out"));
        let mut prev = source;
        let mut members = Vec::new();
        for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
            let pe = g.add_pe(PeSpec::transform(name, "in", "out"));
            g.connect(prev, "out", pe, "in", Grouping::Shuffle).unwrap();
            members.push((i, pe));
            prev = pe;
        }
        let mut exe = Executable::new(g).unwrap();
        exe.register(source, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                (0..300).for_each(|i| ctx.emit("out", Value::Int(i)));
            }))
        });
        for (i, pe) in members {
            let threads = threads.clone();
            exe.register(pe, move || {
                let threads = threads.clone();
                Box::new(FnTransform(
                    move |_: &str, v: Value, ctx: &mut dyn Context| {
                        let item = v.as_int().unwrap();
                        let thread = std::thread::current().id();
                        threads.lock().insert((item, i), thread);
                        ctx.emit("out", v);
                    },
                ))
            });
        }
        let exe = exe.seal().unwrap();
        let reference = Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        let report = run_clustered(&exe, staging(exe.graph()).clusters, 4);
        assert_eq!(report.per_pe_tasks, reference.per_pe_tasks);
        let threads = threads.lock();
        let moved = (0..300).filter(|&item| {
            let entry = threads[&(item, 0)];
            (1..3).any(|i| threads[&(item, i)] != entry)
        });
        assert_eq!(moved.count(), 0, "a hop inside the cluster changed thread");
    }

    /// `specs` connected by `edges` (from, to, grouping), out → in; the
    /// source emits four ints and every other PE forwards what it gets.
    fn forwarding(specs: Vec<PeSpec>, edges: &[(usize, usize, Grouping)]) -> Executable {
        let mut g = WorkflowGraph::new("t");
        let ids: Vec<PeId> = specs.into_iter().map(|spec| g.add_pe(spec)).collect();
        for (from, to, grouping) in edges {
            g.connect(ids[*from], "out", ids[*to], "in", grouping.clone())
                .unwrap();
        }
        let sources = g.sources();
        let mut exe = Executable::new(g).unwrap();
        for pe in ids {
            if sources.contains(&pe) {
                exe.register(pe, || {
                    Box::new(FnSource(|ctx: &mut dyn Context| {
                        (0..4).for_each(|i| ctx.emit("out", Value::Int(i)));
                    }))
                });
            } else {
                exe.register(pe, || {
                    Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                        ctx.emit("out", v)
                    }))
                });
            }
        }
        exe.seal().unwrap()
    }

    /// Why `multi` refuses to place `clusters` (of PE indices) on `exe`.
    fn rejection(exe: &Executable, clusters: &[&[usize]]) -> String {
        let clusters = clusters
            .iter()
            .map(|c| c.iter().map(|&i| PeId(i)).collect());
        let clustered = Multi::clustered(Clustering {
            clusters: clusters.collect(),
        });
        match clustered.execute(exe, &ExecutionOptions::new(8)) {
            Err(CoreError::UnsupportedWorkflow {
                mapping: "multi",
                reason,
            }) => reason,
            other => panic!("placed: {:?}", other.map(|r| r.tasks_executed)),
        }
    }

    fn chain3(c: PeSpec, into_c: Grouping) -> Executable {
        let specs = vec![
            PeSpec::source("a", "out"),
            PeSpec::transform("b", "in", "out"),
            c,
        ];
        forwarding(specs, &[(0, 1, Grouping::Shuffle), (1, 2, into_c)])
    }

    #[test]
    fn a_cluster_rejects_a_pinned_member() {
        let exe = chain3(PeSpec::sink("c", "in").with_instances(2), Grouping::Shuffle);
        let reason = rejection(&exe, &[&[0], &[1, 2]]);
        assert!(reason.contains("pins an instance count"), "{reason}");
    }

    #[test]
    fn a_cluster_rejects_an_internal_group_by_or_broadcast() {
        for grouping in [Grouping::group_by("k"), Grouping::OneToAll] {
            let exe = chain3(PeSpec::sink("c", "in").stateful(), grouping);
            let reason = rejection(&exe, &[&[0], &[1, 2]]);
            assert!(reason.contains("in its cluster"), "{reason}");
        }
    }

    #[test]
    fn a_cluster_rejects_a_cycle_through_another_cluster() {
        // a → b → c plus a → c, with {a, c} fused: b both follows and
        // precedes that cluster.
        let specs = vec![
            PeSpec::source("a", "out"),
            PeSpec::transform("b", "in", "out"),
            PeSpec::sink("c", "in"),
        ];
        let edges = [(0, 1), (1, 2), (0, 2)].map(|(f, t)| (f, t, Grouping::Shuffle));
        let exe = forwarding(specs, &edges);
        let reason = rejection(&exe, &[&[0, 2], &[1]]);
        assert!(reason.contains("no cycle"), "{reason}");
    }

    #[test]
    fn a_cluster_rejects_a_stateful_member_behind_an_unkeyed_entry() {
        let exe = chain3(PeSpec::sink("c", "in").stateful(), Grouping::Shuffle);
        let reason = rejection(&exe, &[&[0], &[1, 2]]);
        assert!(reason.starts_with("D4PY102"), "{reason}");
    }

    #[test]
    fn a_cluster_with_a_source_rejects_input_from_outside() {
        // s1 → j and s2 → j with {s1, j} fused: the worker of s1's credit
        // wait would hold s2's tasks in its own queue.
        let specs = vec![
            PeSpec::source("s1", "out"),
            PeSpec::source("s2", "out"),
            PeSpec::sink("j", "in"),
        ];
        let exe = forwarding(
            specs,
            &[(0, 2, Grouping::Shuffle), (1, 2, Grouping::Shuffle)],
        );
        let reason = rejection(&exe, &[&[0, 2], &[1]]);
        assert!(reason.contains("with a source"), "{reason}");
    }
}
