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
use d4py_graph::partition;
use std::sync::Arc;
use std::time::Instant;

/// Static multiprocessing mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct Multi;

impl Mapping for Multi {
    fn name(&self) -> &'static str {
        "multi"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        let warnings = crate::preflight::preflight(exe, opts, false)?;
        let partitioned = partition::partition(exe.graph(), opts.workers).map_err(|e| {
            CoreError::UnsupportedWorkflow {
                mapping: "multi",
                reason: e.to_string(),
            }
        })?;
        let started = Instant::now();
        let queue = || -> Arc<dyn TaskQueue> { Arc::new(WorkStealQueue::new(1)) };
        // `instances()` is sorted by (pe, instance), as a plan's slots are.
        let slots = partitioned.instances().into_iter().map(|inst| Slot {
            pe: inst.pe,
            instance: inst.index,
            queue: queue(),
        });
        let healthy = FaultPlan::default();
        let plan = Plan {
            exe,
            opts,
            mapping: self.name(),
            started,
            global: queue(),
            pool: 0,
            slots: slots.collect(),
            state: None,
            faults: &healthy,
            warnings,
        };
        engine::run(plan, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{Collector, Context, FnSource, FnTransform, ProcessingElement};
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
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
