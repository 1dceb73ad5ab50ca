//! Hybrid scheduling, behind `hybrid_redis` (§3.1.2): the front door.
//!
//! Hybrid dynamic scheduling handles workflows that mix stateless and
//! stateful PEs:
//!
//! * every **stateful PE instance** is pinned to a dedicated worker with a
//!   **private queue**, so its local state and input ordering never move
//!   between processes;
//! * the remaining workers are **stateless** and pull from the shared
//!   global queue exactly as plain dynamic scheduling does;
//! * any worker may deposit outputs into a stateful instance's private
//!   queue, routed by the receiving connection's grouping (group-by hash,
//!   global → instance 0, …) — "eliminating the need for continuous state
//!   synchronization".
//!
//! This module only plans that placement over a [`QueueFactory`] (Redis
//! streams for `hybrid_redis`, work-stealing queues for [`HybridMulti`]); the
//! engine core (`mappings::engine`) runs and ends it: each settle that takes
//! the outstanding-task count to zero flushes the next stateful PE's
//! instances, in topological order, and the one after the last flush's work
//! retired sends the pills.

use super::engine::{self, Plan, Slot};
use crate::error::CoreError;
use crate::executable::Executable;
use crate::fault::FaultPlan;
use crate::metrics::RunReport;
use crate::options::ExecutionOptions;
use crate::queue::{TaskQueue, WorkStealQueue};
use crate::state::StateStore;
use d4py_graph::optimize::staging;
use d4py_graph::PeId;
use std::sync::Arc;
use std::time::Instant;

/// Builds the queues a hybrid run needs: one global queue plus one private
/// queue per stateful instance.
pub trait QueueFactory: Send + Sync {
    /// Creates a queue. `name` identifies it (`"global"` or
    /// `"private:<pe>:<instance>"`); `consumers` is how many workers will
    /// pop from it.
    fn make(&self, name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError>;
}

/// Runs a (possibly stateful) workflow under the hybrid strategy.
pub fn run_hybrid(
    exe: &Executable,
    opts: &ExecutionOptions,
    factory: &dyn QueueFactory,
    mapping_name: &'static str,
) -> Result<RunReport, CoreError> {
    run_hybrid_with_state(exe, opts, factory, mapping_name, None)
}

/// [`run_hybrid`] with state externalization: stateful instances restore
/// their snapshot from `state` before processing and save a fresh snapshot
/// at flush time (see [`crate::state`]).
pub fn run_hybrid_with_state(
    exe: &Executable,
    opts: &ExecutionOptions,
    factory: &dyn QueueFactory,
    mapping_name: &'static str,
    state: Option<Arc<dyn StateStore>>,
) -> Result<RunReport, CoreError> {
    let healthy = FaultPlan::default();
    run_hybrid_with_faults(exe, opts, factory, mapping_name, state, &healthy)
}

/// [`run_hybrid_with_state`] under a chaos [`FaultPlan`] (see
/// [`crate::fault`]). The default plan reduces exactly to the healthy run.
pub fn run_hybrid_with_faults(
    exe: &Executable,
    opts: &ExecutionOptions,
    factory: &dyn QueueFactory,
    mapping_name: &'static str,
    state: Option<Arc<dyn StateStore>>,
    faults: &FaultPlan,
) -> Result<RunReport, CoreError> {
    if opts.workers == 0 {
        return Err(CoreError::InvalidOptions("workers must be ≥ 1".into()));
    }
    let warnings = crate::preflight::preflight(exe, opts, false)?;
    let started = Instant::now();
    let graph = exe.graph();
    let unsupported = |reason: String| CoreError::UnsupportedWorkflow {
        mapping: mapping_name,
        reason,
    };
    for c in graph.connections() {
        if c.grouping.is_broadcast() && !graph.is_effectively_stateful(c.to_pe) {
            let name = graph.pe(c.to_pe).map_or("", |p| &p.name);
            return Err(unsupported(format!(
                "one-to-all into stateless PE '{name}' cannot be routed dynamically; \
                 mark the PE stateful to pin its instances"
            )));
        }
    }
    // One slot per stateful instance; the remaining workers form the pool.
    let instances = |pe: PeId| graph.pe(pe).and_then(|s| s.instances).unwrap_or(1);
    let stateful = graph.stateful_pes();
    let pinned: usize = stateful.iter().map(|&pe| instances(pe)).sum();
    let stateless = usize::from(graph.pe_count() > stateful.len());
    if opts.workers < pinned + stateless {
        return Err(unsupported(format!(
            "{pinned} stateful instances plus {stateless} stateless pool require ≥ {} workers, got {}",
            pinned + stateless,
            opts.workers
        )));
    }
    let pool = opts.workers - pinned;
    let global = factory.make("global", pool.max(1))?;
    let mut slots = Vec::with_capacity(pinned);
    for pe in stateful {
        for instance in 0..instances(pe) {
            let queue = factory.make(&format!("private:{}:{instance}", pe.0), 1)?;
            slots.push(Slot {
                pes: vec![pe],
                instance,
                queue,
            });
        }
    }
    let plan = Plan {
        exe,
        opts,
        mapping: mapping_name,
        started,
        global,
        pool,
        slots,
        clustering: staging(graph),
        state,
        faults,
        warnings,
    };
    engine::run(plan, None)
}

/// In-process hybrid mapping (ablation baseline: same strategy as
/// `hybrid_redis`, every queue in process). It is its own [`QueueFactory`]:
/// a [`WorkStealQueue`] for the global queue (one consumer per pool
/// worker) and one for each private queue (one consumer).
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridMulti;

impl QueueFactory for HybridMulti {
    fn make(&self, _name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
        Ok(Arc::new(WorkStealQueue::new(consumers)))
    }
}

impl crate::mapping::Mapping for HybridMulti {
    fn name(&self) -> &'static str {
        "hybrid_multi"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        run_hybrid(exe, opts, self, self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::pe::{Collector, Context, FnSource, ProcessingElement};
    use crate::task::QueueItem;
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec};
    use d4py_sync::Mutex;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// word-count-like stateful workflow: source → (group-by key) counter →
    /// (global) top-1 reducer → collector via on_done chains.
    fn stateful_exe() -> (Executable, std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) {
        struct KeyCounter {
            counts: HashMap<String, i64>,
        }
        impl ProcessingElement for KeyCounter {
            fn process(&mut self, _p: &str, v: Value, _ctx: &mut dyn Context) {
                let k = v.get("state").unwrap().as_str().unwrap().to_string();
                *self.counts.entry(k).or_insert(0) += 1;
            }
            fn on_done(&mut self, ctx: &mut dyn Context) {
                for (k, n) in &self.counts {
                    ctx.emit(
                        "out",
                        Value::map([("state", Value::Str(k.clone())), ("count", Value::Int(*n))]),
                    );
                }
            }
        }
        struct TopOne {
            best: Option<(String, i64)>,
        }
        impl ProcessingElement for TopOne {
            fn process(&mut self, _p: &str, v: Value, _ctx: &mut dyn Context) {
                let k = v.get("state").unwrap().as_str().unwrap().to_string();
                let n = v.get("count").unwrap().as_int().unwrap();
                if self.best.as_ref().map(|(_, b)| n > *b).unwrap_or(true) {
                    self.best = Some((k, n));
                }
            }
            fn on_done(&mut self, ctx: &mut dyn Context) {
                if let Some((k, n)) = self.best.take() {
                    ctx.emit(
                        "out",
                        Value::map([("state", Value::Str(k)), ("count", Value::Int(n))]),
                    );
                }
            }
        }

        let mut g = d4py_graph::WorkflowGraph::new("stateful");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let cnt = g.add_pe(
            PeSpec::transform("count", "in", "out")
                .stateful()
                .with_instances(3),
        );
        let top = g.add_pe(PeSpec::transform("top", "in", "out").stateful());
        let sink = g.add_pe(PeSpec::sink("sink", "in").stateful());
        g.connect(src, "out", cnt, "in", Grouping::group_by("state"))
            .unwrap();
        g.connect(cnt, "out", top, "in", Grouping::Global).unwrap();
        g.connect(top, "out", sink, "in", Grouping::Global).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(src, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                // TX ×6, CA ×3, NY ×1
                for s in ["TX", "CA", "TX", "NY", "TX", "CA", "TX", "TX", "CA", "TX"] {
                    ctx.emit("out", Value::map([("state", s)]));
                }
            }))
        });
        exe.register(cnt, || {
            Box::new(KeyCounter {
                counts: HashMap::new(),
            })
        });
        exe.register(top, || Box::new(TopOne { best: None }));
        exe.register(sink, move || Box::new(Collector::into_handle(h.clone())));
        (exe.seal().unwrap(), handle)
    }

    #[test]
    fn stateful_aggregation_is_exact() {
        let (exe, results) = stateful_exe();
        // 3 counter instances + 1 top + 1 sink + ≥1 stateless worker = 6.
        let report = HybridMulti
            .execute(&exe, &ExecutionOptions::new(8))
            .unwrap();
        let got = results.lock();
        assert_eq!(got.len(), 1, "exactly one winner: {got:?}");
        assert_eq!(got[0].get("state").unwrap().as_str(), Some("TX"));
        assert_eq!(got[0].get("count").unwrap().as_int(), Some(6));
        assert_eq!(report.dropped_emissions, 0);
    }

    #[test]
    fn too_few_workers_rejected() {
        let (exe, _) = stateful_exe();
        // Needs 5 stateful slots + 1 stateless = 6.
        let err = HybridMulti
            .execute(&exe, &ExecutionOptions::new(5))
            .unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedWorkflow { .. }));
    }

    #[test]
    fn minimum_worker_count_works() {
        let (exe, results) = stateful_exe();
        HybridMulti
            .execute(&exe, &ExecutionOptions::new(6))
            .unwrap();
        assert_eq!(results.lock().len(), 1);
    }

    #[test]
    fn stateless_only_workflow_runs_like_dynamic() {
        let mut g = d4py_graph::WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..25 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, move || Box::new(Collector::into_handle(h.clone())));
        let exe = exe.seal().unwrap();
        HybridMulti
            .execute(&exe, &ExecutionOptions::new(4))
            .unwrap();
        assert_eq!(handle.lock().len(), 25);
    }

    #[test]
    fn straggler_inflates_runtime_but_stays_exact() {
        let (exe, results) = stateful_exe();
        // TX hashes to one count instance which handles 6 tasks; 3 ms per
        // task gives a guaranteed ≥ 18 ms floor on that pinned worker.
        let plan = FaultPlan::default().with_straggler("count", Duration::from_millis(3));
        let report = run_hybrid_with_faults(
            &exe,
            &ExecutionOptions::new(8),
            &HybridMulti,
            "hybrid_multi",
            None,
            &plan,
        )
        .unwrap();
        assert!(
            report.runtime >= Duration::from_millis(15),
            "straggler delay not applied: {:?}",
            report.runtime
        );
        let got = results.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get("count").unwrap().as_int(), Some(6));
    }

    #[test]
    fn pill_storm_is_survived() {
        let (exe, results) = stateful_exe();
        let plan = FaultPlan::default().with_pill_storm(2, 6);
        let report = run_hybrid_with_faults(
            &exe,
            &ExecutionOptions::new(8),
            &HybridMulti,
            "hybrid_multi",
            None,
            &plan,
        )
        .unwrap();
        let got = results.lock();
        assert_eq!(got.len(), 1, "storm corrupted the run: {got:?}");
        assert_eq!(got[0].get("state").unwrap().as_str(), Some("TX"));
        assert_eq!(got[0].get("count").unwrap().as_int(), Some(6));
        assert_eq!(report.failed_tasks, 0);
    }

    #[test]
    fn crash_fault_aborts_with_injected_fault() {
        let (exe, _) = stateful_exe();
        // "top" is Global-grouped: all count flush output lands on instance 0.
        let plan = FaultPlan::default().with_crash("top", 0, 1);
        let err = run_hybrid_with_faults(
            &exe,
            &ExecutionOptions::new(8),
            &HybridMulti,
            "hybrid_multi",
            None,
            &plan,
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::InjectedFault(_)),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn fault_plan_with_unknown_pe_is_rejected() {
        let (exe, _) = stateful_exe();
        let plan = FaultPlan::default().with_straggler("no_such_pe", Duration::from_millis(1));
        let err = run_hybrid_with_faults(
            &exe,
            &ExecutionOptions::new(8),
            &HybridMulti,
            "hybrid_multi",
            None,
            &plan,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions(_)));
        // Crashing a stateless (unpinned) PE is equally a plan error.
        let plan = FaultPlan::default().with_crash("src", 0, 1);
        let err = run_hybrid_with_faults(
            &exe,
            &ExecutionOptions::new(8),
            &HybridMulti,
            "hybrid_multi",
            None,
            &plan,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions(_)));
    }

    /// Queue wrapper that fails the first N `pop_batch` calls with a
    /// transport error, then behaves normally — the in-process stand-in for
    /// a dropped redis-lite connection.
    struct FlakyQueue {
        inner: Arc<dyn TaskQueue>,
        remaining: Arc<AtomicUsize>,
    }
    impl TaskQueue for FlakyQueue {
        fn push(&self, item: QueueItem) -> Result<(), CoreError> {
            self.inner.push(item)
        }
        fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
            self.inner.pop(consumer, timeout)
        }
        fn pop_batch(
            &self,
            consumer: usize,
            max: usize,
            timeout: Duration,
        ) -> Result<Vec<QueueItem>, CoreError> {
            let take = self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if take {
                return Err(CoreError::Queue("injected: connection dropped".into()));
            }
            self.inner.pop_batch(consumer, max, timeout)
        }
        fn depth(&self) -> usize {
            self.inner.depth()
        }
    }

    struct FlakyFactory {
        charges: Arc<AtomicUsize>,
    }
    impl QueueFactory for FlakyFactory {
        fn make(&self, name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
            let inner: Arc<dyn TaskQueue> = Arc::new(WorkStealQueue::new(consumers));
            if name == "global" {
                Ok(Arc::new(FlakyQueue {
                    inner,
                    remaining: self.charges.clone(),
                }))
            } else {
                Ok(inner)
            }
        }
    }

    #[test]
    fn transport_retry_budget_absorbs_transient_errors() {
        let (exe, results) = stateful_exe();
        let factory = FlakyFactory {
            charges: Arc::new(AtomicUsize::new(2)),
        };
        let report = run_hybrid_with_faults(
            &exe,
            &ExecutionOptions::new(8).with_transport_retries(3),
            &factory,
            "hybrid_multi",
            None,
            &FaultPlan::default(),
        )
        .unwrap();
        assert_eq!(results.lock().len(), 1);
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("transient transport error")),
            "retry warning missing: {:?}",
            report.warnings
        );
    }

    #[test]
    fn transport_errors_still_fatal_without_budget() {
        let (exe, _) = stateful_exe();
        let factory = FlakyFactory {
            charges: Arc::new(AtomicUsize::new(2)),
        };
        let err = run_hybrid_with_faults(
            &exe,
            &ExecutionOptions::new(8),
            &factory,
            "hybrid_multi",
            None,
            &FaultPlan::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Queue(_)), "unexpected: {err}");
    }

    #[test]
    fn group_by_isolation_across_instances() {
        // Each instance's counts must be disjoint: verified implicitly by
        // the exact total in stateful_aggregation_is_exact; here we check
        // per-instance counters never see a key twice across instances.
        struct KeySpy {
            seen: std::sync::Arc<Mutex<Vec<(usize, String)>>>,
        }
        impl ProcessingElement for KeySpy {
            fn process(&mut self, _p: &str, v: Value, ctx: &mut dyn Context) {
                let k = v.get("state").unwrap().as_str().unwrap().to_string();
                self.seen.lock().push((ctx.instance(), k));
            }
        }
        let mut g = d4py_graph::WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in").stateful().with_instances(4));
        g.connect(a, "out", b, "in", Grouping::group_by("state"))
            .unwrap();
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for round in 0..3 {
                    for s in ["TX", "CA", "NY", "WA", "OH", "FL"] {
                        let _ = round;
                        ctx.emit("out", Value::map([("state", s)]));
                    }
                }
            }))
        });
        exe.register(b, move || Box::new(KeySpy { seen: s2.clone() }));
        let exe = exe.seal().unwrap();
        HybridMulti
            .execute(&exe, &ExecutionOptions::new(6))
            .unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 18);
        let mut key_to_instance: HashMap<&String, usize> = HashMap::new();
        for (inst, key) in seen.iter() {
            if let Some(prev) = key_to_instance.insert(key, *inst) {
                assert_eq!(prev, *inst, "key {key} visited two instances");
            }
        }
    }
}
