//! Streaming emission and bounded sources (DESIGN.md §5): the engine core
//! writes a PE's emissions out while it runs, and once a source is a credit
//! ahead its worker runs queued tasks itself (a pool worker) or waits for
//! the others to (a slot worker: every source under `multi`, a stateful one
//! under `hybrid_multi`) — so a long stream reaches the sink while it is
//! produced and never sits in a queue whole.
//!
//! `D4PY_BACKPRESSURE_ITEMS` sets the long stream's length (default
//! 200 000); the nightly soak runs it at 50×.

use dispel4py::graph::optimize::staging;
use dispel4py::graph::partition;
use dispel4py::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine's constants (`core::mappings::engine`): a source's credit,
/// the emissions a call buffers before it writes, the largest popped batch.
const CREDIT: usize = 4096;
const EMIT_KEEP: usize = 64;
const POP_BATCH: usize = 32;

fn stream_len() -> i64 {
    std::env::var("D4PY_BACKPRESSURE_ITEMS")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(200_000)
}

/// A row of the tests: a front door of the engine, in process, and whether
/// the workflow's source is declared `stateful()`, which pins it to a slot.
struct Row {
    mapping: Box<dyn Mapping>,
    pinned_source: bool,
}

impl Row {
    fn name(&self) -> String {
        let pinned = if self.pinned_source {
            " (pinned source)"
        } else {
            ""
        };
        format!("{}{pinned}", self.mapping.name())
    }

    /// The worker counts it runs `graph` at: the fewest it accepts and one
    /// more — under `multi` one per instance, with a pinned source its slot
    /// and one pool worker.
    fn workers(&self, graph: &WorkflowGraph) -> [usize; 2] {
        let least = match self.mapping.name() {
            "multi" => partition::minimum_processes(graph),
            _ if self.pinned_source => 2,
            _ => 1,
        };
        [least, least + 1]
    }
}

/// The rows under test: every front door of the engine, in process, and
/// `hybrid_multi` once more with its source pinned.
fn rows() -> Vec<Row> {
    let mappings: [(Box<dyn Mapping>, bool); 5] = [
        (Box::new(DynMulti), false),
        (Box::new(DynRedis::new(RedisBackend::in_proc())), false),
        (Box::new(HybridMulti), false),
        (Box::new(Multi), false),
        (Box::new(HybridMulti), true),
    ];
    let rows = mappings.into_iter().map(|(mapping, pinned_source)| Row {
        mapping,
        pinned_source,
    });
    rows.collect()
}

/// The source PE, `stateful()` when it is to be pinned.
fn source(pinned: bool) -> PeSpec {
    let spec = PeSpec::source("source", "out");
    if pinned {
        spec.stateful()
    } else {
        spec
    }
}

/// What a sink saw, kept order-independent and constant-size so the soak's
/// millions of items cost no memory: count, sum and a sum of mixed hashes.
#[derive(Default)]
struct Fingerprint([AtomicU64; 3]);

impl Fingerprint {
    fn add(&self, x: i64) {
        let x = x as u64;
        let mixed = (x ^ (x >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for (cell, v) in self.0.iter().zip([1, x, mixed]) {
            cell.fetch_add(v, SeqCst);
        }
    }

    fn read(&self) -> [u64; 3] {
        self.0.each_ref().map(|cell| cell.load(SeqCst))
    }
}

/// source (`0..items`) → `steps` × `x * 3 + 1` → fingerprinting sink.
fn long_chain(items: i64, steps: usize, pinned: bool) -> (Executable, Arc<Fingerprint>) {
    let mut g = WorkflowGraph::new("long");
    let src = g.add_pe(source(pinned));
    let mut prev = src;
    let mut stages = Vec::new();
    for i in 0..steps {
        let step = g.add_pe(PeSpec::transform(format!("step{i}"), "in", "out"));
        g.connect(prev, "out", step, "in", Grouping::Shuffle)
            .unwrap();
        stages.push(step);
        prev = step;
    }
    let sink = g.add_pe(PeSpec::sink("sink", "in"));
    g.connect(prev, "out", sink, "in", Grouping::Shuffle)
        .unwrap();
    let seen = Arc::new(Fingerprint::default());
    let mut exe = Executable::new(g).unwrap();
    exe.register(src, move || {
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            (0..items).for_each(|i| ctx.emit("out", Value::Int(i)));
        }))
    });
    for step in stages {
        exe.register(step, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(v.as_int().unwrap() * 3 + 1));
            }))
        });
    }
    let sink_seen = seen.clone();
    exe.register(sink, move || {
        let seen = sink_seen.clone();
        Box::new(FnTransform(
            move |_: &str, v: Value, _: &mut dyn Context| {
                seen.add(v.as_int().unwrap());
            },
        ))
    });
    (exe.seal().unwrap(), seen)
}

/// Before streaming emission every emission of the source was queued at
/// once: `peak_outstanding` equalled the stream length (and `multi`, on a
/// loop of its own, buffered the whole call and reported 0). Now the source
/// runs at most its credit ahead, plus one write of its own and one popped
/// batch per worker that the helping source cannot reach — also when each
/// of its items drives a nine-step chain, whose steps are called inline by
/// the worker that pops the item or, under `multi`, are a slot each, or,
/// with the chain's staging placed on `multi`, calls of the body's slots.
#[test]
fn a_long_stream_stays_within_the_credit() {
    let items = stream_len();
    for steps in [1, 9] {
        let (exe, seen) = long_chain(items, steps, false);
        let simple = Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        let reference = seen.read();
        assert_eq!(reference[0], items as u64);
        let mut rows = rows();
        if steps == 9 {
            rows.push(Row {
                mapping: Box::new(Multi::clustered(staging(exe.graph()))),
                pinned_source: false,
            });
        }
        for row in rows {
            for workers in row.workers(exe.graph()) {
                let (exe, seen) = long_chain(items, steps, row.pinned_source);
                let report = row
                    .mapping
                    .execute(&exe, &ExecutionOptions::new(workers))
                    .unwrap();
                let name = format!("{} × {workers}, {steps} step(s)", row.name());
                assert_eq!(
                    seen.read(),
                    reference,
                    "{name}: output differs from simple's"
                );
                assert_eq!(report.failed_tasks, 0, "{name}");
                assert_eq!(report.per_pe_tasks, simple.per_pe_tasks, "{name}");
                let bound = CREDIT + EMIT_KEEP + POP_BATCH * workers;
                println!(
                    "{name}: {items} items, peak_outstanding {} (bound {bound}), {:.0?}",
                    report.peak_outstanding, report.runtime
                );
                assert!(
                    report.peak_outstanding <= bound,
                    "{name}: {} tasks outstanding at the peak, bound {bound}",
                    report.peak_outstanding
                );
                assert!(report.peak_outstanding > 0, "{name}: the engine counts");
            }
        }
    }
}

/// Spins until `flag` is set or `limit` passes; true if it was set.
fn wait_for(flag: &AtomicBool, limit: Duration) -> bool {
    let started = Instant::now();
    while !flag.load(SeqCst) {
        if started.elapsed() > limit {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// source → `steps` forwarding steps → sink. The source emits past its
/// credit, then waits for the sink's first call and asserts it came.
fn first_result(steps: usize, pinned: bool, name: &str) -> Executable {
    let reached = Arc::new(AtomicBool::new(false));
    let mut g = WorkflowGraph::new("first");
    let src = g.add_pe(source(pinned));
    let mut prev = src;
    let mut stages = Vec::new();
    for i in 0..steps {
        let step = g.add_pe(PeSpec::transform(format!("step{i}"), "in", "out"));
        g.connect(prev, "out", step, "in", Grouping::Shuffle)
            .unwrap();
        stages.push(step);
        prev = step;
    }
    let sink = g.add_pe(PeSpec::sink("sink", "in"));
    g.connect(prev, "out", sink, "in", Grouping::Shuffle)
        .unwrap();
    let mut exe = Executable::new(g).unwrap();
    let (waits, label) = (reached.clone(), name.to_string());
    exe.register(src, move || {
        let (reached, name) = (waits.clone(), label.clone());
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            for i in 0..(CREDIT + 2 * EMIT_KEEP) as i64 {
                ctx.emit("out", Value::Int(i));
            }
            let came = wait_for(&reached, Duration::from_secs(5));
            assert!(came, "{name}: no sink call while the source ran");
        }))
    });
    for step in stages {
        exe.register(step, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", v)
            }))
        });
    }
    exe.register(sink, move || {
        let reached = reached.clone();
        Box::new(FnTransform(
            move |_: &str, _: Value, _: &mut dyn Context| {
                reached.store(true, SeqCst);
            },
        ))
    });
    exe.seal().unwrap()
}

/// The sink's first call happens while the source's `process()` is still
/// running: the source emits past its credit (so a one-worker run must
/// help, and a pinned source must wait), then waits for the sink and
/// asserts it came — straight into the sink, and through a nine-step chain
/// whose steps are inlined calls or, under `multi`, slots. Before streaming
/// emission the source's stream reached the queue only when it returned, so
/// the wait ran out instead; so it did under `multi` while it buffered the
/// whole call.
#[test]
fn the_first_result_arrives_before_the_source_returns() {
    for steps in [0, 9] {
        for row in rows() {
            let workers = row.workers(first_result(steps, row.pinned_source, "").graph());
            for workers in workers {
                let name = format!("{} × {workers}, {steps} step(s)", row.name());
                let exe = first_result(steps, row.pinned_source, &name);
                let report = row
                    .mapping
                    .execute(&exe, &ExecutionOptions::new(workers))
                    .unwrap();
                assert_eq!(report.failed_tasks, 0, "{name}: the source's wait failed");
            }
        }
    }
}

/// A source that panics after 1 000 emissions loses only what it still
/// buffered: the sink receives exactly the prefix it wrote out — all but
/// fewer than [`EMIT_KEEP`] emissions, since a call writes at its
/// [`EMIT_KEEP`]-th buffered emission at the latest (and earlier whenever
/// the service-time rule fires, which shifts the windows) — and the run
/// still ends at quiescence. Without streaming emission (and under `multi`
/// while it buffered the whole call) the panic discarded all 1 000.
#[test]
fn a_panicking_source_keeps_what_it_wrote_out() {
    const EMITTED: i64 = 1_000;
    for row in rows() {
        let mut g = WorkflowGraph::new("panics");
        let src = g.add_pe(source(row.pinned_source));
        let sink = g.add_pe(PeSpec::sink("sink", "in"));
        g.connect(src, "out", sink, "in", Grouping::Shuffle)
            .unwrap();
        let (_, got) = Collector::new();
        let mut exe = Executable::new(g).unwrap();
        exe.register(src, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                (0..EMITTED).for_each(|i| ctx.emit("out", Value::Int(i)));
                panic!("injected: the source dies after its stream");
            }))
        });
        let into = got.clone();
        exe.register(sink, move || Box::new(Collector::into_handle(into.clone())));
        let exe = exe.seal().unwrap();
        for workers in row.workers(exe.graph()) {
            let name = format!("{} × {workers}", row.name());
            got.lock().clear();
            let report = row
                .mapping
                .execute(&exe, &ExecutionOptions::new(workers))
                .unwrap();
            assert_eq!(report.failed_tasks, 1, "{name}");
            let mut ints: Vec<i64> = got.lock().iter().map(|v| v.as_int().unwrap()).collect();
            ints.sort_unstable();
            let k = ints.len() as i64;
            assert_eq!(
                ints,
                (0..k).collect::<Vec<_>>(),
                "{name}: a written-out prefix"
            );
            assert!(
                k > EMITTED - EMIT_KEEP as i64,
                "{name}: {k} delivered, fewer than {EMIT_KEEP} may be lost"
            );
            let retried = report.warnings.iter().any(|w| w.contains("retry protocol"));
            assert!(
                !retried,
                "{name}: ended at quiescence: {:?}",
                report.warnings
            );
        }
    }
}
