//! Streaming emission and bounded sources (DESIGN.md §5): the dynamic-family
//! engine writes a PE's emissions out while it runs, and a source's worker
//! runs queued tasks itself once the source is a credit ahead — so a long
//! stream reaches the sink while it is produced and never sits in a queue
//! whole.
//!
//! `D4PY_BACKPRESSURE_ITEMS` sets the long stream's length (default
//! 200 000); the nightly soak runs it at 50×.

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

/// The mappings under test: every front door of the engine, in process.
fn engines() -> Vec<Box<dyn Mapping>> {
    vec![
        Box::new(DynMulti),
        Box::new(DynRedis::new(RedisBackend::in_proc())),
        Box::new(HybridMulti),
    ]
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
fn long_chain(items: i64, steps: usize) -> (Executable, Arc<Fingerprint>) {
    let mut g = WorkflowGraph::new("long");
    let src = g.add_pe(PeSpec::source("source", "out"));
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

/// At the parent commit every emission of the source was queued at once:
/// `peak_outstanding` equalled the stream length. Now the source runs at
/// most its credit ahead, plus one write of its own and one popped batch
/// per worker that the helping source cannot reach — also when each of its
/// items drives a nine-step chain, whose steps are called inline by the
/// worker that pops the item.
#[test]
fn a_long_stream_stays_within_the_credit() {
    let items = stream_len();
    for steps in [1, 9] {
        let (exe, seen) = long_chain(items, steps);
        let simple = Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        let reference = seen.read();
        assert_eq!(reference[0], items as u64);
        for workers in [1, 2] {
            for mapping in engines() {
                let (exe, seen) = long_chain(items, steps);
                let report = mapping
                    .execute(&exe, &ExecutionOptions::new(workers))
                    .unwrap();
                let name = format!("{} × {workers}, {steps} step(s)", mapping.name());
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

/// The sink's first call happens while the source's `process()` is still
/// running: the source emits past its credit (so a one-worker run must
/// help), then waits for the sink and asserts it came — straight into the
/// sink, and through a nine-step chain whose steps are inlined calls. At
/// the parent the source's stream reached the queue only when it
/// returned, so the wait ran out instead.
#[test]
fn the_first_result_arrives_before_the_source_returns() {
    for steps in [0, 9] {
        for workers in [1, 2] {
            for mapping in engines() {
                let name = format!("{} × {workers}, {steps} step(s)", mapping.name());
                let reached = Arc::new(AtomicBool::new(false));
                let mut g = WorkflowGraph::new("first");
                let src = g.add_pe(PeSpec::source("source", "out"));
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
                let (waits, label) = (reached.clone(), name.clone());
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
                let marks = reached.clone();
                exe.register(sink, move || {
                    let reached = marks.clone();
                    Box::new(FnTransform(
                        move |_: &str, _: Value, _: &mut dyn Context| {
                            reached.store(true, SeqCst);
                        },
                    ))
                });
                let exe = exe.seal().unwrap();
                let report = mapping
                    .execute(&exe, &ExecutionOptions::new(workers))
                    .unwrap();
                assert_eq!(report.failed_tasks, 0, "{name}: the source's wait failed");
            }
        }
    }
}

/// A source that panics after 1 000 emissions loses only what it still
/// buffered: the sink receives exactly the prefix it wrote out — at least
/// every whole [`EMIT_KEEP`] window — and the run still ends at
/// quiescence. At the parent the panic discarded all 1 000.
#[test]
fn a_panicking_source_keeps_what_it_wrote_out() {
    const EMITTED: i64 = 1_000;
    let written = EMITTED - EMITTED % EMIT_KEEP as i64;
    for workers in [1, 2] {
        for mapping in engines() {
            let name = format!("{} × {workers}", mapping.name());
            let mut g = WorkflowGraph::new("panics");
            let src = g.add_pe(PeSpec::source("source", "out"));
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
            let report = mapping
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
                (written..=EMITTED).contains(&k),
                "{name}: {k} delivered, every window up to {written} was written out"
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
