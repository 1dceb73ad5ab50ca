//! End-to-end mapping overhead on a service-time-free pipeline.
//!
//! With every PE's work set to zero, a run's duration is pure engine
//! overhead: scheduling, routing, channel/wire traffic, termination. This
//! isolates the per-mapping constant factors the macro experiments
//! (`repro fig8` …) carry inside their measurements.

use d4py_sync::bench::{BatchSize, Criterion};
use d4py_sync::{criterion_group, criterion_main};
use dispel4py::prelude::*;
use std::time::Duration;

const ITEMS: i64 = 200;

fn build_pipeline() -> Executable {
    let mut g = WorkflowGraph::new("bench");
    let a = g.add_pe(PeSpec::source("src", "out"));
    let b = g.add_pe(PeSpec::transform("mid", "in", "out"));
    let c = g.add_pe(PeSpec::sink("sink", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            for i in 0..ITEMS {
                ctx.emit("out", Value::Int(i));
            }
        }))
    });
    exe.register(b, || {
        Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
            ctx.emit("out", v)
        }))
    });
    exe.register(c, || {
        Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
    });
    exe.seal().unwrap()
}

fn bench_mappings(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping_overhead_200_items");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    // The users' defaults, termination included.
    let (one, four) = (ExecutionOptions::new(1), ExecutionOptions::new(4));

    group.bench_function("simple", |b| {
        b.iter_batched(
            build_pipeline,
            |exe| Simple.execute(&exe, &one).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("multi", |b| {
        b.iter_batched(
            build_pipeline,
            |exe| Multi.execute(&exe, &four).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("dyn_multi", |b| {
        b.iter_batched(
            build_pipeline,
            |exe| DynMulti.execute(&exe, &four).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("dyn_auto_multi", |b| {
        b.iter_batched(
            build_pipeline,
            |exe| DynAutoMulti::new().execute(&exe, &four).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("dyn_redis_inproc", |b| {
        b.iter_batched(
            build_pipeline,
            |exe| {
                DynRedis::new(RedisBackend::in_proc())
                    .execute(&exe, &four)
                    .unwrap()
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("hybrid_multi", |b| {
        b.iter_batched(
            build_pipeline,
            |exe| HybridMulti.execute(&exe, &four).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_mappings);
criterion_main!(benches);
