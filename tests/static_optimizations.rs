//! Integration: the static-optimization loop end to end — profile a
//! workflow, derive a *naive assignment* clustering from the measured
//! costs, and place it on `multi`; plus *staging* placed on `multi` for the
//! real seismic and galaxy pipelines.

use dispel4py::core::profile::{profile_workflow, CommCostModel};
use dispel4py::graph::optimize::{naive_assignment, staging};
use dispel4py::graph::PipelineBuilder;
use dispel4py::prelude::*;
use dispel4py::workflows::seismic;
use std::time::Duration;

fn chatty_pipeline() -> (Executable, std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) {
    // read → inflate (emits fat payloads, cheap) → digest (cheap) → write.
    let g = PipelineBuilder::source("chatty", "read", "output")
        .then("inflate")
        .then("digest")
        .sink("write")
        .unwrap();
    let ids: Vec<_> = g.pe_ids().collect();
    let (_, handle) = Collector::new();
    let h = handle.clone();
    let mut exe = Executable::new(g).unwrap();
    exe.register(ids[0], || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            for i in 0..20 {
                ctx.emit("output", Value::Int(i));
            }
        }))
    });
    exe.register(ids[1], || {
        Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
            let mut payload = vec![0u8; 2048];
            payload[0] = (v.as_int().unwrap() % 251) as u8;
            ctx.emit(
                "output",
                Value::map([("id", v), ("blob", Value::Bytes(payload))]),
            );
        }))
    });
    exe.register(ids[2], || {
        Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
            ctx.emit("output", v.get("id").cloned().unwrap_or(Value::Null));
        }))
    });
    exe.register(ids[3], move || Box::new(Collector::into_handle(h.clone())));
    (exe.seal().unwrap(), handle)
}

#[test]
fn profile_naive_assignment_fuse_run() {
    let (exe, _) = chatty_pipeline();

    // 1. Profile with a comm-expensive cost model (Redis-over-TCP-like).
    let model = CommCostModel {
        per_message: Duration::from_micros(20),
        per_byte: Duration::from_micros(1),
    };
    let profile = profile_workflow(&exe, model).unwrap();

    // 2. Naive assignment must fuse the fat inflate→digest edge.
    let clustering = naive_assignment(exe.graph(), &profile);
    let inflate = exe.graph().pe_by_name("inflate").unwrap();
    let digest = exe.graph().pe_by_name("digest").unwrap();
    assert!(clustering.fused(inflate, digest), "{clustering:?}");

    // 3. Place it and run: results identical to the unclustered workflow.
    let (exe2, fused_results) = chatty_pipeline();
    assert!(clustering.len() < exe2.graph().pe_count());
    Multi::clustered(clustering)
        .execute(&exe2, &ExecutionOptions::new(4))
        .unwrap();

    let (exe3, plain_results) = chatty_pipeline();
    DynMulti.execute(&exe3, &ExecutionOptions::new(4)).unwrap();

    let sorted = |h: &std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>| {
        let mut v: Vec<i64> = h.lock().iter().map(|x| x.as_int().unwrap()).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(&fused_results), sorted(&plain_results));
}

#[test]
fn staging_fuses_the_seismic_pipeline_and_preserves_output() {
    let cfg = WorkloadConfig::standard().with_time_scale(0.002);

    let (exe, unfused_written) = seismic::build(&cfg);
    let unfused = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();

    let (exe, fused_written) = seismic::build(&cfg);
    let clustering = staging(exe.graph());
    // Source alone + the 8-PE processing/writing body.
    assert_eq!(clustering.len(), 2);
    let report = Multi::clustered(clustering)
        .execute(&exe, &ExecutionOptions::new(4))
        .unwrap();
    // 1 kickoff + 50 stations through the 8 PEs of the body: the report
    // counts PE calls, and the staged body calls them all inline.
    assert_eq!(report.tasks_executed, 1 + 50 * 8);
    assert_eq!(report.per_pe_tasks, unfused.per_pe_tasks);

    let sorted = |h: &std::sync::Arc<d4py_sync::Mutex<Vec<String>>>| {
        let mut v = h.lock().clone();
        v.sort();
        v
    };
    assert_eq!(sorted(&unfused_written), sorted(&fused_written));
}

#[test]
fn fused_astro_matches_reference_extinctions() {
    let cfg = WorkloadConfig::standard().with_time_scale(0.002);
    let (exe, reference) = dispel4py::workflows::astro::build(&cfg);
    Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();

    let (exe, fused_results) = dispel4py::workflows::astro::build(&cfg);
    Multi::clustered(staging(exe.graph()))
        .execute(&exe, &ExecutionOptions::new(6))
        .unwrap();

    let extract = |h: &std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>| {
        let mut v: Vec<(i64, f64)> = h
            .lock()
            .iter()
            .map(|r| {
                (
                    r.get("id").unwrap().as_int().unwrap(),
                    r.get("extinction").unwrap().as_float().unwrap(),
                )
            })
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    };
    assert_eq!(extract(&reference), extract(&fused_results));
}
