//! Integration: the §5.1.2 metric definitions hold across mappings.
//!
//! *runtime* is wall clock; *process time* sums each worker's **active**
//! spans. These relationships are what make the paper's ratio tables
//! meaningful, so they are pinned here with generous tolerances (timing
//! tests on shared hardware must not flake).

use dispel4py::prelude::*;
use dispel4py::workflows::astro;
use std::time::Duration;

fn cfg() -> WorkloadConfig {
    WorkloadConfig::standard().with_time_scale(0.05)
}

#[test]
fn plain_dynamic_process_time_tracks_workers_times_runtime() {
    // Non-auto dynamic workers poll from spawn to termination, so
    // process_time ≈ workers × runtime.
    let workers = 6;
    let (exe, _) = astro::build(&cfg());
    let report = DynMulti
        .execute(&exe, &ExecutionOptions::new(workers))
        .unwrap();
    let expected = report.runtime.as_secs_f64() * workers as f64;
    let measured = report.process_time.as_secs_f64();
    assert!(
        measured > expected * 0.7 && measured < expected * 1.1,
        "process {measured:.3}s vs workers×runtime {expected:.3}s"
    );
}

#[test]
fn auto_scaling_process_time_sits_below_the_polling_bound() {
    let workers = 12;
    let (exe, _) = astro::build(&cfg());
    let report = DynAutoMulti::with_config(AutoscaleConfig {
        tick: Duration::from_millis(1),
        ..AutoscaleConfig::default()
    })
    .execute(&exe, &ExecutionOptions::new(workers))
    .unwrap();
    let bound = report.runtime.as_secs_f64() * workers as f64;
    assert!(
        report.process_time.as_secs_f64() < bound * 0.9,
        "parked workers must not accrue process time: {:.3}s vs bound {:.3}s",
        report.process_time.as_secs_f64(),
        bound
    );
    // Sanity: mean active workers in [min_active, workers].
    let mean_active = report.mean_active_workers();
    assert!(
        mean_active >= 0.9 && mean_active <= workers as f64,
        "{mean_active}"
    );
}

#[test]
fn simple_mapping_process_time_equals_runtime() {
    let (exe, _) = astro::build(&cfg());
    let report = Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
    assert_eq!(report.runtime, report.process_time);
    assert!((report.mean_active_workers() - 1.0).abs() < 1e-9);
}

#[test]
fn multi_counts_only_instance_workers() {
    // The astro workflow on 12 processes allocates 1 + 3×3 = 10 instances,
    // leaving 2 processes idle (Figure 1's inefficiency): process time is
    // bounded by ~10 × runtime, not 12 ×.
    let (exe, _) = astro::build(&cfg());
    let report = Multi.execute(&exe, &ExecutionOptions::new(12)).unwrap();
    let per_worker_bound = report.runtime.as_secs_f64() * 10.0;
    assert!(
        report.process_time.as_secs_f64() <= per_worker_bound * 1.1,
        "idle processes must not accrue process time: {:.3}s vs {:.3}s",
        report.process_time.as_secs_f64(),
        per_worker_bound
    );
}

#[test]
fn runtime_improves_with_workers_on_latency_bound_work() {
    let run = |workers| {
        let (exe, _) = astro::build(&cfg());
        DynMulti
            .execute(&exe, &ExecutionOptions::new(workers))
            .unwrap()
            .runtime
    };
    let slow = run(2);
    let fast = run(12);
    assert!(
        fast < slow,
        "12 workers ({fast:?}) must beat 2 workers ({slow:?}) on a latency-bound stream"
    );
}

#[test]
fn core_limiter_caps_throughput() {
    // The same compute-heavy run on 1 simulated core vs 16: wall time must
    // differ materially (this is the platform-simulation mechanism).
    use dispel4py::workflows::sentiment;
    let run = |cores: usize| {
        let limiter = std::sync::Arc::new(dispel4py::core::platform::CoreLimiter::new(cores));
        let (exe, _) = sentiment::build(
            &WorkloadConfig::standard()
                .with_time_scale(0.02)
                .with_limiter(limiter),
        );
        HybridMulti
            .execute(&exe, &ExecutionOptions::new(10))
            .unwrap()
            .runtime
    };
    let one_core = run(1);
    let many_cores = run(16);
    assert!(
        one_core.as_secs_f64() > many_cores.as_secs_f64() * 1.5,
        "1 core {one_core:?} vs 16 cores {many_cores:?}"
    );
}

#[test]
fn hybrid_records_one_latency_sample_per_task() {
    // The dynamic family shares one task runner, so a hybrid run fills
    // `task_latency` exactly as a `dyn_*` run does.
    use dispel4py::workflows::sentiment;
    let (exe, _) = sentiment::build(&WorkloadConfig::standard().with_time_scale(0.0));
    let report = HybridMulti
        .execute(&exe, &ExecutionOptions::new(10))
        .unwrap();
    assert!(report.tasks_executed > 0);
    assert_eq!(report.task_latency.count, report.tasks_executed);
    assert!(report.task_latency.p50.is_some());
}

#[test]
fn dead_port_emissions_count_the_same_across_the_dynamic_family() {
    // `a` has a second output port nobody listens on and emits on it once
    // per item: every such emission goes nowhere, whichever engine runs it.
    let mut g = WorkflowGraph::new("dead-port");
    let a =
        g.add_pe(PeSpec::source("a", "out").with_port(dispel4py::graph::PortDecl::output("debug")));
    let b = g.add_pe(PeSpec::sink("b", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            for i in 0..7 {
                ctx.emit("out", Value::Int(i));
                ctx.emit("debug", Value::Int(i));
            }
        }))
    });
    exe.register(b, || Box::new(CountingSink::new().0));
    let exe = exe.seal().unwrap();

    let opts = ExecutionOptions::new(3);
    let dynamic = DynMulti.execute(&exe, &opts).unwrap();
    let hybrid = HybridMulti.execute(&exe, &opts).unwrap();
    assert_eq!(dynamic.dropped_emissions, 7);
    assert_eq!(hybrid.dropped_emissions, dynamic.dropped_emissions);
    assert_eq!(hybrid.tasks_executed, dynamic.tasks_executed);
}
