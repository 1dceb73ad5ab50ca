//! Cross-crate integration: every mapping must compute identical results on
//! the same abstract workflow — the semantic contract Figure 1's
//! abstract/concrete split promises.

use dispel4py::graph::optimize::staging;
use dispel4py::prelude::*;
use dispel4py::workflows::astro;

fn fast_cfg() -> WorkloadConfig {
    WorkloadConfig::standard().with_time_scale(0.005)
}

fn run_astro(mapping: &dyn Mapping, workers: usize) -> Vec<(i64, f64)> {
    let (exe, results) = astro::build(&fast_cfg());
    mapping
        .execute(&exe, &ExecutionOptions::new(workers))
        .unwrap();
    let mut got: Vec<(i64, f64)> = results
        .lock()
        .iter()
        .map(|r| {
            (
                r.get("id").unwrap().as_int().unwrap(),
                r.get("extinction").unwrap().as_float().unwrap(),
            )
        })
        .collect();
    got.sort_by_key(|(id, _)| *id);
    got
}

#[test]
fn all_seven_mappings_agree_on_the_galaxy_workflow() {
    let reference = run_astro(&Simple, 1);
    assert_eq!(reference.len(), 100);

    let backend = RedisBackend::in_proc();
    let staged = staging(astro::build(&fast_cfg()).0.graph());
    let mappings: Vec<(Box<dyn Mapping>, usize)> = vec![
        (Box::new(Multi), 6),
        (Box::new(Multi::clustered(staged)), 6),
        (Box::new(DynMulti), 4),
        (Box::new(DynAutoMulti::new()), 6),
        (Box::new(HybridMulti), 4),
        (Box::new(DynRedis::new(backend.clone())), 4),
        (Box::new(DynAutoRedis::new(backend.clone())), 6),
        (Box::new(HybridRedis::new(backend)), 4),
    ];
    for (mapping, workers) in mappings {
        let got = run_astro(mapping.as_ref(), workers);
        assert_eq!(got, reference, "mapping {} diverged", mapping.name());
    }
}

#[test]
fn mapping_reports_carry_consistent_metadata() {
    let (exe, _) = astro::build(&fast_cfg());
    let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    assert_eq!(report.mapping, "dyn_multi");
    assert_eq!(report.workers, 4);
    assert!(report.runtime > std::time::Duration::ZERO);
    assert!(
        report.process_time >= report.runtime,
        "4 polling workers outlive the wall clock"
    );
    // 1 kickoff + 100×3 data deliveries.
    assert_eq!(report.tasks_executed, 301);
    assert_eq!(report.dropped_emissions, 0);
}

#[test]
fn per_pe_breakdown_accounts_for_every_task() {
    let (exe, _) = astro::build(&fast_cfg());
    let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    let counts: std::collections::HashMap<&str, u64> = report
        .per_pe_tasks
        .iter()
        .map(|(name, n)| (name.as_str(), *n))
        .collect();
    assert_eq!(counts["readRaDec"], 1, "one kickoff");
    assert_eq!(counts["getVOTable"], 100);
    assert_eq!(counts["filterColumns"], 100);
    assert_eq!(counts["internalExtinction"], 100);
    let total: u64 = report.per_pe_tasks.iter().map(|(_, n)| n).sum();
    assert_eq!(total, report.tasks_executed);
}

#[test]
fn per_pe_breakdown_matches_across_mappings() {
    let mappings: Vec<(Box<dyn Mapping>, usize)> = vec![
        (Box::new(Simple), 1),
        (Box::new(Multi), 6),
        (Box::new(HybridMulti), 4),
    ];
    let mut reference: Option<Vec<(String, u64)>> = None;
    for (mapping, workers) in mappings {
        let (exe, _) = astro::build(&fast_cfg());
        let report = mapping
            .execute(&exe, &ExecutionOptions::new(workers))
            .unwrap();
        match &reference {
            None => reference = Some(report.per_pe_tasks),
            Some(expected) => assert_eq!(
                expected,
                &report.per_pe_tasks,
                "{} breakdown diverged",
                mapping.name()
            ),
        }
    }
}

#[test]
fn worker_count_does_not_change_results_only_speed() {
    let small = run_astro(&DynMulti, 2);
    let large = run_astro(&DynMulti, 12);
    assert_eq!(small, large);
}

#[test]
fn multi_output_ports_route_independently() {
    // A splitter PE with two output ports feeding different sinks: every
    // mapping must honour per-port routing.
    use dispel4py::graph::{PeSpec, PortDecl, WorkflowGraph};

    let build = || {
        let mut g = WorkflowGraph::new("split");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let split = g
            .add_pe(PeSpec::transform("split", "input", "even").with_port(PortDecl::output("odd")));
        let evens = g.add_pe(PeSpec::sink("evens", "input"));
        let odds = g.add_pe(PeSpec::sink("odds", "input"));
        g.connect(src, "out", split, "input", Grouping::Shuffle)
            .unwrap();
        g.connect(split, "even", evens, "input", Grouping::Shuffle)
            .unwrap();
        g.connect(split, "odd", odds, "input", Grouping::Shuffle)
            .unwrap();
        let (_, even_h) = Collector::new();
        let (_, odd_h) = Collector::new();
        let (e2, o2) = (even_h.clone(), odd_h.clone());
        let mut exe = Executable::new(g).unwrap();
        exe.register(src, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..20 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(split, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                let port = if v.as_int().unwrap() % 2 == 0 {
                    "even"
                } else {
                    "odd"
                };
                ctx.emit(port, v);
            }))
        });
        exe.register(evens, move || Box::new(Collector::into_handle(e2.clone())));
        exe.register(odds, move || Box::new(Collector::into_handle(o2.clone())));
        (exe.seal().unwrap(), even_h, odd_h)
    };

    let mappings: Vec<(Box<dyn Mapping>, usize)> = vec![
        (Box::new(Simple), 1),
        (Box::new(Multi), 4),
        (Box::new(DynMulti), 4),
        (Box::new(HybridMulti), 4),
        (Box::new(DynRedis::new(RedisBackend::in_proc())), 4),
    ];
    for (mapping, workers) in mappings {
        let (exe, evens, odds) = build();
        mapping
            .execute(&exe, &ExecutionOptions::new(workers))
            .unwrap();
        let mut even_ints: Vec<i64> = evens.lock().iter().map(|v| v.as_int().unwrap()).collect();
        even_ints.sort_unstable();
        let mut odd_ints: Vec<i64> = odds.lock().iter().map(|v| v.as_int().unwrap()).collect();
        odd_ints.sort_unstable();
        assert_eq!(
            even_ints,
            (0..20).filter(|i| i % 2 == 0).collect::<Vec<_>>(),
            "{}",
            mapping.name()
        );
        assert_eq!(
            odd_ints,
            (0..20).filter(|i| i % 2 == 1).collect::<Vec<_>>(),
            "{}",
            mapping.name()
        );
    }
}

#[test]
fn platform_limiter_changes_timing_not_results() {
    let unlimited = run_astro(&DynMulti, 8);
    let (exe, results) = astro::build(&fast_cfg().with_limiter(Platform::CLOUD.limiter()));
    DynMulti.execute(&exe, &ExecutionOptions::new(8)).unwrap();
    let mut capped: Vec<(i64, f64)> = results
        .lock()
        .iter()
        .map(|r| {
            (
                r.get("id").unwrap().as_int().unwrap(),
                r.get("extinction").unwrap().as_float().unwrap(),
            )
        })
        .collect();
    capped.sort_by_key(|(id, _)| *id);
    assert_eq!(unlimited, capped);
}

/// A stream longer than a source's credit (4 096 outstanding tasks in the
/// dynamic-family engine) with a fan-out behind it: the engine writes the
/// source's emissions out while it runs and makes its worker help, and
/// every mapping must still deliver exactly what `simple` does.
#[test]
fn a_stream_longer_than_the_credit_agrees_across_mappings() {
    const ITEMS: i64 = 10_000;
    let build = || {
        let mut g = WorkflowGraph::new("long");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let split = g.add_pe(PeSpec::transform("split", "in", "out"));
        let sink = g.add_pe(PeSpec::sink("sink", "in"));
        g.connect(src, "out", split, "in", Grouping::Shuffle)
            .unwrap();
        g.connect(split, "out", sink, "in", Grouping::Shuffle)
            .unwrap();
        let (_, got) = Collector::new();
        let into = got.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(src, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                (0..ITEMS).for_each(|i| ctx.emit("out", Value::Int(i)));
            }))
        });
        exe.register(split, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                let x = v.as_int().unwrap();
                ctx.emit("out", Value::Int(2 * x));
                ctx.emit("out", Value::Int(2 * x + 1));
            }))
        });
        exe.register(sink, move || Box::new(Collector::into_handle(into.clone())));
        (exe.seal().unwrap(), got)
    };
    let run = |mapping: &dyn Mapping, workers: usize| {
        let (exe, got) = build();
        mapping
            .execute(&exe, &ExecutionOptions::new(workers))
            .unwrap();
        let mut ints: Vec<i64> = got.lock().iter().map(|v| v.as_int().unwrap()).collect();
        ints.sort_unstable();
        ints
    };
    let reference = run(&Simple, 1);
    assert_eq!(reference, (0..2 * ITEMS).collect::<Vec<_>>());
    let backend = RedisBackend::in_proc();
    let staged = staging(build().0.graph());
    let mappings: Vec<(Box<dyn Mapping>, usize)> = vec![
        (Box::new(Multi), 4),
        (Box::new(Multi::clustered(staged)), 4),
        (Box::new(DynMulti), 1),
        (Box::new(DynMulti), 3),
        (Box::new(DynAutoMulti::new()), 3),
        (Box::new(HybridMulti), 2),
        (Box::new(DynRedis::new(backend.clone())), 2),
        (Box::new(DynAutoRedis::new(backend.clone())), 3),
        (Box::new(HybridRedis::new(backend)), 2),
    ];
    for (mapping, workers) in mappings {
        let got = run(mapping.as_ref(), workers);
        assert_eq!(got, reference, "{} × {workers} diverged", mapping.name());
    }
}
