//! Property-based tests over the core data structures and invariants.
//!
//! Runs on the in-repo seeded harness (`d4py_sync::prop`): every case is
//! deterministic, and a failing case prints the seed to replay it with
//! `D4PY_PROP_SEED=<seed> D4PY_PROP_CASES=1`.

use d4py_sync::prop::{for_all, for_all_cases, Gen};
use d4py_sync::rng::StdRng;
use d4py_sync::ByteBuf;
use dispel4py::core::codec::{decode_item, decode_value, encode_item, encode_value};
use dispel4py::core::routing::{Route, Router};
use dispel4py::core::task::{QueueItem, Task};
use dispel4py::core::value::Value;
use dispel4py::core::workload::BetaSampler;
use dispel4py::graph::{ConnectionId, Grouping, PeId, PeSpec, WorkflowGraph};
use dispel4py::prelude::{
    Collector, Context, DynMulti, Executable, ExecutionOptions, FnSource, FnTransform, HybridMulti,
    Mapping, Multi, Simple,
};
use dispel4py::redis_lite::resp::{self, Frame};

fn d4py_pe_id(i: usize) -> PeId {
    PeId(i)
}

/// A random `Value` tree, depth-bounded like the old recursive strategy.
fn gen_value(g: &mut Gen, depth: usize) -> Value {
    let branching = if depth == 0 { 6 } else { 8 };
    match g.usize_in(0..branching) {
        0 => Value::Null,
        1 => Value::Bool(g.any()),
        2 => Value::Int(g.any_i64()),
        3 => Value::Float(g.any_f64_bits()),
        4 => Value::Str(g.string(0..24)),
        5 => Value::Bytes(g.bytes(0..32)),
        6 => Value::List(g.vec(0..6, |g| gen_value(g, depth - 1))),
        _ => {
            let n = g.usize_in(0..6);
            let mut m = std::collections::BTreeMap::new();
            for _ in 0..n {
                m.insert(
                    g.string_of("abcdefghijklmnopqrstuvwxyz", 1..8),
                    gen_value(g, depth - 1),
                );
            }
            Value::Map(m)
        }
    }
}

/// NaN-tolerant structural equality (NaN ≠ NaN breaks `PartialEq` roundtrip
/// checks even when the bytes are preserved exactly).
fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x.is_nan() && y.is_nan()) || x == y,
        (Value::List(xs), Value::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| value_eq(x, y))
        }
        (Value::Map(xm), Value::Map(ym)) => {
            xm.len() == ym.len()
                && xm
                    .iter()
                    .zip(ym.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && value_eq(va, vb))
        }
        _ => a == b,
    }
}

#[test]
fn codec_roundtrips_any_value() {
    for_all(|g| {
        let v = gen_value(g, 3);
        let bytes = encode_value(&v);
        let back = decode_value(&bytes).unwrap();
        assert!(value_eq(&v, &back), "{v:?} != {back:?}");
    });
}

#[test]
fn codec_roundtrips_any_task() {
    for_all(|g| {
        let v = gen_value(g, 3);
        let pe = g.usize_in(0..64);
        let inst = g.option(|g| g.usize_in(0..16));
        let port = g.string_of("abcdefghijklmnopqrstuvwxyz_", 1..12);
        let item = QueueItem::Task(Task {
            pe: PeId(pe),
            port,
            value: v,
            instance: inst,
        });
        let back = decode_item(&encode_item(&item)).unwrap();
        match (&item, &back) {
            (QueueItem::Task(a), QueueItem::Task(b)) => {
                assert_eq!(a.pe, b.pe);
                assert_eq!(a.instance, b.instance);
                assert_eq!(&a.port, &b.port);
                assert!(value_eq(&a.value, &b.value));
            }
            _ => panic!("variant changed"),
        }
    });
}

#[test]
fn truncated_codec_input_never_panics() {
    for_all(|g| {
        let v = gen_value(g, 3);
        let bytes = encode_value(&v);
        let cut = ((bytes.len() as f64) * g.f64_in(0.0..1.0)) as usize;
        let _ = decode_value(&bytes[..cut.min(bytes.len())]); // must not panic
    });
}

#[test]
fn routing_hash_is_stable_and_equal_for_clones() {
    for_all(|g| {
        let v = gen_value(g, 3);
        assert_eq!(v.routing_hash(), v.clone().routing_hash());
    });
}

#[test]
fn group_by_routing_is_deterministic() {
    for_all(|g| {
        let v = gen_value(g, 3);
        let n = g.usize_in(1..16);
        let grouping = Grouping::group_by("k");
        let mut r1 = Router::new();
        let mut r2 = Router::new();
        let a = r1.route(ConnectionId(0), &grouping, &v, n);
        let b = r2.route(ConnectionId(0), &grouping, &v, n);
        assert_eq!(a, b);
        if let Route::One(i) = a {
            assert!(i < n);
        }
    });
}

#[test]
fn shuffle_routing_is_balanced() {
    for_all(|g| {
        let n = g.usize_in(1..12);
        let items = g.usize_in(1..100);
        let mut router = Router::new();
        let mut counts = vec![0usize; n];
        for _ in 0..items {
            if let Route::One(i) =
                router.route(ConnectionId(7), &Grouping::Shuffle, &Value::Null, n)
            {
                counts[i] += 1;
            }
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "round-robin imbalance: {counts:?}");
    });
}

#[test]
fn beta_sampler_stays_in_unit_interval() {
    for_all(|g| {
        let seed: u64 = g.any();
        let alpha = g.f64_in(0.5..4.0);
        let beta = g.f64_in(0.5..8.0);
        let sampler = BetaSampler::new(alpha, beta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = sampler.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x));
        }
    });
}

#[test]
fn resp_roundtrips_bulk() {
    for_all(|g| {
        let payload = g.bytes(0..256);
        let frame = Frame::bulk(payload);
        let mut buf = ByteBuf::new();
        resp::encode(&frame, &mut buf);
        let (back, used) = resp::decode(&buf).unwrap().unwrap();
        assert_eq!(back, frame);
        assert_eq!(used, buf.len());
    });
}

#[test]
fn resp_decoder_never_panics_on_garbage() {
    for_all(|g| {
        let junk = g.bytes(0..128);
        let _ = resp::decode(&junk); // Err or Ok, never a panic
    });
}

/// Engine equivalence: a random linear pipeline of arithmetic stages
/// produces the same multiset of outputs under every mapping.
#[test]
fn random_pipelines_agree_across_engines() {
    // Each case spins up real worker threads across four engines — keep the
    // case count low; coverage comes from the per-case random pipeline shape.
    for_all_cases(12, |g| {
        let items = g.i64_in(1..40);
        let ops: Vec<(u8, i64)> = g.vec(1..5, |g| (g.usize_in(0..3) as u8, g.i64_in(-9..10)));

        let build = |ops: Vec<(u8, i64)>, items: i64| {
            let mut wg = WorkflowGraph::new("rand");
            let src = wg.add_pe(PeSpec::source("src", "out"));
            let mut prev = (src, "out".to_string());
            for (i, _) in ops.iter().enumerate() {
                let pe = wg.add_pe(PeSpec::transform(format!("op{i}"), "in", "out"));
                wg.connect(prev.0, prev.1.clone(), pe, "in", Grouping::Shuffle)
                    .unwrap();
                prev = (pe, "out".to_string());
            }
            let sink = wg.add_pe(PeSpec::sink("sink", "in"));
            wg.connect(prev.0, prev.1, sink, "in", Grouping::Shuffle)
                .unwrap();

            let (_, handle) = Collector::new();
            let h = handle.clone();
            let mut exe = Executable::new(wg).unwrap();
            exe.register(src, move || {
                Box::new(FnSource(move |ctx: &mut dyn Context| {
                    for i in 0..items {
                        ctx.emit("out", Value::Int(i));
                    }
                }))
            });
            for (i, (op, operand)) in ops.iter().cloned().enumerate() {
                exe.register(d4py_pe_id(i + 1), move || {
                    Box::new(FnTransform(
                        move |_: &str, v: Value, ctx: &mut dyn Context| {
                            let x = v.as_int().unwrap();
                            let y = match op {
                                0 => x.wrapping_add(operand),
                                1 => x.wrapping_mul(operand),
                                _ => {
                                    // Filter stage: drop values where x % 3 == rem.
                                    if x.rem_euclid(3) == operand.rem_euclid(3) {
                                        return;
                                    }
                                    x
                                }
                            };
                            ctx.emit("out", Value::Int(y));
                        },
                    ))
                });
            }
            exe.register(d4py_pe_id(ops.len() + 1), move || {
                Box::new(Collector::into_handle(h.clone()))
            });
            (exe.seal().unwrap(), handle)
        };

        let outputs = |mapping: &dyn Mapping, workers: usize| {
            let (exe, handle) = build(ops.clone(), items);
            mapping
                .execute(&exe, &ExecutionOptions::new(workers))
                .unwrap();
            let mut v: Vec<i64> = handle.lock().iter().map(|x| x.as_int().unwrap()).collect();
            v.sort_unstable();
            v
        };

        let reference = outputs(&Simple, 1);
        assert_eq!(reference, outputs(&DynMulti, 3));
        assert_eq!(reference, outputs(&Multi, (ops.len() + 2).max(3)));
        assert_eq!(reference, outputs(&HybridMulti, 3));
    });
}

#[test]
fn resp_incremental_prefixes_never_succeed_spuriously() {
    for_all(|g| {
        let text = g.string_of("abcdefghijklmnopqrstuvwxyz", 0..32);
        let frame = Frame::Simple(text);
        let mut buf = ByteBuf::new();
        resp::encode(&frame, &mut buf);
        for cut in 0..buf.len() {
            // A strict prefix either needs more data or (never) errors.
            assert_eq!(resp::decode(&buf[..cut]).unwrap(), None);
        }
    });
}

/// A random valid workflow for the oracle property: PE 0 is a source (and
/// PE 1, sometimes, a second one), every later PE takes one or two inputs
/// from earlier PEs over a random grouping, any PE may be stateful or pin
/// its instance count, and a PE nothing consumes is a sink. Sources emit
/// `items` maps `{k, v}`; a transform forwards what it gets, and a stateful
/// one also emits its count in `on_done`.
fn oracle_workflow(g: &mut Gen) -> Executable {
    let n = g.usize_in(2..7);
    let second_source = n >= 3 && g.usize_in(0..4) == 0;
    let mut inputs: Vec<Vec<(usize, Grouping)>> = vec![Vec::new(); n];
    // One graph in three is stateless and shuffled throughout, so that the
    // pool mappings accept some graphs too.
    let stateless = g.usize_in(0..3) == 0;
    let groupings = if stateless {
        vec![Grouping::Shuffle]
    } else {
        vec![
            Grouping::Shuffle,
            Grouping::Shuffle,
            Grouping::group_by("k"),
            Grouping::Global,
            Grouping::OneToAll,
        ]
    };
    let first = if second_source { 2 } else { 1 };
    for (pe, fed) in inputs.iter_mut().enumerate().skip(first) {
        let mut preds = vec![if second_source && pe == 2 {
            1
        } else {
            g.usize_in(0..pe)
        }];
        if g.usize_in(0..3) == 0 {
            preds.push(g.usize_in(0..pe));
        }
        preds.dedup();
        for from in preds {
            fed.push((from, g.pick(&groupings).clone()));
        }
    }
    let consumed: Vec<bool> = (0..n)
        .map(|pe| inputs.iter().flatten().any(|(from, _)| *from == pe))
        .collect();
    let mut wg = WorkflowGraph::new("oracle");
    for pe in 0..n {
        let name = format!("p{pe}");
        let mut spec = match (inputs[pe].is_empty(), consumed[pe]) {
            (true, _) => PeSpec::source(name, "out"),
            (false, true) => PeSpec::transform(name, "in", "out"),
            (false, false) => PeSpec::sink(name, "in"),
        };
        if !stateless && g.usize_in(0..3) == 0 {
            spec = spec.stateful();
        }
        if g.usize_in(0..4) == 0 {
            spec = spec.with_instances(g.usize_in(1..3));
        }
        wg.add_pe(spec);
    }
    for (pe, fed) in inputs.iter().enumerate() {
        for (from, grouping) in fed {
            wg.connect(PeId(*from), "out", PeId(pe), "in", grouping.clone())
                .unwrap();
        }
    }
    let items = g.i64_in(1..6);
    let mut exe = Executable::new(wg).unwrap();
    for pe in 0..n {
        let (source, stateful) = {
            let spec = exe.graph().pe(PeId(pe)).unwrap();
            (inputs[pe].is_empty(), spec.stateful)
        };
        let emits = consumed[pe];
        if source {
            exe.register(PeId(pe), move || {
                Box::new(FnSource(move |ctx: &mut dyn Context| {
                    for i in 0..items {
                        let k = ["a", "b", "c"][i as usize % 3];
                        ctx.emit(
                            "out",
                            Value::map([("k", Value::from(k)), ("v", Value::Int(i))]),
                        );
                    }
                }))
            });
        } else {
            exe.register(PeId(pe), move || {
                Box::new(Forward {
                    emits,
                    stateful,
                    seen: 0,
                })
            });
        }
    }
    exe.seal().unwrap()
}

/// The oracle workflow's transforms and sinks.
struct Forward {
    emits: bool,
    stateful: bool,
    seen: i64,
}

impl dispel4py::prelude::ProcessingElement for Forward {
    fn process(&mut self, _port: &str, v: Value, ctx: &mut dyn Context) {
        self.seen += 1;
        if self.emits {
            ctx.emit("out", v);
        }
    }

    fn on_done(&mut self, ctx: &mut dyn Context) {
        if self.emits && self.stateful {
            ctx.emit(
                "out",
                Value::map([("k", Value::from("n")), ("v", Value::Int(self.seen))]),
            );
        }
    }
}

/// The pre-flight analyzer is the only gate: over random valid workflows,
/// every in-process mapping at 1–4 workers (`multi` plain, over the
/// graph's staging and over a random clustering) runs the graph exactly when
/// `analyze` under that mapping's placement finds no error, and otherwise
/// refuses it with `CoreError::Analysis` naming the mapping. A refusal
/// left out of the analyzer shows here as a run that fails some other way
/// (a panic, a partition error, a hang) where the oracle said yes.
/// `D4PY_PROP_CASES` deepens it (the nightly run does).
#[test]
fn execute_refuses_exactly_what_the_placement_oracle_refuses() {
    use dispel4py::core::error::CoreError;
    use dispel4py::graph::optimize::{staging, Clustering};
    use dispel4py::graph::{AnalysisContext, Placement};
    use dispel4py::prelude::{DynAutoMulti, DynRedis, HybridRedis, RedisBackend};

    let backend = RedisBackend::in_proc();
    for_all(|g| {
        let exe = oracle_workflow(g);
        let graph = exe.graph();
        let pool = |autoscaling| Placement::Pool { autoscaling };
        // A random clustering: each PE joins one of up to three clusters,
        // so clusters may cycle, hold pins, keyed edges or sources.
        let labels: Vec<usize> = graph.pe_ids().map(|_| g.usize_in(0..3)).collect();
        let random = Clustering {
            clusters: (0..3)
                .map(|l| {
                    graph
                        .pe_ids()
                        .filter(|pe| labels[pe.0] == l)
                        .collect::<Vec<_>>()
                })
                .filter(|c| !c.is_empty())
                .collect(),
        };
        let mappings: Vec<(Box<dyn Mapping>, Placement)> = vec![
            (Box::new(Simple), Placement::Sequential),
            (
                Box::new(Multi),
                Placement::Static(Clustering::singletons(graph)),
            ),
            (
                Box::new(Multi::clustered(staging(graph))),
                Placement::Static(staging(graph)),
            ),
            (
                Box::new(Multi::clustered(random.clone())),
                Placement::Static(random),
            ),
            (Box::new(DynMulti), pool(false)),
            (Box::new(DynAutoMulti::new()), pool(true)),
            (Box::new(HybridMulti), Placement::Hybrid),
            (Box::new(DynRedis::new(backend.clone())), pool(false)),
            (
                Box::new(HybridRedis::new(backend.clone())),
                Placement::Hybrid,
            ),
        ];
        for (mapping, placement) in mappings {
            for workers in 1..=4 {
                let ctx = AnalysisContext::placed(workers, placement.clone());
                let oracle = graph.analyze(&ctx);
                let name = mapping.name();
                let run = mapping.execute(&exe, &ExecutionOptions::new(workers));
                match (oracle.has_errors(), run) {
                    (false, Ok(_)) => {}
                    (true, Err(CoreError::Analysis { mapping: m, .. })) if m == name => {}
                    (_, run) => panic!(
                        "{name} at {workers} workers: the oracle says\n{}but the run gave {:?}",
                        oracle.render(),
                        run.map(|r| r.tasks_executed)
                    ),
                }
            }
        }
    });
}
