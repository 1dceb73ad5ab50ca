//! The five workloads: what each builds, how it is run, and why it exists.
//!
//! All are closed batch streams with every service-time sleep switched off
//! (`WorkloadConfig::with_time_scale(0.0)`), so wall-clock is the program
//! and not `thread::sleep`. Sizes are frozen here; `--quick` shrinks them
//! for smoke runs whose results are stamped and never compared.

use crate::tap::{self, Tap, TapReading};
use crate::trace::{TimedConn, TimedQueue};
use d4py_sync::rng::{Pcg32, Rng};
use dispel4py::core::error::CoreError;
use dispel4py::core::mappings::dynamic::run_dynamic;
use dispel4py::core::mappings::hybrid::{run_hybrid, QueueFactory};
use dispel4py::core::queue::{TaskQueue, WorkStealQueue};
use dispel4py::prelude::*;
use dispel4py::redis::RedisQueue;
use dispel4py::workflows::{seismic, sentiment};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pass-through stages between the chain's source and sink.
const CHAIN_HOPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Chain,
    Seismic,
    Sentiment,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    DynMulti,
    DynRedis,
    HybridRedis,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    flow: Flow,
    engine: Engine,
    /// Source stream length (chain) or workflow scale (paper workflows).
    size: u32,
    quick_size: u32,
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "chain9_inproc",
        why: "null 9-hop chain under dyn_multi: queue, routing, Task construction and the worker loop do all the work",
        flow: Flow::Chain,
        engine: Engine::DynMulti,
        size: 100_000,
        quick_size: 20_000,
    },
    Workload {
        name: "chain9_redis",
        why: "the same chain under dyn_redis over TCP: many tiny commands, so command rate and round trips dominate",
        flow: Flow::Chain,
        engine: Engine::DynRedis,
        size: 2_400,
        quick_size: 600,
    },
    Workload {
        name: "seismic_inproc",
        why: "paper seismic workflow under dyn_multi: DSP kernels and Value::List cloning dominate; control for engine changes",
        flow: Flow::Seismic,
        engine: Engine::DynMulti,
        size: 6,
        quick_size: 2,
    },
    Workload {
        name: "seismic_redis",
        why: "seismic under dyn_redis over TCP: few ~5 KB commands, so codec and bytes moved dominate instead of command rate",
        flow: Flow::Seismic,
        engine: Engine::DynRedis,
        size: 4,
        quick_size: 1,
    },
    Workload {
        name: "sentiment_hybrid_redis",
        why: "paper sentiment workflow under hybrid_redis: group-by and global routing, pinned stateful workers, parked readers",
        flow: Flow::Sentiment,
        engine: Engine::HybridRedis,
        size: 20,
        quick_size: 5,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// Cores the engines get; reported with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A workload's executable, ready to run repeatedly.
pub struct Built {
    /// The workflow with its sinks tapped (and, traced, every PE timed).
    pub exe: Executable,
    tap: Arc<Tap>,
    /// Drains the workflow's own result handle into canonical rows.
    rows: Box<dyn Fn() -> Vec<String>>,
}

/// A run's output, reduced to what the oracle compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    pub tap: TapReading,
    /// Sink item count, sink multiset hash (where order-independent) and the
    /// sorted canonical rows of the workflow's result handle.
    pub digest: Vec<String>,
}

impl Built {
    /// Reads and resets the output of the repetition that just ended.
    pub fn take_output(&self) -> Output {
        let tap = self.tap.take();
        let mut digest = vec![format!("sink_items={}", tap.count)];
        if let Some(hash) = tap.hash {
            digest.push(format!("sink_hash={hash:016x}"));
        }
        let mut rows = (self.rows)();
        rows.sort();
        digest.extend(rows);
        Output { tap, digest }
    }
}

/// Floats rounded to nine significant digits, as the chaos matrix
/// canonicalises them: parallel schedules sum per-state scores in different
/// orders, and float addition is not associative.
fn canonical(v: &Value) -> Value {
    match v {
        Value::Float(x) => Value::Str(format!("{x:.8e}")),
        Value::List(items) => Value::List(items.iter().map(canonical).collect()),
        Value::Map(m) => Value::Map(m.iter().map(|(k, x)| (k.clone(), canonical(x))).collect()),
        other => other.clone(),
    }
}

impl Workload {
    fn size(&self, quick: bool) -> u32 {
        if quick {
            self.quick_size
        } else {
            self.size
        }
    }

    /// Length of the source stream: the "items" of every per-item metric.
    pub fn items(&self, quick: bool) -> u64 {
        let size = self.size(quick) as u64;
        match self.flow {
            Flow::Chain => size,
            Flow::Seismic => size * seismic::workflow::STATIONS_PER_X as u64,
            Flow::Sentiment => size * sentiment::workflow::ARTICLES_PER_X as u64,
        }
    }

    pub fn uses_redis(&self) -> bool {
        self.engine != Engine::DynMulti
    }

    pub fn mapping(&self) -> &'static str {
        match self.engine {
            Engine::DynMulti => "dyn_multi",
            Engine::DynRedis => "dyn_redis",
            Engine::HybridRedis => "hybrid_redis",
        }
    }

    /// Engine workers: one per core, plus the pinned stateful instances a
    /// hybrid run dedicates a worker each to.
    pub fn workers(&self) -> usize {
        match self.engine {
            Engine::HybridRedis => {
                sentiment::workflow::HAPPY_STATE_INSTANCES
                    + sentiment::workflow::TOP3_INSTANCES
                    + nproc()
            }
            _ => nproc(),
        }
    }

    /// Builds the workflow from `seed`. `sample_every` switches the traced
    /// wrappers on (see [`tap::wrap`]).
    pub fn build(&self, seed: u64, quick: bool, sample_every: Option<u64>) -> Built {
        let cfg = WorkloadConfig::standard()
            .with_scale(self.size(quick))
            .with_time_scale(0.0)
            .with_seed(seed);
        let (exe, rows, hash_items): (Executable, Box<dyn Fn() -> Vec<String>>, bool) = match self
            .flow
        {
            Flow::Chain => {
                let (exe, counted) = chain(self.size(quick) as usize, seed);
                let rows = move || vec![format!("counted={}", counted.swap(0, Ordering::SeqCst))];
                (exe, Box::new(rows), true)
            }
            Flow::Seismic => {
                let (exe, written) = seismic::build(&cfg);
                let rows = move || std::mem::take(&mut *written.lock());
                (exe, Box::new(rows), true)
            }
            Flow::Sentiment => {
                let (exe, results) = sentiment::build(&cfg);
                let rows = move || {
                    std::mem::take(&mut *results.lock())
                        .iter()
                        .map(|v| format!("{:?}", canonical(v)))
                        .collect()
                };
                // top3Happiest receives partial aggregates whose float
                // sums depend on arrival order; its rows are the oracle.
                (exe, Box::new(rows), false)
            }
        };
        let tap = Tap::new(hash_items, sample_every.is_some());
        Built {
            exe: tap::wrap(&exe, &tap, sample_every),
            tap,
            rows,
        }
    }

    /// The reference output: one sequential run under `Simple`.
    pub fn reference(&self, seed: u64, quick: bool) -> Result<Vec<String>, CoreError> {
        let built = self.build(seed, quick, None);
        Simple.execute(&built.exe, &ExecutionOptions::new(1))?;
        Ok(built.take_output().digest)
    }

    /// One measured run, through the mapping a user would call.
    pub fn execute(
        &self,
        exe: &Executable,
        redis: Option<&RedisBackend>,
    ) -> Result<RunReport, CoreError> {
        let opts = ExecutionOptions::new(self.workers());
        let backend = || redis.cloned().expect("redis workloads are given a backend");
        match self.engine {
            Engine::DynMulti => DynMulti.execute(exe, &opts),
            Engine::DynRedis => DynRedis::new(backend()).execute(exe, &opts),
            Engine::HybridRedis => HybridRedis::new(backend()).execute(exe, &opts),
        }
    }

    /// One traced run: the same engines, handed decorated queues and
    /// connections. Mirrors the constructors in `dyn_multi.rs` and
    /// `redis-mappings/src/mappings.rs`.
    pub fn execute_traced(
        &self,
        exe: &Executable,
        redis: Option<&RedisBackend>,
    ) -> Result<RunReport, CoreError> {
        // A process-wide counter keeps stream keys of successive traced
        // repetitions apart, as the mappings' own run counter does.
        static RUN: AtomicU64 = AtomicU64::new(0);
        let run = RUN.fetch_add(1, Ordering::SeqCst);
        let opts = ExecutionOptions::new(self.workers());
        let timed_backend = || {
            let plain = redis.cloned().expect("redis workloads are given a backend");
            RedisBackend::custom(move || Ok(Box::new(TimedConn::new(plain.connect()?))))
        };
        match self.engine {
            Engine::DynMulti => {
                let queue = Arc::new(WorkStealQueue::new(opts.workers));
                let queue = Arc::new(TimedQueue::global(queue));
                run_dynamic(exe, &opts, queue, "dyn_multi", None)
            }
            Engine::DynRedis => {
                let key = format!("d4py:traced:{run}");
                let queue = Arc::new(RedisQueue::new(&timed_backend(), key, opts.workers)?);
                let queue = Arc::new(TimedQueue::global(queue));
                run_dynamic(exe, &opts, queue, "dyn_redis", None)
            }
            Engine::HybridRedis => {
                let factory = TimedRedisQueues {
                    backend: timed_backend(),
                    run,
                };
                run_hybrid(exe, &opts, &factory, "hybrid_redis")
            }
        }
    }
}

struct TimedRedisQueues {
    backend: RedisBackend,
    run: u64,
}

impl QueueFactory for TimedRedisQueues {
    fn make(&self, name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
        let key = format!("d4py:traced:{}:{name}", self.run);
        let queue = Arc::new(RedisQueue::new(&self.backend, key, consumers.max(1))?);
        Ok(Arc::new(if name == "global" {
            TimedQueue::global(queue)
        } else {
            TimedQueue::private(queue)
        }))
    }
}

/// source → nine pass-through transforms → counting sink over `Value::Int`.
/// The stream is generated here, from the seed, before any run: the source
/// only emits it.
fn chain(items: usize, seed: u64) -> (Executable, Arc<AtomicU64>) {
    let mut rng = Pcg32::seed_from_u64(seed);
    let stream: Arc<Vec<i64>> = Arc::new((0..items).map(|_| rng.gen::<u64>() as i64).collect());

    let mut g = WorkflowGraph::new("chain9");
    let source = g.add_pe(PeSpec::source("source", "out"));
    let mut prev = source;
    let mut hops = Vec::with_capacity(CHAIN_HOPS);
    for i in 0..CHAIN_HOPS {
        let hop = g.add_pe(PeSpec::transform(format!("hop{i}"), "in", "out"));
        g.connect(prev, "out", hop, "in", Grouping::Shuffle)
            .expect("ports declared on the PeSpecs above");
        hops.push(hop);
        prev = hop;
    }
    let sink = g.add_pe(PeSpec::sink("sink", "in"));
    g.connect(prev, "out", sink, "in", Grouping::Shuffle)
        .expect("ports declared on the PeSpecs above");

    let mut exe = Executable::new(g).expect("a straight chain is a valid graph");
    exe.register(source, move || {
        let stream = stream.clone();
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            for &v in stream.iter() {
                ctx.emit("out", Value::Int(v));
            }
        }))
    });
    for hop in hops {
        exe.register(hop, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", v);
            }))
        });
    }
    let (_, counted) = CountingSink::new();
    let handle = counted.clone();
    exe.register(sink, move || {
        Box::new(CountingSink::into_handle(handle.clone()))
    });
    (exe.seal().expect("every chain PE is registered"), counted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_reference_other_seed_differs() {
        let w = by_name("chain9_inproc").unwrap();
        let a = w.reference(7, true).unwrap();
        assert_eq!(a, w.reference(7, true).unwrap());
        assert_ne!(a, w.reference(8, true).unwrap());
        assert_eq!(a[0], format!("sink_items={}", w.items(true)));
    }

    #[test]
    fn every_workload_matches_its_reference_untraced_and_traced() {
        let server = dispel4py::redis_lite::server::Server::start(0).unwrap();
        let backend = RedisBackend::Tcp(server.addr());
        for w in ALL {
            let reference = w.reference(42, true).unwrap();
            let redis = w.uses_redis().then_some(&backend);

            let built = w.build(42, true, None);
            let plain = w.execute(&built.exe, redis).unwrap();
            assert_eq!(built.take_output().digest, reference, "{}", w.name);

            crate::trace::begin();
            let built = w.build(42, true, Some(10));
            let traced = w.execute_traced(&built.exe, redis).unwrap();
            let threads = crate::trace::finish();
            assert_eq!(built.take_output().digest, reference, "{} traced", w.name);
            assert_eq!(traced.tasks_executed, plain.tasks_executed, "{}", w.name);
            let calls: u64 = threads
                .iter()
                .flat_map(|t| t.pes.iter())
                .map(|p| p.calls)
                .sum();
            assert_eq!(calls, traced.tasks_executed, "{}", w.name);
        }
    }
}
