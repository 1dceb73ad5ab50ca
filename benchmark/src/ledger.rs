//! From a traced repetition to the per-layer metrics and the share ledger.
//!
//! Inline spans give PE, queue and connection time. What runs inside the
//! engines between those seams cannot be timed from outside, so it is
//! replayed offline: the sampled task stream through `Value::clone`,
//! `Router::route` and the codec, and the recorded command log through the
//! RESP encoder/decoder and a fresh in-process redis-lite engine. A layer
//! swapped for a replay costs what the replay costs; the rest of the
//! surrounding span is attributed to the layer that contains it, and what
//! no layer explains stays visible as `ledger.residual_share`.

use crate::json::Json;
use crate::tap::TapReading;
use crate::trace::{self, ConnAgg, LoggedTrip, PeAgg, SampledTask, ThreadRec};
use d4py_sync::{ByteBuf, SharedBuf};
use dispel4py::core::codec;
use dispel4py::core::routing::Router;
use dispel4py::core::task::{QueueItem, Task};
use dispel4py::graph::{AnalysisContext, ConnectionId, Grouping, WorkflowGraph};
use dispel4py::prelude::*;
use dispel4py::redis_lite::engine::Dispatch;
use dispel4py::redis_lite::resp::{self, Frame};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit, better direction. `BENCHMARK.json`
/// lists exactly these (a test holds the two together). A metric of a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("graph.analyze_us", "us", "lower"),
    ("core.pe.calls", "count", "lower"),
    ("core.pe.service_us_per_task", "us", "lower"),
    ("core.pe.service_share", "ratio", "higher"),
    ("core.pe.max_pe_share", "ratio", "lower"),
    ("core.pe.emit_ns_per_task", "ns", "lower"),
    ("core.pe.failed", "count", "lower"),
    ("core.value.clone_ns_per_task", "ns", "lower"),
    ("core.routing.route_ns_per_task", "ns", "lower"),
    ("core.routing.groupby_skew", "ratio", "lower"),
    ("core.queue.push_ns_per_item", "ns", "lower"),
    ("core.queue.pop_ns_per_item", "ns", "lower"),
    ("core.queue.items_per_pop", "count", "higher"),
    ("core.queue.empty_pops", "count", "lower"),
    ("core.queue.wait_share", "ratio", "lower"),
    ("core.queue.steals", "count", "lower"),
    ("core.codec.encode_ns_per_task", "ns", "lower"),
    ("core.codec.decode_ns_per_task", "ns", "lower"),
    ("core.codec.bytes_per_task", "bytes", "lower"),
    ("core.mappings.tasks", "count", "lower"),
    ("core.mappings.residual_us_per_task", "us", "lower"),
    ("core.mappings.termination_tail_ms", "ms", "lower"),
    ("core.mappings.dropped_emissions", "count", "lower"),
    ("redis-mappings.queue.self_us_per_task", "us", "lower"),
    ("redis-mappings.queue.items_per_pop", "count", "higher"),
    ("redis-mappings.queue.empty_pops", "count", "lower"),
    ("redis-mappings.queue.wait_share", "ratio", "lower"),
    ("redis-mappings.queue.private_share", "ratio", "lower"),
    ("redis.client.round_trips_per_task", "count", "lower"),
    ("redis.client.cmds_per_round_trip", "count", "higher"),
    ("redis.client.rtt_us_p50", "us", "lower"),
    ("redis.client.rtt_us_p99", "us", "lower"),
    ("redis.client.bytes_out_per_task", "bytes", "lower"),
    ("redis.client.bytes_in_per_task", "bytes", "lower"),
    ("redis.client.errors", "count", "lower"),
    ("redis.resp.encode_ns_per_cmd", "ns", "lower"),
    ("redis.resp.parse_ns_per_cmd", "ns", "lower"),
    ("redis.engine.exec_us_per_cmd", "us", "lower"),
    ("redis.wire.us_per_task", "us", "lower"),
    ("redis.server.cpu_us_per_cmd", "us", "lower"),
    ("redis.server.cpu_per_wall", "ratio", "lower"),
    ("redis.server.peak_rss_mb", "MiB", "lower"),
    ("ledger.residual_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// One traced repetition, as the worker observed it from outside.
pub struct TracedRun<'a> {
    pub graph: &'a WorkflowGraph,
    pub report: &'a RunReport,
    pub threads: Vec<ThreadRec>,
    pub uses_redis: bool,
    pub workers: usize,
    /// `execute` entry and return on the [`trace::now_ns`] clock.
    pub start_ns: u64,
    pub end_ns: u64,
    pub tap: TapReading,
    /// CPU seconds the redis-lite child burned during the repetition.
    pub server_cpu_s: f64,
    pub server_peak_rss_mib: f64,
    /// Median wall time of the untraced repetitions of the same process.
    pub untraced_wall_s: f64,
}

/// The per-layer view of one traced repetition.
pub struct Ledger {
    /// One value per [`PER_LAYER`] entry, in that order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Shares of summed worker wall time; with `residual` they sum to 1.
    pub shares: Vec<(&'static str, f64)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean cost in nanoseconds of `op` over `inputs`, repeated until the loop
/// has run long enough for the clock not to matter.
fn ns_per_op<T>(inputs: &[T], mut op: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let budget = Duration::from_millis(20);
    let started = Instant::now();
    let mut rounds = 0u64;
    loop {
        for input in inputs {
            op(input);
        }
        rounds += 1;
        if started.elapsed() >= budget {
            break;
        }
    }
    started.elapsed().as_nanos() as f64 / (rounds * inputs.len() as u64) as f64
}

/// The connection a sampled task arrived over and the instance count its
/// grouping chose among.
fn incoming(graph: &WorkflowGraph, task: &SampledTask) -> Option<(ConnectionId, Grouping, usize)> {
    let (id, conn) = graph
        .incoming(task.pe)
        .find(|(_, c)| c.to_port == task.port)?;
    let instances = match graph.pe(task.pe) {
        Some(spec) if graph.is_effectively_stateful(task.pe) => spec.instances.unwrap_or(1),
        _ => 1,
    };
    Some((id, conn.grouping.clone(), instances))
}

struct TaskReplay {
    clone_ns: f64,
    route_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
    bytes: f64,
}

/// Replays the sampled task stream through the layers a task crosses
/// between two PEs.
fn replay_tasks(graph: &WorkflowGraph, samples: &[SampledTask], with_codec: bool) -> TaskReplay {
    let clone_ns = ns_per_op(samples, |s| {
        black_box(black_box(&s.value).clone());
    });
    let routes: Vec<_> = samples.iter().map(|s| (incoming(graph, s), s)).collect();
    let mut router = Router::new();
    let route_ns = ns_per_op(&routes, |(conn, s)| {
        if let Some((id, grouping, instances)) = conn {
            black_box(router.route(*id, grouping, &s.value, *instances));
        }
    });
    let (mut encode_ns, mut decode_ns, mut bytes) = (0.0, 0.0, 0.0);
    if with_codec {
        let items: Vec<QueueItem> = samples
            .iter()
            .map(|s| QueueItem::Task(Task::new(s.pe, s.port.clone(), s.value.clone())))
            .collect();
        let encoded: Vec<Vec<u8>> = items.iter().map(codec::encode_item).collect();
        encode_ns = ns_per_op(&items, |item| {
            black_box(codec::encode_item(black_box(item)));
        });
        decode_ns = ns_per_op(&encoded, |buf| {
            black_box(codec::decode_item(black_box(buf)).is_ok());
        });
        bytes = ratio(
            encoded.iter().map(Vec::len).sum::<usize>() as f64,
            encoded.len() as f64,
        );
    }
    TaskReplay {
        clone_ns,
        route_ns,
        encode_ns,
        decode_ns,
        bytes,
    }
}

#[derive(Default)]
struct CommandReplay {
    cmds: u64,
    engine_ns: f64,
    encode_ns_per_cmd: f64,
    parse_ns_per_cmd: f64,
}

/// Entry ids of an `XREADGROUP` reply: `[[key, [[id, fields], ...]]]`.
fn read_ids(reply: &Frame) -> Vec<SharedBuf> {
    let entries = reply
        .as_array()
        .and_then(|streams| streams.first())
        .and_then(Frame::as_array)
        .and_then(|stream| stream.get(1))
        .and_then(Frame::as_array)
        .unwrap_or(&[]);
    entries
        .iter()
        .filter_map(|e| match e.as_array()?.first()? {
            Frame::Bulk(id) => Some(id.clone()),
            _ => None,
        })
        .collect()
}

/// Replays the command log, in its global order, through a fresh in-process
/// engine on the server's non-parking dispatch path, then through the
/// client's RESP encoder and reply decoder.
///
/// Stream ids are assigned at append time, so the ids in a logged `XDEL`
/// name nothing in the replayed keyspace: each `XDEL` deletes instead what
/// the same connection's previous replayed read returned, which is what the
/// queue did (read, then delete what was read).
fn replay_commands(mut trips: Vec<LoggedTrip>) -> CommandReplay {
    trips.sort_by_key(|t| t.seq);
    let RedisBackend::InProc(engine) = RedisBackend::in_proc() else {
        return CommandReplay::default();
    };
    let mut last_read: HashMap<usize, Vec<SharedBuf>> = HashMap::new();
    let mut replies: Vec<Vec<u8>> = Vec::new();
    let mut out = CommandReplay::default();
    for trip in &trips {
        for cmd in &trip.cmds {
            let mut args: Vec<SharedBuf> = cmd.iter().map(|a| SharedBuf::from(&a[..])).collect();
            let name = cmd.first().map(|c| c.to_ascii_uppercase());
            if name.as_deref() == Some(b"XDEL") {
                if let Some(ids) = last_read.remove(&trip.conn) {
                    args.truncate(2);
                    args.extend(ids);
                }
            }
            let started = Instant::now();
            let reply = match engine.dispatch_nonblocking(&args) {
                Dispatch::Ready(frame) => frame,
                // A read that found nothing: the original timed out or was
                // answered later; either way it executed this much.
                Dispatch::Blocked(_) => Frame::NullArray,
            };
            out.engine_ns += started.elapsed().as_nanos() as f64;
            out.cmds += 1;
            if name.as_deref() == Some(b"XREADGROUP") {
                last_read.insert(trip.conn, read_ids(&reply));
            }
            let mut buf = ByteBuf::with_capacity(64);
            resp::encode(&reply, &mut buf);
            replies.push(buf.freeze());
        }
    }
    let borrowed: Vec<Vec<&[u8]>> = trips
        .iter()
        .flat_map(|t| t.cmds.iter())
        .map(|cmd| cmd.iter().map(Vec::as_slice).collect())
        .collect();
    out.encode_ns_per_cmd = ns_per_op(&borrowed, |args| {
        let mut buf = ByteBuf::with_capacity(64);
        resp::encode_command(black_box(args), &mut buf);
        black_box(buf.len());
    });
    out.parse_ns_per_cmd = ns_per_op(&replies, |bytes| {
        black_box(resp::decode(black_box(bytes)).is_ok());
    });
    out
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

/// Largest `max ÷ mean` of items per instance over the PEs fed by a
/// group-by connection; 0 when the workflow has none.
fn groupby_skew(graph: &WorkflowGraph, threads: &[ThreadRec]) -> f64 {
    let mut worst: f64 = 0.0;
    for pe in graph.pe_ids() {
        let grouped = graph
            .incoming(pe)
            .any(|(_, c)| matches!(c.grouping, Grouping::GroupBy(_)));
        let instances = graph.pe(pe).and_then(|s| s.instances).unwrap_or(1);
        if !grouped || instances < 2 {
            continue;
        }
        let mut per_instance = vec![0u64; instances];
        for ((p, i), n) in threads.iter().flat_map(|t| t.instance_calls.iter()) {
            if *p == pe.0 && *i < instances {
                per_instance[*i] += n;
            }
        }
        let total: u64 = per_instance.iter().sum();
        let max = per_instance.iter().copied().max().unwrap_or(0);
        worst = worst.max(ratio(max as f64, total as f64 / instances as f64));
    }
    worst
}

/// Median time of the pre-flight analysis every `execute` runs first.
fn analyze_us(graph: &WorkflowGraph, workers: usize) -> f64 {
    let ctx = AnalysisContext::preflight(workers, false);
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let started = Instant::now();
            black_box(graph.analyze(black_box(&ctx)));
            started.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    d4py_sync::stats::median(&times)
}

/// Derives the per-layer metrics and the share ledger of one traced run.
pub fn derive(run: &mut TracedRun<'_>) -> Ledger {
    // The replay inputs are moved out; spans and totals stay for the trace file.
    let samples: Vec<SampledTask> = run
        .threads
        .iter_mut()
        .flat_map(|t| std::mem::take(&mut t.samples))
        .collect();
    let trips: Vec<LoggedTrip> = run
        .threads
        .iter_mut()
        .flat_map(|t| std::mem::take(&mut t.trips))
        .collect();
    let threads = &run.threads;
    let tasks = run.report.tasks_executed as f64;
    let wall_ns = (run.end_ns - run.start_ns) as f64;
    let worker_wall_ns = wall_ns * run.workers as f64;

    // --- inline spans ---------------------------------------------------
    let mut pes: Vec<PeAgg> = Vec::new();
    for t in threads {
        if pes.len() < t.pes.len() {
            pes.resize(t.pes.len(), PeAgg::default());
        }
        for (sum, p) in pes.iter_mut().zip(&t.pes) {
            sum.calls += p.calls;
            sum.total_ns += p.total_ns;
            sum.emit_ns += p.emit_ns;
            sum.emits += p.emits;
        }
    }
    let calls: u64 = pes.iter().map(|p| p.calls).sum();
    let pe_total_ns: u64 = pes.iter().map(|p| p.total_ns).sum();
    let emit_ns: u64 = pes.iter().map(|p| p.emit_ns).sum();
    let pe_self_ns = (pe_total_ns - emit_ns) as f64;
    let max_pe_self = pes
        .iter()
        .map(|p| p.total_ns - p.emit_ns)
        .max()
        .unwrap_or(0) as f64;

    let (global, private) = trace::queue_totals(threads);
    let mut queue = global;
    queue.add(&private);
    let queue_busy_ns = (queue.push_ns + queue.pop_ns) as f64;
    let queue_all_ns = queue_busy_ns + queue.wait_ns as f64;

    let mut conn = ConnAgg::default();
    for t in threads {
        conn.round_trips += t.conn.round_trips;
        conn.cmds += t.conn.cmds;
        conn.bytes_out += t.conn.bytes_out;
        conn.bytes_in += t.conn.bytes_in;
        conn.errors += t.conn.errors;
        conn.busy_ns += t.conn.busy_ns;
        conn.idle_ns += t.conn.idle_ns;
        conn.rtt_ns.extend_from_slice(&t.conn.rtt_ns);
    }
    conn.rtt_ns.sort_unstable();

    // --- offline replay -------------------------------------------------
    let task_replay = replay_tasks(run.graph, &samples, run.uses_redis);
    let cmd_replay = replay_commands(trips);

    // --- the share ledger -----------------------------------------------
    // Worker wall time, partitioned. Queue operations split into the
    // connection time inside them and their own code; connection time splits
    // into replayed RESP and engine time and the wire that remains; the
    // queue's own code splits into the replayed codec and the rest.
    let clone_ns = task_replay.clone_ns * tasks;
    let route_ns = task_replay.route_ns * tasks;
    let codec_ns = (task_replay.encode_ns + task_replay.decode_ns) * tasks;
    let resp_ns = (cmd_replay.encode_ns_per_cmd + cmd_replay.parse_ns_per_cmd) * conn.cmds as f64;
    let engine_ns = cmd_replay.engine_ns;
    let wire_ns = conn.busy_ns as f64 - engine_ns - resp_ns;
    let queue_self_ns = queue_all_ns - queue.conn_ns as f64;
    let share = |ns: f64| ratio(ns, worker_wall_ns);
    let mut shares: Vec<(&'static str, f64)> = vec![
        ("core.pe", share(pe_self_ns)),
        ("core.pe.emit", share(emit_ns as f64)),
        ("core.value", share(clone_ns)),
        ("core.routing", share(route_ns)),
    ];
    if run.uses_redis {
        shares.extend([
            ("core.codec", share(codec_ns)),
            ("redis-mappings.queue", share(queue_self_ns - codec_ns)),
            ("redis-mappings.queue.wait", share(conn.idle_ns as f64)),
            ("redis.resp", share(resp_ns)),
            ("redis.engine", share(engine_ns)),
            ("redis.wire", share(wire_ns)),
        ]);
    } else {
        shares.extend([
            ("core.queue", share(queue_busy_ns)),
            ("core.queue.wait", share(queue.wait_ns as f64)),
        ]);
    }
    let residual = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    shares.push(("residual", residual));

    // --- metrics ----------------------------------------------------------
    let inproc = |x: f64| if run.uses_redis { 0.0 } else { x };
    let redis = |x: f64| if run.uses_redis { x } else { 0.0 };
    let wait_share = share(queue.wait_ns as f64);
    let tail_ms = run
        .tap
        .last_ns
        .map_or(0.0, |last| run.end_ns.saturating_sub(last) as f64 / 1e6);
    let values = [
        analyze_us(run.graph, run.workers),
        calls as f64,
        ratio(pe_self_ns, calls as f64) / 1000.0,
        share(pe_self_ns),
        ratio(max_pe_self, pe_self_ns),
        ratio(emit_ns as f64, calls as f64),
        run.report.failed_tasks as f64,
        task_replay.clone_ns,
        task_replay.route_ns,
        groupby_skew(run.graph, threads),
        inproc(ratio(queue.push_ns as f64, queue.push_items as f64)),
        inproc(ratio(queue.pop_ns as f64, queue.pop_items as f64)),
        inproc(ratio(queue.pop_items as f64, queue.pop_calls as f64)),
        inproc(queue.empty_pops as f64),
        inproc(wait_share),
        run.report.queue_steals as f64,
        task_replay.encode_ns,
        task_replay.decode_ns,
        task_replay.bytes,
        tasks,
        ratio(worker_wall_ns - pe_total_ns as f64 - queue_all_ns, tasks) / 1000.0,
        tail_ms,
        run.report.dropped_emissions as f64,
        redis(ratio(queue_self_ns, tasks) / 1000.0),
        redis(ratio(queue.pop_items as f64, queue.pop_calls as f64)),
        redis(queue.empty_pops as f64),
        redis(wait_share),
        redis(ratio(private.pop_items as f64, queue.pop_items as f64)),
        ratio(conn.round_trips as f64, tasks),
        ratio(conn.cmds as f64, conn.round_trips as f64),
        percentile(&conn.rtt_ns, 0.50) / 1000.0,
        percentile(&conn.rtt_ns, 0.99) / 1000.0,
        ratio(conn.bytes_out as f64, tasks),
        ratio(conn.bytes_in as f64, tasks),
        conn.errors as f64,
        cmd_replay.encode_ns_per_cmd,
        cmd_replay.parse_ns_per_cmd,
        ratio(cmd_replay.engine_ns, cmd_replay.cmds as f64) / 1000.0,
        redis(ratio(conn.busy_ns as f64 - engine_ns, tasks) / 1000.0),
        ratio(run.server_cpu_s * 1e6, conn.cmds as f64),
        redis(ratio(run.server_cpu_s, wall_ns / 1e9)),
        run.server_peak_rss_mib,
        residual,
        ratio(wall_ns / 1e9 - run.untraced_wall_s, run.untraced_wall_s) * 100.0,
    ];
    Ledger {
        metrics: PER_LAYER.iter().map(|(n, _, _)| *n).zip(values).collect(),
        shares,
    }
}

/// The trace file: Chrome trace events plus the ledger that was derived
/// from the same repetition.
pub fn trace_file(run_threads: &[ThreadRec], graph: &WorkflowGraph, ledger: &Ledger) -> Json {
    let pe_names: Vec<String> = graph.pes().map(|(_, s)| s.name.clone()).collect();
    let pairs =
        |rows: &[(&'static str, f64)]| Json::obj(rows.iter().map(|(k, v)| (*k, Json::Num(*v))));
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("ledger_shares", pairs(&ledger.shares)),
        ("per_layer", pairs(&ledger.metrics)),
        (
            "traceEvents",
            Json::Arr(trace::chrome_events(run_threads, &pe_names)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit, better) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(matches!(better, "lower" | "higher"), "{name}");
        }
    }

    #[test]
    fn replayed_deletes_follow_replayed_reads() {
        let cmd = |parts: &[&[u8]]| parts.iter().map(|p| p.to_vec()).collect::<Vec<_>>();
        let trips = vec![
            LoggedTrip {
                seq: 0,
                conn: 0,
                cmds: vec![cmd(&[b"XGROUP", b"CREATE", b"q", b"g", b"$", b"MKSTREAM"])],
            },
            LoggedTrip {
                seq: 1,
                conn: 1,
                cmds: vec![cmd(&[b"XADD", b"q", b"*", b"task", b"payload"])],
            },
            LoggedTrip {
                seq: 2,
                conn: 0,
                cmds: vec![cmd(&[
                    b"XREADGROUP",
                    b"GROUP",
                    b"g",
                    b"w0",
                    b"COUNT",
                    b"8",
                    b"BLOCK",
                    b"10",
                    b"NOACK",
                    b"STREAMS",
                    b"q",
                    b">",
                ])],
            },
            LoggedTrip {
                seq: 3,
                conn: 0,
                cmds: vec![cmd(&[b"XDEL", b"q", b"1-1"])],
            },
        ];
        let replay = replay_commands(trips);
        assert_eq!(replay.cmds, 4);
        assert!(replay.engine_ns > 0.0);
        assert!(replay.encode_ns_per_cmd > 0.0 && replay.parse_ns_per_cmd > 0.0);
    }

    #[test]
    fn percentiles_pick_from_the_sorted_sample() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.5), 51.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
