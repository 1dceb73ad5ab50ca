//! The traced pass: decorators at every public seam, recording spans and
//! counts in memory.
//!
//! Nothing here is compiled into the engines. Each layer is observed from
//! this crate through a seam that is already public:
//!
//! * [`TimedQueue`] decorates any `TaskQueue` handed to `run_dynamic` /
//!   `run_hybrid` (push, pop, empty pops, items per pop);
//! * [`TimedConn`] decorates a redis `Connection`, injected with
//!   `RedisBackend::custom` (round trips, bytes, the command log);
//! * [`TimedPe`] plus its wrapping `Context` decorate a PE instance
//!   (`process()` time, time inside `ctx.emit`, a sample of delivered tasks).
//!
//! Every decorator records into a per-thread [`ThreadRec`] with one
//! thread-local access and no locking; a thread's record is handed to the
//! global collection when the thread exits. The engines join their workers
//! before `execute` returns, so [`finish`] sees every record.

use crate::json::Json;
use d4py_sync::Mutex;
use dispel4py::core::error::CoreError;
use dispel4py::core::pe::{Context, ProcessingElement};
use dispel4py::core::queue::TaskQueue;
use dispel4py::core::task::QueueItem;
use dispel4py::core::value::Value;
use dispel4py::graph::PeId;
use dispel4py::redis_lite::client::{ClientError, Connection};
use dispel4py::redis_lite::resp::Frame;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Spans kept per thread for the trace file. Aggregates cover every span;
/// the file holds the first `SPAN_CAP` of each thread so its size stays
/// bounded on a three-million-task run.
const SPAN_CAP: usize = 10_000;
/// Delivered tasks kept per thread for the offline replay.
const SAMPLE_CAP: usize = 1_500;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Which kind of work a recorded span covers; also its name in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Pe,
    QueuePush,
    QueuePop,
    QueueEmptyPop,
    ConnRoundTrip,
    ConnBlockingRead,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Pe => "pe.process",
            SpanKind::QueuePush => "queue.push",
            SpanKind::QueuePop => "queue.pop",
            SpanKind::QueueEmptyPop => "queue.pop.empty",
            SpanKind::ConnRoundTrip => "redis.round_trip",
            SpanKind::ConnBlockingRead => "redis.blocking_read",
        }
    }

    fn layer(self) -> &'static str {
        match self {
            SpanKind::Pe => "core.pe",
            SpanKind::QueuePush | SpanKind::QueuePop | SpanKind::QueueEmptyPop => "queue",
            SpanKind::ConnRoundTrip | SpanKind::ConnBlockingRead => "redis.client",
        }
    }
}

/// One recorded span. `item` follows a stream item across hops where the
/// payload carries an identity (see [`item_id`]); `detail` is the PE id for
/// PE spans and the item or command count otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub item: u64,
    pub detail: u32,
}

/// Per-PE totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeAgg {
    pub calls: u64,
    /// Whole `process()` / `on_done()` spans, emit time included.
    pub total_ns: u64,
    /// Time inside `ctx.emit`.
    pub emit_ns: u64,
    pub emits: u64,
}

/// Totals of one queue class (global or private).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueAgg {
    pub push_calls: u64,
    pub push_items: u64,
    pub push_ns: u64,
    /// Pops that delivered at least one item.
    pub pop_calls: u64,
    pub pop_items: u64,
    pub pop_ns: u64,
    /// Pops that came back empty; their whole time is waiting.
    pub empty_pops: u64,
    pub wait_ns: u64,
    /// Time the connection decorator saw inside this class's operations.
    pub conn_ns: u64,
}

impl QueueAgg {
    pub fn add(&mut self, o: &QueueAgg) {
        self.push_calls += o.push_calls;
        self.push_items += o.push_items;
        self.push_ns += o.push_ns;
        self.pop_calls += o.pop_calls;
        self.pop_items += o.pop_items;
        self.pop_ns += o.pop_ns;
        self.empty_pops += o.empty_pops;
        self.wait_ns += o.wait_ns;
        self.conn_ns += o.conn_ns;
    }
}

/// Connection totals.
#[derive(Debug, Clone, Default)]
pub struct ConnAgg {
    pub round_trips: u64,
    pub cmds: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub errors: u64,
    /// Round trips that carried work: every non-blocking command plus
    /// blocking reads that returned entries.
    pub busy_ns: u64,
    /// Blocking reads that timed out empty.
    pub idle_ns: u64,
    /// Durations of the non-blocking round trips, for the percentiles.
    pub rtt_ns: Vec<u64>,
}

/// A task as a PE received it, kept for the offline replay.
#[derive(Debug, Clone)]
pub struct SampledTask {
    pub pe: PeId,
    pub port: String,
    pub value: Value,
}

/// One logged round trip: its commands, in global order `seq`.
#[derive(Debug, Clone)]
pub struct LoggedTrip {
    pub seq: u64,
    pub conn: usize,
    pub cmds: Vec<Vec<Vec<u8>>>,
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadRec {
    pub spans: Vec<Span>,
    pub pes: Vec<PeAgg>,
    /// Calls per `(pe, instance)`, for group-by skew.
    pub instance_calls: Vec<((usize, usize), u64)>,
    /// Index 0: global queue, 1: private queues.
    pub queues: [QueueAgg; 2],
    pub conn: ConnAgg,
    pub samples: Vec<SampledTask>,
    pub trips: Vec<LoggedTrip>,
    /// Connection time inside the queue operation now running on this thread.
    conn_ns_in_op: u64,
    sample_tick: u64,
}

impl ThreadRec {
    fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.pes.is_empty()
            && self.trips.is_empty()
            && self
                .queues
                .iter()
                .all(|q| q.push_calls + q.pop_calls + q.empty_pops == 0)
    }

    fn span(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64, item: u64, detail: u32) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                kind,
                start_ns,
                end_ns,
                item,
                detail,
            });
        }
    }
}

static COLLECTED: Mutex<Vec<ThreadRec>> = Mutex::new(Vec::new());
static TRIP_SEQ: AtomicU64 = AtomicU64::new(0);
static CONN_IDS: AtomicUsize = AtomicUsize::new(0);

/// Thread-local home of a [`ThreadRec`]; hands it over when the thread ends.
struct Slot(RefCell<ThreadRec>);

impl Drop for Slot {
    fn drop(&mut self) {
        let rec = std::mem::take(&mut *self.0.borrow_mut());
        if !rec.is_empty() {
            COLLECTED.lock().push(rec);
        }
    }
}

thread_local! {
    static SLOT: Slot = Slot(RefCell::new(ThreadRec::default()));
}

fn with_rec<R>(f: impl FnOnce(&mut ThreadRec) -> R) -> R {
    SLOT.with(|s| f(&mut s.0.borrow_mut()))
}

/// Starts a traced repetition: forgets everything recorded before.
pub fn begin() {
    with_rec(|r| *r = ThreadRec::default());
    COLLECTED.lock().clear();
    TRIP_SEQ.store(0, Ordering::SeqCst);
    CONN_IDS.store(0, Ordering::SeqCst);
}

/// Ends a traced repetition: the records of every thread that has exited
/// plus the calling thread's.
pub fn finish() -> Vec<ThreadRec> {
    let own = with_rec(std::mem::take);
    let mut all = std::mem::take(&mut *COLLECTED.lock());
    if !own.is_empty() {
        all.push(own);
    }
    all
}

/// An identity that follows a stream item across hops, where the payload
/// has one: the integer itself, or a map's `id` / `station` field.
fn item_id(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        Value::Map(_) => match (v.get("id"), v.get("station")) {
            (Some(Value::Int(i)), _) => *i as u64,
            (_, Some(s @ Value::Str(_))) => s.routing_hash(),
            _ => 0,
        },
        _ => 0,
    }
}

// ------------------------------------------------------------------ PEs

/// Decorates one PE instance: times `process()` and the emits inside it and
/// keeps every `sample_every`-th delivered task for the replay.
pub struct TimedPe {
    pub inner: Box<dyn ProcessingElement>,
    pub pe: PeId,
    pub sample_every: u64,
}

struct TimedCtx<'a> {
    inner: &'a mut dyn Context,
    emit_ns: u64,
    emits: u64,
}

impl Context for TimedCtx<'_> {
    fn emit(&mut self, port: &str, value: Value) {
        let t0 = now_ns();
        self.inner.emit(port, value);
        self.emit_ns += now_ns() - t0;
        self.emits += 1;
    }
    fn instance(&self) -> usize {
        self.inner.instance()
    }
    fn instance_count(&self) -> usize {
        self.inner.instance_count()
    }
}

impl TimedPe {
    fn record(&self, instance: usize, t0: u64, t1: u64, ctx: &TimedCtx<'_>, item: u64, calls: u64) {
        with_rec(|r| {
            if r.pes.len() <= self.pe.0 {
                r.pes.resize(self.pe.0 + 1, PeAgg::default());
            }
            let agg = &mut r.pes[self.pe.0];
            agg.calls += calls;
            agg.total_ns += t1 - t0;
            agg.emit_ns += ctx.emit_ns;
            agg.emits += ctx.emits;
            if calls > 0 {
                let key = (self.pe.0, instance);
                match r.instance_calls.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => *n += 1,
                    None => r.instance_calls.push((key, 1)),
                }
            }
            r.span(SpanKind::Pe, t0, t1, item, self.pe.0 as u32);
        });
    }
}

impl ProcessingElement for TimedPe {
    fn process(&mut self, port: &str, value: Value, ctx: &mut dyn Context) {
        // The sample is cloned before the clock starts: it is the replay's
        // input, not part of the PE's service time.
        let keep = with_rec(|r| {
            r.sample_tick += 1;
            r.sample_tick % self.sample_every == 0 && r.samples.len() < SAMPLE_CAP
        });
        if keep {
            let sample = SampledTask {
                pe: self.pe,
                port: port.to_string(),
                value: value.clone(),
            };
            with_rec(|r| r.samples.push(sample));
        }
        let item = item_id(&value);
        let instance = ctx.instance();
        let mut timed = TimedCtx {
            inner: ctx,
            emit_ns: 0,
            emits: 0,
        };
        let t0 = now_ns();
        self.inner.process(port, value, &mut timed);
        let t1 = now_ns();
        self.record(instance, t0, t1, &timed, item, 1);
    }

    fn on_done(&mut self, ctx: &mut dyn Context) {
        let instance = ctx.instance();
        let mut timed = TimedCtx {
            inner: ctx,
            emit_ns: 0,
            emits: 0,
        };
        let t0 = now_ns();
        self.inner.on_done(&mut timed);
        let t1 = now_ns();
        // A flush is PE time but not a task.
        self.record(instance, t0, t1, &timed, 0, 0);
    }

    fn snapshot(&self) -> Option<Value> {
        self.inner.snapshot()
    }

    fn restore(&mut self, state: Value) {
        self.inner.restore(state)
    }
}

// --------------------------------------------------------------- queues

/// Decorates a `TaskQueue`: every operation is a span; pops that come back
/// empty are counted and timed apart as waiting.
pub struct TimedQueue {
    inner: Arc<dyn TaskQueue>,
    /// 0: the global queue, 1: a stateful instance's private queue.
    class: usize,
}

impl TimedQueue {
    pub fn global(inner: Arc<dyn TaskQueue>) -> Self {
        Self { inner, class: 0 }
    }

    pub fn private(inner: Arc<dyn TaskQueue>) -> Self {
        Self { inner, class: 1 }
    }

    /// Opens an operation: connection time seen from here on is this
    /// operation's (a connection is also used outside queue operations, when
    /// a queue is built).
    fn start(&self) -> u64 {
        with_rec(|r| r.conn_ns_in_op = 0);
        now_ns()
    }

    fn pushed(&self, t0: u64, items: u64) {
        let t1 = now_ns();
        with_rec(|r| {
            let q = &mut r.queues[self.class];
            q.push_calls += 1;
            q.push_items += items;
            q.push_ns += t1 - t0;
            q.conn_ns += std::mem::take(&mut r.conn_ns_in_op);
            r.span(SpanKind::QueuePush, t0, t1, 0, items as u32);
        });
    }

    fn popped(&self, t0: u64, items: u64) {
        let t1 = now_ns();
        with_rec(|r| {
            let q = &mut r.queues[self.class];
            q.conn_ns += std::mem::take(&mut r.conn_ns_in_op);
            if items == 0 {
                q.empty_pops += 1;
                q.wait_ns += t1 - t0;
                r.span(SpanKind::QueueEmptyPop, t0, t1, 0, 0);
            } else {
                q.pop_calls += 1;
                q.pop_items += items;
                q.pop_ns += t1 - t0;
                r.span(SpanKind::QueuePop, t0, t1, 0, items as u32);
            }
        });
    }
}

impl TaskQueue for TimedQueue {
    fn push(&self, item: QueueItem) -> Result<(), CoreError> {
        let t0 = self.start();
        let out = self.inner.push(item);
        self.pushed(t0, 1);
        out
    }

    fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
        let t0 = self.start();
        let out = self.inner.pop(consumer, timeout);
        self.popped(t0, matches!(out, Ok(Some(_))) as u64);
        out
    }

    fn push_batch(&self, producer: Option<usize>, items: Vec<QueueItem>) -> Result<(), CoreError> {
        let n = items.len() as u64;
        let t0 = self.start();
        let out = self.inner.push_batch(producer, items);
        self.pushed(t0, n);
        out
    }

    fn pop_batch(
        &self,
        consumer: usize,
        max: usize,
        timeout: Duration,
    ) -> Result<Vec<QueueItem>, CoreError> {
        let t0 = self.start();
        let out = self.inner.pop_batch(consumer, max, timeout);
        self.popped(t0, out.as_ref().map_or(0, |b| b.len() as u64));
        out
    }

    fn depth(&self) -> usize {
        self.inner.depth()
    }

    fn idle_times(&self) -> Option<Vec<Duration>> {
        self.inner.idle_times()
    }

    fn steals(&self) -> Option<u64> {
        self.inner.steals()
    }
}

// ---------------------------------------------------------- connections

/// Size of a command on the wire, as `resp::encode_command` frames it.
fn command_len(args: &[&[u8]]) -> u64 {
    let digits = |n: usize| n.to_string().len() as u64;
    3 + digits(args.len())
        + args
            .iter()
            .map(|a| 5 + digits(a.len()) + a.len() as u64)
            .sum::<u64>()
}

/// Size of a reply on the wire, as `resp::encode` frames it.
fn frame_len(f: &Frame) -> u64 {
    match f {
        Frame::Simple(s) | Frame::Error(s) => 3 + s.len() as u64,
        Frame::Integer(i) => 3 + i.to_string().len() as u64,
        Frame::Bulk(b) => 5 + b.len().to_string().len() as u64 + b.len() as u64,
        Frame::Null | Frame::NullArray => 5,
        Frame::Array(items) => {
            3 + items.len().to_string().len() as u64 + items.iter().map(frame_len).sum::<u64>()
        }
    }
}

/// True for a command the server may park: its reply time is not a round
/// trip's.
fn is_blocking(args: &[&[u8]]) -> bool {
    args.iter().any(|a| a.eq_ignore_ascii_case(b"BLOCK"))
        || args
            .first()
            .is_some_and(|c| c.eq_ignore_ascii_case(b"BLPOP") || c.eq_ignore_ascii_case(b"BRPOP"))
}

/// True when a read reply carried nothing (a timed-out blocking read).
fn is_empty_reply(f: &Frame) -> bool {
    matches!(f, Frame::Null | Frame::NullArray) || matches!(f, Frame::Array(a) if a.is_empty())
}

/// Decorates a redis `Connection`: counts and times round trips and logs
/// every command for the replay.
pub struct TimedConn {
    inner: Box<dyn Connection>,
    id: usize,
}

impl TimedConn {
    pub fn new(inner: Box<dyn Connection>) -> Self {
        Self {
            inner,
            id: CONN_IDS.fetch_add(1, Ordering::SeqCst),
        }
    }

    fn record(
        &self,
        cmds: &[&[&[u8]]],
        replies: Result<&[Frame], &ClientError>,
        t0: u64,
        seq_at_start: u64,
    ) {
        let t1 = now_ns();
        let blocking = cmds.iter().any(|c| is_blocking(c));
        // A write is ordered by when it was sent, a blocking read by when it
        // was answered: the entry it returned was appended in between.
        let seq = if blocking {
            TRIP_SEQ.fetch_add(1, Ordering::SeqCst)
        } else {
            seq_at_start
        };
        let log = LoggedTrip {
            seq,
            conn: self.id,
            cmds: cmds
                .iter()
                .map(|c| c.iter().map(|a| a.to_vec()).collect())
                .collect(),
        };
        with_rec(|r| {
            let c = &mut r.conn;
            c.round_trips += 1;
            c.cmds += cmds.len() as u64;
            c.bytes_out += cmds.iter().map(|c| command_len(c)).sum::<u64>();
            let mut empty = false;
            match replies {
                Ok(frames) => {
                    c.bytes_in += frames.iter().map(frame_len).sum::<u64>();
                    c.errors += frames.iter().filter(|f| f.is_error()).count() as u64;
                    empty = frames.iter().all(is_empty_reply);
                }
                Err(_) => c.errors += 1,
            }
            let dur = t1 - t0;
            if blocking && empty {
                c.idle_ns += dur;
            } else {
                c.busy_ns += dur;
                if !blocking {
                    c.rtt_ns.push(dur);
                }
            }
            r.conn_ns_in_op += dur;
            let kind = if blocking {
                SpanKind::ConnBlockingRead
            } else {
                SpanKind::ConnRoundTrip
            };
            r.span(kind, t0, t1, 0, cmds.len() as u32);
            r.trips.push(log);
        });
    }
}

impl Connection for TimedConn {
    fn request(&mut self, args: &[&[u8]]) -> Result<Frame, ClientError> {
        let seq = TRIP_SEQ.fetch_add(1, Ordering::SeqCst);
        let t0 = now_ns();
        let out = self.inner.request(args);
        self.record(&[args], out.as_ref().map(std::slice::from_ref), t0, seq);
        out
    }

    fn request_many(&mut self, cmds: &[&[&[u8]]]) -> Result<Vec<Frame>, ClientError> {
        let seq = TRIP_SEQ.fetch_add(1, Ordering::SeqCst);
        let t0 = now_ns();
        let out = self.inner.request_many(cmds);
        self.record(cmds, out.as_ref().map(Vec::as_slice), t0, seq);
        out
    }
}

// ----------------------------------------------------------- trace file

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
/// `parent` is the index (in this array) of the innermost span of the same
/// thread that contains the span, or -1.
pub fn chrome_events(threads: &[ThreadRec], pe_names: &[String]) -> Vec<Json> {
    let mut events = Vec::new();
    for (tid, rec) in threads.iter().enumerate() {
        let mut order: Vec<&Span> = rec.spans.iter().collect();
        order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let base = events.len();
        // Indices (into `order`) of the spans still open at this start time.
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in order.iter().enumerate() {
            while open.last().is_some_and(|&p| order[p].end_ns < s.end_ns) {
                open.pop();
            }
            let parent = open.last().map_or(-1.0, |&p| (base + p) as f64);
            open.push(i);
            let name = match s.kind {
                SpanKind::Pe => pe_names
                    .get(s.detail as usize)
                    .map_or_else(|| s.kind.name().to_string(), |n| format!("pe:{n}")),
                kind => kind.name().to_string(),
            };
            events.push(Json::obj([
                ("name", Json::Str(name)),
                ("cat", Json::str(s.kind.layer())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1000.0)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1000.0)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                (
                    "args",
                    Json::obj([
                        ("item", Json::Num(s.item as f64)),
                        ("parent", Json::Num(parent)),
                        ("n", Json::Num(s.detail as f64)),
                    ]),
                ),
            ]));
        }
    }
    events
}

/// Sums the queue classes of every thread: `(global, private)`.
pub fn queue_totals(threads: &[ThreadRec]) -> (QueueAgg, QueueAgg) {
    let mut global = QueueAgg::default();
    let mut private = QueueAgg::default();
    for t in threads {
        global.add(&t.queues[0]);
        private.add(&t.queues[1]);
    }
    (global, private)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_match_the_resp_encoder() {
        use d4py_sync::ByteBuf;
        use dispel4py::redis_lite::resp;
        let args: [&[u8]; 3] = [b"XADD", b"k", &[7u8; 1234]];
        let mut buf = ByteBuf::with_capacity(16);
        resp::encode_command(&args, &mut buf);
        assert_eq!(command_len(&args), buf.freeze().len() as u64);

        let frame = Frame::Array(vec![
            Frame::Integer(-12),
            Frame::bulk("hello"),
            Frame::Null,
            Frame::Simple("OK".into()),
            Frame::Array(vec![]),
        ]);
        let mut buf = ByteBuf::with_capacity(16);
        resp::encode(&frame, &mut buf);
        assert_eq!(frame_len(&frame), buf.freeze().len() as u64);
    }

    #[test]
    fn blocking_commands_are_recognised() {
        let read: [&[u8]; 4] = [b"XREADGROUP", b"COUNT", b"block", b"10"];
        assert!(is_blocking(&read));
        let add: [&[u8]; 2] = [b"XADD", b"k"];
        assert!(!is_blocking(&add));
    }

    #[test]
    fn parents_follow_containment() {
        let mut rec = ThreadRec::default();
        rec.span(SpanKind::QueuePop, 0, 100, 0, 1);
        rec.span(SpanKind::ConnRoundTrip, 10, 50, 0, 1);
        rec.span(SpanKind::Pe, 200, 300, 7, 0);
        let events = chrome_events(&[rec], &["src".to_string()]);
        let parent = |i: usize| {
            events[i]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64)
        };
        assert_eq!(parent(0), Some(-1.0));
        assert_eq!(parent(1), Some(0.0));
        assert_eq!(parent(2), Some(-1.0));
        assert_eq!(events[2].get("name").and_then(Json::as_str), Some("pe:src"));
    }
}
