//! [`RedisQueue`]: the dispel4py global queue backed by a Redis stream.
//!
//! The direct translation of §3.1.1: the multiprocessing queue of dynamic
//! scheduling replaced by a Redis stream with one consumer group. Mapping of
//! queue operations onto commands:
//!
//! * `push_batch` → `XADD key * task <p1> task <p2> …`, one entry per up to
//!   [`TASKS_PER_ENTRY`] tasks and one per pill or flush, one pipelined
//!   write per [`PUSH_PIPELINE`] items; `push` is a batch of one
//! * `pop_batch` → one pipelined write per popped batch:
//!   `XDEL key <ids of the previous batch>` then
//!   `XREADGROUP GROUP g w<i> COUNT ⌈n / TASKS_PER_ENTRY⌉ BLOCK <ms> NOACK
//!   STREAMS key >`, without `BLOCK` for a zero timeout (a try-read).
//!   A consumer deletes what it read with its *next* read instead of paying
//!   a second round trip per batch; a batch that carries a pill is deleted at
//!   once, because its consumer is about to stop reading. Tasks a read
//!   delivers beyond `n` stay with the consumer and are the first its next
//!   pop returns, without a round trip when they are enough. `pop` is a
//!   batch of one
//! * `depth` → no command: the items written (counted once the `XADD` reply
//!   is in hand) minus the items handed to a caller, kept in process
//! * `idle_times` → `XINFO CONSUMERS` (the consumer-group idle metadata the
//!   `dyn_auto_redis` strategy monitors)
//!
//! `NOACK` is used because workers are threads of one process: there is no
//! crash-recovery consumer to hand pending entries to, so at-most-once
//! delivery inside the process is the honest semantic (real dispel4py's
//! Redis mapping makes the same choice for its task queue reads). The same
//! premise, every producer and consumer a thread of this process, lets
//! `depth` count items without asking the server. Reliable mode
//! ([`RedisQueue::new_reliable`]) writes one task per entry, keeps one
//! tracked entry per consumer and reads one entry per round trip.

use crate::backend::RedisBackend;
use crate::pool::{ConnectionPool, PoolConfig};
use d4py_core::codec;
use d4py_core::error::CoreError;
use d4py_core::queue::TaskQueue;
use d4py_core::task::QueueItem;
use d4py_sync::Mutex;
use redis_lite::client::{parse_claim_reply, parse_read_reply, ClientError, Connection, RedisOps};
use redis_lite::resp::Frame;
use std::sync::atomic::AtomicIsize;
use std::sync::atomic::Ordering::SeqCst;
use std::time::{Duration, Instant};

const GROUP: &[u8] = b"d4py";
const FIELD: &[u8] = b"task";

/// Items per pipelined write of `push_batch`. A source's whole stream
/// arrives as one batch; this bounds the encoded payloads, the argument
/// table and the wire buffer the client holds at once, whatever its length.
const PUSH_PIPELINE: usize = 512;

/// Tasks one NOACK stream entry carries, as repeated `task` fields. A
/// divisor of the engine's pop batch (32), so a worker's read of
/// `⌈32 / TASKS_PER_ENTRY⌉` entries never holds more than it returns.
const TASKS_PER_ENTRY: usize = 8;

/// True for errors where the connection itself is suspect (vs. a server
/// reply the connection carried back fine).
fn is_transport_error(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(_) | ClientError::Protocol(_) | ClientError::RetryExhausted { .. }
    )
}

/// Decodes every task payload of one stream entry onto `out`, in order.
fn decode_entry(pairs: Vec<(Vec<u8>, Vec<u8>)>, out: &mut Vec<QueueItem>) -> Result<(), CoreError> {
    let before = out.len();
    for (_, payload) in pairs.into_iter().filter(|(f, _)| f == FIELD) {
        out.push(codec::decode_item(&payload)?);
    }
    if out.len() == before {
        return Err(CoreError::Queue("stream entry missing task field".into()));
    }
    Ok(())
}

/// Item counts of the entries `push_batch` writes for `items`: runs of up
/// to `per_entry` tasks, and each pill and flush alone, so a broadcast of
/// one pill per consumer still reaches every consumer.
fn entry_lens(items: &[QueueItem], per_entry: usize) -> impl Iterator<Item = usize> + '_ {
    items
        .chunk_by(|a, b| matches!((a, b), (QueueItem::Task(_), QueueItem::Task(_))))
        .flat_map(move |run| run.chunks(per_entry).map(<[_]>::len))
}

/// One consumer's reading end.
struct Reader {
    /// Dedicated connection (blocking reads must not share).
    conn: Box<dyn Connection>,
    /// `w<i>`: the consumer's name in the group.
    name: Vec<u8>,
    /// NOACK mode: ids of the entries delivered and not yet deleted; the
    /// next read's pipeline deletes them.
    undeleted: Vec<String>,
    /// NOACK mode: items a read delivered beyond what its pop returned,
    /// handed out first by the next pop.
    spare: Vec<QueueItem>,
    /// Reliable mode: the entry popped last, acknowledged by the next pop.
    unacked: Option<String>,
}

/// A Redis-stream-backed [`TaskQueue`].
pub struct RedisQueue {
    key: Vec<u8>,
    readers: Vec<Mutex<Reader>>,
    /// Items written minus items handed to a caller (in reliable mode, read
    /// for the first time): the depth. It dips below zero while a consumer
    /// returns an item whose producer still waits on the `XADD` reply.
    queued: AtomicIsize,
    /// Bounded, health-checked pool for pushes / monitoring queries.
    pool: ConnectionPool,
    created: Instant,
    /// At-least-once mode: PEL-tracked reads, ack-on-next-pop, and
    /// XAUTOCLAIM recovery of entries whose consumer stalled.
    reliable: Option<Duration>,
}

impl RedisQueue {
    /// Creates the stream + consumer group and `consumers` reader
    /// connections, in the fast NOACK mode (at-most-once within the
    /// process; a consumer's next read deletes what its last delivered).
    pub fn new(
        backend: &RedisBackend,
        key: impl Into<Vec<u8>>,
        consumers: usize,
    ) -> Result<Self, CoreError> {
        Self::build(backend, key.into(), consumers, None)
    }

    /// Creates the queue in *reliable* (at-least-once) mode: reads go
    /// through the PEL, a consumer acknowledges its previous entry when it
    /// pops the next one, and entries left pending for `reclaim_idle` are
    /// transferred to whichever consumer polls next via `XAUTOCLAIM` — so a
    /// stalled or dead worker's task is re-executed instead of lost.
    pub fn new_reliable(
        backend: &RedisBackend,
        key: impl Into<Vec<u8>>,
        consumers: usize,
        reclaim_idle: Duration,
    ) -> Result<Self, CoreError> {
        Self::build(backend, key.into(), consumers, Some(reclaim_idle))
    }

    fn build(
        backend: &RedisBackend,
        key: Vec<u8>,
        consumers: usize,
        reliable: Option<Duration>,
    ) -> Result<Self, CoreError> {
        let mut setup = backend.connect()?;
        setup
            .xgroup_create(&key, GROUP)
            .map_err(|e| CoreError::Queue(format!("XGROUP CREATE failed: {e}")))?;
        let mut readers = Vec::with_capacity(consumers);
        for consumer in 0..consumers {
            readers.push(Mutex::new(Reader {
                conn: backend.connect()?,
                name: format!("w{consumer}").into_bytes(),
                undeleted: Vec::new(),
                spare: Vec::new(),
                unacked: None,
            }));
        }
        Ok(Self {
            key,
            readers,
            queued: AtomicIsize::new(0),
            pool: ConnectionPool::new(backend.clone(), PoolConfig::default()),
            created: Instant::now(),
            reliable,
        })
    }

    /// The stream key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    fn with_pool<T>(
        &self,
        f: impl FnOnce(&mut dyn Connection) -> Result<T, ClientError>,
    ) -> Result<T, CoreError> {
        let mut conn = self.pool.checkout()?;
        match f(&mut *conn) {
            Ok(v) => Ok(v),
            Err(e) => {
                // A broken socket must not re-enter the pool; server-side
                // errors travelled over a healthy connection, keep it.
                if is_transport_error(&e) {
                    conn.discard();
                }
                Err(CoreError::Queue(e.to_string()))
            }
        }
    }

    /// Fails if `frame` is a server-side error reply.
    fn frame_ok(frame: &Frame, what: &str) -> Result<(), CoreError> {
        if let Frame::Error(msg) = frame {
            return Err(CoreError::Queue(format!("{what} failed: {msg}")));
        }
        Ok(())
    }

    fn reader(&self, consumer: usize) -> Result<&Mutex<Reader>, CoreError> {
        self.readers.get(consumer).ok_or_else(|| {
            CoreError::Queue(format!("no reader connection for consumer {consumer}"))
        })
    }

    /// NOACK mode: returns up to `max` items, the consumer's spare ones
    /// first. Short of `max`, it deletes what the previous read delivered
    /// and reads enough entries for the rest, in one pipelined write. A
    /// zero `timeout` sends no `BLOCK` — Redis reads `BLOCK 0` as "forever"
    /// — so the read is a try-read that never parks.
    fn pop_noack(
        &self,
        consumer: usize,
        max: usize,
        timeout: Duration,
    ) -> Result<Vec<QueueItem>, CoreError> {
        let mut reader = self.reader(consumer)?.lock();
        let Reader {
            conn,
            name,
            undeleted,
            spare,
            ..
        } = &mut *reader;
        if spare.len() < max {
            let entries = (max - spare.len()).div_ceil(TASKS_PER_ENTRY);
            let count = entries.to_string();
            let block_ms = timeout.as_millis().max(1).to_string();
            let mut read: Vec<&[u8]> = vec![
                b"XREADGROUP",
                b"GROUP",
                GROUP,
                name,
                b"COUNT",
                count.as_bytes(),
            ];
            // Spare items are the caller's now; the read only tops them up.
            if !timeout.is_zero() && spare.is_empty() {
                read.extend([b"BLOCK".as_ref(), block_ms.as_bytes()]);
            }
            read.extend([b"NOACK".as_ref(), b"STREAMS", &self.key, b">"]);
            let del = self.xdel(undeleted);
            let cmds: [&[&[u8]]; 2] = [&del, &read];
            let mut replies = conn
                .request_many(&cmds[usize::from(undeleted.is_empty())..])
                // Outcome unknown: the ids stay, XDEL is idempotent.
                .map_err(|e| CoreError::Queue(e.to_string()))?;
            let read_reply = replies
                .pop()
                .ok_or_else(|| CoreError::Queue("empty pipeline reply".into()))?;
            let read = parse_read_reply(read_reply).map_err(|e| CoreError::Queue(e.to_string()))?;
            // NOACK counted the read as delivered, so its items are this
            // consumer's to return whatever the XDEL answered. A refused
            // XDEL keeps its ids for the next read to delete with these.
            if replies.first().is_none_or(|reply| !reply.is_error()) {
                undeleted.clear();
            }
            let (ids, bodies): (Vec<_>, Vec<_>) = read.into_iter().unzip();
            undeleted.extend(ids);
            let decoded = spare.len();
            spare.reserve(entries * TASKS_PER_ENTRY);
            for pairs in bodies {
                decode_entry(pairs, spare)?;
            }
            if spare[decoded..].contains(&QueueItem::Pill) {
                // This consumer was told to stop and may never read again:
                // settle now. Best effort — on failure the ids wait for a
                // next read as they otherwise would.
                let del = self.xdel(undeleted);
                if matches!(conn.request(&del), Ok(reply) if !reply.is_error()) {
                    undeleted.clear();
                }
            }
        }
        let rest = spare.split_off(max.min(spare.len()));
        let items = std::mem::replace(spare, rest);
        self.queued.fetch_sub(items.len() as isize, SeqCst);
        Ok(items)
    }

    /// `XDEL key <ids>`.
    fn xdel<'a>(&'a self, ids: &'a [String]) -> Vec<&'a [u8]> {
        let mut del: Vec<&[u8]> = Vec::with_capacity(2 + ids.len());
        del.push(b"XDEL");
        del.push(&self.key);
        del.extend(ids.iter().map(|id| id.as_bytes()));
        del
    }
}

impl TaskQueue for RedisQueue {
    fn push(&self, item: QueueItem) -> Result<(), CoreError> {
        self.push_batch(None, vec![item])
    }

    fn push_batch(&self, _producer: Option<usize>, items: Vec<QueueItem>) -> Result<(), CoreError> {
        // Reliable mode's PEL tracks one entry per consumer: one task each.
        let per_entry = match self.reliable {
            Some(_) => 1,
            None => TASKS_PER_ENTRY,
        };
        // Pipelined XADD bursts: one write, one read each. A failure leaves
        // the earlier bursts appended.
        for burst in items.chunks(PUSH_PIPELINE) {
            let payloads: Vec<Vec<u8>> = burst.iter().map(codec::encode_item).collect();
            let lens: Vec<usize> = entry_lens(burst, per_entry).collect();
            let mut at = 0;
            let owned: Vec<Vec<&[u8]>> = lens
                .iter()
                .map(|&n| {
                    let mut xadd: Vec<&[u8]> = Vec::with_capacity(3 + 2 * n);
                    xadd.extend([b"XADD".as_ref(), &self.key, b"*"]);
                    for payload in &payloads[at..at + n] {
                        xadd.extend([FIELD, payload.as_slice()]);
                    }
                    at += n;
                    xadd
                })
                .collect();
            let cmds: Vec<&[&[u8]]> = owned.iter().map(Vec::as_slice).collect();
            let replies = self.with_pool(|c| c.request_many(&cmds))?;
            let landed = replies.iter().zip(&lens).filter(|(r, _)| !r.is_error());
            let written: usize = landed.map(|(_, &n)| n).sum();
            self.queued.fetch_add(written as isize, SeqCst);
            for reply in &replies {
                Self::frame_ok(reply, "pipelined XADD")?;
            }
        }
        Ok(())
    }

    fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
        let Some(reclaim_idle) = self.reliable else {
            return Ok(self.pop_noack(consumer, 1, timeout)?.pop());
        };
        let mut reader = self.reader(consumer)?.lock();
        let Reader {
            conn,
            name,
            unacked: pending,
            ..
        } = &mut *reader;

        // Ack-on-next-pop, folded into ONE round-trip: [XACK prev,
        // XDEL prev,] XAUTOCLAIM ride a single pipeline instead of the
        // three sequential round-trips this path used to pay.
        let idle_ms = reclaim_idle.as_millis().to_string();
        let claim: [&[u8]; 8] = [
            b"XAUTOCLAIM",
            &self.key,
            GROUP,
            name,
            idle_ms.as_bytes(),
            b"0",
            b"COUNT",
            b"1",
        ];
        // `pending` is only cleared AFTER the ack round-trip succeeds;
        // clearing it eagerly lost the id on error, leaving the entry
        // in the PEL to double-deliver via a later XAUTOCLAIM.
        let replies = if let Some(prev) = pending.as_deref() {
            let ack: [&[u8]; 4] = [b"XACK", &self.key, GROUP, prev.as_bytes()];
            let del: [&[u8]; 3] = [b"XDEL", &self.key, prev.as_bytes()];
            let cmds: [&[&[u8]]; 3] = [&ack, &del, &claim];
            conn.request_many(&cmds)
                .map_err(|e| CoreError::Queue(e.to_string()))?
        } else {
            conn.request_many(&[&claim])
                .map_err(|e| CoreError::Queue(e.to_string()))?
        };
        let (ack_replies, claim_reply) = replies.split_at(replies.len() - 1);
        for reply in ack_replies {
            Self::frame_ok(reply, "ack of previous entry")?;
        }
        *pending = None; // ack landed (or there was nothing to ack)

        // Rescue entries a stalled consumer left pending. A rescued entry
        // left the depth when it was first read.
        let claimed = parse_claim_reply(claim_reply[0].clone())
            .map_err(|e| CoreError::Queue(e.to_string()))?
            .into_iter()
            .next();
        let read = match claimed {
            Some(entry) => Some(entry),
            None => {
                let read = conn
                    .xreadgroup_one(&self.key, GROUP, name, timeout, false)
                    .map_err(|e| CoreError::Queue(e.to_string()))?;
                if read.is_some() {
                    self.queued.fetch_sub(1, SeqCst);
                }
                read
            }
        };
        let Some((id, pairs)) = read else {
            return Ok(None);
        };
        *pending = Some(id);
        drop(reader);
        let mut item = Vec::with_capacity(1);
        decode_entry(pairs, &mut item)?;
        Ok(item.pop())
    }

    fn pop_batch(
        &self,
        consumer: usize,
        max: usize,
        timeout: Duration,
    ) -> Result<Vec<QueueItem>, CoreError> {
        if max == 0 {
            return Ok(Vec::new());
        }
        // Reliable mode tracks exactly one unacked id per consumer, so its
        // at-least-once contract only admits single-entry reads.
        if self.reliable.is_some() {
            return Ok(self.pop(consumer, timeout)?.into_iter().collect());
        }
        self.pop_noack(consumer, max, timeout)
    }

    fn depth(&self) -> usize {
        // Below zero only for the moment a producer's count lags its write.
        usize::try_from(self.queued.load(SeqCst)).unwrap_or(0)
    }

    fn idle_times(&self) -> Option<Vec<Duration>> {
        let rows = self
            .with_pool(|c| c.xinfo_consumers(&self.key, GROUP))
            .ok()?;
        // Consumers that never read yet have been idle since queue creation.
        let mut idles = vec![self.created.elapsed(); self.readers.len()];
        for (name, _pending, idle) in rows {
            if let Some(i) = name.strip_prefix('w').and_then(|s| s.parse::<usize>().ok()) {
                if i < idles.len() {
                    idles[i] = idle;
                }
            }
        }
        Some(idles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d4py_core::task::Task;
    use d4py_core::value::Value;
    use d4py_graph::PeId;
    use redis_lite::client::InProcClient;
    use redis_lite::server::Server;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn task(i: i64) -> QueueItem {
        QueueItem::Task(Task::new(PeId(1), "in", Value::Int(i)))
    }

    #[test]
    fn inproc_push_pop_roundtrip() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 2).unwrap();
        q.push(task(7)).unwrap();
        assert_eq!(q.depth(), 1);
        let got = q.pop(0, Duration::from_millis(50)).unwrap();
        assert_eq!(got, Some(task(7)));
        assert_eq!(q.depth(), 0, "a pop subtracts what it hands out");
    }

    #[test]
    fn pop_times_out_empty() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        let start = Instant::now();
        assert_eq!(q.pop(0, Duration::from_millis(30)).unwrap(), None);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn entries_delivered_exactly_once_across_consumers() {
        let backend = RedisBackend::in_proc();
        let q = Arc::new(RedisQueue::new(&backend, "q", 4).unwrap());
        for i in 0..40 {
            q.push(task(i)).unwrap();
        }
        let mut handles = Vec::new();
        for c in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(QueueItem::Task(t)) = q.pop(c, Duration::from_millis(20)).unwrap() {
                    got.push(t.value.as_int().unwrap());
                }
                got
            }));
        }
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn pills_and_flush_survive_the_wire() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        q.push(QueueItem::Pill).unwrap();
        q.push(QueueItem::Flush).unwrap();
        assert_eq!(
            q.pop(0, Duration::from_millis(20)).unwrap(),
            Some(QueueItem::Pill)
        );
        assert_eq!(
            q.pop(0, Duration::from_millis(20)).unwrap(),
            Some(QueueItem::Flush)
        );
    }

    #[test]
    fn idle_times_cover_all_consumers() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 3).unwrap();
        q.push(task(1)).unwrap();
        q.pop(1, Duration::from_millis(20)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let idles = q.idle_times().unwrap();
        assert_eq!(idles.len(), 3);
        assert!(idles[1] < idles[0], "consumer 1 just popped; 0 never did");
        assert!(idles[2] >= Duration::from_millis(10));
    }

    #[test]
    fn reliable_mode_redelivers_unacked_tasks() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new_reliable(&backend, "q", 2, Duration::from_millis(30)).unwrap();
        q.push(task(99)).unwrap();
        // Consumer 0 pops and then "stalls" (never pops again → never acks).
        let first = q.pop(0, Duration::from_millis(20)).unwrap();
        assert_eq!(first, Some(task(99)));
        std::thread::sleep(Duration::from_millis(50));
        // Consumer 1 rescues the stale pending entry via XAUTOCLAIM.
        let rescued = q.pop(1, Duration::from_millis(20)).unwrap();
        assert_eq!(rescued, Some(task(99)), "stalled task must be re-delivered");
    }

    #[test]
    fn reliable_mode_acks_on_next_pop() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new_reliable(&backend, "q", 2, Duration::from_millis(30)).unwrap();
        q.push(task(1)).unwrap();
        q.push(task(2)).unwrap();
        // Consumer 0 pops both: the second pop acknowledges the first.
        assert_eq!(q.pop(0, Duration::from_millis(20)).unwrap(), Some(task(1)));
        assert_eq!(q.pop(0, Duration::from_millis(20)).unwrap(), Some(task(2)));
        std::thread::sleep(Duration::from_millis(50));
        // Only task 2 is still pending (unacked); task 1 must NOT reappear.
        let rescued = q.pop(1, Duration::from_millis(20)).unwrap();
        assert_eq!(rescued, Some(task(2)));
        assert_eq!(q.pop(1, Duration::from_millis(20)).unwrap(), None);
    }

    #[test]
    fn reliable_mode_completes_a_dynamic_workflow() {
        // End-to-end: the reliable queue drives run_dynamic unchanged.
        use d4py_core::executable::Executable;
        use d4py_core::mappings::dynamic::run_dynamic;
        use d4py_core::options::ExecutionOptions;
        use d4py_core::pe::{Context, CountingSink, FnSource};
        use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let (_, count) = CountingSink::new();
        let n = count.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..25 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, move || Box::new(CountingSink::into_handle(n.clone())));
        let exe = exe.seal().unwrap();

        let backend = RedisBackend::in_proc();
        let q =
            Arc::new(RedisQueue::new_reliable(&backend, "wf", 3, Duration::from_secs(5)).unwrap());
        run_dynamic(
            &exe,
            &ExecutionOptions::new(3),
            q,
            "dyn_redis_reliable",
            None,
        )
        .unwrap();
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 25);
    }

    /// Connection wrapper that fails requests whose verb matches `verb`
    /// while `remaining` holds charges. Routed in below the queue via
    /// [`RedisBackend::custom`].
    struct Flaky {
        inner: Box<dyn Connection>,
        verb: &'static [u8],
        remaining: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Connection for Flaky {
        fn request(&mut self, args: &[&[u8]]) -> Result<redis_lite::resp::Frame, ClientError> {
            let matches = args
                .first()
                .is_some_and(|v| v.eq_ignore_ascii_case(self.verb));
            if matches
                && self
                    .remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected fault",
                )));
            }
            self.inner.request(args)
        }
    }

    /// An in-proc backend whose connections fail `verb` while the returned
    /// counter holds charges (0 = healthy).
    fn flaky_backend(verb: &'static [u8]) -> (RedisBackend, Arc<std::sync::atomic::AtomicUsize>) {
        let shared = Arc::new(redis_lite::engine::Shared::new());
        let charges = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let c = charges.clone();
        let backend = RedisBackend::custom(move || {
            Ok(Box::new(Flaky {
                inner: Box::new(redis_lite::client::InProcClient::new(shared.clone())),
                verb,
                remaining: c.clone(),
            }))
        });
        (backend, charges)
    }

    #[test]
    fn failed_ack_keeps_the_id_and_never_double_delivers() {
        // Regression: the ack path `take()`d the unacked id before XACK —
        // on error the id vanished from tracking while the entry stayed in
        // the PEL, so a later XAUTOCLAIM re-delivered an already-processed
        // task. The id must survive a failed ack and be acked on the next
        // successful pop.
        let (backend, charges) = flaky_backend(b"XACK");
        let reclaim = Duration::from_millis(30);
        let q = RedisQueue::new_reliable(&backend, "q", 2, reclaim).unwrap();
        q.push(task(1)).unwrap();
        q.push(task(2)).unwrap();
        assert_eq!(q.pop(0, Duration::from_millis(20)).unwrap(), Some(task(1)));

        // The next pop's folded XACK fails at the wire.
        charges.store(1, Ordering::SeqCst);
        assert!(q.pop(0, Duration::from_millis(20)).is_err());

        // Retry after the fault clears: task 1's ack lands, task 2 arrives.
        assert_eq!(q.pop(0, Duration::from_millis(20)).unwrap(), Some(task(2)));

        // Let anything still pending cross the reclaim threshold: task 1
        // must NOT resurface on the other consumer (only task 2 may, since
        // it is legitimately unacked).
        std::thread::sleep(reclaim + Duration::from_millis(20));
        let rescued = q.pop(1, Duration::from_millis(20)).unwrap();
        assert_eq!(
            rescued,
            Some(task(2)),
            "task 1 must stay acked; only the genuinely-unacked task 2 may redeliver"
        );
        assert_eq!(q.pop(1, Duration::from_millis(20)).unwrap(), None);
    }

    #[test]
    fn depth_holds_last_observation_across_backend_errors() {
        // depth() sends no command: it counts the items an `XADD` reply
        // confirmed, less those handed to a caller. A push the backend
        // refused wrote nothing, so the count holds across the error, and
        // pops subtract from it.
        let (backend, charges) = flaky_backend(b"XADD");
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        for i in 0..3 {
            q.push(task(i)).unwrap();
        }
        assert_eq!(q.depth(), 3);
        charges.store(1, Ordering::SeqCst);
        assert!(q.push(task(3)).is_err(), "the XADD failed at the wire");
        assert_eq!(q.depth(), 3, "a failed push adds nothing");
        assert_eq!(q.pop(0, Duration::from_millis(50)).unwrap(), Some(task(0)));
        assert_eq!(q.depth(), 2);
        let rest = q.pop_batch(0, 32, Duration::from_millis(50)).unwrap();
        assert_eq!(rest, [task(1), task(2)]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn push_batch_is_one_burst_and_pop_batch_drains_it() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        q.push_batch(None, (0..32).map(task).collect()).unwrap();
        assert_eq!(q.depth(), 32);
        let first = q.pop_batch(0, 20, Duration::from_millis(50)).unwrap();
        assert_eq!(first.len(), 20, "COUNT-bounded batch");
        let rest = q.pop_batch(0, 20, Duration::from_millis(50)).unwrap();
        assert_eq!(rest.len(), 12);
        assert_eq!(q.depth(), 0, "a batch pop subtracts what it hands out");
        let mut all: Vec<i64> = first
            .into_iter()
            .chain(rest)
            .map(|i| match i {
                QueueItem::Task(t) => t.value.as_int().unwrap(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..32).collect::<Vec<_>>());
    }

    /// Connection wrapper counting the calls made through it: each
    /// `request` or `request_many` is one round trip on a real wire.
    struct Counting {
        inner: Box<dyn Connection>,
        calls: Arc<AtomicUsize>,
    }

    impl Connection for Counting {
        fn request(&mut self, args: &[&[u8]]) -> Result<Frame, ClientError> {
            self.calls.fetch_add(1, SeqCst);
            self.inner.request(args)
        }
        fn request_many(&mut self, cmds: &[&[&[u8]]]) -> Result<Vec<Frame>, ClientError> {
            self.calls.fetch_add(1, SeqCst);
            self.inner.request_many(cmds)
        }
    }

    /// Runs `check` with a plain backend, the same backend minting counted
    /// connections and the call counter — over the in-process engine, one
    /// TCP server, and a two-shard cluster.
    fn over_counted_backends(check: impl Fn(&str, &RedisBackend, &RedisBackend, &AtomicUsize)) {
        let servers: Vec<Server> = (0..3).map(|_| Server::start(0).unwrap()).collect();
        for plain in [
            RedisBackend::in_proc(),
            RedisBackend::Tcp(servers[0].addr()),
            RedisBackend::cluster(vec![servers[1].addr(), servers[2].addr()]),
        ] {
            let calls = Arc::new(AtomicUsize::new(0));
            let (mint, counter) = (plain.clone(), calls.clone());
            let counted = RedisBackend::custom(move || {
                Ok(Box::new(Counting {
                    inner: mint.connect()?,
                    calls: counter.clone(),
                }))
            });
            check(plain.label(), &plain, &counted, &calls);
        }
    }

    /// Items left in the stream, decoded, every entry's in order.
    fn leftovers(backend: &RedisBackend, key: &[u8]) -> Vec<QueueItem> {
        let mut conn = backend.connect().unwrap();
        let reply = conn.request(&[b"XRANGE", key, b"-", b"+"]).unwrap();
        let entries = reply.as_array().expect("XRANGE replies with an array");
        let decoded = entries.iter().flat_map(|entry| {
            let fields = entry.as_array().and_then(|e| e.get(1)?.as_array());
            let pairs = fields.expect("[id, [field, value, ...]]").chunks(2);
            pairs.map(|pair| match pair {
                [_, Frame::Bulk(payload)] => codec::decode_item(payload).unwrap(),
                other => panic!("unexpected entry body {other:?}"),
            })
        });
        decoded.collect()
    }

    #[test]
    fn noack_pop_batch_is_one_round_trip_and_depth_stays_live() {
        over_counted_backends(|label, plain, counted, calls| {
            let q = RedisQueue::new(counted, "rt", 1).unwrap();
            q.push_batch(None, (0..70).map(task).collect()).unwrap();
            // Every pop is one call on the reader's connection: the first
            // has nothing to delete, the later ones carry the XDEL of the
            // batch before in the same pipelined write, the last comes back
            // empty and still settles what the third delivered.
            for (expect, depth_after) in [(32, 38), (32, 6), (6, 0), (0, 0)] {
                let before = calls.load(SeqCst);
                let got = q.pop_batch(0, 32, Duration::from_millis(20)).unwrap();
                assert_eq!(calls.load(SeqCst) - before, 1, "{label}: one round trip");
                assert_eq!(got.len(), expect, "{label}");
                assert_eq!(q.depth(), depth_after, "{label}: depth is the live depth");
            }
            assert!(leftovers(plain, b"rt").is_empty(), "{label}: drained");
        });
    }

    /// Every command sent, each as its arguments.
    type Sent = Arc<Mutex<Vec<Vec<Vec<u8>>>>>;

    /// Connection wrapper writing down every command sent through it.
    struct Logged {
        inner: Box<dyn Connection>,
        sent: Sent,
    }

    impl Logged {
        fn log(&self, args: &[&[u8]]) {
            self.sent
                .lock()
                .push(args.iter().map(|a| a.to_vec()).collect());
        }
    }

    impl Connection for Logged {
        fn request(&mut self, args: &[&[u8]]) -> Result<Frame, ClientError> {
            self.log(args);
            self.inner.request(args)
        }
        fn request_many(&mut self, cmds: &[&[&[u8]]]) -> Result<Vec<Frame>, ClientError> {
            cmds.iter().for_each(|args| self.log(args));
            self.inner.request_many(cmds)
        }
    }

    /// `backend` with every command sent through it written down.
    fn logging(backend: &RedisBackend) -> (RedisBackend, Sent) {
        let sent = Arc::new(Mutex::new(Vec::new()));
        let (mint, log) = (backend.clone(), sent.clone());
        let logged = RedisBackend::custom(move || {
            Ok(Box::new(Logged {
                inner: mint.connect()?,
                sent: log.clone(),
            }))
        });
        (logged, sent)
    }

    /// The `XADD`s among `sent`, each as the items its entry carries.
    fn entries_added(sent: &[Vec<Vec<u8>>]) -> Vec<Vec<QueueItem>> {
        let xadds = sent.iter().filter(|cmd| cmd[0] == b"XADD");
        let decode = |cmd: &Vec<Vec<u8>>| {
            let pairs = cmd[3..].chunks(2);
            pairs
                .map(|pair| {
                    assert_eq!(pair[0], FIELD);
                    codec::decode_item(&pair[1]).unwrap()
                })
                .collect()
        };
        xadds.map(decode).collect()
    }

    #[test]
    fn push_batch_packs_tasks_into_entries_in_one_request() {
        over_counted_backends(|label, _, counted, calls| {
            let (logged, sent) = logging(counted);
            let q = RedisQueue::new(&logged, "pack", 1).unwrap();
            sent.lock().clear();
            let before = calls.load(SeqCst);
            q.push_batch(None, (0..70).map(task).collect()).unwrap();
            assert_eq!(calls.load(SeqCst) - before, 1, "{label}: one request");
            let entries = entries_added(&sent.lock());
            let lens: Vec<usize> = entries.iter().map(Vec::len).collect();
            assert_eq!(lens, [8, 8, 8, 8, 8, 8, 8, 8, 6], "{label}");
            assert_eq!(entries.len(), 70usize.div_ceil(TASKS_PER_ENTRY), "{label}");
            let items: Vec<QueueItem> = entries.concat();
            assert_eq!(items, (0..70).map(task).collect::<Vec<_>>(), "{label}");
            assert_eq!(q.depth(), 70, "{label}: depth counts items, not entries");
        });
    }

    #[test]
    fn pills_and_flushes_get_an_entry_each() {
        over_counted_backends(|label, _, counted, _| {
            let (logged, sent) = logging(counted);
            let q = RedisQueue::new(&logged, "alone", 2).unwrap();
            let mut items = vec![QueueItem::Pill, QueueItem::Pill, QueueItem::Flush];
            items.extend((0..10).map(task));
            items.push(QueueItem::Flush);
            items.extend((10..12).map(task));
            sent.lock().clear();
            q.push_batch(None, items.clone()).unwrap();
            let entries = entries_added(&sent.lock());
            let lens: Vec<usize> = entries.iter().map(Vec::len).collect();
            assert_eq!(lens, [1, 1, 1, 8, 2, 1, 2], "{label}");
            assert_eq!(entries.concat(), items, "{label}");
        });
    }

    #[test]
    fn repeated_pops_after_a_packed_push_return_every_task_in_order() {
        over_counted_backends(|label, plain, counted, calls| {
            let q = RedisQueue::new(counted, "one", 1).unwrap();
            q.push_batch(None, (0..20).map(task).collect()).unwrap();
            let before = calls.load(SeqCst);
            let mut got = Vec::new();
            while let Some(item) = q.pop(0, Duration::from_millis(20)).unwrap() {
                got.push(item);
                assert_eq!(q.depth(), 20 - got.len(), "{label}");
            }
            assert_eq!(got, (0..20).map(task).collect::<Vec<_>>(), "{label}");
            // A read per entry (8, 8, 4) and the empty one that deletes the
            // last: the tasks an entry holds beyond the first need none.
            assert_eq!(calls.load(SeqCst) - before, 4, "{label}");
            assert!(leftovers(plain, b"one").is_empty(), "{label}: drained");
        });
    }

    #[test]
    fn an_engine_sized_pop_holds_nothing_back() {
        assert_eq!(32 % TASKS_PER_ENTRY, 0, "the engine pops 32");
        over_counted_backends(|label, _, counted, _| {
            let q = RedisQueue::new(counted, "even", 1).unwrap();
            q.push_batch(None, (0..70).map(task).collect()).unwrap();
            for expect in [32, 32, 6, 0] {
                let got = q.pop_batch(0, 32, Duration::from_millis(20)).unwrap();
                assert_eq!(got.len(), expect, "{label}");
                assert!(q.readers[0].lock().spare.is_empty(), "{label}");
            }
        });
    }

    /// Connection wrapper answering every `XDEL` with an error frame,
    /// without sending it, while `refuse` is set.
    struct RefusesXdel {
        inner: Box<dyn Connection>,
        refuse: Arc<AtomicBool>,
    }

    impl Connection for RefusesXdel {
        fn request(&mut self, args: &[&[u8]]) -> Result<Frame, ClientError> {
            Ok(self.request_many(&[args])?.remove(0))
        }
        fn request_many(&mut self, cmds: &[&[&[u8]]]) -> Result<Vec<Frame>, ClientError> {
            let refuse = self.refuse.load(SeqCst);
            let refused = |cmd: &[&[u8]]| refuse && cmd[0] == b"XDEL";
            let sent: Vec<&[&[u8]]> = cmds.iter().copied().filter(|c| !refused(c)).collect();
            let mut replies = self.inner.request_many(&sent)?.into_iter();
            let answer = |cmd: &&[&[u8]]| match refused(cmd) {
                true => Frame::error("injected"),
                false => replies.next().expect("one reply per command sent"),
            };
            Ok(cmds.iter().map(answer).collect())
        }
    }

    #[test]
    fn a_refused_xdel_returns_the_read_and_keeps_both_id_sets() {
        // Regression: an XDEL answered with an error frame made the pop
        // return Err, losing the batch it had just read (NOACK counted it
        // delivered), and dropped the earlier ids from deletion for good.
        let shared = Arc::new(redis_lite::engine::Shared::new());
        let plain = RedisBackend::InProc(shared.clone());
        let refuse = Arc::new(AtomicBool::new(false));
        let flag = refuse.clone();
        let backend = RedisBackend::custom(move || {
            Ok(Box::new(RefusesXdel {
                inner: Box::new(InProcClient::new(shared.clone())),
                refuse: flag.clone(),
            }))
        });
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        q.push_batch(None, (0..16).map(task).collect()).unwrap();
        let first = q.pop_batch(0, 8, Duration::from_millis(20)).unwrap();
        assert_eq!(first, (0..8).map(task).collect::<Vec<_>>());
        refuse.store(true, SeqCst);
        let second = q.pop_batch(0, 8, Duration::from_millis(20)).unwrap();
        assert_eq!(second, (8..16).map(task).collect::<Vec<_>>());
        assert_eq!(leftovers(&plain, b"q").len(), 16, "nothing was deleted");
        refuse.store(false, SeqCst);
        assert!(q.pop_batch(0, 8, Duration::ZERO).unwrap().is_empty());
        assert!(leftovers(&plain, b"q").is_empty(), "one XDEL took both");
        assert_eq!(q.depth(), 0);
    }

    /// A zero-timeout pop is a try-read: it sends no `BLOCK` (Redis reads
    /// `BLOCK 0` as "forever", so it used to be clamped to `BLOCK 1` and
    /// park a millisecond on an empty stream). A timed pop still blocks.
    #[test]
    fn zero_timeout_pop_sends_no_block() {
        let shared = Arc::new(redis_lite::engine::Shared::new());
        let sent = Arc::new(Mutex::new(Vec::new()));
        let log = sent.clone();
        let backend = RedisBackend::custom(move || {
            Ok(Box::new(Logged {
                inner: Box::new(redis_lite::client::InProcClient::new(shared.clone())),
                sent: log.clone(),
            }))
        });
        for reliable in [false, true] {
            let q = match reliable {
                false => RedisQueue::new(&backend, "z", 1).unwrap(),
                true => {
                    RedisQueue::new_reliable(&backend, "zr", 1, Duration::from_secs(5)).unwrap()
                }
            };
            let read_block = |timeout: Duration| {
                sent.lock().clear();
                assert!(q.pop_batch(0, 8, timeout).unwrap().is_empty());
                let sent = sent.lock();
                let reads = sent.iter().filter(|c| c[0] == b"XREADGROUP");
                let reads: Vec<_> = reads.collect();
                assert_eq!(reads.len(), 1, "reliable={reliable}: one read per pop");
                let at = reads[0].iter().position(|a| a == b"BLOCK");
                at.map(|i| String::from_utf8_lossy(&reads[0][i + 1]).into_owned())
            };
            assert_eq!(read_block(Duration::ZERO), None, "reliable={reliable}");
            let block = read_block(Duration::from_millis(1));
            assert_eq!(block.as_deref(), Some("1"), "reliable={reliable}");
        }
    }

    #[test]
    fn completed_run_leaves_no_task_in_the_stream() {
        use d4py_core::executable::Executable;
        use d4py_core::mappings::dynamic::run_dynamic;
        use d4py_core::options::ExecutionOptions;
        use d4py_core::pe::{Context, CountingSink, FnSource, FnTransform};
        use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

        over_counted_backends(|label, plain, counted, _| {
            let mut g = WorkflowGraph::new("t");
            let a = g.add_pe(PeSpec::source("a", "out"));
            let b = g.add_pe(PeSpec::transform("b", "in", "out"));
            let c = g.add_pe(PeSpec::sink("c", "in"));
            g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
            g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
            let (_, count) = CountingSink::new();
            let n = count.clone();
            let mut exe = Executable::new(g).unwrap();
            exe.register(a, || {
                Box::new(FnSource(|ctx: &mut dyn Context| {
                    (0..500).for_each(|i| ctx.emit("out", Value::Int(i)));
                }))
            });
            exe.register(b, || {
                Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                    ctx.emit("out", v)
                }))
            });
            exe.register(c, move || Box::new(CountingSink::into_handle(n.clone())));
            let exe = exe.seal().unwrap();

            let q = Arc::new(RedisQueue::new(counted, "run", 3).unwrap());
            let report = run_dynamic(&exe, &ExecutionOptions::new(3), q, "t", None);
            assert_eq!(report.unwrap().tasks_executed, 1001, "{label}");
            assert_eq!(count.load(Ordering::Relaxed), 500, "{label}");
            // Every delivered entry is deleted, the last batches included
            // (a pill's batch at once). What may remain is the protocol's
            // own surplus: each worker that runs out of retries broadcasts a
            // pill per worker, and pills nobody was left to read stay.
            let left = leftovers(plain, b"run");
            assert!(left.len() <= 3 * 3, "{label}: {left:?}");
            assert!(left.iter().all(|it| *it == QueueItem::Pill), "{label}");
        });
    }

    #[test]
    fn queue_works_over_a_two_shard_cluster() {
        let s1 = Server::start(0).unwrap();
        let s2 = Server::start(0).unwrap();
        let backend = RedisBackend::cluster(vec![s1.addr(), s2.addr()]);
        let q = RedisQueue::new(&backend, "clusterq", 2).unwrap();
        q.push_batch(None, (0..10).map(task).collect()).unwrap();
        assert_eq!(q.depth(), 10);
        let got = q.pop_batch(0, 10, Duration::from_millis(100)).unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn works_over_real_tcp() {
        let server = Server::start(0).unwrap();
        let backend = RedisBackend::Tcp(server.addr());
        let q = RedisQueue::new(&backend, "q", 2).unwrap();
        let payload = QueueItem::Task(Task::new(
            PeId(3),
            "in",
            Value::map([
                ("station", Value::Str("ST01".into())),
                ("x", Value::Float(1.5)),
            ]),
        ));
        q.push(payload.clone()).unwrap();
        assert_eq!(q.pop(1, Duration::from_millis(100)).unwrap(), Some(payload));
    }

    #[test]
    fn unknown_consumer_index_errors() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        assert!(q.pop(5, Duration::from_millis(5)).is_err());
    }
}
