//! The event-driven connection reactor: many sockets per thread.
//!
//! A thread per connection pays one OS thread (stack, scheduler slot,
//! context switches) per client — fine at 16 connections, ruinous at 1024.
//! The reactor inverts that: a fixed, small set of worker threads owns
//! every connection, each as a small **state machine** (reading → executing →
//! writing), and sweeps them with nonblocking I/O. No `libc`, no epoll: pure
//! std `set_nonblocking` readiness scanning, with an adaptive idle strategy
//! (resweep → yield spins → 1 ms park) so an idle server burns ~no CPU while
//! a busy one never sleeps.
//!
//! Blocking commands (`BLPOP`, `XREAD BLOCK ...`) do not park worker threads.
//! The engine's non-parking surface ([`Shared::dispatch_nonblocking`]) hands
//! back a [`crate::engine::BlockedCmd`]; the connection holds it as state and
//! the sweep retries it via [`Shared::poll_blocked`] — a load of the global
//! write epoch when idle, so 1024 parked `BLPOP`s cost 1024 atomic loads per
//! sweep, not 1024 parked threads.
//!
//! Pipelining is first-class: each readable burst is fed to the resumable
//! [`CommandParser`], every complete command executes, and all replies leave
//! in one write. Replies that outpace the peer accumulate in a bounded
//! outbox; past [`WRITE_BACKPRESSURE`] the connection stops reading until the
//! peer drains — slow consumers throttle themselves, not the server.

use crate::engine::{BlockedCmd, Dispatch, Shared};
use crate::resp::{self, CommandParser, Frame};
use d4py_sync::{ByteBuf, Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stop reading from a connection whose unflushed replies exceed this many
/// bytes; reads resume once the peer drains below it.
pub(crate) const WRITE_BACKPRESSURE: usize = 1 << 20;

/// Per-connection read budget per sweep — bounds how long one firehose
/// client can monopolise a worker before its neighbours get a turn.
const READ_BUDGET: usize = 64 * 1024;

/// Consecutive empty sweeps a worker spin-yields before parking.
const IDLE_SPINS: u32 = 64;

/// How long a worker parks when there is nothing to do. This bounds the
/// latency of what arrives without a signal: bytes on an idle socket. (An
/// engine write that may unblock a parked command pokes the worker, see
/// [`WorkerShared::wake_if_parked`].)
const PARK: Duration = Duration::from_millis(1);

/// One client connection as a state machine owned by a single worker.
pub(crate) struct Conn {
    pub(crate) id: u64,
    stream: TcpStream,
    parser: CommandParser,
    /// Parsed but not yet executed commands (a pipeline queued behind a
    /// blocking command waits here — RESP replies must stay in order).
    pending: VecDeque<Vec<d4py_sync::SharedBuf>>,
    /// A blocking command waiting for data; replies stall behind it.
    blocked: Option<BlockedCmd>,
    outbox: ByteBuf,
    out_pos: usize,
    last_activity: Instant,
    dead: bool,
}

impl Conn {
    pub(crate) fn new(id: u64, stream: TcpStream) -> Conn {
        Conn {
            id,
            stream,
            parser: CommandParser::new(),
            pending: VecDeque::new(),
            blocked: None,
            outbox: ByteBuf::with_capacity(4096),
            out_pos: 0,
            last_activity: Instant::now(),
            dead: false,
        }
    }

    fn backlog(&self) -> usize {
        self.outbox.len() - self.out_pos
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.out_pos < self.outbox.len() {
            match self.stream.write(&self.outbox[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos == self.outbox.len() {
            self.outbox.clear();
            self.out_pos = 0;
        } else if self.out_pos >= 32 * 1024 {
            // Reclaim the flushed prefix so a slow peer doesn't pin it.
            let _ = self.outbox.split_to(self.out_pos);
            self.out_pos = 0;
        }
        if progressed {
            self.last_activity = Instant::now();
        }
        progressed
    }

    /// Reads whatever the socket has ready, up to the fairness budget.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        let mut read = 0usize;
        while read < READ_BUDGET && self.backlog() < WRITE_BACKPRESSURE {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.parser.feed(&chunk[..n]);
                    read += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if read > 0 {
            self.last_activity = Instant::now();
        }
        read > 0
    }

    /// Executes everything executable: retries a blocked command, then runs
    /// queued commands until one blocks or the queue drains.
    fn execute(&mut self, shared: &Shared) -> bool {
        let mut progressed = false;
        if let Some(blocked) = &mut self.blocked {
            if let Some(frame) = shared.poll_blocked(blocked) {
                resp::encode(&frame, &mut self.outbox);
                self.blocked = None;
                self.last_activity = Instant::now();
                progressed = true;
            }
        }
        while self.blocked.is_none() {
            let Some(args) = self.pending.pop_front() else {
                break;
            };
            match shared.dispatch_nonblocking(&args) {
                Dispatch::Ready(frame) => resp::encode(&frame, &mut self.outbox),
                Dispatch::Blocked(b) => self.blocked = Some(b),
            }
            self.last_activity = Instant::now();
            progressed = true;
        }
        progressed
    }

    /// One full sweep: flush → execute → read → parse → execute → flush.
    /// Returns true if any forward progress happened.
    pub(crate) fn sweep(&mut self, shared: &Shared) -> bool {
        let mut progressed = self.flush();
        progressed |= self.execute(shared);
        progressed |= self.fill();
        match self.parser.drain() {
            Ok(cmds) => {
                for args in cmds {
                    self.pending.push_back(args);
                }
            }
            Err(_) => {
                // Protocol garbage: answer with an error, best-effort flush,
                // and hang up — the stream is unrecoverable past this point.
                resp::encode(&Frame::error("protocol error"), &mut self.outbox);
                self.flush();
                self.dead = true;
                return true;
            }
        }
        progressed |= self.execute(shared);
        progressed |= self.flush();
        progressed
    }

    /// True once the peer vanished or the connection sat protocol-idle
    /// longer than `idle_timeout`. A parked blocking command is legitimate
    /// idleness (BLPOP 0 may wait forever) and is never reaped.
    pub(crate) fn should_close(&self, idle_timeout: Option<Duration>) -> bool {
        if self.dead {
            return true;
        }
        match idle_timeout {
            Some(limit) => {
                self.blocked.is_none()
                    && self.pending.is_empty()
                    && self.backlog() == 0
                    && self.last_activity.elapsed() > limit
            }
            None => false,
        }
    }
}

/// The handoff point between the accept thread and one worker.
pub(crate) struct WorkerShared {
    inbox: Mutex<Vec<Conn>>,
    signal: Condvar,
    /// Up while the worker waits on `signal`; raised and lowered under the
    /// inbox lock.
    parked: AtomicBool,
    /// Times a write found the worker parked and woke it.
    write_wakes: AtomicU64,
}

impl WorkerShared {
    pub(crate) fn new() -> WorkerShared {
        WorkerShared {
            inbox: Mutex::new(Vec::new()),
            signal: Condvar::new(),
            parked: AtomicBool::new(false),
            write_wakes: AtomicU64::new(0),
        }
    }

    /// Hands a fresh connection to this worker and wakes it.
    pub(crate) fn register(&self, conn: Conn) {
        self.inbox.lock().push(conn);
        self.signal.notify_one();
    }

    /// Wakes the worker (shutdown path).
    pub(crate) fn poke(&self) {
        self.signal.notify_one();
    }

    /// A write completed: a blocked command on one of this worker's
    /// connections may be ready, and a parked worker would learn it only
    /// when [`PARK`] expires. The flag is up only between taking the inbox
    /// lock and waiting, so taking the lock first means the notify cannot
    /// fall between the worker's epoch check and its wait.
    pub(crate) fn wake_if_parked(&self) {
        if self.parked.load(Ordering::SeqCst) {
            drop(self.inbox.lock());
            self.signal.notify_one();
            // relaxed: a statistic, publishes nothing.
            self.write_wakes.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn write_wakes(&self) -> u64 {
        // relaxed: a statistic, publishes nothing.
        self.write_wakes.load(Ordering::Relaxed)
    }

    fn drain(&self) -> Vec<Conn> {
        let mut q = self.inbox.lock();
        std::mem::take(&mut *q)
    }

    /// Parks unless a connection was handed over or the write epoch moved
    /// since `epoch_swept`, the value read before the sweep that found
    /// nothing to do.
    fn park(&self, shared: &Shared, epoch_swept: u64) {
        let mut q = self.inbox.lock();
        self.parked.store(true, Ordering::SeqCst);
        if q.is_empty() && shared.write_epoch() == epoch_swept {
            let _ = self.signal.wait_for(&mut q, PARK);
        }
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// The body of one reactor worker thread: sweep owned connections until
/// `stop`, adaptively idling when nothing moves.
pub(crate) fn worker_loop(
    shared: Arc<Shared>,
    ws: Arc<WorkerShared>,
    stop: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
    mut on_close: impl FnMut(u64),
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_spins = 0u32;
    loop {
        let mut progressed = false;
        let epoch_swept = shared.write_epoch();
        let fresh = ws.drain();
        if !fresh.is_empty() {
            progressed = true;
            conns.extend(fresh);
        }
        for conn in &mut conns {
            progressed |= conn.sweep(&shared);
        }
        let before = conns.len();
        conns.retain(|c| {
            let close = c.should_close(idle_timeout);
            if close {
                on_close(c.id);
            }
            !close
        });
        progressed |= conns.len() != before;

        if stop.load(Ordering::SeqCst) {
            // Drain: parked BLOCK waiters and live sessions alike are
            // severed; sockets close when `conns` drops.
            for conn in &conns {
                on_close(conn.id);
            }
            return;
        }
        if progressed {
            idle_spins = 0;
            continue;
        }
        if idle_spins < IDLE_SPINS {
            idle_spins += 1;
            std::thread::yield_now();
            continue;
        }
        ws.park(&shared, epoch_swept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        (client, server)
    }

    #[test]
    fn conn_answers_a_command_in_one_sweep() {
        let shared = Shared::new();
        let (mut client, server) = pair();
        let mut conn = Conn::new(0, server);
        client.write_all(b"*1\r\n$4\r\nPING\r\n").expect("write");
        // Give the loopback a moment to deliver.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut reply = Vec::new();
        client.set_nonblocking(true).expect("nonblocking");
        while Instant::now() < deadline && !reply.ends_with(b"+PONG\r\n") {
            conn.sweep(&shared);
            let mut chunk = [0u8; 64];
            if let Ok(n) = client.read(&mut chunk) {
                reply.extend_from_slice(&chunk[..n]);
            }
        }
        assert_eq!(reply, b"+PONG\r\n");
    }

    #[test]
    fn pipeline_queued_behind_blocked_command_stays_ordered() {
        let shared = Shared::new();
        let (mut client, server) = pair();
        let mut conn = Conn::new(0, server);
        // BLPOP (blocks) then PING in one burst: PING's reply must come
        // after BLPOP's, in command order.
        client
            .write_all(b"*3\r\n$5\r\nBLPOP\r\n$1\r\nq\r\n$1\r\n0\r\n*1\r\n$4\r\nPING\r\n")
            .expect("write");
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline && conn.blocked.is_none() {
            conn.sweep(&shared);
        }
        assert!(conn.blocked.is_some(), "BLPOP must park the connection");
        assert_eq!(conn.pending.len(), 1, "PING waits behind the block");
        assert_eq!(conn.backlog(), 0, "no reply may be emitted yet");

        // Unblock it.
        let args: Vec<d4py_sync::SharedBuf> = ["RPUSH", "q", "x"]
            .iter()
            .map(|p| d4py_sync::SharedBuf::from(p.as_bytes()))
            .collect();
        shared.dispatch(&args);
        client.set_nonblocking(true).expect("nonblocking");
        let mut reply = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline && !reply.ends_with(b"+PONG\r\n") {
            conn.sweep(&shared);
            let mut chunk = [0u8; 256];
            if let Ok(n) = client.read(&mut chunk) {
                reply.extend_from_slice(&chunk[..n]);
            }
        }
        let text = String::from_utf8_lossy(&reply);
        let blpop_at = text.find("$1\r\nx").expect("BLPOP reply present");
        let ping_at = text.find("+PONG").expect("PING reply present");
        assert!(
            blpop_at < ping_at,
            "replies must keep command order: {text}"
        );
    }

    #[test]
    fn peer_close_marks_conn_dead() {
        let shared = Shared::new();
        let (client, server) = pair();
        let mut conn = Conn::new(0, server);
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline && !conn.dead {
            conn.sweep(&shared);
        }
        assert!(conn.should_close(None));
    }

    #[test]
    fn protocol_garbage_gets_error_then_close() {
        let shared = Shared::new();
        let (mut client, server) = pair();
        let mut conn = Conn::new(0, server);
        client.write_all(b"!!not resp\r\n").expect("write");
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline && !conn.dead {
            conn.sweep(&shared);
        }
        assert!(conn.dead);
        client.set_nonblocking(true).expect("nonblocking");
        std::thread::sleep(Duration::from_millis(10));
        let mut chunk = [0u8; 256];
        let n = client.read(&mut chunk).unwrap_or(0);
        assert!(
            String::from_utf8_lossy(&chunk[..n]).contains("protocol error"),
            "client should see the protocol error before the close"
        );
    }

    #[test]
    fn idle_conn_is_reaped_but_blocked_conn_is_not() {
        let shared = Shared::new();
        let (mut idle_client, idle_server) = pair();
        let idle = Conn::new(0, idle_server);
        let (mut blocked_client, blocked_server) = pair();
        let mut blocked = Conn::new(1, blocked_server);
        blocked_client
            .write_all(b"*3\r\n$5\r\nBLPOP\r\n$1\r\nq\r\n$1\r\n0\r\n")
            .expect("write");
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline && blocked.blocked.is_none() {
            blocked.sweep(&shared);
        }
        std::thread::sleep(Duration::from_millis(30));
        let limit = Some(Duration::from_millis(20));
        assert!(idle.should_close(limit), "half-open conn must be reaped");
        assert!(
            !blocked.should_close(limit),
            "a parked BLPOP is legitimate idleness"
        );
        let _ = idle_client.write(b"");
    }
}
