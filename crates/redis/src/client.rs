//! Client connections: TCP and in-process.
//!
//! [`Connection`] abstracts "send a command, get a frame", so the dispel4py
//! Redis mappings work identically over a real socket ([`Client`]) and the
//! in-process transport ([`InProcClient`], for tests and the
//! TCP-vs-in-proc ablation bench). Helper methods cover the command subset
//! the workflow queues use.
//!
//! Two throughput levers live here. [`Connection::request_many`] is RESP
//! **pipelining**: N commands encoded into one socket write, N replies
//! decoded from the buffered inbox — one round-trip instead of N (the
//! server drains every complete frame in its read buffer before blocking,
//! so no server cooperation is needed). [`ClientConfig`] bounds every
//! socket read/write so a hung-but-open server surfaces as a transient
//! `TimedOut` instead of blocking the worker forever.

use crate::engine::Shared;
use crate::resp::{self, Frame};
use d4py_sync::ByteBuf;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed RESP from the server.
    Protocol(resp::RespError),
    /// The server answered with `-ERR ...`.
    Server(String),
    /// Reply shape didn't match the helper's expectation.
    UnexpectedReply(String),
    /// A transient socket failure persisted across the single
    /// reconnect-and-retry the client attempts for idempotent commands.
    RetryExhausted {
        /// The command verb that was being retried (e.g. `"GET"`).
        command: String,
        /// The I/O error that ended the retry.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::UnexpectedReply(msg) => write!(f, "unexpected reply: {msg}"),
            ClientError::RetryExhausted { command, source } => {
                write!(f, "retry exhausted for {command}: {source}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Anything that can execute Redis commands.
pub trait Connection: Send {
    /// Sends one command and returns the raw reply frame. Error frames are
    /// returned as frames, not `Err` — helpers decide what's fatal.
    fn request(&mut self, args: &[&[u8]]) -> Result<Frame, ClientError>;

    /// Sends `cmds` as one RESP pipeline and returns one reply per command,
    /// in order. The default degrades to sequential [`request`] calls;
    /// transports with a real wire override it to pay one round-trip for
    /// the whole batch. Per-command error frames are returned in place, not
    /// as `Err` — a transport-level `Err` means the batch outcome is
    /// unknown.
    ///
    /// [`request`]: Connection::request
    fn request_many(&mut self, cmds: &[&[&[u8]]]) -> Result<Vec<Frame>, ClientError> {
        cmds.iter().map(|c| self.request(c)).collect()
    }
}

/// Socket-timeout configuration for [`Client`].
///
/// Every read and write is bounded: a server that accepts the connection
/// and then never replies surfaces as `ErrorKind::TimedOut` (classified
/// transient, so idempotent commands get the bounded reconnect-retry)
/// instead of blocking the calling worker forever. Blocking reads
/// (`XREAD`/`XREADGROUP ... BLOCK ms`) automatically extend the read
/// deadline by their server-side block time, so a legitimate long poll is
/// never misread as a stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-read deadline; `None` disables the bound (pre-timeout behavior).
    pub read_timeout: Option<Duration>,
    /// Per-write deadline; `None` disables the bound.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A blocking TCP client.
///
/// For **idempotent** commands, a transient connection drop (EOF, reset,
/// broken pipe) or a bounded-read timeout is absorbed by exactly one
/// reconnect-and-retry; commands with side effects that re-running could
/// duplicate (`XADD`, `XREADGROUP`) are never retried — their failure is
/// surfaced so the caller's at-least-once recovery (pending-entry reclaim)
/// handles it.
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    /// Reply bytes: `inbox[head..tail]` is received and not yet decoded,
    /// everything past `tail` is scratch the socket reads straight into.
    inbox: Vec<u8>,
    head: usize,
    tail: usize,
    config: ClientConfig,
    /// The read deadline the socket currently carries.
    read_timeout_set: Option<Duration>,
}

/// Room a socket read is offered at least: one `read` takes a whole
/// pipelined reply of a few KiB instead of one syscall per 4 KiB.
const READ_STEP: usize = 16 * 1024;

/// An inbox that grew past this for one large reply is given back once the
/// reply is decoded.
const INBOX_KEEP: usize = 256 * 1024;

impl Client {
    /// Connects to a redis-lite (or Redis) server with default timeouts.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit socket timeouts.
    pub fn connect_with(addr: SocketAddr, config: ClientConfig) -> Result<Client, ClientError> {
        let stream = Self::open(addr, &config)?;
        Ok(Client {
            addr,
            stream,
            inbox: Vec::new(),
            head: 0,
            tail: 0,
            config,
            read_timeout_set: config.read_timeout,
        })
    }

    fn open(addr: SocketAddr, config: &ClientConfig) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(stream)
    }

    /// Drops the old socket and dials the server again. Any partial reply
    /// buffered from the dead connection is stale and must be discarded.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = Self::open(self.addr, &self.config)?;
        self.read_timeout_set = self.config.read_timeout;
        (self.head, self.tail) = (0, 0);
        Ok(())
    }

    /// Gives the socket the read deadline a command with this hint needs:
    /// the configured one, widened past the time the command may
    /// legitimately block server-side. The socket is touched only when the
    /// deadline differs from the one it carries, so a connection that
    /// repeats one blocking read pays for it once.
    fn apply_block_hint(&mut self, hint: BlockHint) -> Result<(), ClientError> {
        let wanted = match (hint, self.config.read_timeout) {
            (BlockHint::None, base) => base,
            (_, None) | (BlockHint::Forever, _) => None,
            (BlockHint::Extra(d), Some(base)) => Some(base.saturating_add(d)),
        };
        if wanted != self.read_timeout_set {
            self.stream.set_read_timeout(wanted)?;
            self.read_timeout_set = wanted;
        }
        Ok(())
    }

    fn request_once(&mut self, args: &[&[u8]]) -> Result<Frame, ClientError> {
        self.apply_block_hint(block_hint(args))?;
        let mut out = ByteBuf::with_capacity(64);
        resp::encode_command(args, &mut out);
        self.stream.write_all(&out)?;
        self.read_frame()
    }

    fn request_many_once(&mut self, cmds: &[&[&[u8]]]) -> Result<Vec<Frame>, ClientError> {
        let hint = cmds
            .iter()
            .map(|c| block_hint(c))
            .fold(BlockHint::None, BlockHint::max);
        self.apply_block_hint(hint)?;
        let mut out = ByteBuf::with_capacity(64 * cmds.len());
        for cmd in cmds {
            resp::encode_command(cmd, &mut out);
        }
        self.stream.write_all(&out)?;
        let mut replies = Vec::with_capacity(cmds.len());
        for _ in 0..cmds.len() {
            replies.push(self.read_frame()?);
        }
        Ok(replies)
    }

    fn read_frame(&mut self) -> Result<Frame, ClientError> {
        loop {
            let received = &self.inbox[self.head..self.tail];
            if let Some((frame, used)) = resp::decode(received).map_err(ClientError::Protocol)? {
                self.head += used;
                if self.head == self.tail {
                    (self.head, self.tail) = (0, 0);
                    if self.inbox.len() > INBOX_KEEP {
                        self.inbox.truncate(READ_STEP);
                        self.inbox.shrink_to_fit();
                    }
                }
                return Ok(frame);
            }
            if self.inbox.len() - self.tail < READ_STEP {
                // Make room: first by reclaiming the decoded prefix, then
                // by growing (zeroed once, reused for every later read).
                self.inbox.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
                if self.inbox.len() - self.tail < READ_STEP {
                    self.inbox.resize(self.tail + READ_STEP, 0);
                }
            }
            let n = self.stream.read(&mut self.inbox[self.tail..])?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed connection",
                )));
            }
            self.tail += n;
        }
    }
}

/// How long a command may legitimately sit server-side before replying:
/// only a stream read with `BLOCK` waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockHint {
    /// Replies immediately — the configured read deadline applies as-is.
    None,
    /// Blocks up to this long (`BLOCK ms`).
    Extra(Duration),
    /// Blocks indefinitely (`BLOCK 0`).
    Forever,
}

impl BlockHint {
    fn max(self, other: BlockHint) -> BlockHint {
        match (self, other) {
            (BlockHint::Forever, _) | (_, BlockHint::Forever) => BlockHint::Forever,
            (BlockHint::Extra(a), BlockHint::Extra(b)) => BlockHint::Extra(a.max(b)),
            (BlockHint::Extra(d), BlockHint::None) | (BlockHint::None, BlockHint::Extra(d)) => {
                BlockHint::Extra(d)
            }
            (BlockHint::None, BlockHint::None) => BlockHint::None,
        }
    }
}

/// Extracts the server-side blocking budget of a command, so the client's
/// read deadline can be widened past it.
fn block_hint(args: &[&[u8]]) -> BlockHint {
    let Some(verb) = args.first() else {
        return BlockHint::None;
    };
    if !verb.eq_ignore_ascii_case(b"XREAD") && !verb.eq_ignore_ascii_case(b"XREADGROUP") {
        return BlockHint::None;
    }
    for pair in args.windows(2) {
        if pair[0].eq_ignore_ascii_case(b"BLOCK") {
            let ms = std::str::from_utf8(pair[1])
                .ok()
                .and_then(|s| s.parse::<u64>().ok());
            return match ms {
                Some(0) => BlockHint::Forever,
                Some(ms) => BlockHint::Extra(Duration::from_millis(ms)),
                None => BlockHint::None,
            };
        }
    }
    BlockHint::None
}

/// Commands that are safe to re-issue blindly after a dropped connection:
/// either read-only, absolute writes (`SET`, `FLUSHALL`), or naturally
/// at-most-once-per-id (`XACK`, `XGROUP CREATE`). `XADD` would duplicate
/// the entry and `XREADGROUP` would double-deliver, so both are excluded.
fn is_idempotent(cmd: &[u8]) -> bool {
    const IDEMPOTENT: &[&[u8]] = &[
        b"PING",
        b"GET",
        b"SET",
        b"XACK",
        b"XGROUP",
        b"XINFO",
        b"XAUTOCLAIM",
        b"FLUSHALL",
    ];
    IDEMPOTENT.iter().any(|c| cmd.eq_ignore_ascii_case(c))
}

/// A connection-level failure worth one reconnect; anything else (protocol
/// garbage, server errors) would only repeat on a fresh socket. `TimedOut`
/// and `WouldBlock` are the two kinds a bounded socket read/write produces
/// on a stalled-but-open server (which one depends on the platform).
fn is_transient(e: &ClientError) -> bool {
    use std::io::ErrorKind;
    matches!(
        e,
        ClientError::Io(io) if matches!(
            io.kind(),
            ErrorKind::UnexpectedEof
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
                | ErrorKind::TimedOut
                | ErrorKind::WouldBlock
        )
    )
}

fn exhausted(command: &[u8], e: ClientError) -> ClientError {
    match e {
        ClientError::Io(source) => ClientError::RetryExhausted {
            command: String::from_utf8_lossy(command).into_owned(),
            source,
        },
        other => other,
    }
}

impl Connection for Client {
    fn request(&mut self, args: &[&[u8]]) -> Result<Frame, ClientError> {
        match self.request_once(args) {
            Err(e) if is_transient(&e) && args.first().copied().is_some_and(is_idempotent) => {
                // One bounded reconnect-and-retry; a second failure is
                // surfaced as RetryExhausted so callers can tell "the
                // server is gone" from a one-off drop.
                if let Err(re) = self.reconnect() {
                    return Err(exhausted(args[0], re));
                }
                self.request_once(args).map_err(|re| exhausted(args[0], re))
            }
            other => other,
        }
    }

    fn request_many(&mut self, cmds: &[&[&[u8]]]) -> Result<Vec<Frame>, ClientError> {
        if cmds.is_empty() {
            return Ok(Vec::new());
        }
        match self.request_many_once(cmds) {
            Err(e)
                if is_transient(&e)
                    && cmds
                        .iter()
                        .all(|c| c.first().copied().is_some_and(is_idempotent)) =>
            {
                // The whole pipeline is retried as a unit: replies decoded
                // before the failure are discarded (the reconnect clears
                // the inbox) and every command re-executes — safe only
                // because every command in the batch is idempotent.
                if let Err(re) = self.reconnect() {
                    return Err(exhausted(cmds[0][0], re));
                }
                self.request_many_once(cmds)
                    .map_err(|re| exhausted(cmds[0][0], re))
            }
            other => other,
        }
    }
}

/// An in-process client: dispatches straight into a [`Shared`] engine with
/// no sockets or serialization (though commands still pass the full command
/// dispatch path).
pub struct InProcClient {
    shared: Arc<Shared>,
}

impl InProcClient {
    /// Creates a client over shared engine state.
    pub fn new(shared: Arc<Shared>) -> Self {
        Self { shared }
    }
}

impl Connection for InProcClient {
    fn request(&mut self, args: &[&[u8]]) -> Result<Frame, ClientError> {
        let owned: Vec<d4py_sync::SharedBuf> = args
            .iter()
            .map(|a| d4py_sync::SharedBuf::from(*a))
            .collect();
        Ok(self.shared.dispatch(&owned))
    }
}

/// Typed helpers over any [`Connection`].
pub trait RedisOps: Connection {
    /// `PING` → "PONG".
    fn ping(&mut self) -> Result<String, ClientError> {
        expect_text(self.request(&[b"PING"])?)
    }

    /// `SET key value`.
    fn set(&mut self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        expect_ok(self.request(&[b"SET", key, value])?)
    }

    /// `GET key`.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        match self.request(&[b"GET", key])? {
            Frame::Null => Ok(None),
            Frame::Bulk(b) => Ok(Some(b.to_vec())),
            other => fail(other),
        }
    }

    /// `XADD key * field value` → assigned id.
    fn xadd(&mut self, key: &[u8], field: &[u8], value: &[u8]) -> Result<String, ClientError> {
        expect_text(self.request(&[b"XADD", key, b"*", field, value])?)
    }

    /// `XGROUP CREATE key group 0 MKSTREAM`, tolerating BUSYGROUP.
    fn xgroup_create(&mut self, key: &[u8], group: &[u8]) -> Result<(), ClientError> {
        match self.request(&[b"XGROUP", b"CREATE", key, group, b"0", b"MKSTREAM"])? {
            Frame::Simple(_) => Ok(()),
            Frame::Error(e) if e.starts_with("BUSYGROUP") => Ok(()),
            other => fail(other),
        }
    }

    /// `XREADGROUP GROUP g c COUNT 1 BLOCK ms [NOACK] STREAMS key >`
    /// → `Some((entry_id, field_value_pairs))` or `None` on timeout.
    #[allow(clippy::type_complexity)]
    fn xreadgroup_one(
        &mut self,
        key: &[u8],
        group: &[u8],
        consumer: &[u8],
        block: Duration,
        noack: bool,
    ) -> Result<Option<(String, Vec<(Vec<u8>, Vec<u8>)>)>, ClientError> {
        Ok(self
            .xreadgroup_many(key, group, consumer, 1, block, noack)?
            .into_iter()
            .next())
    }

    /// `XREADGROUP GROUP g c COUNT n BLOCK ms [NOACK] STREAMS key >` — up
    /// to `count` entries in one round-trip; empty on timeout. A zero
    /// `block` sends no `BLOCK` (`BLOCK 0` is "forever"): a try-read.
    #[allow(clippy::type_complexity)]
    fn xreadgroup_many(
        &mut self,
        key: &[u8],
        group: &[u8],
        consumer: &[u8],
        count: usize,
        block: Duration,
        noack: bool,
    ) -> Result<Vec<(String, Vec<(Vec<u8>, Vec<u8>)>)>, ClientError> {
        let count = count.max(1).to_string();
        let block_ms = block.as_millis().max(1).to_string();
        let mut cmd: Vec<&[u8]> = vec![
            b"XREADGROUP",
            b"GROUP",
            group,
            consumer,
            b"COUNT",
            count.as_bytes(),
        ];
        if !block.is_zero() {
            cmd.extend_from_slice(&[b"BLOCK", block_ms.as_bytes()]);
        }
        if noack {
            cmd.push(b"NOACK");
        }
        cmd.extend_from_slice(&[b"STREAMS", key, b">"]);
        parse_read_reply(self.request(&cmd)?)
    }

    /// `XACK key group id`.
    fn xack(&mut self, key: &[u8], group: &[u8], id: &str) -> Result<i64, ClientError> {
        expect_int(self.request(&[b"XACK", key, group, id.as_bytes()])?)
    }

    /// `XINFO CONSUMERS key group` → (name, pending, idle) rows.
    #[allow(clippy::type_complexity)]
    fn xinfo_consumers(
        &mut self,
        key: &[u8],
        group: &[u8],
    ) -> Result<Vec<(String, i64, Duration)>, ClientError> {
        match self.request(&[b"XINFO", b"CONSUMERS", key, group])? {
            Frame::Error(e) => Err(ClientError::Server(e)),
            Frame::Array(rows) => {
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let Some(fields) = row.as_array() else {
                        continue;
                    };
                    // ["name", n, "pending", p, "idle", ms]
                    let name = fields.get(1).and_then(Frame::as_text).unwrap_or_default();
                    let pending = fields.get(3).and_then(Frame::as_int).unwrap_or(0);
                    let idle_ms = fields.get(5).and_then(Frame::as_int).unwrap_or(0);
                    out.push((name, pending, Duration::from_millis(idle_ms.max(0) as u64)));
                }
                Ok(out)
            }
            other => fail(other),
        }
    }

    /// `FLUSHALL`.
    fn flushall(&mut self) -> Result<(), ClientError> {
        expect_ok(self.request(&[b"FLUSHALL"])?)
    }
}

impl<T: Connection + ?Sized> RedisOps for T {}

/// One delivered stream entry: `(id, field/value pairs)`.
pub type StreamEntry = (String, Vec<(Vec<u8>, Vec<u8>)>);

fn parse_entry(entry: &[Frame]) -> Result<StreamEntry, ClientError> {
    let id = entry
        .first()
        .and_then(Frame::as_text)
        .ok_or_else(|| ClientError::UnexpectedReply("missing entry id".into()))?;
    let body = entry
        .get(1)
        .and_then(Frame::as_array)
        .ok_or_else(|| ClientError::UnexpectedReply("missing entry body".into()))?;
    let mut pairs = Vec::with_capacity(body.len() / 2);
    let mut it = body.iter();
    while let (Some(Frame::Bulk(f)), Some(Frame::Bulk(v))) = (it.next(), it.next()) {
        pairs.push((f.to_vec(), v.to_vec()));
    }
    Ok((id, pairs))
}

/// Parses an `XREADGROUP`/`XREAD` reply into the first stream's entries
/// (the workflow queues always read exactly one stream). `Null`/`NullArray`
/// (timeout) parse to an empty vec; error frames become
/// [`ClientError::Server`].
pub fn parse_read_reply(reply: Frame) -> Result<Vec<StreamEntry>, ClientError> {
    match reply {
        Frame::Null | Frame::NullArray => Ok(Vec::new()),
        Frame::Error(e) => Err(ClientError::Server(e)),
        Frame::Array(streams) => {
            // [[key, [[id, [f, v, ...]], ...]], ...] — first stream only.
            let entries = streams
                .first()
                .and_then(Frame::as_array)
                .and_then(|s| s.get(1))
                .and_then(Frame::as_array)
                .unwrap_or(&[]);
            entries
                .iter()
                .filter_map(Frame::as_array)
                .map(parse_entry)
                .collect()
        }
        other => fail(other),
    }
}

/// Parses an `XAUTOCLAIM` reply (`[next-cursor, [entries]]`) into the
/// reclaimed entries; error frames become [`ClientError::Server`].
pub fn parse_claim_reply(reply: Frame) -> Result<Vec<StreamEntry>, ClientError> {
    match reply {
        Frame::Error(e) => Err(ClientError::Server(e)),
        Frame::Array(parts) => {
            let entries = parts.get(1).and_then(Frame::as_array).unwrap_or(&[]);
            entries
                .iter()
                .filter_map(Frame::as_array)
                .map(parse_entry)
                .collect()
        }
        other => fail(other),
    }
}

fn fail<T>(frame: Frame) -> Result<T, ClientError> {
    match frame {
        Frame::Error(e) => Err(ClientError::Server(e)),
        other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
    }
}

fn expect_ok(frame: Frame) -> Result<(), ClientError> {
    match frame {
        Frame::Simple(_) => Ok(()),
        other => fail(other),
    }
}

fn expect_text(frame: Frame) -> Result<String, ClientError> {
    match frame {
        Frame::Simple(s) => Ok(s),
        Frame::Bulk(b) => String::from_utf8(b.to_vec())
            .map_err(|_| ClientError::UnexpectedReply("non-UTF8 text".into())),
        other => fail(other),
    }
}

fn expect_int(frame: Frame) -> Result<i64, ClientError> {
    match frame {
        Frame::Integer(i) => Ok(i),
        other => fail(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inproc() -> InProcClient {
        InProcClient::new(Arc::new(Shared::new()))
    }

    #[test]
    fn inproc_basic_ops() {
        let mut c = inproc();
        assert_eq!(c.ping().unwrap(), "PONG");
        c.set(b"k", b"v").unwrap();
        assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(c.get(b"none").unwrap(), None);
    }

    #[test]
    fn inproc_stream_workflow() {
        let mut c = inproc();
        c.xgroup_create(b"q", b"workers").unwrap();
        c.xgroup_create(b"q", b"workers").unwrap(); // BUSYGROUP tolerated
        let id = c.xadd(b"q", b"task", b"payload").unwrap();
        let entries = c.request(&[b"XRANGE", b"q", b"-", b"+"]).unwrap();
        assert_eq!(entries.as_array().unwrap().len(), 1);
        let (got_id, pairs) = c
            .xreadgroup_one(b"q", b"workers", b"w0", Duration::from_millis(50), false)
            .unwrap()
            .unwrap();
        assert_eq!(got_id, id);
        assert_eq!(pairs, vec![(b"task".to_vec(), b"payload".to_vec())]);
        assert_eq!(c.xack(b"q", b"workers", &got_id).unwrap(), 1);
        // Queue drained: the next read times out.
        assert!(c
            .xreadgroup_one(b"q", b"workers", b"w0", Duration::from_millis(20), false)
            .unwrap()
            .is_none());
    }

    #[test]
    fn inproc_consumer_idle_info() {
        let mut c = inproc();
        c.xgroup_create(b"q", b"g").unwrap();
        c.xadd(b"q", b"t", b"1").unwrap();
        c.xreadgroup_one(b"q", b"g", b"w0", Duration::from_millis(20), true)
            .unwrap()
            .unwrap();
        std::thread::sleep(Duration::from_millis(15));
        let rows = c.xinfo_consumers(b"q", b"g").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "w0");
        assert!(rows[0].2 >= Duration::from_millis(10));
    }

    #[test]
    fn server_error_is_surfaced() {
        let mut c = inproc();
        c.set(b"s", b"x").unwrap();
        // XADD against a string key → WRONGTYPE server error.
        let err = c.xadd(b"s", b"f", b"v").unwrap_err();
        assert!(matches!(err, ClientError::Server(_)));
    }

    mod reconnect {
        use super::super::*;
        use std::net::{TcpListener, TcpStream};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::thread::JoinHandle;
        use std::time::Instant;

        /// What the fault server does with one accepted connection.
        #[derive(Clone, Copy)]
        enum Plan {
            /// Accept and slam the socket shut before replying.
            Drop,
            /// Read one command and answer `+PONG\r\n`.
            Serve,
            /// Read the command, then hold the socket open without ever
            /// replying — the hung-but-open server shape. The slot ends
            /// when the client abandons the connection.
            Stall,
        }

        /// A fault-injecting server: one plan entry per expected connection.
        fn fault_server(plan: &'static [Plan]) -> (SocketAddr, Arc<AtomicUsize>, JoinHandle<()>) {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let accepted = Arc::new(AtomicUsize::new(0));
            let counter = accepted.clone();
            let handle = std::thread::spawn(move || {
                for &entry in plan {
                    let Ok((mut sock, _)) = listener.accept() else {
                        return;
                    };
                    counter.fetch_add(1, Ordering::SeqCst);
                    let mut buf = [0u8; 1024];
                    match entry {
                        Plan::Drop => {}
                        Plan::Serve => {
                            let _ = sock.read(&mut buf);
                            let _ = sock.write_all(b"+PONG\r\n");
                        }
                        Plan::Stall => {
                            let _ = sock.read(&mut buf);
                            // Never reply; wait for the peer to hang up so
                            // the next plan slot starts cleanly.
                            while sock.read(&mut buf).map(|n| n > 0).unwrap_or(false) {}
                        }
                    }
                    // `sock` drops here; a Drop slot closes before replying.
                }
            });
            (addr, accepted, handle)
        }

        /// Tight timeouts so stall tests finish in tens of milliseconds.
        fn fast_timeouts() -> ClientConfig {
            ClientConfig {
                read_timeout: Some(Duration::from_millis(50)),
                write_timeout: Some(Duration::from_millis(50)),
            }
        }

        #[test]
        fn idempotent_command_survives_one_dropped_connection() {
            let (addr, accepted, server) = fault_server(&[Plan::Drop, Plan::Serve]);
            let mut c = Client::connect(addr).expect("connect");
            // First request hits the dying socket, the bounded retry
            // reconnects and succeeds against the healthy second accept.
            assert_eq!(c.ping().expect("retried ping"), "PONG");
            assert_eq!(accepted.load(Ordering::SeqCst), 2);
            server.join().expect("server");
        }

        #[test]
        fn second_drop_reports_retry_exhausted() {
            let (addr, _accepted, server) = fault_server(&[Plan::Drop, Plan::Drop]);
            let mut c = Client::connect(addr).expect("connect");
            let err = c.ping().expect_err("both connections dropped");
            match err {
                ClientError::RetryExhausted { command, .. } => assert_eq!(command, "PING"),
                other => panic!("expected RetryExhausted, got {other}"),
            }
            server.join().expect("server");
        }

        #[test]
        fn non_idempotent_command_is_never_retried() {
            let (addr, accepted, server) = fault_server(&[Plan::Drop, Plan::Drop]);
            let mut c = Client::connect(addr).expect("connect");
            // XADD could duplicate the entry, so the drop must surface as a
            // plain I/O error without a second connection being dialed.
            let err = c.xadd(b"q", b"f", b"v").expect_err("dropped connection");
            assert!(matches!(err, ClientError::Io(_)), "got {err}");
            assert_eq!(accepted.load(Ordering::SeqCst), 1);
            // Unblock the server's second planned accept, then join.
            let _ = TcpStream::connect(addr);
            server.join().expect("server");
        }

        #[test]
        fn stalled_server_times_out_instead_of_hanging() {
            // Regression: read_frame had no deadline, so a server that
            // accepted and then went silent blocked the worker forever.
            // With bounded reads the stall is one transient TimedOut, the
            // idempotent PING gets its reconnect-retry, and the second
            // stall surfaces as RetryExhausted.
            let (addr, accepted, server) = fault_server(&[Plan::Stall, Plan::Stall]);
            let mut c = Client::connect_with(addr, fast_timeouts()).expect("connect");
            let start = Instant::now();
            let err = c.ping().expect_err("server never replies");
            match err {
                ClientError::RetryExhausted { command, source } => {
                    assert_eq!(command, "PING");
                    assert!(
                        matches!(
                            source.kind(),
                            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                        ),
                        "expected a timeout kind, got {source:?}"
                    );
                }
                other => panic!("expected RetryExhausted, got {other}"),
            }
            assert_eq!(accepted.load(Ordering::SeqCst), 2, "one bounded retry");
            // timing: generous upper bound pinning "bounded, not forever" —
            // two 50 ms read timeouts must not take anywhere near 10 s.
            assert!(start.elapsed() < Duration::from_secs(10));
            // The second stall slot waits for the peer to hang up.
            drop(c);
            server.join().expect("server");
        }

        #[test]
        fn stalled_server_non_idempotent_times_out_without_retry() {
            let (addr, accepted, server) = fault_server(&[Plan::Stall]);
            let mut c = Client::connect_with(addr, fast_timeouts()).expect("connect");
            let err = c.xadd(b"q", b"f", b"v").expect_err("server never replies");
            match err {
                ClientError::Io(io) => assert!(
                    matches!(
                        io.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ),
                    "expected a timeout kind, got {io:?}"
                ),
                other => panic!("expected Io, got {other}"),
            }
            assert_eq!(accepted.load(Ordering::SeqCst), 1, "no second dial");
            drop(c);
            server.join().expect("server");
        }

        #[test]
        fn blocking_read_deadline_extends_past_block_budget() {
            // An XREADGROUP with BLOCK longer than the read timeout must
            // not be misread as a stall: the client widens the deadline by
            // the server-side block budget for that one request.
            let server = crate::server::Server::start(0).expect("server");
            let mut c = Client::connect_with(server.addr(), fast_timeouts()).expect("connect");
            c.xgroup_create(b"q", b"g").expect("group");
            let got = c
                .xreadgroup_one(b"q", b"g", b"w0", Duration::from_millis(150), true)
                .expect("legitimate long poll must not time out");
            assert_eq!(got, None, "stream is empty: server-side timeout");
        }
    }

    mod hints {
        use super::super::*;

        #[test]
        fn block_hint_reads_xread_and_xreadgroup() {
            assert_eq!(block_hint(&[b"GET", b"k"]), BlockHint::None);
            assert_eq!(
                block_hint(&[b"XREADGROUP", b"GROUP", b"g", b"c", b"BLOCK", b"250"]),
                BlockHint::Extra(Duration::from_millis(250))
            );
            assert_eq!(
                block_hint(&[b"xread", b"block", b"0", b"STREAMS", b"s", b"$"]),
                BlockHint::Forever
            );
            assert_eq!(
                block_hint(&[b"SET", b"BLOCK", b"250"]),
                BlockHint::None,
                "only a stream read blocks"
            );
            assert_eq!(
                block_hint(&[b"XREADGROUP", b"GROUP", b"g", b"c", b"STREAMS", b"s", b">"]),
                BlockHint::None
            );
        }

        #[test]
        fn block_hint_max_prefers_longest_wait() {
            let a = BlockHint::Extra(Duration::from_millis(10));
            let b = BlockHint::Extra(Duration::from_millis(90));
            assert_eq!(a.max(b), b);
            assert_eq!(b.max(BlockHint::None), b);
            assert_eq!(b.max(BlockHint::Forever), BlockHint::Forever);
            assert_eq!(BlockHint::None.max(BlockHint::None), BlockHint::None);
        }
    }

    mod pipeline {
        use super::super::*;
        use super::inproc;
        use crate::server::Server;

        #[test]
        fn request_many_answers_every_command_in_order() {
            let server = Server::start(0).expect("server");
            let mut c = Client::connect(server.addr()).expect("connect");
            let cmds: Vec<Vec<Vec<u8>>> = (0..10)
                .map(|i| {
                    vec![
                        b"SET".to_vec(),
                        format!("pk{i}").into_bytes(),
                        format!("v{i}").into_bytes(),
                    ]
                })
                .chain((0..10).map(|i| vec![b"GET".to_vec(), format!("pk{i}").into_bytes()]))
                .collect();
            let borrowed: Vec<Vec<&[u8]>> = cmds
                .iter()
                .map(|c| c.iter().map(Vec::as_slice).collect())
                .collect();
            let batch: Vec<&[&[u8]]> = borrowed.iter().map(Vec::as_slice).collect();
            let replies = c.request_many(&batch).expect("pipeline");
            assert_eq!(replies.len(), 20);
            for reply in &replies[..10] {
                assert_eq!(*reply, Frame::ok());
            }
            for (i, reply) in replies[10..].iter().enumerate() {
                assert_eq!(*reply, Frame::bulk(format!("v{i}")), "reply {i}");
            }
        }

        #[test]
        fn request_many_surfaces_per_command_errors_in_place() {
            let mut c = inproc();
            c.set(b"s", b"x").expect("set");
            let batch: Vec<&[&[u8]]> = vec![
                &[b"PING"],
                &[b"XADD", b"s", b"*", b"f", b"v"], // WRONGTYPE
                &[b"GET", b"s"],
            ];
            let replies = c.request_many(&batch).expect("transport must not fail");
            assert_eq!(replies.len(), 3);
            assert_eq!(replies[0], Frame::Simple("PONG".into()));
            assert!(replies[1].is_error(), "WRONGTYPE stays an in-place frame");
            assert_eq!(replies[2], Frame::bulk("x"));
        }

        #[test]
        fn empty_pipeline_is_a_no_op() {
            let mut c = inproc();
            assert!(c.request_many(&[]).expect("empty").is_empty());
        }
    }
}
