//! Command implementations and the dispatch table.
//!
//! Every handler is a pure function over `&mut Db` (plus the server clock),
//! so the whole command surface is unit-testable without sockets. Blocking
//! behaviour lives in [`crate::engine`]; the handlers here are the
//! non-blocking cores it retries.
//!
//! The surface is what the reproduction sends: the stream verbs of the
//! Redis mappings, `HSET`/`HGET`/`HKEYS` for the state store, `SET`/`GET`,
//! the keyspace and server verbs, and the handful `redis-cli` needs.

mod hashes;
mod keys;
mod server;
mod streams;
mod strings;

use crate::resp::Frame;
use crate::store::stream::StreamId;
use crate::store::{Db, RValue};
use d4py_sync::SharedBuf;

pub use streams::{execute_stream_read, parse_stream_read, resolve_stream_ids, StreamReadCmd};

/// A handler: keyspace, server clock in ms (for auto stream ids), arguments.
type Handler = fn(&mut Db, u64, &[SharedBuf]) -> Frame;

/// One verb of the dispatch table.
#[derive(Clone, Copy)]
pub(crate) struct Command {
    /// True if the verb may change the keyspace. A write moves the write
    /// epoch (so parked readers retry) and, when it succeeds, is appended
    /// to the AOF.
    pub(crate) writes: bool,
    handler: Handler,
}

impl Command {
    /// Runs the verb over `db`.
    pub(crate) fn run(&self, db: &mut Db, now_ms: u64, args: &[SharedBuf]) -> Frame {
        (self.handler)(db, now_ms, args)
    }
}

const fn read(handler: Handler) -> Command {
    Command {
        writes: false,
        handler,
    }
}

const fn write(handler: Handler) -> Command {
    Command {
        writes: true,
        handler,
    }
}

/// The dispatch table: every non-blocking verb with its read/write class.
/// `XREAD`/`XREADGROUP` may block, so [`crate::engine`] runs them itself.
pub(crate) const COMMANDS: &[(&str, Command)] = &[
    // streams (the queue's hot verbs first)
    ("XADD", write(streams::xadd)),
    ("XACK", write(|db, _, a| streams::xack(db, a))),
    ("XDEL", write(|db, _, a| streams::xdel(db, a))),
    ("XAUTOCLAIM", write(|db, _, a| streams::xautoclaim(db, a))),
    ("XGROUP", write(|db, _, a| streams::xgroup(db, a))),
    ("XRANGE", read(|db, _, a| streams::xrange(db, a))),
    ("XINFO", read(|db, _, a| streams::xinfo(db, a))),
    // hashes (the state store)
    ("HSET", write(|db, _, a| hashes::hset(db, a))),
    ("HGET", read(|db, _, a| hashes::hget(db, a))),
    ("HKEYS", read(|db, _, a| hashes::hkeys(db, a))),
    // strings
    ("SET", write(|db, _, a| strings::set(db, a))),
    ("GET", read(|db, _, a| strings::get(db, a))),
    // keyspace
    ("KEYS", read(|db, _, a| keys::keys(db, a))),
    ("DBSIZE", read(|db, _, _| server::dbsize(db))),
    ("FLUSHALL", write(|db, _, _| server::flushall(db))),
    ("FLUSHDB", write(|db, _, _| server::flushall(db))),
    // connection / server
    ("PING", read(|_, _, a| server::ping(a))),
    ("ECHO", read(|_, _, a| server::echo(a))),
    ("SELECT", read(|_, _, _| Frame::ok())),
    ("QUIT", read(|_, _, _| Frame::ok())),
    ("COMMAND", read(|_, _, _| Frame::Array(vec![]))),
    ("INFO", read(|db, _, _| server::info(db))),
];

/// The table entry for `name` (already upper-cased).
pub(crate) fn lookup(name: &str) -> Option<Command> {
    COMMANDS
        .iter()
        .find(|(verb, _)| *verb == name)
        .map(|&(_, command)| command)
}

/// Executes one non-blocking command. `name` is already upper-cased.
pub fn execute(db: &mut Db, now_ms: u64, name: &str, args: &[SharedBuf]) -> Frame {
    match lookup(name) {
        Some(command) => command.run(db, now_ms, args),
        None => unknown(name),
    }
}

/// The reply to a verb outside the table.
pub(crate) fn unknown(name: &str) -> Frame {
    Frame::error(format!("unknown command '{name}'"))
}

// ---- shared helpers used by the submodules ----

pub(crate) fn wrong_args(cmd: &str) -> Frame {
    Frame::error(format!(
        "wrong number of arguments for '{}'",
        cmd.to_ascii_lowercase()
    ))
}

pub(crate) fn wrong_type() -> Frame {
    Frame::Error("WRONGTYPE Operation against a key holding the wrong kind of value".into())
}

pub(crate) fn parse_uint(raw: &[u8]) -> Option<u64> {
    std::str::from_utf8(raw).ok()?.parse().ok()
}

pub(crate) fn bulk_array(items: Vec<Vec<u8>>) -> Frame {
    Frame::Array(items.into_iter().map(Frame::bulk).collect())
}

/// Parses a stream id argument for XADD: `*` → None (auto), else explicit.
pub(crate) fn parse_xadd_id(raw: &[u8]) -> Result<Option<StreamId>, Frame> {
    if raw == b"*" {
        return Ok(None);
    }
    let s = std::str::from_utf8(raw).map_err(|_| bad_id())?;
    StreamId::parse(s, 0).map(Some).ok_or_else(bad_id)
}

pub(crate) fn bad_id() -> Frame {
    Frame::Error("ERR Invalid stream ID specified as stream command argument".into())
}

/// Fetches a stream by key, distinguishing missing vs wrong-type.
pub(crate) fn stream_of<'a>(
    db: &'a mut Db,
    key: &[u8],
) -> Result<Option<&'a mut crate::store::stream::Stream>, Frame> {
    match db.get_mut(key) {
        None => Ok(None),
        Some(RValue::Stream(s)) => Ok(Some(s)),
        Some(_) => Err(wrong_type()),
    }
}
