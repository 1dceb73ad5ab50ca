//! The command engine: shared keyspace, dispatch, and blocking semantics.
//!
//! [`Shared`] is the server's heart: the keyspace behind a mutex plus a
//! condvar that write commands pulse so blocking reads (`BLPOP`, `XREAD
//! BLOCK`, `XREADGROUP ... BLOCK`) can wake without polling — the same
//! wait-for-data shape real Redis gives its blocked clients. Both the TCP
//! server and the in-process transport dispatch through [`Shared::dispatch`],
//! so every transport sees identical semantics.
//!
//! For the reactor server there is a second, non-parking surface:
//! [`Shared::dispatch_nonblocking`] returns [`Dispatch::Blocked`] instead of
//! parking the calling thread, and [`Shared::poll_blocked`] retries a parked
//! command. Lost wakeups are prevented by a monotonically increasing *write
//! epoch*: every write bumps it (after mutating, before notifying), and a
//! blocked command records the epoch it last attempted under — if the epoch
//! moved since, something was written and the command is worth retrying.

use crate::aof::{Aof, FsyncPolicy};
use crate::commands;
use crate::resp::Frame;
use crate::store::Db;
use d4py_sync::{Condvar, Mutex, SharedBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Shared server state: one keyspace + wakeup machinery.
pub struct Shared {
    db: Mutex<Db>,
    wakeup: Condvar,
    /// Bumped on every completed write; blocked commands compare it to the
    /// value they last attempted under.
    write_epoch: AtomicU64,
    /// Called after the epoch moves: the reactor server's way to learn of a
    /// write without a thread parked on `wakeup`.
    write_hook: OnceLock<Box<dyn Fn() + Send + Sync>>,
    epoch: Instant,
    aof: Option<Aof>,
}

impl Default for Shared {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of a non-blocking dispatch.
pub enum Dispatch {
    /// The command completed; reply with this frame.
    Ready(Frame),
    /// A blocking command found no data: park the connection and retry via
    /// [`Shared::poll_blocked`].
    Blocked(BlockedCmd),
}

/// A blocking command parked until data arrives or its deadline passes.
pub struct BlockedCmd {
    kind: BlockedKind,
    /// `None` = wait forever.
    deadline: Option<Instant>,
    /// Write epoch observed before the last (failed) attempt.
    epoch_seen: u64,
}

enum BlockedKind {
    List {
        keys: Vec<SharedBuf>,
        left: bool,
    },
    Stream {
        is_group: bool,
        parsed: commands::StreamReadCmd,
    },
}

impl BlockedCmd {
    /// The absolute deadline, if the command has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl Shared {
    /// Creates an empty server state.
    pub fn new() -> Self {
        Self {
            db: Mutex::new(Db::new()),
            wakeup: Condvar::new(),
            write_epoch: AtomicU64::new(0),
            write_hook: OnceLock::new(),
            epoch: Instant::now(),
            aof: None,
        }
    }

    /// Creates server state persisted through an append-only file: the
    /// existing log at `path` is replayed into the keyspace, then every
    /// subsequent successful write command is appended.
    ///
    /// Scope: the explicit write-command subset (see
    /// [`commands::is_write`]) plus the effects of blocking pops.
    /// Consumer-group cursors/PELs are runtime-transient and not persisted
    /// — matching how the workflow mappings rebuild their groups per run.
    pub fn with_aof(
        path: impl AsRef<std::path::Path>,
        policy: FsyncPolicy,
    ) -> std::io::Result<Self> {
        let mut shared = Self::new();
        for args in Aof::load(&path)? {
            // Replay moves each arg into a SharedBuf (no payload copy).
            let args: Vec<SharedBuf> = args.into_iter().map(SharedBuf::from).collect();
            let Some(cmd) = args.first() else { continue };
            let name = String::from_utf8_lossy(cmd).to_ascii_uppercase();
            let mut db = shared.db.lock();
            let _ = commands::execute(&mut db, shared.now_ms(), &name, &args[1..]);
        }
        shared.aof = Some(Aof::open(path, policy)?);
        Ok(shared)
    }

    fn log_write(&self, name: &str, args: &[SharedBuf], reply: &Frame) {
        if let Some(aof) = &self.aof {
            if commands::is_write(name) && !reply.is_error() {
                let mut entry: Vec<SharedBuf> = Vec::with_capacity(args.len() + 1);
                entry.push(SharedBuf::from(name.as_bytes()));
                entry.extend(args.iter().cloned());
                let _ = aof.append(&entry);
            }
        }
    }

    /// Milliseconds since server start — the clock for auto stream ids.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Runs `f` with the keyspace locked.
    pub fn with_db<T>(&self, f: impl FnOnce(&mut Db) -> T) -> T {
        f(&mut self.db.lock())
    }

    /// The current write epoch. Moves exactly when a write completes, so a
    /// stable value across two reads means no data arrived in between.
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch.load(Ordering::SeqCst)
    }

    /// Installs the hook [`mark_write`](Self::mark_write) calls; the first
    /// caller wins (one server per `Shared`).
    pub(crate) fn set_write_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.write_hook.set(Box::new(hook));
    }

    /// Marks a completed write: bump the epoch (the keyspace mutation is
    /// already unlocked, so any epoch observer also observes the data),
    /// then pulse parked threads and reactor workers. SeqCst: a reactor
    /// worker raises its parked flag and then re-reads the epoch, this bumps
    /// the epoch and then reads the flag — one of the two sees the other.
    fn mark_write(&self) {
        self.write_epoch.fetch_add(1, Ordering::SeqCst);
        self.wakeup.notify_all();
        if let Some(hook) = self.write_hook.get() {
            hook();
        }
    }

    /// Executes one client command, parking the calling thread for blocking
    /// commands (the in-process and thread-per-connection surface).
    pub fn dispatch(&self, args: &[SharedBuf]) -> Frame {
        let Some(cmd) = args.first() else {
            return Frame::error("empty command");
        };
        let name = String::from_utf8_lossy(cmd).to_ascii_uppercase();

        // Blocking commands get the retry-until-deadline treatment; all
        // others execute once under the lock.
        match name.as_str() {
            "BLPOP" | "BRPOP" => self.dispatch_blocking_list(&name, &args[1..]),
            "XREAD" | "XREADGROUP" => self.dispatch_stream_read(&name, &args[1..]),
            _ => self.execute_plain(&name, &args[1..]),
        }
    }

    /// Executes one client command without ever parking: blocking commands
    /// that find no data return [`Dispatch::Blocked`] for the caller (the
    /// reactor) to hold as connection state and retry with
    /// [`Shared::poll_blocked`].
    pub fn dispatch_nonblocking(&self, args: &[SharedBuf]) -> Dispatch {
        let Some(cmd) = args.first() else {
            return Dispatch::Ready(Frame::error("empty command"));
        };
        let name = String::from_utf8_lossy(cmd).to_ascii_uppercase();
        match name.as_str() {
            "BLPOP" | "BRPOP" => self.start_blocking_list(&name, &args[1..]),
            "XREAD" | "XREADGROUP" => self.start_stream_read(&name, &args[1..]),
            _ => Dispatch::Ready(self.execute_plain(&name, &args[1..])),
        }
    }

    /// One non-blocking attempt at a parked command.
    ///
    /// Cheap when idle: if the write epoch hasn't moved and the deadline
    /// hasn't passed, returns `None` without touching the keyspace lock.
    pub fn poll_blocked(&self, blocked: &mut BlockedCmd) -> Option<Frame> {
        let epoch_now = self.write_epoch();
        let expired = blocked
            .deadline
            .map(|d| Instant::now() >= d)
            .unwrap_or(false);
        if epoch_now == blocked.epoch_seen && !expired {
            return None;
        }
        // Record the epoch *before* retrying: a write completing after this
        // load moves the epoch again, so missing it here still retries later.
        blocked.epoch_seen = epoch_now;
        match &blocked.kind {
            BlockedKind::List { keys, left } => {
                let frame = {
                    let mut db = self.db.lock();
                    commands::try_pop_any(&mut db, keys, *left)
                };
                if let Some(frame) = frame {
                    self.log_list_pop(*left, &frame);
                    self.mark_write(); // the pop mutated a list
                    return Some(frame);
                }
                expired.then_some(Frame::NullArray)
            }
            BlockedKind::Stream { is_group, parsed } => {
                let result = {
                    let mut db = self.db.lock();
                    commands::execute_stream_read(&mut db, self.now_ms(), parsed)
                };
                match result {
                    Ok(Some(frame)) => {
                        if *is_group {
                            self.mark_write(); // group cursor/PEL moved
                        }
                        Some(frame)
                    }
                    Ok(None) => expired.then_some(Frame::NullArray),
                    Err(f) => Some(f),
                }
            }
        }
    }

    /// Non-blocking command under the lock + AOF + wakeup pulse.
    fn execute_plain(&self, name: &str, args: &[SharedBuf]) -> Frame {
        let reply = {
            let mut db = self.db.lock();
            commands::execute(&mut db, self.now_ms(), name, args)
        };
        self.log_write(name, args, &reply);
        if commands::is_write(name) {
            self.mark_write();
        }
        reply
    }

    /// Persists a successful blocking pop as its non-blocking equivalent.
    fn log_list_pop(&self, left: bool, frame: &Frame) {
        if let Some(Frame::Bulk(k)) = frame.as_array().and_then(|a| a.first()) {
            let effect = if left { "LPOP" } else { "RPOP" };
            self.log_write(effect, std::slice::from_ref(k), frame);
        }
    }

    /// Validates BLPOP/BRPOP arguments into (keys, deadline, left).
    #[allow(clippy::type_complexity)]
    fn parse_blocking_list(
        name: &str,
        args: &[SharedBuf],
    ) -> Result<(Vec<SharedBuf>, Option<Instant>, bool), Frame> {
        if args.len() < 2 {
            return Err(Frame::error(format!(
                "wrong number of arguments for '{name}'"
            )));
        }
        let timeout = match parse_secs(args.last().expect("arity checked above")) {
            Some(t) => t,
            None => return Err(Frame::error("timeout is not a float or out of range")),
        };
        let keys = args[..args.len() - 1].to_vec();
        let deadline = (timeout > Duration::ZERO).then(|| Instant::now() + timeout);
        Ok((keys, deadline, name == "BLPOP"))
    }

    /// BLPOP/BRPOP, non-parking: one attempt, then `Blocked`.
    fn start_blocking_list(&self, name: &str, args: &[SharedBuf]) -> Dispatch {
        let (keys, deadline, left) = match Self::parse_blocking_list(name, args) {
            Ok(p) => p,
            Err(f) => return Dispatch::Ready(f),
        };
        // Read the epoch *before* the attempt: a concurrent push either
        // lands before the try (we find it) or bumps the epoch after this
        // load (poll_blocked sees the change). No window for a lost wakeup.
        let epoch_seen = self.write_epoch();
        let frame = {
            let mut db = self.db.lock();
            commands::try_pop_any(&mut db, &keys, left)
        };
        if let Some(frame) = frame {
            self.log_list_pop(left, &frame);
            self.mark_write();
            return Dispatch::Ready(frame);
        }
        Dispatch::Blocked(BlockedCmd {
            kind: BlockedKind::List { keys, left },
            deadline,
            epoch_seen,
        })
    }

    /// XREAD/XREADGROUP, non-parking: one attempt, then `Blocked` if the
    /// command asked to BLOCK.
    fn start_stream_read(&self, name: &str, args: &[SharedBuf]) -> Dispatch {
        let mut parsed = match commands::parse_stream_read(name, args) {
            Ok(p) => p,
            Err(f) => return Dispatch::Ready(f),
        };
        let deadline = match parsed.block {
            None => None,                   // non-blocking form
            Some(d) if d.is_zero() => None, // BLOCK 0 = wait forever
            Some(d) => Some(Instant::now() + d),
        };
        let epoch_seen = self.write_epoch();
        let result = {
            let mut db = self.db.lock();
            // `$` snapshots the stream's last id once, before any waiting.
            commands::resolve_stream_ids(&mut db, &mut parsed);
            commands::execute_stream_read(&mut db, self.now_ms(), &parsed)
        };
        match result {
            Ok(Some(frame)) => {
                if name == "XREADGROUP" {
                    self.mark_write();
                }
                Dispatch::Ready(frame)
            }
            Ok(None) => {
                if parsed.block.is_none() {
                    return Dispatch::Ready(Frame::NullArray);
                }
                Dispatch::Blocked(BlockedCmd {
                    kind: BlockedKind::Stream {
                        is_group: name == "XREADGROUP",
                        parsed,
                    },
                    deadline,
                    epoch_seen,
                })
            }
            Err(f) => Dispatch::Ready(f),
        }
    }

    /// BLPOP/BRPOP: retry the non-blocking pop until data arrives or the
    /// timeout elapses (timeout `0` = wait forever).
    fn dispatch_blocking_list(&self, name: &str, args: &[SharedBuf]) -> Frame {
        let (keys, deadline, left) = match Self::parse_blocking_list(name, args) {
            Ok(p) => p,
            Err(f) => return f,
        };
        let mut db = self.db.lock();
        loop {
            if let Some(frame) = commands::try_pop_any(&mut db, &keys, left) {
                drop(db);
                self.log_list_pop(left, &frame);
                self.mark_write(); // the pop mutated a list
                return frame;
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d || self.wakeup.wait_until(&mut db, d).timed_out() {
                        // Final attempt after timing out, then give up.
                        if let Some(frame) = commands::try_pop_any(&mut db, &keys, left) {
                            drop(db);
                            self.log_list_pop(left, &frame);
                            self.mark_write();
                            return frame;
                        }
                        return Frame::NullArray;
                    }
                }
                None => self.wakeup.wait(&mut db),
            }
        }
    }

    /// XREAD / XREADGROUP with optional BLOCK.
    fn dispatch_stream_read(&self, name: &str, args: &[SharedBuf]) -> Frame {
        let mut parsed = match commands::parse_stream_read(name, args) {
            Ok(p) => p,
            Err(f) => return f,
        };
        let deadline = parsed.block.map(|d| {
            if d.is_zero() {
                None // block forever
            } else {
                Some(Instant::now() + d)
            }
        });

        let mut db = self.db.lock();
        // `$` snapshots the stream's last id once, before any waiting.
        commands::resolve_stream_ids(&mut db, &mut parsed);
        loop {
            match commands::execute_stream_read(&mut db, self.now_ms(), &parsed) {
                Ok(Some(frame)) => {
                    // XREADGROUP mutates group state; wake idlers just in case.
                    drop(db);
                    if name == "XREADGROUP" {
                        self.mark_write();
                    }
                    return frame;
                }
                Ok(None) => match deadline {
                    None => return Frame::NullArray, // non-blocking, no data
                    Some(None) => self.wakeup.wait(&mut db),
                    Some(Some(d)) => {
                        if Instant::now() >= d || self.wakeup.wait_until(&mut db, d).timed_out() {
                            // One last look before reporting a timeout.
                            if let Ok(Some(frame)) =
                                commands::execute_stream_read(&mut db, self.now_ms(), &parsed)
                            {
                                return frame;
                            }
                            return Frame::NullArray;
                        }
                    }
                },
                Err(f) => return f,
            }
        }
    }
}

/// Parses Redis's float-seconds timeout ("0" = infinite → Duration::ZERO).
fn parse_secs(raw: &[u8]) -> Option<Duration> {
    let s = std::str::from_utf8(raw).ok()?;
    let secs: f64 = s.parse().ok()?;
    if secs < 0.0 || !secs.is_finite() {
        return None;
    }
    Some(Duration::from_secs_f64(secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cmd(shared: &Shared, parts: &[&str]) -> Frame {
        let args: Vec<SharedBuf> = parts
            .iter()
            .map(|p| SharedBuf::from(p.as_bytes()))
            .collect();
        shared.dispatch(&args)
    }

    fn cmd_nb(shared: &Shared, parts: &[&str]) -> Dispatch {
        let args: Vec<SharedBuf> = parts
            .iter()
            .map(|p| SharedBuf::from(p.as_bytes()))
            .collect();
        shared.dispatch_nonblocking(&args)
    }

    #[test]
    fn ping_set_get() {
        let s = Shared::new();
        assert_eq!(cmd(&s, &["PING"]), Frame::Simple("PONG".into()));
        assert_eq!(cmd(&s, &["SET", "k", "v"]), Frame::ok());
        assert_eq!(cmd(&s, &["GET", "k"]), Frame::bulk("v"));
        assert_eq!(cmd(&s, &["GET", "missing"]), Frame::Null);
    }

    #[test]
    fn empty_command_is_error() {
        let s = Shared::new();
        assert!(s.dispatch(&[]).is_error());
        assert!(matches!(
            s.dispatch_nonblocking(&[]),
            Dispatch::Ready(f) if f.is_error()
        ));
    }

    #[test]
    fn blpop_returns_immediately_when_data_exists() {
        let s = Shared::new();
        cmd(&s, &["RPUSH", "q", "a"]);
        let reply = cmd(&s, &["BLPOP", "q", "1"]);
        assert_eq!(
            reply,
            Frame::Array(vec![Frame::bulk("q"), Frame::bulk("a")])
        );
    }

    #[test]
    fn blpop_times_out_with_null_array() {
        let s = Shared::new();
        let start = Instant::now();
        assert_eq!(cmd(&s, &["BLPOP", "empty", "0.05"]), Frame::NullArray);
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn blpop_wakes_on_concurrent_push() {
        let s = Arc::new(Shared::new());
        let s2 = s.clone();
        let waiter = std::thread::spawn(move || cmd(&s2, &["BLPOP", "q", "2"]));
        std::thread::sleep(Duration::from_millis(30));
        cmd(&s, &["LPUSH", "q", "x"]);
        let reply = waiter.join().unwrap();
        assert_eq!(
            reply,
            Frame::Array(vec![Frame::bulk("q"), Frame::bulk("x")])
        );
    }

    #[test]
    fn xread_block_wakes_on_xadd() {
        let s = Arc::new(Shared::new());
        cmd(&s, &["XADD", "st", "*", "f", "seed"]);
        let s2 = s.clone();
        let waiter =
            std::thread::spawn(move || cmd(&s2, &["XREAD", "BLOCK", "2000", "STREAMS", "st", "$"]));
        std::thread::sleep(Duration::from_millis(30));
        cmd(&s, &["XADD", "st", "*", "f", "fresh"]);
        let reply = waiter.join().unwrap();
        let text = format!("{reply:?}");
        assert!(
            text.contains("fresh"),
            "blocked XREAD must deliver the new entry: {text}"
        );
        assert!(
            !text.contains("seed"),
            "XREAD from $ must not replay history"
        );
    }

    #[test]
    fn parse_secs_accepts_fractions_rejects_garbage() {
        assert_eq!(parse_secs(b"0.5"), Some(Duration::from_millis(500)));
        assert_eq!(parse_secs(b"0"), Some(Duration::ZERO));
        assert_eq!(parse_secs(b"nope"), None);
        assert_eq!(parse_secs(b"-1"), None);
    }

    // ---- non-parking dispatch surface (reactor path) ----

    #[test]
    fn nonblocking_blpop_parks_and_polls() {
        let s = Shared::new();
        let Dispatch::Blocked(mut blocked) = cmd_nb(&s, &["BLPOP", "q", "0"]) else {
            panic!("empty queue must park");
        };
        assert_eq!(blocked.deadline(), None, "timeout 0 waits forever");
        // No data, no writes: polling is a cheap no-op.
        assert!(s.poll_blocked(&mut blocked).is_none());
        // A write moves the epoch; the next poll finds the value.
        cmd(&s, &["RPUSH", "q", "x"]);
        let frame = s.poll_blocked(&mut blocked).expect("data arrived");
        assert_eq!(
            frame,
            Frame::Array(vec![Frame::bulk("q"), Frame::bulk("x")])
        );
    }

    #[test]
    fn nonblocking_blpop_ready_when_data_exists() {
        let s = Shared::new();
        cmd(&s, &["RPUSH", "q", "a"]);
        let Dispatch::Ready(frame) = cmd_nb(&s, &["BLPOP", "q", "1"]) else {
            panic!("data present must not park");
        };
        assert_eq!(
            frame,
            Frame::Array(vec![Frame::bulk("q"), Frame::bulk("a")])
        );
    }

    #[test]
    fn nonblocking_blpop_deadline_expires() {
        let s = Shared::new();
        let Dispatch::Blocked(mut blocked) = cmd_nb(&s, &["BLPOP", "q", "0.02"]) else {
            panic!("must park");
        };
        assert!(blocked.deadline().is_some());
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(s.poll_blocked(&mut blocked), Some(Frame::NullArray));
    }

    #[test]
    fn nonblocking_xread_parks_until_xadd() {
        let s = Shared::new();
        cmd(&s, &["XADD", "st", "*", "f", "seed"]);
        let Dispatch::Blocked(mut blocked) =
            cmd_nb(&s, &["XREAD", "BLOCK", "0", "STREAMS", "st", "$"])
        else {
            panic!("XREAD BLOCK $ with no new data must park");
        };
        assert!(s.poll_blocked(&mut blocked).is_none());
        cmd(&s, &["XADD", "st", "*", "f", "fresh"]);
        let frame = s.poll_blocked(&mut blocked).expect("new entry must wake");
        let text = format!("{frame:?}");
        assert!(text.contains("fresh") && !text.contains("seed"));
    }

    #[test]
    fn nonblocking_xread_without_block_is_ready() {
        let s = Shared::new();
        let Dispatch::Ready(frame) = cmd_nb(&s, &["XREAD", "STREAMS", "missing", "0-0"]) else {
            panic!("non-BLOCK XREAD never parks");
        };
        assert_eq!(frame, Frame::NullArray);
    }

    #[test]
    fn epoch_moves_only_on_writes() {
        let s = Shared::new();
        let e0 = s.write_epoch();
        cmd(&s, &["GET", "k"]);
        assert_eq!(s.write_epoch(), e0, "reads leave the epoch alone");
        cmd(&s, &["SET", "k", "v"]);
        assert!(s.write_epoch() > e0, "writes move the epoch");
    }

    #[test]
    fn blocked_poll_consumes_at_most_once() {
        // Two parked BLPOPs, one push: exactly one wins, the other stays
        // parked (no duplicated delivery through the epoch path).
        let s = Shared::new();
        let Dispatch::Blocked(mut a) = cmd_nb(&s, &["BLPOP", "q", "0"]) else {
            panic!()
        };
        let Dispatch::Blocked(mut b) = cmd_nb(&s, &["BLPOP", "q", "0"]) else {
            panic!()
        };
        cmd(&s, &["RPUSH", "q", "only"]);
        let first = s.poll_blocked(&mut a);
        let second = s.poll_blocked(&mut b);
        assert!(first.is_some() && second.is_none());
    }
}
