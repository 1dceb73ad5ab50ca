//! The command engine: shared keyspace, dispatch, and blocking semantics.
//!
//! [`Shared`] is the server's heart: the keyspace behind a mutex plus a
//! condvar that write commands pulse so blocking stream reads (`XREAD
//! BLOCK`, `XREADGROUP ... BLOCK`) can wake without polling — the same
//! wait-for-data shape real Redis gives its blocked clients.
//!
//! Every command goes through one non-parking surface,
//! [`Shared::dispatch_nonblocking`]: a blocking read that finds no data
//! returns [`Dispatch::Blocked`], and one attempt (`Shared::attempt`)
//! retries it. Its two callers differ only in how they wait between
//! attempts:
//!
//! * the reactor server holds the [`BlockedCmd`] as connection state and
//!   retries it with [`Shared::poll_blocked`] whenever the *write epoch*
//!   moved. Every write bumps the epoch (after mutating, before notifying),
//!   and a blocked command records the epoch it read before its last
//!   attempt — if the epoch moved since, something was written and the
//!   command is worth retrying;
//! * the in-process transport calls [`Shared::dispatch`], which parks the
//!   calling thread on the `wakeup` condvar. It keeps the keyspace lock from
//!   a failed attempt into the wait, so no write can fall between them.
//!
//! Which verbs write is declared once, in the dispatch table
//! (`commands::COMMANDS`): that class moves the epoch and picks what the
//! AOF logs.

use crate::aof::{Aof, FsyncPolicy};
use crate::commands::{self, StreamReadCmd};
use crate::resp::Frame;
use crate::store::Db;
use d4py_sync::{Condvar, Mutex, MutexGuard, SharedBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

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
    /// A blocking read found no data: park the connection and retry via
    /// [`Shared::poll_blocked`].
    Blocked(BlockedCmd),
}

/// A blocking stream read parked until data arrives or its deadline passes.
pub struct BlockedCmd {
    read: StreamReadCmd,
    /// `None` = wait forever. A non-blocking `XREAD` is born expired, so its
    /// first attempt answers it.
    deadline: Option<Instant>,
    /// Write epoch observed before the last (failed) attempt.
    epoch_seen: u64,
}

impl BlockedCmd {
    /// The absolute deadline, if the command has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
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
    /// Scope: the verbs the dispatch table (`commands::COMMANDS`) classes
    /// as writes.
    /// Consumer-group cursors/PELs are runtime-transient and not persisted
    /// — matching how the workflow mappings rebuild their groups per run.
    ///
    /// The log holds only writes that succeeded, so an entry that fails on
    /// replay (a verb this server does not serve, say) means the log and
    /// the server disagree: that is `InvalidData`, naming the entry.
    pub fn with_aof(
        path: impl AsRef<std::path::Path>,
        policy: FsyncPolicy,
    ) -> std::io::Result<Self> {
        let mut shared = Self::new();
        for (index, args) in Aof::load(&path)?.into_iter().enumerate() {
            // Replay moves each arg into a SharedBuf (no payload copy).
            let args: Vec<SharedBuf> = args.into_iter().map(SharedBuf::from).collect();
            let Some(cmd) = args.first() else { continue };
            let name = String::from_utf8_lossy(cmd).to_ascii_uppercase();
            let reply =
                commands::execute(&mut shared.db.lock(), shared.now_ms(), &name, &args[1..]);
            if let Frame::Error(e) = reply {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("AOF entry {index} ({name}) fails on replay: {e}"),
                ));
            }
        }
        shared.aof = Some(Aof::open(path, policy)?);
        Ok(shared)
    }

    /// Appends a successful write to the AOF, if there is one. Called with
    /// the keyspace lock held, so the log's order is the execution order.
    fn log_write(&self, name: &str, args: &[SharedBuf], reply: &Frame) {
        let Some(aof) = &self.aof else { return };
        if reply.is_error() {
            return;
        }
        let mut entry: Vec<SharedBuf> = Vec::with_capacity(args.len() + 1);
        entry.push(SharedBuf::from(name.as_bytes()));
        entry.extend(args.iter().cloned());
        // `XADD key * ...` is logged with the id it was given, as Redis
        // propagates it: a replay must recreate the ids a logged XDEL names.
        if let (true, Frame::Bulk(id)) = (name == "XADD", reply) {
            entry[2] = id.clone();
        }
        let _ = aof.append(&entry);
    }

    /// Milliseconds since server start — the clock for auto stream ids.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
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
    /// reads (the in-process surface): [`dispatch_nonblocking`], then the
    /// reactor's attempt, repeated with the keyspace lock held from each
    /// failed attempt into the wait on `wakeup` — a write needs that lock,
    /// so it cannot land between the two unseen.
    ///
    /// [`dispatch_nonblocking`]: Self::dispatch_nonblocking
    pub fn dispatch(&self, args: &[SharedBuf]) -> Frame {
        let blocked = match self.dispatch_nonblocking(args) {
            Dispatch::Ready(frame) => return frame,
            Dispatch::Blocked(blocked) => blocked,
        };
        let mut db = self.db.lock();
        loop {
            db = match self.attempt(db, &blocked.read, blocked.expired()) {
                Ok(frame) => return frame,
                Err(db) => db,
            };
            match blocked.deadline {
                Some(d) => {
                    // A timeout loops back to the expired attempt: one
                    // last look, then the null reply.
                    let _ = self.wakeup.wait_until(&mut db, d);
                }
                None => self.wakeup.wait(&mut db),
            }
        }
    }

    /// Executes one client command without ever parking: a blocking read
    /// that finds no data returns [`Dispatch::Blocked`] for the caller (the
    /// reactor) to hold as connection state and retry with
    /// [`Shared::poll_blocked`].
    pub fn dispatch_nonblocking(&self, args: &[SharedBuf]) -> Dispatch {
        let Some(cmd) = args.first() else {
            return Dispatch::Ready(Frame::error("empty command"));
        };
        let name = String::from_utf8_lossy(cmd).to_ascii_uppercase();
        let args = &args[1..];
        if name != "XREAD" && name != "XREADGROUP" {
            return Dispatch::Ready(self.execute_plain(&name, args));
        }
        match Self::parse_stream_read(&name, args) {
            Ok(blocked) => self.start_blocking(blocked),
            Err(frame) => Dispatch::Ready(frame),
        }
    }

    /// One non-blocking attempt at a parked command.
    ///
    /// Cheap when idle: if the write epoch hasn't moved and the deadline
    /// hasn't passed, returns `None` without touching the keyspace lock.
    pub fn poll_blocked(&self, blocked: &mut BlockedCmd) -> Option<Frame> {
        let epoch_now = self.write_epoch();
        let expired = blocked.expired();
        if epoch_now == blocked.epoch_seen && !expired {
            return None;
        }
        // Record the epoch *before* retrying: a write completing after this
        // load moves the epoch again, so missing it here still retries later.
        blocked.epoch_seen = epoch_now;
        self.attempt(self.db.lock(), &blocked.read, expired).ok()
    }

    /// A blocking read's first attempt: `Ready` if it found data (or
    /// failed, or may not block), else `Blocked` for the caller to retry.
    fn start_blocking(&self, mut blocked: BlockedCmd) -> Dispatch {
        // Read the epoch *before* the attempt: a concurrent write either
        // lands before the try (we find it) or bumps the epoch after this
        // load (poll_blocked sees the change). No window for a lost wakeup.
        blocked.epoch_seen = self.write_epoch();
        let mut db = self.db.lock();
        // `$` snapshots the stream's last id once, before any waiting.
        commands::resolve_stream_ids(&mut db, &mut blocked.read);
        match self.attempt(db, &blocked.read, blocked.expired()) {
            Ok(frame) => Dispatch::Ready(frame),
            Err(_unlocked) => Dispatch::Blocked(blocked),
        }
    }

    /// One attempt at a blocking read under the keyspace lock `db`.
    ///
    /// Answered — data, an error, or the null reply once `expired` — it
    /// unlocks, marks the write a group read makes and returns the reply.
    /// Otherwise it hands the lock back still held, so a caller that parks
    /// on `wakeup` leaves no gap between the failed attempt and its wait.
    fn attempt<'a>(
        &self,
        mut db: MutexGuard<'a, Db>,
        read: &StreamReadCmd,
        expired: bool,
    ) -> Result<Frame, MutexGuard<'a, Db>> {
        let frame = match commands::execute_stream_read(&mut db, read) {
            Ok(Some(frame)) => frame,
            Ok(None) if expired => return Ok(Frame::NullArray),
            Ok(None) => return Err(db),
            Err(frame) => return Ok(frame),
        };
        drop(db);
        // XREADGROUP moves the group's cursor and PEL.
        if read.group.is_some() {
            self.mark_write();
        }
        Ok(frame)
    }

    /// A table verb under the lock, then for a write its AOF entry (still
    /// under the lock) and the wakeup pulse.
    fn execute_plain(&self, name: &str, args: &[SharedBuf]) -> Frame {
        let Some(command) = commands::lookup(name) else {
            return commands::unknown(name);
        };
        let reply = {
            let mut db = self.db.lock();
            let reply = command.run(&mut db, self.now_ms(), args);
            if command.writes {
                self.log_write(name, args, &reply);
            }
            reply
        };
        if command.writes {
            self.mark_write();
        }
        reply
    }

    /// Validates XREAD/XREADGROUP arguments, with or without BLOCK.
    fn parse_stream_read(name: &str, args: &[SharedBuf]) -> Result<BlockedCmd, Frame> {
        let read = commands::parse_stream_read(name, args)?;
        let deadline = match read.block {
            None => Some(Instant::now()),   // non-blocking form: born expired
            Some(d) if d.is_zero() => None, // BLOCK 0 = wait forever
            Some(d) => Some(Instant::now() + d),
        };
        Ok(BlockedCmd {
            read,
            deadline,
            epoch_seen: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn args(parts: &[&str]) -> Vec<SharedBuf> {
        parts
            .iter()
            .map(|p| SharedBuf::from(p.as_bytes()))
            .collect()
    }

    fn cmd(shared: &Shared, parts: &[&str]) -> Frame {
        shared.dispatch(&args(parts))
    }

    fn cmd_nb(shared: &Shared, parts: &[&str]) -> Dispatch {
        shared.dispatch_nonblocking(&args(parts))
    }

    /// A stream `q` with group `g` and nothing in it.
    fn queue() -> Shared {
        let s = Shared::new();
        assert_eq!(
            cmd(&s, &["XGROUP", "CREATE", "q", "g", "0", "MKSTREAM"]),
            Frame::ok()
        );
        s
    }

    /// `XREADGROUP GROUP g <consumer> COUNT 1 BLOCK <ms> STREAMS q >`.
    fn group_read(consumer: &str, block_ms: &str) -> Vec<SharedBuf> {
        args(&[
            "XREADGROUP",
            "GROUP",
            "g",
            consumer,
            "COUNT",
            "1",
            "BLOCK",
            block_ms,
            "STREAMS",
            "q",
            ">",
        ])
    }

    fn delivers(frame: &Frame, value: &str) -> bool {
        format!("{frame:?}").contains(value)
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
    fn xread_returns_immediately_when_data_exists() {
        let s = Shared::new();
        cmd(&s, &["XADD", "st", "*", "f", "a"]);
        let start = Instant::now();
        let reply = cmd(&s, &["XREAD", "BLOCK", "5000", "STREAMS", "st", "0-0"]);
        assert!(delivers(&reply, "a"), "{reply:?}");
        // timing: generous bound pinning "answered, not parked" — the
        // BLOCK budget is 5 s.
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn xread_block_times_out_with_null_array() {
        let s = Shared::new();
        let start = Instant::now();
        assert_eq!(
            cmd(&s, &["XREAD", "BLOCK", "50", "STREAMS", "empty", "$"]),
            Frame::NullArray
        );
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn xreadgroup_block_wakes_on_concurrent_xadd() {
        let s = Arc::new(queue());
        let s2 = s.clone();
        let waiter = std::thread::spawn(move || s2.dispatch(&group_read("c", "2000")));
        // sleep: lets the reader park first; the assertion holds either way.
        std::thread::sleep(Duration::from_millis(30));
        cmd(&s, &["XADD", "q", "*", "f", "x"]);
        let reply = waiter.join().unwrap();
        assert!(delivers(&reply, "x"), "{reply:?}");
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

    // ---- non-parking dispatch surface (reactor path) ----

    #[test]
    fn nonblocking_xreadgroup_parks_and_polls() {
        let s = queue();
        let Dispatch::Blocked(mut blocked) = s.dispatch_nonblocking(&group_read("c", "0")) else {
            panic!("empty queue must park");
        };
        assert_eq!(blocked.deadline(), None, "BLOCK 0 waits forever");
        // No data, no writes: polling is a cheap no-op.
        assert!(s.poll_blocked(&mut blocked).is_none());
        // A write moves the epoch; the next poll finds the entry.
        cmd(&s, &["XADD", "q", "*", "f", "x"]);
        let frame = s.poll_blocked(&mut blocked).expect("data arrived");
        assert!(delivers(&frame, "x"), "{frame:?}");
    }

    #[test]
    fn nonblocking_xreadgroup_ready_when_data_exists() {
        let s = queue();
        cmd(&s, &["XADD", "q", "*", "f", "a"]);
        let Dispatch::Ready(frame) = s.dispatch_nonblocking(&group_read("c", "1000")) else {
            panic!("data present must not park");
        };
        assert!(delivers(&frame, "a"), "{frame:?}");
    }

    #[test]
    fn nonblocking_xread_deadline_expires() {
        let s = Shared::new();
        let Dispatch::Blocked(mut blocked) =
            cmd_nb(&s, &["XREAD", "BLOCK", "20", "STREAMS", "q", "$"])
        else {
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

    /// Every verb of the dispatch table, run once on a seeded keyspace: a
    /// write moves the write epoch, which is what makes a parked `XREAD
    /// BLOCK` attempt again, and a read leaves it alone.
    #[test]
    fn each_write_verb_moves_the_epoch_and_each_read_verb_does_not() {
        let cases: &[&[&str]] = &[
            &["XADD", "st", "*", "f", "v"],
            &["XACK", "st", "g", "0-1"],
            &["XDEL", "st", "0-1"],
            &["XAUTOCLAIM", "st", "g", "c", "0", "0"],
            &["XGROUP", "CREATE", "st", "g2", "$"],
            &["XRANGE", "st", "-", "+"],
            &["XINFO", "CONSUMERS", "st", "g"],
            &["HSET", "h", "f", "v"],
            &["HGET", "h", "f"],
            &["HKEYS", "h"],
            &["SET", "k", "v"],
            &["GET", "k"],
            &["KEYS", "*"],
            &["DBSIZE"],
            &["FLUSHALL"],
            &["FLUSHDB"],
            &["PING"],
            &["ECHO", "x"],
            &["SELECT", "0"],
            &["QUIT"],
            &["COMMAND"],
            &["INFO"],
        ];
        let mut covered: Vec<&str> = cases.iter().map(|c| c[0]).collect();
        let mut table: Vec<&str> = commands::COMMANDS.iter().map(|(verb, _)| *verb).collect();
        covered.sort_unstable();
        table.sort_unstable();
        assert_eq!(covered, table, "one case per verb of the table");

        for case in cases {
            let s = Shared::new();
            for seed in [
                &["XGROUP", "CREATE", "st", "g", "0", "MKSTREAM"][..],
                &["HSET", "h", "f", "v"],
                &["SET", "k", "v"],
            ] {
                assert!(!cmd(&s, seed).is_error());
            }
            let Dispatch::Blocked(mut parked) =
                cmd_nb(&s, &["XREAD", "BLOCK", "0", "STREAMS", "st", "$"])
            else {
                panic!("an empty stream parks the read");
            };
            let before = s.write_epoch();
            let reply = cmd(&s, case);
            assert!(!reply.is_error(), "{case:?}: {reply:?}");
            let writes = commands::lookup(case[0]).expect("a table verb").writes;
            assert_eq!(s.write_epoch() != before, writes, "{case:?}");
            if case[0] == "XADD" {
                assert!(s.poll_blocked(&mut parked).is_some(), "XADD wakes it");
            }
        }
    }

    #[test]
    fn blocked_poll_consumes_at_most_once() {
        // Two parked group reads, one XADD: exactly one wins, the other
        // stays parked (no duplicated delivery through the epoch path).
        let s = queue();
        let Dispatch::Blocked(mut a) = s.dispatch_nonblocking(&group_read("a", "0")) else {
            panic!()
        };
        let Dispatch::Blocked(mut b) = s.dispatch_nonblocking(&group_read("b", "0")) else {
            panic!()
        };
        cmd(&s, &["XADD", "q", "*", "f", "only"]);
        let first = s.poll_blocked(&mut a);
        let second = s.poll_blocked(&mut b);
        assert!(first.is_some() && second.is_none());
    }
}
