//! Stream commands: XADD/XRANGE/XDEL, consumer groups
//! (XGROUP CREATE/XACK/XAUTOCLAIM/XINFO CONSUMERS), and the parse/execute
//! halves of XREAD/XREADGROUP that [`crate::engine`] drives for blocking
//! reads.

use super::{bad_id, parse_uint, parse_xadd_id, stream_of, wrong_args};
use crate::resp::Frame;
use crate::store::stream::{Stream, StreamError, StreamId};
use crate::store::{Db, RValue};
use d4py_sync::SharedBuf;
use std::time::{Duration, Instant};

fn no_group(key: &[u8], group: &str) -> Frame {
    Frame::Error(format!(
        "NOGROUP No such consumer group '{group}' for key name '{}'",
        String::from_utf8_lossy(key)
    ))
}

fn unknown_subcommand(verb: &str, sub: &[u8]) -> Frame {
    Frame::error(format!(
        "unknown {verb} subcommand '{}'",
        String::from_utf8_lossy(&sub.to_ascii_uppercase())
    ))
}

fn entry_frame(id: StreamId, body: &[(SharedBuf, SharedBuf)]) -> Frame {
    Frame::Array(vec![
        Frame::bulk(id.to_string()),
        Frame::Array(
            body.iter()
                .flat_map(|(f, v)| [Frame::Bulk(f.clone()), Frame::Bulk(v.clone())])
                .collect(),
        ),
    ])
}

/// `XADD key id field value [field value ...]`, `id` being `*` or explicit.
pub(crate) fn xadd(db: &mut Db, now_ms: u64, args: &[SharedBuf]) -> Frame {
    if args.len() < 4 {
        return wrong_args("XADD");
    }
    let id = match parse_xadd_id(&args[1]) {
        Ok(id) => id,
        Err(f) => return f,
    };
    if !args.len().is_multiple_of(2) {
        return wrong_args("XADD");
    }
    // Zero-copy: each field/value aliases the network read buffer.
    let body: Vec<(SharedBuf, SharedBuf)> = args[2..]
        .chunks(2)
        .map(|p| (p[0].clone(), p[1].clone()))
        .collect();

    let value = db
        .entry(args[0].to_vec())
        .or_insert_with(|| RValue::Stream(Stream::new()));
    let RValue::Stream(stream) = value else {
        return super::wrong_type();
    };
    match stream.add(id, now_ms, body) {
        Ok(assigned) => Frame::bulk(assigned.to_string()),
        Err(StreamError::IdTooSmall) => Frame::Error(
            "ERR The ID specified in XADD is equal or smaller than the target stream top item"
                .into(),
        ),
        Err(_) => Frame::error("XADD failed"),
    }
}

fn parse_range_bound(raw: &[u8], default_seq: u64) -> Option<StreamId> {
    match raw {
        b"-" => Some(StreamId::MIN),
        b"+" => Some(StreamId::MAX),
        other => StreamId::parse(std::str::from_utf8(other).ok()?, default_seq),
    }
}

pub(crate) fn xrange(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() != 3 && args.len() != 5 {
        return wrong_args("XRANGE");
    }
    let (Some(start), Some(end)) = (
        parse_range_bound(&args[1], 0),
        parse_range_bound(&args[2], u64::MAX),
    ) else {
        return bad_id();
    };
    let count = if args.len() == 5 {
        if !args[3].eq_ignore_ascii_case(b"COUNT") {
            return Frame::error("syntax error");
        }
        match parse_uint(&args[4]) {
            Some(n) => Some(n as usize),
            None => return Frame::error("value is not an integer or out of range"),
        }
    } else {
        None
    };
    match stream_of(db, &args[0]) {
        Err(f) => f,
        Ok(None) => Frame::Array(vec![]),
        Ok(Some(s)) => Frame::Array(
            s.range(start, end, count)
                .iter()
                .map(|(id, body)| entry_frame(*id, body))
                .collect(),
        ),
    }
}

pub(crate) fn xdel(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() < 2 {
        return wrong_args("XDEL");
    }
    let mut ids = Vec::new();
    for raw in &args[1..] {
        match std::str::from_utf8(raw)
            .ok()
            .and_then(|s| StreamId::parse(s, 0))
        {
            Some(id) => ids.push(id),
            None => return bad_id(),
        }
    }
    match stream_of(db, &args[0]) {
        Err(f) => f,
        Ok(None) => Frame::Integer(0),
        Ok(Some(s)) => Frame::Integer(s.delete(&ids) as i64),
    }
}

pub(crate) fn xack(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() < 3 {
        return wrong_args("XACK");
    }
    let group = String::from_utf8_lossy(&args[1]).into_owned();
    let mut ids = Vec::new();
    for raw in &args[2..] {
        match std::str::from_utf8(raw)
            .ok()
            .and_then(|s| StreamId::parse(s, 0))
        {
            Some(id) => ids.push(id),
            None => return bad_id(),
        }
    }
    match stream_of(db, &args[0]) {
        Err(f) => f,
        Ok(None) => Frame::Integer(0),
        Ok(Some(s)) => match s.ack(&group, &ids, Instant::now()) {
            Ok(n) => Frame::Integer(n as i64),
            Err(StreamError::NoGroup) => Frame::Integer(0),
            Err(_) => Frame::error("XACK failed"),
        },
    }
}

/// `XGROUP CREATE key group id|$ [MKSTREAM]`.
pub(crate) fn xgroup(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() < 3 {
        return wrong_args("XGROUP");
    }
    if !args[0].eq_ignore_ascii_case(b"CREATE") {
        return unknown_subcommand("XGROUP", &args[0]);
    }
    if args.len() < 4 {
        return wrong_args("XGROUP");
    }
    let (key, group, start_raw) = (&args[1], &args[2], &args[3]);
    let mkstream = args
        .get(4)
        .map(|a| a.eq_ignore_ascii_case(b"MKSTREAM"))
        .unwrap_or(false);
    if stream_of(db, key).ok().flatten().is_none() {
        if !mkstream {
            return Frame::Error(
                "ERR The XGROUP subcommand requires the key to exist. Note that for \
                 CREATE you may want to use the MKSTREAM option to create an empty stream \
                 automatically."
                    .into(),
            );
        }
        db.insert(key.to_vec(), RValue::Stream(Stream::new()));
    }
    let RValue::Stream(stream) = db
        .get_mut(key.as_slice())
        .expect("stream was created or found above")
    else {
        return super::wrong_type();
    };
    let start = if start_raw.as_slice() == b"$" {
        stream.last_id()
    } else {
        match std::str::from_utf8(start_raw)
            .ok()
            .and_then(|s| StreamId::parse(s, 0))
        {
            Some(id) => id,
            None => return bad_id(),
        }
    };
    let group = String::from_utf8_lossy(group).into_owned();
    match stream.create_group(&group, start) {
        Ok(()) => Frame::ok(),
        Err(StreamError::GroupExists) => {
            Frame::Error("BUSYGROUP Consumer Group name already exists".into())
        }
        Err(_) => Frame::error("XGROUP CREATE failed"),
    }
}

/// `XINFO CONSUMERS key group`: per consumer, its name, pending count and
/// idle milliseconds (what `dyn_auto_redis`'s monitor samples).
pub(crate) fn xinfo(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() < 2 {
        return wrong_args("XINFO");
    }
    if !args[0].eq_ignore_ascii_case(b"CONSUMERS") {
        return unknown_subcommand("XINFO", &args[0]);
    }
    if args.len() != 3 {
        return wrong_args("XINFO");
    }
    let group = String::from_utf8_lossy(&args[2]).into_owned();
    match stream_of(db, &args[1]) {
        Err(f) => f,
        Ok(None) => no_group(&args[1], &group),
        Ok(Some(s)) => match s.consumer_info(&group, Instant::now()) {
            Err(_) => no_group(&args[1], &group),
            Ok(rows) => Frame::Array(
                rows.into_iter()
                    .map(|(name, pending, idle)| {
                        Frame::Array(vec![
                            Frame::bulk("name"),
                            Frame::bulk(name),
                            Frame::bulk("pending"),
                            Frame::Integer(pending as i64),
                            Frame::bulk("idle"),
                            Frame::Integer(idle.as_millis() as i64),
                        ])
                    })
                    .collect(),
            ),
        },
    }
}

/// `XAUTOCLAIM key group consumer min-idle-time start [COUNT n]`
///
/// Scans the group's PEL for entries idle at least `min-idle-time`
/// milliseconds and transfers them to `consumer` (Redis 6.2 semantics,
/// 2-element reply form: `[next-cursor, entries]`). `start` is accepted for
/// wire compatibility; this implementation always scans from the beginning,
/// so the returned cursor is `0-0`.
pub(crate) fn xautoclaim(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() < 5 {
        return wrong_args("XAUTOCLAIM");
    }
    let group = String::from_utf8_lossy(&args[1]).into_owned();
    let consumer = String::from_utf8_lossy(&args[2]).into_owned();
    let Some(min_idle_ms) = parse_uint(&args[3]) else {
        return Frame::error("Invalid min-idle-time argument for XAUTOCLAIM");
    };
    // args[4] = start cursor (accepted, unused).
    let count = if args.len() >= 7 && args[5].eq_ignore_ascii_case(b"COUNT") {
        match parse_uint(&args[6]) {
            Some(n) => n as usize,
            None => return Frame::error("value is not an integer or out of range"),
        }
    } else {
        100
    };
    match stream_of(db, &args[0]) {
        Err(f) => f,
        Ok(None) => no_group(&args[0], &group),
        Ok(Some(s)) => match s.claim_idle(
            &group,
            &consumer,
            Duration::from_millis(min_idle_ms),
            count,
            Instant::now(),
        ) {
            Err(StreamError::NoGroup) => no_group(&args[0], &group),
            Err(_) => Frame::error("XAUTOCLAIM failed"),
            Ok(claimed) => Frame::Array(vec![
                Frame::bulk("0-0"),
                Frame::Array(
                    claimed
                        .iter()
                        .map(|(id, body)| entry_frame(*id, body))
                        .collect(),
                ),
            ]),
        },
    }
}

// ---- XREAD / XREADGROUP ----

/// Which entries a stream read starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdSpec {
    /// Entries strictly after this id.
    After(StreamId),
    /// `$` — entries after the stream's current last id (resolve once).
    Last,
    /// `>` — new entries for this consumer group.
    New,
}

/// A parsed XREAD / XREADGROUP command.
#[derive(Debug, Clone)]
pub struct StreamReadCmd {
    /// `Some((group, consumer))` for XREADGROUP.
    pub group: Option<(String, String)>,
    /// COUNT limit.
    pub count: Option<usize>,
    /// BLOCK timeout (Duration::ZERO = forever); `None` = non-blocking.
    pub block: Option<Duration>,
    /// NOACK flag (XREADGROUP only).
    pub noack: bool,
    /// Stream keys, parallel to `ids`.
    pub keys: Vec<SharedBuf>,
    /// Start spec per key.
    pub ids: Vec<IdSpec>,
}

/// Parses `XREAD [COUNT n] [BLOCK ms] STREAMS key... id...` or
/// `XREADGROUP GROUP g c [COUNT n] [BLOCK ms] [NOACK] STREAMS key... id...`.
pub fn parse_stream_read(name: &str, args: &[SharedBuf]) -> Result<StreamReadCmd, Frame> {
    let mut cmd = StreamReadCmd {
        group: None,
        count: None,
        block: None,
        noack: false,
        keys: vec![],
        ids: vec![],
    };
    let mut i = 0;
    if name == "XREADGROUP" {
        if args.len() < 3 || !args[0].eq_ignore_ascii_case(b"GROUP") {
            return Err(Frame::error(
                "syntax error: expected GROUP <group> <consumer>",
            ));
        }
        cmd.group = Some((
            String::from_utf8_lossy(&args[1]).into_owned(),
            String::from_utf8_lossy(&args[2]).into_owned(),
        ));
        i = 3;
    }
    while i < args.len() {
        let word = args[i].to_ascii_uppercase();
        match word.as_slice() {
            b"COUNT" => {
                let n = args
                    .get(i + 1)
                    .and_then(|a| parse_uint(a))
                    .ok_or_else(|| Frame::error("value is not an integer or out of range"))?;
                cmd.count = Some(n as usize);
                i += 2;
            }
            b"BLOCK" => {
                let msec = args
                    .get(i + 1)
                    .and_then(|a| parse_uint(a))
                    .ok_or_else(|| Frame::error("timeout is not an integer or out of range"))?;
                cmd.block = Some(Duration::from_millis(msec));
                i += 2;
            }
            b"NOACK" => {
                cmd.noack = true;
                i += 1;
            }
            b"STREAMS" => {
                let rest = &args[i + 1..];
                if rest.is_empty() || !rest.len().is_multiple_of(2) {
                    return Err(Frame::error(
                        "Unbalanced XREAD list of streams: for each stream key an ID or '$' must \
                         be specified",
                    ));
                }
                let half = rest.len() / 2;
                for key in &rest[..half] {
                    cmd.keys.push(key.clone());
                }
                for raw in &rest[half..] {
                    let spec = match raw.as_slice() {
                        b"$" => IdSpec::Last,
                        b">" => IdSpec::New,
                        other => IdSpec::After(
                            std::str::from_utf8(other)
                                .ok()
                                .and_then(|s| StreamId::parse(s, 0))
                                .ok_or_else(bad_id)?,
                        ),
                    };
                    cmd.ids.push(spec);
                }
                i = args.len();
            }
            _ => return Err(Frame::error("syntax error")),
        }
    }
    if cmd.keys.is_empty() {
        return Err(Frame::error("syntax error: missing STREAMS"));
    }
    if cmd.group.is_some() && cmd.ids.contains(&IdSpec::Last) {
        return Err(Frame::error(
            "The $ ID is meaningless in the context of XREADGROUP",
        ));
    }
    if cmd.group.is_none() && cmd.ids.contains(&IdSpec::New) {
        return Err(Frame::error(
            "The > ID can be specified only when calling XREADGROUP",
        ));
    }
    Ok(cmd)
}

/// Resolves `$` specs to concrete ids (a snapshot of each stream's last id).
/// Call once before entering a blocking retry loop.
pub fn resolve_stream_ids(db: &mut Db, cmd: &mut StreamReadCmd) {
    for (key, spec) in cmd.keys.iter().zip(cmd.ids.iter_mut()) {
        if *spec == IdSpec::Last {
            let last = match stream_of(db, key) {
                Ok(Some(s)) => s.last_id(),
                _ => StreamId::MIN,
            };
            *spec = IdSpec::After(last);
        }
    }
}

/// One non-blocking attempt at a parsed XREAD/XREADGROUP.
///
/// `Ok(Some(frame))` — data delivered; `Ok(None)` — nothing available (the
/// engine may block and retry); `Err(frame)` — protocol error.
pub fn execute_stream_read(db: &mut Db, cmd: &StreamReadCmd) -> Result<Option<Frame>, Frame> {
    let mut per_stream = Vec::new();
    for (key, spec) in cmd.keys.iter().zip(cmd.ids.iter()) {
        let entries = match &cmd.group {
            None => match stream_of(db, key)? {
                None => vec![],
                Some(s) => match spec {
                    IdSpec::After(id) => s.read_after(*id, cmd.count),
                    _ => vec![],
                },
            },
            Some((group, consumer)) => {
                let Some(s) = stream_of(db, key)? else {
                    return Err(no_group(key, group));
                };
                match spec {
                    IdSpec::New => {
                        match s.read_group_new(
                            group,
                            consumer,
                            cmd.count,
                            cmd.noack,
                            Instant::now(),
                        ) {
                            Ok(entries) => entries,
                            Err(StreamError::NoGroup) => return Err(no_group(key, group)),
                            Err(_) => return Err(Frame::error("XREADGROUP failed")),
                        }
                    }
                    IdSpec::After(id) => {
                        // History replay: this consumer's PEL after `id`.
                        let Some(g) = s.group(group) else {
                            return Err(no_group(key, group));
                        };
                        let ids: Vec<StreamId> = g
                            .pending
                            .range(id.next()..)
                            .filter(|(_, p)| &p.consumer == consumer)
                            .map(|(id, _)| *id)
                            .collect();
                        let mut entries = Vec::new();
                        for id in ids {
                            for (eid, body) in s.range(id, id, Some(1)) {
                                entries.push((eid, body));
                            }
                        }
                        if let Some(n) = cmd.count {
                            entries.truncate(n);
                        }
                        // Replay always "succeeds" (possibly empty) without
                        // blocking, matching Redis.
                        return Ok(Some(Frame::Array(vec![Frame::Array(vec![
                            Frame::Bulk(key.clone()),
                            Frame::Array(
                                entries
                                    .iter()
                                    .map(|(id, body)| entry_frame(*id, body))
                                    .collect(),
                            ),
                        ])])));
                    }
                    IdSpec::Last => vec![],
                }
            }
        };
        if !entries.is_empty() {
            per_stream.push((key.clone(), entries));
        }
    }
    if per_stream.is_empty() {
        return Ok(None);
    }
    Ok(Some(Frame::Array(
        per_stream
            .into_iter()
            .map(|(key, entries)| {
                Frame::Array(vec![
                    Frame::Bulk(key),
                    Frame::Array(
                        entries
                            .iter()
                            .map(|(id, body)| entry_frame(*id, body))
                            .collect(),
                    ),
                ])
            })
            .collect(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(parts: &[&str]) -> Vec<SharedBuf> {
        parts
            .iter()
            .map(|p| SharedBuf::from(p.as_bytes()))
            .collect()
    }

    fn add(db: &mut Db, key: &str, now_ms: u64, val: &str) -> String {
        let reply = xadd(db, now_ms, &f(&[key, "*", "data", val]));
        reply.as_text().unwrap()
    }

    /// The number of entries in stream `key`, by `XRANGE key - +`.
    fn entries(db: &mut Db, key: &str) -> usize {
        xrange(db, &f(&[key, "-", "+"])).as_array().unwrap().len()
    }

    #[test]
    fn xadd_xrange() {
        let mut db = Db::new();
        let id1 = add(&mut db, "s", 10, "a");
        let id2 = add(&mut db, "s", 11, "b");
        assert_eq!(id1, "10-0");
        assert_eq!(id2, "11-0");
        assert_eq!(entries(&mut db, "s"), 2);
        let limited = xrange(&mut db, &f(&["s", "-", "+", "COUNT", "1"]));
        assert_eq!(limited.as_array().unwrap().len(), 1);
    }

    #[test]
    fn xadd_explicit_id_rules() {
        let mut db = Db::new();
        assert_eq!(
            xadd(&mut db, 0, &f(&["s", "5-1", "k", "v"])),
            Frame::bulk("5-1")
        );
        assert!(xadd(&mut db, 0, &f(&["s", "5-1", "k", "v"])).is_error());
        assert!(xadd(&mut db, 0, &f(&["s", "4-0", "k", "v"])).is_error());
    }

    #[test]
    fn xdel_removes() {
        let mut db = Db::new();
        let id = add(&mut db, "s", 1, "a");
        add(&mut db, "s", 2, "b");
        assert_eq!(xdel(&mut db, &f(&["s", &id])), Frame::Integer(1));
        assert_eq!(entries(&mut db, "s"), 1);
    }

    #[test]
    fn group_lifecycle_and_read() {
        let mut db = Db::new();
        add(&mut db, "s", 1, "one");
        assert_eq!(xgroup(&mut db, &f(&["CREATE", "s", "g", "0"])), Frame::ok());
        assert!(
            xgroup(&mut db, &f(&["CREATE", "s", "g", "0"])).is_error(),
            "BUSYGROUP"
        );

        let mut cmd = parse_stream_read(
            "XREADGROUP",
            &f(&["GROUP", "g", "c1", "COUNT", "10", "STREAMS", "s", ">"]),
        )
        .unwrap();
        resolve_stream_ids(&mut db, &mut cmd);
        let reply = execute_stream_read(&mut db, &cmd).unwrap().unwrap();
        assert!(format!("{reply:?}").contains("one"));

        // Nothing new now.
        assert!(execute_stream_read(&mut db, &cmd).unwrap().is_none());

        // The consumer's pending count is visible via XINFO CONSUMERS.
        let pending = |db: &mut Db| {
            let info = xinfo(db, &f(&["CONSUMERS", "s", "g"]));
            info.as_array().unwrap()[0].as_array().unwrap()[3].clone()
        };
        assert_eq!(pending(&mut db), Frame::Integer(1));

        // Ack clears.
        assert_eq!(xack(&mut db, &f(&["s", "g", "1-0"])), Frame::Integer(1));
        assert_eq!(pending(&mut db), Frame::Integer(0));
    }

    #[test]
    fn xgroup_mkstream_creates_key() {
        let mut db = Db::new();
        assert!(xgroup(&mut db, &f(&["CREATE", "ghost", "g", "$"])).is_error());
        assert_eq!(
            xgroup(&mut db, &f(&["CREATE", "ghost", "g", "$", "MKSTREAM"])),
            Frame::ok()
        );
        assert_eq!(entries(&mut db, "ghost"), 0);
    }

    #[test]
    fn xread_after_id() {
        let mut db = Db::new();
        add(&mut db, "s", 1, "a");
        add(&mut db, "s", 2, "b");
        let mut cmd = parse_stream_read("XREAD", &f(&["STREAMS", "s", "1-0"])).unwrap();
        resolve_stream_ids(&mut db, &mut cmd);
        let reply = execute_stream_read(&mut db, &cmd).unwrap().unwrap();
        let text = format!("{reply:?}");
        assert!(text.contains('b') && !text.contains("\"a\""));
    }

    #[test]
    fn xread_dollar_resolves_to_snapshot() {
        let mut db = Db::new();
        add(&mut db, "s", 1, "old");
        let mut cmd = parse_stream_read("XREAD", &f(&["STREAMS", "s", "$"])).unwrap();
        resolve_stream_ids(&mut db, &mut cmd);
        assert!(execute_stream_read(&mut db, &cmd).unwrap().is_none());
        add(&mut db, "s", 2, "new");
        assert!(execute_stream_read(&mut db, &cmd).unwrap().is_some());
    }

    #[test]
    fn xreadgroup_history_replays_pel() {
        let mut db = Db::new();
        add(&mut db, "s", 1, "a");
        xgroup(&mut db, &f(&["CREATE", "s", "g", "0"]));
        let mut newcmd =
            parse_stream_read("XREADGROUP", &f(&["GROUP", "g", "c", "STREAMS", "s", ">"])).unwrap();
        resolve_stream_ids(&mut db, &mut newcmd);
        execute_stream_read(&mut db, &newcmd).unwrap().unwrap();
        // Replay history from 0: the unacked entry reappears.
        let mut replay = parse_stream_read(
            "XREADGROUP",
            &f(&["GROUP", "g", "c", "STREAMS", "s", "0-0"]),
        )
        .unwrap();
        resolve_stream_ids(&mut db, &mut replay);
        let reply = execute_stream_read(&mut db, &replay).unwrap().unwrap();
        assert!(format!("{reply:?}").contains('a'));
        // Another consumer's replay is empty.
        let mut other = parse_stream_read(
            "XREADGROUP",
            &f(&["GROUP", "g", "other", "STREAMS", "s", "0-0"]),
        )
        .unwrap();
        resolve_stream_ids(&mut db, &mut other);
        let reply = execute_stream_read(&mut db, &other).unwrap().unwrap();
        assert!(!format!("{reply:?}").contains("\"a\""));
    }

    #[test]
    fn parse_rejects_mismatched_specs() {
        assert!(parse_stream_read("XREAD", &f(&["STREAMS", "s", ">"])).is_err());
        assert!(
            parse_stream_read("XREADGROUP", &f(&["GROUP", "g", "c", "STREAMS", "s", "$"])).is_err()
        );
        assert!(parse_stream_read("XREAD", &f(&["STREAMS", "s"])).is_err());
        assert!(parse_stream_read("XREADGROUP", &f(&["STREAMS", "s", ">"])).is_err());
    }

    #[test]
    fn xinfo_consumers_reports_idle() {
        let mut db = Db::new();
        add(&mut db, "s", 1, "a");
        xgroup(&mut db, &f(&["CREATE", "s", "g", "0"]));
        let mut cmd = parse_stream_read(
            "XREADGROUP",
            &f(&["GROUP", "g", "c", "NOACK", "STREAMS", "s", ">"]),
        )
        .unwrap();
        resolve_stream_ids(&mut db, &mut cmd);
        execute_stream_read(&mut db, &cmd).unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let info = xinfo(&mut db, &f(&["CONSUMERS", "s", "g"]));
        let rows = info.as_array().unwrap();
        assert_eq!(rows.len(), 1);
        let row = rows[0].as_array().unwrap();
        // ["name", c, "pending", 0, "idle", ms]
        assert_eq!(row[1], Frame::bulk("c"));
        assert_eq!(row[3], Frame::Integer(0), "NOACK leaves nothing pending");
        assert!(row[5].as_int().unwrap() >= 20);
    }

    #[test]
    fn nogroup_errors_surface() {
        let mut db = Db::new();
        add(&mut db, "s", 1, "a");
        let mut cmd = parse_stream_read(
            "XREADGROUP",
            &f(&["GROUP", "nope", "c", "STREAMS", "s", ">"]),
        )
        .unwrap();
        resolve_stream_ids(&mut db, &mut cmd);
        let err = execute_stream_read(&mut db, &cmd).unwrap_err();
        assert!(err.as_text().unwrap().starts_with("NOGROUP"));
    }
}
