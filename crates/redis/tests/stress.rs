//! Concurrency and protocol stress tests for redis-lite.

use redis_lite::client::{Client, Connection, RedisOps};
use redis_lite::engine::Shared;
use redis_lite::resp::Frame;
use redis_lite::server::Server;
use redis_lite::store::stream::StreamId;
use std::sync::Arc;
use std::time::Duration;

fn f(parts: &[&str]) -> Vec<d4py_sync::SharedBuf> {
    parts
        .iter()
        .map(|p| d4py_sync::SharedBuf::from(p.as_bytes()))
        .collect()
}

/// The number of entries in stream `key`, by `XRANGE key - +`.
fn entries(shared: &Shared, key: &str) -> usize {
    let range = shared.dispatch(&f(&["XRANGE", key, "-", "+"]));
    range.as_array().map_or(0, <[Frame]>::len)
}

#[test]
fn concurrent_increments_are_atomic() {
    // Eight threads append 250 entries each to one stream: every append
    // lands, with an id of its own, so the length is exact.
    let shared = Arc::new(Shared::new());
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let s = shared.clone();
            std::thread::spawn(move || {
                for _ in 0..250 {
                    assert!(!s
                        .dispatch(&f(&["XADD", "counter", "*", "n", "1"]))
                        .is_error());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(entries(&shared, "counter"), 2000);
}

#[test]
fn concurrent_stream_consumers_see_each_entry_once() {
    let shared = Arc::new(Shared::new());
    shared.dispatch(&f(&["XGROUP", "CREATE", "s", "g", "0", "MKSTREAM"]));
    for i in 0..200 {
        shared.dispatch(&f(&["XADD", "s", "*", "n", &i.to_string()]));
    }
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let s = shared.clone();
            std::thread::spawn(move || {
                let consumer = format!("c{c}");
                let mut got = Vec::new();
                loop {
                    let reply = s.dispatch(&f(&[
                        "XREADGROUP",
                        "GROUP",
                        "g",
                        &consumer,
                        "COUNT",
                        "1",
                        "NOACK",
                        "STREAMS",
                        "s",
                        ">",
                    ]));
                    match reply {
                        Frame::NullArray | Frame::Null => break,
                        Frame::Array(streams) => {
                            let text = format!("{streams:?}");
                            got.push(text);
                        }
                        other => panic!("unexpected: {other:?}"),
                    }
                }
                got.len()
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 200, "every entry delivered to exactly one consumer");
}

#[test]
fn many_parallel_tcp_clients() {
    let server = Server::start(0).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..10)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for j in 0..50 {
                    let key = format!("k:{i}:{j}");
                    c.set(key.as_bytes(), b"v").unwrap();
                    assert_eq!(c.get(key.as_bytes()).unwrap(), Some(b"v".to_vec()));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut c = Client::connect(addr).unwrap();
    let reply = c.request(&[b"DBSIZE"]).unwrap();
    assert_eq!(reply, Frame::Integer(500));
}

#[test]
fn blocking_readers_all_wake_as_data_arrives() {
    let server = Server::start(0).unwrap();
    let addr = server.addr();
    let mut pusher = Client::connect(addr).unwrap();
    pusher.xgroup_create(b"work", b"g").unwrap();
    let readers: Vec<_> = (0..4)
        .map(|r| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let consumer = format!("r{r}");
                c.xreadgroup_one(
                    b"work",
                    b"g",
                    consumer.as_bytes(),
                    Duration::from_secs(3),
                    true,
                )
                .unwrap()
            })
        })
        .collect();
    // sleep: lets the readers park first; each gets its job either way.
    std::thread::sleep(Duration::from_millis(50));
    for i in 0..4 {
        pusher
            .xadd(b"work", b"job", format!("job{i}").as_bytes())
            .unwrap();
    }
    let mut jobs: Vec<Vec<u8>> = readers
        .into_iter()
        .filter_map(|r| r.join().unwrap())
        .map(|(_, fields)| fields[0].1.clone())
        .collect();
    jobs.sort();
    assert_eq!(
        jobs,
        (0..4)
            .map(|i| format!("job{i}").into_bytes())
            .collect::<Vec<_>>(),
        "each blocked reader gets exactly one job"
    );
}

#[test]
fn mixed_type_commands_under_contention_never_corrupt() {
    let shared = Arc::new(Shared::new());
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let s = shared.clone();
            std::thread::spawn(move || {
                for i in 0..100 {
                    match t % 3 {
                        0 => {
                            s.dispatch(&f(&["SET", "str", &i.to_string()]));
                            let got = s.dispatch(&f(&["GET", "str"]));
                            assert!(matches!(got, Frame::Bulk(_)), "{got:?}");
                        }
                        1 => {
                            s.dispatch(&f(&["HSET", "hash", &format!("f{i}"), "v"]));
                        }
                        _ => {
                            s.dispatch(&f(&["XADD", "stream", "*", "n", &i.to_string()]));
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Every key kept its type: each verb against another type's key is
    // WRONGTYPE.
    for verb in [
        &["GET", "hash"][..],
        &["HGET", "str", "f"],
        &["HSET", "stream", "f", "v"],
        &["XADD", "hash", "*", "f", "v"],
        &["XRANGE", "str", "-", "+"],
    ] {
        let reply = shared.dispatch(&f(verb));
        assert!(
            reply.as_text().is_some_and(|t| t.starts_with("WRONGTYPE")),
            "{verb:?}: {reply:?}"
        );
    }
    // Nothing was lost to contention or written by a refused verb: the
    // hash has 100 distinct fields (written twice each), the stream 200
    // entries.
    let fields = shared.dispatch(&f(&["HKEYS", "hash"]));
    assert_eq!(fields.as_array().map(<[Frame]>::len), Some(100));
    assert_eq!(entries(&shared, "stream"), 200);
}

#[test]
fn oversized_pipeline_on_one_connection() {
    let server = Server::start(0).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // 1000 sequential commands over one connection, each answered in turn.
    let mut last = StreamId::MIN;
    for i in 0..1000 {
        let id = c.xadd(b"log", b"n", i.to_string().as_bytes()).unwrap();
        let id = StreamId::parse(&id, 0).expect("an entry id");
        assert!(id > last, "ids grow: {last} then {id}");
        last = id;
    }
    let range = c.request(&[b"XRANGE", b"log", b"-", b"+"]).unwrap();
    assert_eq!(range.as_array().map(<[Frame]>::len), Some(1000));
}

#[test]
fn aof_persists_state_across_restarts() {
    use redis_lite::aof::FsyncPolicy;
    let path = std::env::temp_dir().join(format!("d4py_aof_restart_{}.aof", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let kept;
    {
        let shared = Shared::with_aof(&path, FsyncPolicy::Always).unwrap();
        shared.dispatch(&f(&["SET", "config:mode", "hybrid"]));
        kept = shared.dispatch(&f(&["XADD", "stream", "*", "task", "payload"]));
        let consumed = shared.dispatch(&f(&["XADD", "stream", "*", "task", "done"]));
        // A consumed task (XDEL) must not reappear after replay.
        let consumed = consumed.as_text().unwrap();
        shared.dispatch(&f(&["XDEL", "stream", &consumed]));
        shared.dispatch(&f(&["HSET", "state", "happyState#0", "snapshot"]));
    }
    let revived = Shared::with_aof(&path, FsyncPolicy::Always).unwrap();
    assert_eq!(
        revived.dispatch(&f(&["GET", "config:mode"])),
        Frame::bulk("hybrid")
    );
    assert_eq!(entries(&revived, "stream"), 1);
    let range = revived.dispatch(&f(&["XRANGE", "stream", "-", "+"]));
    assert!(
        format!("{range:?}").contains("payload"),
        "the XDEL-consumed task must not be replayed back: {range:?}"
    );
    let first = &range.as_array().unwrap()[0].as_array().unwrap()[0];
    assert_eq!(*first, kept, "the entry keeps its id");
    assert_eq!(
        revived.dispatch(&f(&["HGET", "state", "happyState#0"])),
        Frame::bulk("snapshot")
    );
    let _ = std::fs::remove_file(&path);
}

/// An auto id is drawn from the server's clock, which restarts at 0 with
/// the server: the log records the id the entry got, not `*`, so a replay
/// recreates the ids a logged XDEL names.
#[test]
fn aof_replay_keeps_stream_ids() {
    use redis_lite::aof::FsyncPolicy;
    let path = std::env::temp_dir().join(format!("d4py_aof_ids_{}.aof", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let first;
    {
        let shared = Shared::with_aof(&path, FsyncPolicy::Always).unwrap();
        // sleep: moves the server clock past 0 ms, so a fresh clock would
        // draw different ids on replay.
        std::thread::sleep(Duration::from_millis(20));
        first = shared.dispatch(&f(&["XADD", "s", "*", "f", "a"]));
        let second = shared.dispatch(&f(&["XADD", "s", "*", "f", "b"]));
        let second = second.as_text().unwrap();
        assert_eq!(
            shared.dispatch(&f(&["XDEL", "s", &second])),
            Frame::Integer(1)
        );
    }
    let revived = Shared::with_aof(&path, FsyncPolicy::Always).unwrap();
    assert_eq!(entries(&revived, "s"), 1);
    let range = revived.dispatch(&f(&["XRANGE", "s", "-", "+"]));
    let ids: Vec<&Frame> = range
        .as_array()
        .unwrap()
        .iter()
        .map(|entry| &entry.as_array().unwrap()[0])
        .collect();
    assert_eq!(ids, vec![&first], "{range:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn aof_ignores_failed_writes_and_reads() {
    use redis_lite::aof::{Aof, FsyncPolicy};
    let path = std::env::temp_dir().join(format!("d4py_aof_filter_{}.aof", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let shared = Shared::with_aof(&path, FsyncPolicy::Always).unwrap();
        shared.dispatch(&f(&["SET", "k", "v"]));
        shared.dispatch(&f(&["XADD", "s", "*", "f", "v"]));
        shared.dispatch(&f(&["GET", "k"])); // read: not logged
        let failed = shared.dispatch(&f(&["HSET", "s", "f", "v"])); // WRONGTYPE
        assert!(failed.is_error(), "{failed:?}");
    }
    let commands = Aof::load(&path).unwrap();
    let verbs: Vec<&[u8]> = commands.iter().map(|c| c[0].as_slice()).collect();
    assert_eq!(verbs, [&b"SET"[..], b"XADD"], "{commands:?}");
    let _ = std::fs::remove_file(&path);
}

/// The log holds only writes that succeeded, so an entry that fails on
/// replay means the log and the server disagree: the server refuses to
/// start rather than drop the entry unseen.
#[test]
fn aof_replay_rejects_an_entry_it_cannot_execute() {
    use redis_lite::aof::{Aof, FsyncPolicy};
    let path = std::env::temp_dir().join(format!("d4py_aof_reject_{}.aof", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let aof = Aof::open(&path, FsyncPolicy::Always).unwrap();
        aof.append(&[&b"SET"[..], b"k", b"v"]).unwrap();
        aof.append(&[&b"RPUSH"[..], b"q", b"x"]).unwrap();
    }
    let err = match Shared::with_aof(&path, FsyncPolicy::Always) {
        Ok(_) => panic!("an entry the server cannot execute must fail the replay"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let message = err.to_string();
    assert!(
        message.contains("RPUSH") && message.contains("entry 1"),
        "{message}"
    );
    let _ = std::fs::remove_file(&path);
}
