//! Reactor integration tests: resumable parsing on the real wire,
//! connection churn, the connection cap, half-open reaping, and shutdown
//! draining parked blocking commands.

use redis_lite::client::{Client, Connection, RedisOps};
use redis_lite::resp::{self, Frame};
use redis_lite::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn read_replies(sock: &mut TcpStream, n: usize) -> Vec<Frame> {
    let mut inbox = d4py_sync::ByteBuf::new();
    let mut chunk = [0u8; 4096];
    let mut replies = Vec::with_capacity(n);
    while replies.len() < n {
        match resp::decode(&inbox).expect("well-formed reply stream") {
            Some((frame, used)) => {
                let _ = inbox.split_to(used);
                replies.push(frame);
            }
            None => {
                let got = sock.read(&mut chunk).expect("read");
                assert!(got > 0, "server closed mid-reply");
                inbox.extend_from_slice(&chunk[..got]);
            }
        }
    }
    replies
}

/// The resumable-parser satellite, pinned on the real wire: a 20-command
/// pipeline split into two TCP writes at EVERY byte offset must parse into
/// exactly 20 in-order replies, no matter where the boundary falls (mid
/// header, mid length, mid payload, mid CRLF).
#[test]
fn pipeline_split_at_every_byte_offset_parses_on_the_wire() {
    let server = Server::start(0).expect("server");
    let addr = server.addr();

    let mut wire = d4py_sync::ByteBuf::new();
    let n = 20usize;
    for i in 0..n / 2 {
        let key = format!("w{i}");
        resp::encode_command(
            &[b"SET", key.as_bytes(), format!("v{i}").as_bytes()],
            &mut wire,
        );
    }
    for i in 0..n / 2 {
        let key = format!("w{i}");
        resp::encode_command(&[b"GET", key.as_bytes()], &mut wire);
    }

    for split in 1..wire.len() {
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.set_nodelay(true).expect("nodelay");
        sock.write_all(&wire[..split]).expect("first half");
        // Let the server consume the first fragment as its own read so the
        // parser genuinely suspends mid-command, then resume.
        std::thread::sleep(Duration::from_micros(300));
        sock.write_all(&wire[split..]).expect("second half");
        let replies = read_replies(&mut sock, n);
        for (i, reply) in replies[..n / 2].iter().enumerate() {
            assert_eq!(*reply, Frame::ok(), "split {split}, SET {i}");
        }
        for (i, reply) in replies[n / 2..].iter().enumerate() {
            assert_eq!(
                *reply,
                Frame::bulk(format!("v{i}")),
                "split {split}, GET {i}"
            );
        }
    }
}

/// Accept/close storms past the connection cap: the server must neither
/// wedge its accept loop nor leak tracked connections.
#[test]
fn connection_churn_storm_at_the_cap() {
    let server = Server::start_with(
        0,
        ServerConfig {
            max_connections: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.addr();

    for _round in 0..25 {
        // Open a full house plus a few rejects, then slam everything shut.
        let held: Vec<TcpStream> = (0..12)
            .filter_map(|_| TcpStream::connect(addr).ok())
            .collect();
        assert!(held.len() >= 8, "connects must succeed at the TCP level");
        drop(held);
    }

    // The table drains as workers reap the closed sockets. The kernel's
    // accept backlog may still be feeding stale (already-closed) sockets to
    // the accept thread, so poll until a fresh client is admitted.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut recovered = false;
    while Instant::now() < deadline && !recovered {
        if let Ok(mut c) = Client::connect(addr) {
            recovered = matches!(c.ping().as_deref(), Ok("PONG"));
        }
        if !recovered {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert!(recovered, "server must admit clients after the storm");

    // And with the storm fully drained, no tracked entries may leak.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline && server.live_connections() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_connections(), 0, "no leaked connection entries");
}

/// Past `max_connections`, a new client gets the Redis maxclients error and
/// an immediate close; once a slot frees, new clients are admitted again.
#[test]
fn connection_cap_rejects_with_error_then_recovers() {
    let server = Server::start_with(
        0,
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.addr();

    let mut a = Client::connect(addr).expect("first");
    let mut b = Client::connect(addr).expect("second");
    assert_eq!(a.ping().expect("a"), "PONG");
    assert_eq!(b.ping().expect("b"), "PONG");

    // Third client: TCP connects, but the protocol answer is the error.
    let mut rejected = TcpStream::connect(addr).expect("tcp connect");
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut text = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        match rejected.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => text.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    assert!(
        String::from_utf8_lossy(&text).contains("max number of clients reached"),
        "got: {:?}",
        String::from_utf8_lossy(&text)
    );

    // Free a slot; a new client must be admitted.
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut admitted = false;
    while Instant::now() < deadline && !admitted {
        if let Ok(mut c) = Client::connect(addr) {
            admitted = c.ping().is_ok();
        }
        if !admitted {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert!(admitted, "slot must be reusable after a client leaves");
    assert_eq!(a.ping().expect("a again"), "PONG");
}

/// A half-open peer (connected, then silent forever) is reaped by the idle
/// deadline instead of holding its slot until process exit.
#[test]
fn half_open_connection_is_reaped_by_idle_deadline() {
    let server = Server::start_with(
        0,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(80)),
            ..ServerConfig::default()
        },
    )
    .expect("server");

    let mut half_open = TcpStream::connect(server.addr()).expect("connect");
    half_open
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // An ACTIVE connection must survive well past the idle limit.
    let mut active = Client::connect(server.addr()).expect("active");
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(active.ping().expect("active ping"), "PONG");
    }

    // The silent one observes the server-side close as EOF.
    let mut chunk = [0u8; 16];
    match half_open.read(&mut chunk) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes on a silent connection"),
        Err(e) => panic!("expected EOF from the reap, got {e}"),
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline && server.live_connections() > 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.live_connections(),
        1,
        "only the active client remains"
    );
}

/// `shutdown()` must sever connections parked in a blocking command —
/// a BLPOP-forever waiter sees its connection die instead of the server
/// hanging on join.
#[test]
fn shutdown_drains_parked_block_waiters() {
    let mut server = Server::start(0).expect("server");
    let addr = server.addr();

    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        // BLPOP 0 = wait forever; the reply only comes if shutdown severs.
        c.request(&[b"BLPOP".as_ref(), b"never".as_ref(), b"0".as_ref()])
    });

    // Give the BLPOP time to reach the server and park.
    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    server.shutdown();
    // timing: generous bound pinning "shutdown does not hang on parked
    // waiters" — severing one connection must not take anywhere near 10 s.
    assert!(start.elapsed() < Duration::from_secs(10));

    let result = waiter.join().expect("waiter thread");
    assert!(
        result.is_err(),
        "parked BLPOP must observe the severed connection, got {result:?}"
    );
}

/// Reactor-mode XREAD BLOCK wakes across connections (the parked-connection
/// wait list stands in for the old parked thread).
#[test]
fn xread_block_wakes_across_reactor_connections() {
    let server = Server::start(0).expect("server");
    let addr = server.addr();

    let mut seeder = Client::connect(addr).expect("seeder");
    seeder
        .request(&[
            b"XADD".as_ref(),
            b"st".as_ref(),
            b"*".as_ref(),
            b"f".as_ref(),
            b"seed".as_ref(),
        ])
        .expect("seed");

    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.request(&[
            b"XREAD".as_ref(),
            b"BLOCK".as_ref(),
            b"5000".as_ref(),
            b"STREAMS".as_ref(),
            b"st".as_ref(),
            b"$".as_ref(),
        ])
        .expect("xread")
    });
    std::thread::sleep(Duration::from_millis(100));
    seeder
        .request(&[
            b"XADD".as_ref(),
            b"st".as_ref(),
            b"*".as_ref(),
            b"f".as_ref(),
            b"fresh".as_ref(),
        ])
        .expect("fresh");
    let reply = waiter.join().expect("waiter");
    let text = format!("{reply:?}");
    assert!(text.contains("fresh"), "parked XREAD must deliver: {text}");
    assert!(
        !text.contains("seed"),
        "XREAD from $ must not replay history"
    );
}

/// A write on one reactor worker's connection wakes the *other* worker when
/// that one is parked holding a blocked reader — it does not wait out the
/// park. Asserted on the wake count, not on wall time: a round whose write
/// lands in the few microseconds the reader's worker spends between two
/// parks is released by its sweep instead and counts nothing, so the test
/// takes a few rounds and needs one counted wake.
#[test]
fn write_on_one_worker_wakes_a_reader_parked_on_the_other() {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start_with(0, config).expect("server");
    let addr = server.addr();
    // Connections are dealt round-robin: the writer on worker 0, the
    // reader on worker 1.
    let mut writer = Client::connect(addr).expect("writer");
    writer.xgroup_create(b"q", b"g").expect("group");
    let mut reader = Client::connect(addr).expect("reader");

    let mut woken = false;
    for round in 0..20 {
        let before = server.reactor_write_wakes();
        let epoch = server.shared().write_epoch();
        let blocked = std::thread::spawn(move || {
            let got = reader.xreadgroup_one(b"q", b"g", b"w0", Duration::from_secs(5), true);
            (reader, got.expect("blocked read"))
        });
        // sleep: lets the reader's worker find nothing to do, run out of
        // spins and park; nothing is measured against this.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            server.shared().write_epoch(),
            epoch,
            "round {round}: the read must still be blocked, not answered"
        );
        writer.xadd(b"q", b"task", b"x").expect("xadd");
        let (back, got) = blocked.join().expect("reader thread");
        reader = back;
        assert!(got.is_some(), "round {round}: the write releases the read");
        woken = server.reactor_write_wakes() > before;
        if woken {
            break;
        }
    }
    assert!(
        woken,
        "no write ever found the reader's worker parked and woke it"
    );
}
