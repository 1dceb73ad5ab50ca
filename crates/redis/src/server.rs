//! The TCP server: RESP over a real socket.
//!
//! This is the deployment shape the paper's Redis mappings talk to — going
//! through a genuine wire protocol is what makes `dyn_redis` measurably
//! heavier than `dyn_multi` (§5.6's Multiprocessing-vs-Redis finding).
//!
//! One front end: the accept thread admits each connection and hands it to
//! a reactor worker, and a fixed small worker set sweeps all connections
//! with nonblocking I/O; blocking commands park as connection state, not
//! threads. See [`crate::reactor`].

use crate::engine::Shared;
use crate::reactor::{self, Conn, WorkerShared};
use d4py_sync::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Live connections, keyed by a monotonic id. Each entry holds a
/// `try_clone` of the connection's stream so `shutdown()` and
/// `drop_connections()` can close the socket under its reactor worker; the
/// worker removes the entry when it drops the connection.
#[derive(Default)]
struct ConnTable {
    next_id: AtomicU64,
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl ConnTable {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.live.lock().insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.live.lock().remove(&id);
    }

    /// Closes every tracked socket, returning how many were severed.
    /// Their workers observe EOF/error on the next sweep and drop them.
    fn close_all(&self) -> usize {
        let mut dropped = 0;
        for (_, sock) in self.live.lock().drain() {
            let _ = sock.shutdown(Shutdown::Both);
            dropped += 1;
        }
        dropped
    }

    fn len(&self) -> usize {
        self.live.lock().len()
    }
}

/// Whether an `accept(2)` failure is a per-connection hiccup the loop
/// should ride out, as opposed to a listener-is-gone condition.
fn accept_error_is_transient(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        kind,
        // The peer reset before we picked the connection up.
        ConnectionAborted | ConnectionReset
            // Interrupted syscall / spurious readiness.
            | Interrupted | WouldBlock | TimedOut
            // Out of fds (EMFILE/ENFILE surfaces as these): pressure
            // passes when handlers finish; killing the listener would
            // turn a spike into an outage.
            | OutOfMemory | Other
    )
}

/// Tunables for [`Server::start_with`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Hard cap on simultaneous connections; excess clients get
    /// `-ERR max number of clients reached` and an immediate close.
    pub max_connections: usize,
    /// Close connections with no protocol activity for this long (half-open peers, crashed clients). `None` disables reaping.
    /// Connections parked in a blocking command are never reaped.
    pub idle_timeout: Option<Duration>,
    /// Reactor worker thread count; `0` = `min(4, parallelism)`.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
            workers: 0,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        cores.clamp(1, 4)
    }
}

/// A running redis-lite server.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<ConnTable>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    worker_shared: Vec<Arc<WorkerShared>>,
}

impl Server {
    /// Binds to `127.0.0.1:port` (`port` 0 picks a free port) and starts
    /// serving with the default limits on background threads.
    pub fn start(port: u16) -> std::io::Result<Server> {
        Self::start_with(port, ServerConfig::default())
    }

    /// [`start`](Self::start) with explicit limits.
    pub fn start_with(port: u16, config: ServerConfig) -> std::io::Result<Server> {
        Self::start_shared(port, Arc::new(Shared::new()), config)
    }

    /// [`start`](Self::start) with append-only-file persistence: the log at
    /// `aof_path` is replayed on startup and extended by every write.
    pub fn start_with_aof(
        port: u16,
        aof_path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Server> {
        let shared = Shared::with_aof(aof_path, crate::aof::FsyncPolicy::No)?;
        Self::start_shared(port, Arc::new(shared), ServerConfig::default())
    }

    fn start_shared(
        port: u16,
        shared: Arc<Shared>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnTable::default());

        let mut workers = Vec::new();
        let mut worker_shared = Vec::new();
        for _ in 0..config.effective_workers() {
            let ws = Arc::new(WorkerShared::new());
            let w_shared = shared.clone();
            let w_ws = ws.clone();
            let w_stop = stop.clone();
            let w_conns = conns.clone();
            workers.push(std::thread::spawn(move || {
                reactor::worker_loop(w_shared, w_ws, w_stop, config.idle_timeout, |id| {
                    w_conns.deregister(id)
                });
            }));
            worker_shared.push(ws);
        }
        let parked = worker_shared.clone();
        shared.set_write_hook(move || parked.iter().for_each(|ws| ws.wake_if_parked()));

        let accept_stop = stop.clone();
        let accept_conns = conns.clone();
        let accept_workers = worker_shared.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut next_worker = 0usize;
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let Some(id) = accept_conns.register(&stream) else {
                            continue; // try_clone failed: drop the socket
                        };
                        if accept_conns.len() > config.max_connections {
                            // Same wire behaviour as Redis at maxclients.
                            let mut stream = stream;
                            let _ = stream.write_all(b"-ERR max number of clients reached\r\n");
                            let _ = stream.shutdown(Shutdown::Both);
                            accept_conns.deregister(id);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            accept_conns.deregister(id);
                            continue;
                        }
                        let target = &accept_workers[next_worker];
                        next_worker = (next_worker + 1) % accept_workers.len();
                        target.register(Conn::new(id, stream));
                    }
                    // One refused/reset/fd-starved accept must not take the
                    // whole listener down; back off briefly and keep serving.
                    Err(e) if accept_error_is_transient(e.kind()) => {
                        // sleep: accept backoff under transient error (EMFILE
                        // et al.) — gives the workers time to release fds of
                        // closed connections before the next accept attempt.
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break, // listener itself is gone
                }
            }
        });

        Ok(Server {
            shared,
            addr,
            stop,
            conns,
            accept_thread: Some(accept_thread),
            workers,
            worker_shared,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (for in-process clients and tests).
    pub fn shared(&self) -> Arc<Shared> {
        self.shared.clone()
    }

    /// Number of currently tracked live connections (tests/ops visibility).
    pub fn live_connections(&self) -> usize {
        self.conns.len()
    }

    /// Times a completed write found a reactor worker parked and woke it
    /// (tests/ops visibility).
    pub fn reactor_write_wakes(&self) -> u64 {
        self.worker_shared.iter().map(|ws| ws.write_wakes()).sum()
    }

    /// Chaos knob: force-closes every live connection while the server
    /// keeps accepting new ones. Clients observe exactly what a network
    /// flake looks like — a dropped connection mid-session — and must
    /// reconnect. Returns how many connections were severed.
    pub fn drop_connections(&self) -> usize {
        self.conns.close_all()
    }

    /// Stops accepting new connections, severs every live one (including
    /// connections parked in a blocking command), and joins all server
    /// threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop so it notices the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.conns.close_all();
        for ws in &self.worker_shared {
            ws.poke();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RedisOps};
    use crate::resp::{self, Frame};
    use d4py_sync::ByteBuf;
    use std::io::Read;
    use std::time::Duration;

    #[test]
    fn server_responds_over_tcp() {
        let server = Server::start(0).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.ping().unwrap(), "PONG");
        client.set(b"k", b"v").unwrap();
        assert_eq!(client.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn multiple_clients_share_keyspace() {
        let server = Server::start(0).unwrap();
        let mut c1 = Client::connect(server.addr()).unwrap();
        let mut c2 = Client::connect(server.addr()).unwrap();
        c1.set(b"shared", b"yes").unwrap();
        assert_eq!(c2.get(b"shared").unwrap(), Some(b"yes".to_vec()));
    }

    #[test]
    fn blocking_pop_across_connections() {
        // A consumer-group read is the queue's pop: it parks on one
        // connection until an XADD on another feeds it.
        let server = Server::start(0).unwrap();
        let addr = server.addr();
        let mut pusher = Client::connect(addr).unwrap();
        pusher.xgroup_create(b"jobs", b"workers").unwrap();
        let waiter = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.xreadgroup_one(b"jobs", b"workers", b"w0", Duration::from_secs(2), false)
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(30));
        pusher.xadd(b"jobs", b"task", b"task1").unwrap();
        let (_, fields) = waiter.join().unwrap().expect("the XADD feeds the read");
        assert_eq!(fields, vec![(b"task".to_vec(), b"task1".to_vec())]);
    }

    #[test]
    fn pipelined_commands_all_answered() {
        // Genuinely pipelined: every command hits the socket in ONE write
        // before a single reply byte is read, then all replies are decoded
        // in order from whatever chunking the kernel hands back.
        let server = Server::start(0).unwrap();
        let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
        sock.set_nodelay(true).unwrap();

        let n = 20usize;
        let mut wire = ByteBuf::new();
        for i in 0..n / 2 {
            let key = format!("pk{i}");
            resp::encode_command(
                &[b"SET", key.as_bytes(), format!("v{i}").as_bytes()],
                &mut wire,
            );
        }
        for i in 0..n / 2 {
            let key = format!("pk{i}");
            resp::encode_command(&[b"GET", key.as_bytes()], &mut wire);
        }
        sock.write_all(&wire).unwrap();

        let mut inbox = ByteBuf::new();
        let mut chunk = [0u8; 1024];
        let mut replies = Vec::new();
        while replies.len() < n {
            match resp::decode(&inbox).unwrap() {
                Some((frame, used)) => {
                    let _ = inbox.split_to(used);
                    replies.push(frame);
                }
                None => {
                    let got = sock.read(&mut chunk).unwrap();
                    assert!(got > 0, "server closed mid-pipeline");
                    inbox.extend_from_slice(&chunk[..got]);
                }
            }
        }
        for reply in &replies[..n / 2] {
            assert_eq!(*reply, Frame::ok());
        }
        for (i, reply) in replies[n / 2..].iter().enumerate() {
            assert_eq!(*reply, Frame::bulk(format!("v{i}")), "reply {i}");
        }
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = Server::start(0).unwrap();
        let addr = server.addr();
        server.shutdown();
        std::thread::sleep(Duration::from_millis(10));
        // Either the connect fails outright or the connection is dead.
        if let Ok(mut c) = Client::connect(addr) {
            assert!(c.ping().is_err());
        }
    }

    #[test]
    fn shutdown_closes_live_connections() {
        // Regression: shutdown() used to only stop the accept loop — an
        // already-connected client kept a working session against a
        // detached handler thread that leaked until the peer hung up.
        let mut server = Server::start(0).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.ping().unwrap(), "PONG");
        assert_eq!(server.live_connections(), 1);
        server.shutdown();
        assert!(
            c.ping().is_err(),
            "live connection must be severed by shutdown"
        );
        assert_eq!(server.live_connections(), 0);
    }

    #[test]
    fn drop_connections_severs_but_keeps_accepting() {
        let server = Server::start(0).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.ping().unwrap(), "PONG");
        assert_eq!(server.drop_connections(), 1);
        // The client's reconnect-retry makes an idempotent PING recover
        // transparently; a raw socket sees the severed session.
        let mut fresh = Client::connect(server.addr()).unwrap();
        assert_eq!(fresh.ping().unwrap(), "PONG", "server must keep accepting");
    }

    #[test]
    fn accept_error_classifier() {
        use std::io::ErrorKind;
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
        ] {
            assert!(accept_error_is_transient(kind), "{kind:?}");
        }
        for kind in [ErrorKind::InvalidInput, ErrorKind::NotFound] {
            assert!(!accept_error_is_transient(kind), "{kind:?}");
        }
    }

    #[test]
    fn server_survives_peer_resets_and_keeps_accepting() {
        // Connections that vanish immediately (the closest portable stand-in
        // for ECONNABORTED churn) must not kill the accept loop.
        let server = Server::start(0).unwrap();
        for _ in 0..16 {
            drop(std::net::TcpStream::connect(server.addr()).unwrap());
        }
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.ping().unwrap(), "PONG");
    }
}
