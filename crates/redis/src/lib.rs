//! # redis-lite — an in-memory Redis server, from scratch
//!
//! The substrate behind the paper's Redis mappings (§2.3): an in-memory data
//! structure store speaking RESP2 over TCP, implementing the command subset
//! dispel4py's dynamic and hybrid mappings need — strings, lists, hashes,
//! sets, and crucially **streams with consumer groups** (XADD / XREADGROUP /
//! XACK / XPENDING / XINFO, with per-consumer idle-time tracking that the
//! `dyn_auto_redis` auto-scaler monitors).
//!
//! Layers:
//!
//! * [`resp`] — the wire protocol (incremental decoder + encoder);
//! * [`store`] — the keyspace: typed values, lazy expiry, streams;
//! * [`commands`] — the command handlers, pure functions over the store;
//! * [`engine`] — shared state + blocking semantics (BLPOP, XREAD BLOCK);
//! * [`server`] — the TCP front end (an event-driven reactor);
//! * [`client`] — a blocking client, over TCP or in-process.
//!
//! ```
//! use redis_lite::server::Server;
//! use redis_lite::client::{Client, RedisOps};
//!
//! let server = Server::start(0).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.set(b"greeting", b"hello").unwrap();
//! assert_eq!(client.get(b"greeting").unwrap(), Some(b"hello".to_vec()));
//! ```

#![warn(missing_docs)]

pub mod aof;
pub mod client;
pub mod commands;
pub mod engine;
pub(crate) mod reactor;
pub mod resp;
pub mod server;
pub mod store;

pub use aof::{Aof, FsyncPolicy};
pub use client::{Client, ClientError, Connection, InProcClient, RedisOps};
pub use engine::Shared;
pub use server::{Server, ServerConfig};
