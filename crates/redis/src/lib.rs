//! # redis-lite — an in-memory Redis server, from scratch
//!
//! The substrate behind the paper's Redis mappings (§2.3): an in-memory data
//! structure store speaking RESP2 over TCP, serving the commands
//! dispel4py's dynamic and hybrid mappings send — **streams with consumer
//! groups** (XADD / XREADGROUP / XACK / XAUTOCLAIM / XINFO CONSUMERS, with
//! per-consumer idle-time tracking that the `dyn_auto_redis` auto-scaler
//! monitors), `HSET`/`HGET`/`HKEYS` for the state store, `SET`/`GET`, and
//! the keyspace and connection verbs `redis-cli` needs. Keys never expire.
//!
//! Layers:
//!
//! * [`resp`] — the wire protocol (incremental decoder + encoder);
//! * [`store`] — the keyspace: strings, hashes and streams;
//! * [`commands`] — the dispatch table: each handler, a pure function over
//!   the store, with its read/write class;
//! * [`engine`] — shared state + blocking reads (`XREAD`/`XREADGROUP ...
//!   BLOCK`) + AOF;
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
