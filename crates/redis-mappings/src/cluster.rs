//! Hash-slot sharding across redis-lite instances.
//!
//! A single redis-lite accept loop tops out well before the dispatch layer
//! does, so `dyn_redis`/`hybrid_redis` shard their stream and state keys
//! across N servers the way Redis Cluster does: every key hashes to one of
//! [`SLOTS`] slots (CRC32, hashtag-aware), and slots map onto shards in
//! contiguous ranges. Routing lives entirely client-side —
//! [`ClusterConnection`] implements [`Connection`], so the queue, the state
//! store, and every `RedisOps` helper work unchanged over a cluster.
//!
//! Shard-spanning commands (FLUSHALL, DBSIZE, KEYS, PING) fan out to every
//! shard and aggregate the replies; everything keyed routes to exactly one
//! shard. Pipelines ([`Connection::request_many`]) are split into per-shard
//! sub-pipelines and the replies reassembled in submission order, so a
//! batched XADD burst still pays ~one round-trip per shard, not per command.

use d4py_sync::crc::crc32;
use redis_lite::client::{ClientError, Connection};
use redis_lite::resp::Frame;

/// Number of hash slots, matching Redis Cluster's fixed table size.
pub const SLOTS: u16 = 16384;

/// The slot a key hashes to. Honors Redis Cluster hashtags: if the key
/// contains `{...}` with a non-empty body, only the body is hashed, so
/// callers can pin related keys (a stream and its dead-letter sibling,
/// say) to the same shard with `{job}:q` / `{job}:dlq`.
pub fn key_slot(key: &[u8]) -> u16 {
    (crc32(hashtag(key).unwrap_or(key)) % SLOTS as u32) as u16
}

/// The non-empty body of the first `{...}` in `key`, if any.
fn hashtag(key: &[u8]) -> Option<&[u8]> {
    let open = key.iter().position(|&b| b == b'{')?;
    let close = key[open + 1..].iter().position(|&b| b == b'}')?;
    if close == 0 {
        return None; // "{}" hashes the whole key, like Redis
    }
    Some(&key[open + 1..open + 1 + close])
}

/// Maps a slot onto one of `shards` servers as a contiguous range —
/// monotone in `slot`, covers every shard, stable for a fixed shard count.
pub fn slot_shard(slot: u16, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (slot as usize * shards) / SLOTS as usize
}

/// The shard a key routes to in an `shards`-wide cluster.
pub fn key_shard(key: &[u8], shards: usize) -> usize {
    slot_shard(key_slot(key), shards)
}

/// How replies from a fan-out command are folded into one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// All shards should agree (e.g. `FLUSHALL` → `+OK`); first error wins,
    /// else the first reply.
    First,
    /// Sum integer replies (e.g. `DBSIZE`).
    Sum,
    /// Concatenate array replies (e.g. `KEYS`).
    Concat,
}

/// Where one command goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Exactly one shard, by key hash.
    Shard(usize),
    /// Every shard, replies folded per [`Agg`].
    Broadcast(Agg),
}

/// Routing decision for `args` in an `shards`-wide cluster.
///
/// Key extraction mirrors the command table in
/// `crates/redis/src/commands/mod.rs`: most verbs key on `args[1]`,
/// `XGROUP`/`XINFO` on `args[2]`, and the stream-read family on the first
/// key after its `STREAMS` marker. Keyless verbs pin to shard 0 so
/// repeated calls stay on one connection.
pub fn route(args: &[&[u8]], shards: usize) -> Route {
    if shards <= 1 {
        return Route::Shard(0);
    }
    let Some(verb) = args.first() else {
        return Route::Shard(0);
    };
    let verb = verb.to_ascii_uppercase();
    match verb.as_slice() {
        b"FLUSHALL" | b"FLUSHDB" => Route::Broadcast(Agg::First),
        b"PING" => Route::Broadcast(Agg::First),
        b"DBSIZE" => Route::Broadcast(Agg::Sum),
        b"KEYS" => Route::Broadcast(Agg::Concat),
        b"XGROUP" | b"XINFO" => match args.get(2) {
            Some(key) => Route::Shard(key_shard(key, shards)),
            None => Route::Shard(0),
        },
        b"XREAD" | b"XREADGROUP" => {
            // First key after the STREAMS marker; redis-lite reads one
            // stream per call, and cross-shard multi-stream reads are
            // rejected server-side anyway (slot mismatch in real Redis).
            let streams = args.iter().position(|a| a.eq_ignore_ascii_case(b"STREAMS"));
            match streams.and_then(|i| args.get(i + 1)) {
                Some(key) => Route::Shard(key_shard(key, shards)),
                None => Route::Shard(0),
            }
        }
        _ => match args.get(1) {
            Some(key) => Route::Shard(key_shard(key, shards)),
            None => Route::Shard(0),
        },
    }
}

fn fold(replies: Vec<Frame>, agg: Agg) -> Frame {
    match agg {
        Agg::First => replies
            .iter()
            .find(|f| f.is_error())
            .cloned()
            .or_else(|| replies.into_iter().next())
            .unwrap_or_else(|| Frame::error("cluster: no shards")),
        Agg::Sum => {
            let mut total = 0i64;
            for f in replies {
                match f {
                    Frame::Integer(n) => total += n,
                    err @ Frame::Error(_) => return err,
                    other => {
                        return Frame::error(format!("cluster: expected integer, got {other:?}"))
                    }
                }
            }
            Frame::Integer(total)
        }
        Agg::Concat => {
            let mut all = Vec::new();
            for f in replies {
                match f {
                    Frame::Array(items) => all.extend(items),
                    Frame::Null | Frame::NullArray => {}
                    err @ Frame::Error(_) => return err,
                    other => {
                        return Frame::error(format!("cluster: expected array, got {other:?}"))
                    }
                }
            }
            Frame::Array(all)
        }
    }
}

/// One logical connection spanning every shard: holds one underlying
/// connection per shard and routes each command by key slot.
pub struct ClusterConnection {
    shards: Vec<Box<dyn Connection>>,
}

impl ClusterConnection {
    /// Builds a cluster connection from one connection per shard (order
    /// defines shard indices and must be consistent across clients).
    pub fn new(shards: Vec<Box<dyn Connection>>) -> Self {
        assert!(!shards.is_empty(), "cluster needs at least one shard");
        ClusterConnection { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl Connection for ClusterConnection {
    fn request(&mut self, args: &[&[u8]]) -> Result<Frame, ClientError> {
        match route(args, self.shards.len()) {
            Route::Shard(i) => self.shards[i].request(args),
            Route::Broadcast(agg) => {
                let mut replies = Vec::with_capacity(self.shards.len());
                for shard in &mut self.shards {
                    replies.push(shard.request(args)?);
                }
                Ok(fold(replies, agg))
            }
        }
    }

    fn request_many(&mut self, cmds: &[&[&[u8]]]) -> Result<Vec<Frame>, ClientError> {
        if cmds.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.shards.len();
        // Partition the batch: per-shard sub-pipelines for keyed commands,
        // broadcasts executed standalone (they're rare and already fan out).
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut broadcasts: Vec<usize> = Vec::new();
        for (i, cmd) in cmds.iter().enumerate() {
            match route(cmd, n) {
                Route::Shard(s) => per_shard[s].push(i),
                Route::Broadcast(_) => broadcasts.push(i),
            }
        }
        let mut out: Vec<Option<Frame>> = (0..cmds.len()).map(|_| None).collect();
        for (s, idxs) in per_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let sub: Vec<&[&[u8]]> = idxs.iter().map(|&i| cmds[i]).collect();
            let replies = self.shards[s].request_many(&sub)?;
            if replies.len() != sub.len() {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "cluster: pipeline reply count mismatch",
                )));
            }
            for (&i, reply) in idxs.iter().zip(replies) {
                out[i] = Some(reply);
            }
        }
        for i in broadcasts {
            out[i] = Some(self.request(cmds[i])?);
        }
        Ok(out
            .into_iter()
            .map(|f| f.unwrap_or_else(|| Frame::error("cluster: unrouted command")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RedisBackend;
    use redis_lite::client::RedisOps;

    #[test]
    fn slots_are_stable_and_in_range() {
        for key in [&b"q"[..], b"state:pe7", b"a-much-longer-stream-key"] {
            let s = key_slot(key);
            assert!(s < SLOTS);
            assert_eq!(s, key_slot(key), "slot must be deterministic");
        }
        // Distinct keys spread (sanity, not a distribution proof).
        let a = key_slot(b"stream:0");
        let b = key_slot(b"stream:1");
        assert_ne!(a, b);
    }

    #[test]
    fn hashtag_pins_related_keys_together() {
        assert_eq!(key_slot(b"{job}:q"), key_slot(b"{job}:dlq"));
        assert_eq!(key_slot(b"{job}:q"), key_slot(b"job"));
        // Empty tag falls back to whole-key hashing.
        assert_ne!(key_slot(b"{}:a"), key_slot(b"{}:b"));
    }

    #[test]
    fn slot_shard_is_monotone_and_covers_all_shards() {
        for shards in [1usize, 2, 3, 4, 7] {
            let mut seen = vec![false; shards];
            let mut prev = 0usize;
            for slot in 0..SLOTS {
                let s = slot_shard(slot, shards);
                assert!(s < shards);
                assert!(s >= prev, "shard map must be monotone in slot");
                prev = s;
                seen[s] = true;
            }
            assert!(seen.iter().all(|&x| x), "every shard owns some slots");
        }
    }

    #[test]
    fn route_extracts_the_right_key_position() {
        let shards = 4;
        let want = Route::Shard(key_shard(b"q", shards));
        assert_eq!(route(&[b"XADD", b"q", b"*", b"f", b"v"], shards), want);
        assert_eq!(route(&[b"XRANGE", b"q", b"-", b"+"], shards), want);
        assert_eq!(
            route(&[b"XGROUP", b"CREATE", b"q", b"g", b"0"], shards),
            want
        );
        assert_eq!(route(&[b"XINFO", b"CONSUMERS", b"q", b"g"], shards), want);
        assert_eq!(
            route(
                &[b"XREADGROUP", b"GROUP", b"g", b"c", b"STREAMS", b"q", b">"],
                shards
            ),
            want
        );
        assert_eq!(route(&[b"FLUSHALL"], shards), Route::Broadcast(Agg::First));
        assert_eq!(route(&[b"DBSIZE"], shards), Route::Broadcast(Agg::Sum));
        assert_eq!(
            route(&[b"KEYS", b"*"], shards),
            Route::Broadcast(Agg::Concat)
        );
        // Single shard short-circuits everything to shard 0.
        assert_eq!(
            route(&[b"XADD", b"q", b"*", b"f", b"v"], 1),
            Route::Shard(0)
        );
    }

    fn two_shard_cluster() -> ClusterConnection {
        let a = RedisBackend::in_proc();
        let b = RedisBackend::in_proc();
        ClusterConnection::new(vec![a.connect().unwrap(), b.connect().unwrap()])
    }

    #[test]
    fn cluster_roundtrips_keys_and_aggregates_dbsize() {
        let mut c = two_shard_cluster();
        for i in 0..32 {
            let key = format!("k{i}");
            c.set(key.as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        for i in 0..32 {
            let key = format!("k{i}");
            assert_eq!(
                c.get(key.as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "{key}"
            );
        }
        let total = c.request(&[b"DBSIZE"]).unwrap();
        assert_eq!(total, Frame::Integer(32));
        c.request(&[b"FLUSHALL"]).unwrap();
        assert_eq!(c.request(&[b"DBSIZE"]).unwrap(), Frame::Integer(0));
    }

    #[test]
    fn pipeline_reassembles_replies_in_submission_order() {
        let mut c = two_shard_cluster();
        let keys: Vec<String> = (0..16).map(|i| format!("pk{i}")).collect();
        // Interleave SETs and GETs so shard sub-pipelines must be re-woven.
        let mut owned: Vec<Vec<Vec<u8>>> = Vec::new();
        for k in &keys {
            owned.push(vec![
                b"SET".to_vec(),
                k.as_bytes().to_vec(),
                k.as_bytes().to_vec(),
            ]);
            owned.push(vec![b"GET".to_vec(), k.as_bytes().to_vec()]);
        }
        let borrowed: Vec<Vec<&[u8]>> = owned
            .iter()
            .map(|c| c.iter().map(Vec::as_slice).collect())
            .collect();
        let batch: Vec<&[&[u8]]> = borrowed.iter().map(Vec::as_slice).collect();
        let replies = c.request_many(&batch).unwrap();
        assert_eq!(replies.len(), batch.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(replies[2 * i], Frame::ok(), "SET {k}");
            assert_eq!(replies[2 * i + 1], Frame::bulk(k.clone()), "GET {k}");
        }
    }

    #[test]
    fn stream_workflow_runs_over_a_cluster() {
        let mut c = two_shard_cluster();
        c.xgroup_create(b"jobs", b"g").unwrap();
        let id = c.xadd(b"jobs", b"task", b"t1").unwrap();
        let entries = c.request(&[b"XRANGE", b"jobs", b"-", b"+"]).unwrap();
        assert_eq!(entries.as_array().map(<[Frame]>::len), Some(1));
        let (got, fields) = c
            .xreadgroup_one(
                b"jobs",
                b"g",
                b"w0",
                std::time::Duration::from_millis(50),
                false,
            )
            .unwrap()
            .unwrap();
        assert_eq!(got, id);
        assert_eq!(fields, vec![(b"task".to_vec(), b"t1".to_vec())]);
        assert_eq!(c.xack(b"jobs", b"g", &got).unwrap(), 1);
    }
}
