//! Redis-backed [`StateStore`]: stateful instance snapshots in a Redis
//! hash, each field holding a **versioned snapshot frame** (see
//! [`d4py_core::state::snapshot`]).
//!
//! This is the deployment-grade sibling of the in-memory store: snapshots
//! survive the workflow process, are inspectable with plain `HKEYS`/`HGET`, and
//! can warm-start a later run on a different machine that shares the
//! Redis. Because both stores persist the identical framed bytes, a
//! snapshot written through one loads byte-identically through the other
//! — the cross-backend conformance suite pins that.
//!
//! Fields written by pre-versioned builds (bare codec blobs, no magic)
//! still load once through the deprecated legacy shim and are re-saved
//! framed on the next flush.

use crate::backend::RedisBackend;
use d4py_core::error::CoreError;
use d4py_core::state::snapshot::{decode_slot_payload, encode_slot};
use d4py_core::state::{parse_slot, StateStore};
use d4py_core::value::Value;
use d4py_sync::Mutex;
use redis_lite::client::Connection;
use redis_lite::resp::Frame;

/// Snapshots stored under one Redis hash key.
pub struct RedisStateStore {
    conn: Mutex<Box<dyn Connection>>,
    key: Vec<u8>,
}

impl RedisStateStore {
    /// Opens a store over `backend`, keyed by `key` (e.g.
    /// `"d4py:state:sentiment"`).
    pub fn new(backend: &RedisBackend, key: impl Into<Vec<u8>>) -> Result<Self, CoreError> {
        Ok(Self {
            conn: Mutex::new(backend.connect()?),
            key: key.into(),
        })
    }

    /// Writes raw bytes for `slot`, bypassing the frame encoder — the
    /// fault-injection / legacy-migration hook, mirroring
    /// [`MemoryStateStore::insert_raw`](d4py_core::state::MemoryStateStore::insert_raw).
    pub fn insert_raw(&self, slot: &str, bytes: &[u8]) -> Result<(), CoreError> {
        let mut conn = self.conn.lock();
        match conn
            .request(&[b"HSET", &self.key, slot.as_bytes(), bytes])
            .map_err(|e| CoreError::Queue(e.to_string()))?
        {
            Frame::Integer(_) => Ok(()),
            Frame::Error(e) => Err(CoreError::Queue(e)),
            other => Err(CoreError::Queue(format!("unexpected HSET reply {other:?}"))),
        }
    }

    /// The stored bytes for `slot`, exactly as persisted.
    pub fn raw(&self, slot: &str) -> Result<Option<Vec<u8>>, CoreError> {
        let mut conn = self.conn.lock();
        match conn
            .request(&[b"HGET", &self.key, slot.as_bytes()])
            .map_err(|e| CoreError::Queue(e.to_string()))?
        {
            Frame::Null => Ok(None),
            Frame::Bulk(bytes) => Ok(Some(bytes.to_vec())),
            Frame::Error(e) => Err(CoreError::Queue(e)),
            other => Err(CoreError::Queue(format!("unexpected HGET reply {other:?}"))),
        }
    }
}

impl StateStore for RedisStateStore {
    fn save(&self, slot: &str, state: &Value) -> Result<(), CoreError> {
        let Some((pe, instance)) = parse_slot(slot) else {
            return Err(CoreError::InvalidOptions(format!(
                "state slot '{slot}' is not of the form <pe>#<instance>"
            )));
        };
        let frame = encode_slot(pe, instance, state);
        self.insert_raw(slot, &frame)
    }

    fn load(&self, slot: &str) -> Result<Option<Value>, CoreError> {
        match self.raw(slot)? {
            None => Ok(None),
            Some(bytes) => Ok(Some(decode_slot_payload(slot, &bytes)?)),
        }
    }

    fn slots(&self) -> Result<Vec<String>, CoreError> {
        let mut conn = self.conn.lock();
        match conn
            .request(&[b"HKEYS", &self.key])
            .map_err(|e| CoreError::Queue(e.to_string()))?
        {
            Frame::Array(items) => {
                let mut out: Vec<String> = items.iter().filter_map(Frame::as_text).collect();
                out.sort();
                Ok(out)
            }
            Frame::Error(e) => Err(CoreError::Queue(e)),
            other => Err(CoreError::Queue(format!(
                "unexpected HKEYS reply {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d4py_core::state::snapshot::{SnapshotError, MAGIC};

    #[test]
    fn roundtrip_through_redis() {
        let store = RedisStateStore::new(&RedisBackend::in_proc(), "d4py:state:test").unwrap();
        let state = Value::map([
            ("Texas", Value::list([Value::Float(12.5), Value::Int(4)])),
            ("Ohio", Value::list([Value::Float(-3.0), Value::Int(2)])),
        ]);
        store.save("happyState#1", &state).unwrap();
        assert_eq!(store.load("happyState#1").unwrap(), Some(state));
        assert_eq!(store.load("happyState#2").unwrap(), None);
        assert_eq!(store.slots().unwrap(), vec!["happyState#1".to_string()]);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let store = RedisStateStore::new(&RedisBackend::in_proc(), "k").unwrap();
        store.save("s#0", &Value::Int(1)).unwrap();
        store.save("s#0", &Value::Int(2)).unwrap();
        assert_eq!(store.load("s#0").unwrap(), Some(Value::Int(2)));
    }

    #[test]
    fn stored_hash_fields_are_versioned_frames() {
        let store = RedisStateStore::new(&RedisBackend::in_proc(), "k2").unwrap();
        store.save("s#0", &Value::Int(1)).unwrap();
        let raw = store.raw("s#0").unwrap().unwrap();
        assert_eq!(&raw[..8], &MAGIC);
    }

    #[test]
    fn damaged_frame_is_a_typed_error() {
        let store = RedisStateStore::new(&RedisBackend::in_proc(), "k3").unwrap();
        store.save("s#0", &Value::Int(1)).unwrap();
        let mut raw = store.raw("s#0").unwrap().unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        store.insert_raw("s#0", &raw).unwrap();
        match store.load("s#0") {
            Err(CoreError::Snapshot(SnapshotError::FileCrc { .. })) => {}
            other => panic!("expected FileCrc, got {other:?}"),
        }
    }

    #[test]
    fn legacy_unframed_field_still_loads() {
        let store = RedisStateStore::new(&RedisBackend::in_proc(), "k4").unwrap();
        let state = Value::map([("k", Value::Int(9))]);
        store
            .insert_raw("s#0", &d4py_core::codec::encode_value(&state))
            .unwrap();
        assert_eq!(store.load("s#0").unwrap(), Some(state));
    }
}
