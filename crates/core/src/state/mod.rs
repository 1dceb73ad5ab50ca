//! State externalization for stateful PE instances.
//!
//! The hybrid mapping pins stateful instances to dedicated workers so their
//! state never moves. A [`StateStore`] adds two capabilities on top:
//!
//! * **inspection** — each stateful instance's final state snapshot is saved
//!   at flush time, so operators can examine aggregates after a run;
//! * **warm start** — a subsequent run restores those snapshots before
//!   processing, so a workflow continues aggregating *across sessions*
//!   (incremental processing, the streaming-checkpoint theme of the
//!   paper's §2.4.2 related work, without requiring ordered delivery).
//!
//! Slots are keyed `"<pe-name>#<instance>"`. Every backend stores each
//! slot as a **versioned snapshot frame** (see [`snapshot`]): magic bytes,
//! format version, per-section and whole-file CRC-32 — so codec evolution
//! or storage damage surfaces as a typed
//! [`SnapshotError`](snapshot::SnapshotError) the engine can degrade on,
//! never as silent garbage restored into a PE. The in-memory store lives
//! here; a Redis-backed store ships in the `d4py-redis` crate.

pub mod snapshot;

use crate::error::CoreError;
use crate::value::Value;
use d4py_sync::Mutex;
use snapshot::{decode_slot_payload, encode_slot, Snapshot, SnapshotError};
use std::collections::HashMap;
use std::sync::Arc;

/// A key-value store for stateful instance snapshots.
///
/// `save`/`load` move one slot's [`Value`]; implementations persist the
/// framed form produced by [`snapshot::encode_slot`]. The provided
/// [`save_snapshot`](StateStore::save_snapshot) /
/// [`load_snapshot`](StateStore::load_snapshot) methods move a whole
/// multi-section [`Snapshot`] — the unit of export/import between
/// backends, whose encoding is canonical (byte-identical across backends
/// for the same logical state).
pub trait StateStore: Send + Sync {
    /// Persists the snapshot for `slot`.
    fn save(&self, slot: &str, state: &Value) -> Result<(), CoreError>;
    /// Loads the snapshot for `slot`, if present.
    fn load(&self, slot: &str) -> Result<Option<Value>, CoreError>;
    /// All stored slots, sorted (inspection).
    fn slots(&self) -> Result<Vec<String>, CoreError>;

    /// Saves every section of `snapshot` into its slot.
    fn save_snapshot(&self, snapshot: &Snapshot) -> Result<(), CoreError> {
        for section in snapshot.sections() {
            self.save(&section.slot(), &section.state)?;
        }
        Ok(())
    }

    /// Collects every stored slot into one canonical [`Snapshot`].
    ///
    /// Slots whose names do not parse as `"<pe>#<instance>"` are skipped
    /// (they were not written by the engine).
    fn load_snapshot(&self) -> Result<Snapshot, CoreError> {
        let mut out = Snapshot::new();
        for slot in self.slots()? {
            let Some((pe, instance)) = parse_slot(&slot) else {
                continue;
            };
            if let Some(state) = self.load(&slot)? {
                out.insert(pe, instance, state);
            }
        }
        Ok(out)
    }
}

/// The canonical slot name for a stateful instance.
pub fn slot_name(pe_name: &str, instance: usize) -> String {
    format!("{pe_name}#{instance}")
}

/// Splits a `"<pe>#<instance>"` slot name back into its parts.
///
/// PE names may themselves contain `#`, so the split is on the *last*
/// separator.
pub fn parse_slot(slot: &str) -> Option<(&str, u32)> {
    let (pe, instance) = slot.rsplit_once('#')?;
    if pe.is_empty() {
        return None;
    }
    Some((pe, instance.parse().ok()?))
}

/// In-memory [`StateStore`] (tests, single-session warm starts).
///
/// Stores the *framed* bytes per slot — the same representation the Redis
/// store keeps in its hash — so the format is exercised even when no wire
/// is involved, and frames can be moved byte-for-byte between backends.
#[derive(Debug, Default)]
pub struct MemoryStateStore {
    map: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemoryStateStore {
    /// Creates an empty store.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Injects raw bytes for `slot`, bypassing the encoder.
    ///
    /// This is the fault-injection hook: corruption tests plant damaged
    /// or unframed blobs here, then drive the public load path over them.
    pub fn insert_raw(&self, slot: &str, bytes: Vec<u8>) {
        self.map.lock().insert(slot.to_string(), bytes);
    }

    /// The stored bytes for `slot`, exactly as persisted.
    pub fn raw(&self, slot: &str) -> Option<Vec<u8>> {
        self.map.lock().get(slot).cloned()
    }
}

impl StateStore for MemoryStateStore {
    fn save(&self, slot: &str, state: &Value) -> Result<(), CoreError> {
        let Some((pe, instance)) = parse_slot(slot) else {
            return Err(CoreError::InvalidOptions(format!(
                "state slot '{slot}' is not of the form <pe>#<instance>"
            )));
        };
        let frame = encode_slot(pe, instance, state);
        self.map.lock().insert(slot.to_string(), frame);
        Ok(())
    }

    fn load(&self, slot: &str) -> Result<Option<Value>, CoreError> {
        let bytes = match self.map.lock().get(slot) {
            Some(b) => b.clone(),
            None => return Ok(None),
        };
        Ok(Some(decode_slot_payload(slot, &bytes)?))
    }

    fn slots(&self) -> Result<Vec<String>, CoreError> {
        let mut keys: Vec<String> = self.map.lock().keys().cloned().collect();
        keys.sort();
        Ok(keys)
    }
}

impl From<SnapshotError> for CoreError {
    fn from(e: SnapshotError) -> Self {
        CoreError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_roundtrip() {
        let store = MemoryStateStore::new();
        let state = Value::map([("count", Value::Int(7))]);
        store.save("happyState#2", &state).unwrap();
        assert_eq!(store.load("happyState#2").unwrap(), Some(state));
        assert_eq!(store.load("missing#0").unwrap(), None);
    }

    #[test]
    fn slots_sorted() {
        let store = MemoryStateStore::new();
        store.save("b#0", &Value::Null).unwrap();
        store.save("a#1", &Value::Null).unwrap();
        assert_eq!(
            store.slots().unwrap(),
            vec!["a#1".to_string(), "b#0".to_string()]
        );
    }

    #[test]
    fn slot_name_format() {
        assert_eq!(slot_name("happyState", 3), "happyState#3");
    }

    #[test]
    fn parse_slot_inverts_slot_name() {
        assert_eq!(parse_slot("happyState#3"), Some(("happyState", 3)));
        assert_eq!(parse_slot("a#b#2"), Some(("a#b", 2)));
        assert_eq!(parse_slot("nohash"), None);
        assert_eq!(parse_slot("#1"), None);
        assert_eq!(parse_slot("pe#notanum"), None);
    }

    #[test]
    fn stored_bytes_are_versioned_frames() {
        let store = MemoryStateStore::new();
        store.save("pe#0", &Value::Int(1)).unwrap();
        let raw = store.raw("pe#0").unwrap();
        assert_eq!(&raw[..8], &snapshot::MAGIC);
    }

    #[test]
    fn corrupt_frame_is_a_typed_error() {
        let store = MemoryStateStore::new();
        store.save("pe#0", &Value::Int(1)).unwrap();
        let mut raw = store.raw("pe#0").unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        store.insert_raw("pe#0", raw);
        match store.load("pe#0") {
            Err(CoreError::Snapshot(SnapshotError::FileCrc { .. })) => {}
            other => panic!("expected FileCrc, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_export_import_between_stores() {
        let a = MemoryStateStore::new();
        a.save("x#0", &Value::Int(1)).unwrap();
        a.save("x#1", &Value::Str("s".into())).unwrap();
        let exported = a.load_snapshot().unwrap();

        let b = MemoryStateStore::new();
        b.save_snapshot(&exported).unwrap();
        assert_eq!(b.load_snapshot().unwrap().encode(), exported.encode());
        assert_eq!(b.raw("x#0"), a.raw("x#0"), "per-slot frames byte-identical");
    }
}
