//! [`StateStore`] trait-conformance suite, mirroring
//! `queue_conformance.rs`.
//!
//! Warm starts are written once against the trait, so every backend must
//! agree on the observable contract: save/load roundtrips, `None` for
//! missing slots, overwrite-keeps-latest, sorted slot listings, safe
//! concurrent saves from multiple instances, typed errors for damaged
//! frames, and `BadMagic` for unframed blobs. Runs against both
//! implementations — the
//! in-memory [`MemoryStateStore`] and the Redis-hash [`RedisStateStore`]
//! (in-proc backend).
//!
//! The suite also pins the acceptance criterion of the versioned format:
//! because per-slot frames and whole-snapshot encodings are **canonical**,
//! a snapshot written through one backend loads **byte-identically**
//! through the other, in both directions.

use dispel4py::core::error::CoreError;
use dispel4py::core::state::snapshot::{Snapshot, SnapshotError, MAGIC};
use dispel4py::core::state::{MemoryStateStore, StateStore};
use dispel4py::prelude::*;
use dispel4py::redis::{RedisBackend, RedisStateStore};
use std::sync::Arc;

/// Uniform test-facade over the backends' raw-bytes hooks, whose inherent
/// signatures differ (the Redis store can fail on the wire).
trait RawStore: StateStore {
    fn put_raw(&self, slot: &str, bytes: &[u8]);
    fn get_raw(&self, slot: &str) -> Option<Vec<u8>>;
}

impl RawStore for MemoryStateStore {
    fn put_raw(&self, slot: &str, bytes: &[u8]) {
        self.insert_raw(slot, bytes.to_vec());
    }
    fn get_raw(&self, slot: &str) -> Option<Vec<u8>> {
        self.raw(slot)
    }
}

impl RawStore for RedisStateStore {
    fn put_raw(&self, slot: &str, bytes: &[u8]) {
        self.insert_raw(slot, bytes).unwrap();
    }
    fn get_raw(&self, slot: &str) -> Option<Vec<u8>> {
        self.raw(slot).unwrap()
    }
}

/// Builds each backend fresh for one conformance case.
fn backends() -> Vec<(&'static str, Arc<dyn RawStore>)> {
    vec![
        ("memory", MemoryStateStore::new() as Arc<dyn RawStore>),
        (
            "redis-hash",
            Arc::new(RedisStateStore::new(&RedisBackend::in_proc(), "conformance:state").unwrap()),
        ),
    ]
}

fn sample_state() -> Value {
    Value::map([
        ("Texas", Value::list([Value::Float(12.5), Value::Int(4)])),
        ("Ohio", Value::list([Value::Float(-3.0), Value::Int(2)])),
    ])
}

#[test]
fn roundtrip_and_missing_slot() {
    for (name, store) in backends() {
        store.save("happyState#1", &sample_state()).unwrap();
        assert_eq!(
            store.load("happyState#1").unwrap(),
            Some(sample_state()),
            "{name}"
        );
        assert_eq!(
            store.load("happyState#9").unwrap(),
            None,
            "{name}: missing slot must be None, not an error"
        );
    }
}

#[test]
fn overwrite_keeps_latest() {
    for (name, store) in backends() {
        store.save("s#0", &Value::Int(1)).unwrap();
        store.save("s#0", &Value::Int(2)).unwrap();
        assert_eq!(store.load("s#0").unwrap(), Some(Value::Int(2)), "{name}");
        assert_eq!(store.slots().unwrap().len(), 1, "{name}: no duplicate slot");
    }
}

#[test]
fn slots_are_sorted() {
    for (name, store) in backends() {
        for slot in ["b#1", "a#10", "a#2", "c#0"] {
            store.save(slot, &Value::Null).unwrap();
        }
        assert_eq!(
            store.slots().unwrap(),
            vec!["a#10", "a#2", "b#1", "c#0"],
            "{name}: listing must be lexicographically sorted"
        );
    }
}

#[test]
fn malformed_slot_names_are_rejected() {
    for (name, store) in backends() {
        for bad in ["nohash", "#1", "pe#notanum", ""] {
            match store.save(bad, &Value::Int(1)) {
                Err(CoreError::InvalidOptions(_)) => {}
                other => panic!("{name}: slot '{bad}' must be rejected, got {other:?}"),
            }
        }
    }
}

#[test]
fn stored_bytes_are_versioned_frames() {
    for (name, store) in backends() {
        store.save("pe#0", &Value::Int(7)).unwrap();
        let raw = store.get_raw("pe#0").expect("bytes stored");
        assert_eq!(&raw[..8], &MAGIC, "{name}: stored form must be framed");
    }
}

#[test]
fn concurrent_saves_from_multiple_instances_all_land() {
    const INSTANCES: u32 = 8;
    for (name, store) in backends() {
        std::thread::scope(|scope| {
            for i in 0..INSTANCES {
                let store = &store;
                scope.spawn(move || {
                    // Each pinned instance saves its own slot repeatedly, as
                    // instances do at flush; last write per slot wins.
                    for round in 0..10 {
                        store
                            .save(
                                &format!("happyState#{i}"),
                                &Value::map([("round", Value::Int(round))]),
                            )
                            .unwrap();
                    }
                });
            }
        });
        let slots = store.slots().unwrap();
        assert_eq!(slots.len(), INSTANCES as usize, "{name}: {slots:?}");
        for i in 0..INSTANCES {
            assert_eq!(
                store.load(&format!("happyState#{i}")).unwrap(),
                Some(Value::map([("round", Value::Int(9))])),
                "{name}: instance {i} lost its final save"
            );
        }
    }
}

#[test]
fn damaged_frames_are_typed_errors_everywhere() {
    for (name, store) in backends() {
        store.save("pe#0", &sample_state()).unwrap();
        let mut raw = store.get_raw("pe#0").unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x08;
        store.put_raw("pe#0", &raw);
        match store.load("pe#0") {
            Err(CoreError::Snapshot(SnapshotError::FileCrc { .. })) => {}
            other => panic!("{name}: expected FileCrc, got {other:?}"),
        }
    }
}

#[test]
fn misfiled_frames_are_slot_mismatches_everywhere() {
    for (name, store) in backends() {
        store.save("pe#0", &Value::Int(1)).unwrap();
        let frame = store.get_raw("pe#0").unwrap();
        store.put_raw("pe#1", &frame); // operator copied the wrong field
        match store.load("pe#1") {
            Err(CoreError::Snapshot(SnapshotError::SlotMismatch { .. })) => {}
            other => panic!("{name}: expected SlotMismatch, got {other:?}"),
        }
    }
}

#[test]
fn unframed_blobs_are_bad_magic_everywhere() {
    for (name, store) in backends() {
        // A bare codec blob, as builds before the versioned format stored.
        let unframed = dispel4py::core::codec::encode_value(&sample_state());
        store.put_raw("old#3", &unframed);
        match store.load("old#3") {
            Err(CoreError::Snapshot(SnapshotError::BadMagic)) => {}
            other => panic!("{name}: expected BadMagic, got {other:?}"),
        }
        // Saving over it writes the framed form, which loads.
        store.save("old#3", &sample_state()).unwrap();
        assert_eq!(&store.get_raw("old#3").unwrap()[..8], &MAGIC, "{name}");
        assert_eq!(store.load("old#3").unwrap(), Some(sample_state()), "{name}");
    }
}

// ------------------------------------------------ cross-backend identity

/// The acceptance criterion: a v1 snapshot written by one backend loads
/// byte-identically through the other, in both directions.
#[test]
fn per_slot_frames_are_byte_identical_across_backends() {
    let stores = backends();
    // Save the same logical state through every backend, in *different*
    // slot orders — canonical encoding must erase the difference.
    let states = [
        ("happyState#0", sample_state()),
        ("happyState#1", Value::map([("Utah", Value::Int(1))])),
        ("topPairs#0", Value::list([Value::Str("a×b".into())])),
    ];
    for (i, (_, store)) in stores.iter().enumerate() {
        let mut order: Vec<_> = states.iter().collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for (slot, state) in order {
            store.save(slot, state).unwrap();
        }
    }
    let (a_name, a) = &stores[0];
    let (b_name, b) = &stores[1];
    for (slot, _) in &states {
        assert_eq!(
            a.get_raw(slot),
            b.get_raw(slot),
            "{a_name} vs {b_name}: slot {slot} frames differ"
        );
    }
}

#[test]
fn frames_transplant_between_backends_in_both_directions() {
    let stores = backends();
    for (from_idx, to_idx) in [(0, 1), (1, 0)] {
        let (from_name, from) = &stores[from_idx];
        let (to_name, to) = &stores[to_idx];
        let slot = format!("moved{from_idx}#0");
        from.save(&slot, &sample_state()).unwrap();
        // Move the raw frame byte-for-byte, as an operator would copy a
        // Redis hash field into a file or back.
        let frame = from.get_raw(&slot).unwrap();
        to.put_raw(&slot, &frame);
        assert_eq!(
            to.load(&slot).unwrap(),
            Some(sample_state()),
            "{from_name} → {to_name}: transplanted frame must load unchanged"
        );
        assert_eq!(
            to.get_raw(&slot).unwrap(),
            frame,
            "{from_name} → {to_name}: stored bytes must be untouched"
        );
    }
}

#[test]
fn whole_snapshot_export_import_is_canonical_across_backends() {
    let stores = backends();
    let mut expected = Snapshot::new();
    expected.insert("happyState", 0, sample_state());
    expected.insert("happyState", 2, Value::map([("Iowa", Value::Int(5))]));
    expected.insert("counter", 0, Value::Int(41));

    for (from_idx, to_idx) in [(0, 1), (1, 0)] {
        let (from_name, from) = &stores[from_idx];
        let (to_name, to) = &stores[to_idx];
        from.save_snapshot(&expected).unwrap();
        let exported = from.load_snapshot().unwrap();
        assert_eq!(
            exported.encode(),
            expected.encode(),
            "{from_name}: exported snapshot must be canonical"
        );
        to.save_snapshot(&exported).unwrap();
        assert_eq!(
            to.load_snapshot().unwrap().encode(),
            expected.encode(),
            "{from_name} → {to_name}: import must reproduce identical bytes"
        );
    }
}

#[test]
fn foreign_slot_names_are_skipped_by_snapshot_export() {
    for (name, store) in backends() {
        store.save("pe#0", &Value::Int(1)).unwrap();
        // A key some other tool parked in the same hash/map: not a slot.
        store.put_raw("not-a-slot", b"whatever");
        let snap = store.load_snapshot().unwrap();
        assert_eq!(snap.len(), 1, "{name}: foreign keys must not be exported");
        assert_eq!(snap.get("pe", 0), Some(&Value::Int(1)), "{name}");
    }
}
