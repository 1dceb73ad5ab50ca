//! The versioned, integrity-checked snapshot container for externalized
//! PE state.
//!
//! Warm-starts must survive codec evolution and storage damage, so stored
//! state is never a bare codec blob: it is wrapped in a **self-describing
//! frame** with magic bytes, an explicit format version, per-section
//! CRC-32 checksums, and a whole-file checksum. Decoding a damaged,
//! truncated, or future-versioned frame yields a typed [`SnapshotError`]
//! — never a panic, never silent garbage — so the engine can skip the
//! warm start with a reported reason and fall back to a cold start.
//!
//! ## Frame layout (format version 1, all integers little-endian)
//!
//! ```text
//! ┌──────────┬─────────┬───────┬───────────┬────────────┬───────────┐
//! │ magic    │ version │ flags │ section   │ sections…  │ file      │
//! │ 8 bytes  │ u16     │ u16   │ count u32 │            │ CRC32 u32 │
//! │ D4PYSNAP │ = 1     │ = 0   │           │            │           │
//! └──────────┴─────────┴───────┴───────────┴────────────┴───────────┘
//!
//! section := ┌────────────┬─────────┬──────────┬─────────────┬─────────┬───────────┐
//!            │ name len   │ pe name │ instance │ payload len │ payload │ section   │
//!            │ u32        │ UTF-8   │ u32      │ u32         │ codec   │ CRC32 u32 │
//!            └────────────┴─────────┴──────────┴─────────────┴─────────┴───────────┘
//! ```
//!
//! The section CRC covers the section's own bytes (name length through
//! payload); the file CRC covers everything before it (header included).
//! Sections are kept sorted by `(pe, instance)`, so the encoding of a
//! given logical snapshot is **canonical**: the same state produces the
//! same bytes no matter which backend wrote it or in which order sections
//! were added — the property the cross-backend conformance suite pins.

use crate::codec::{decode_value, encode_value};
use crate::error::CodecError;
use crate::value::Value;
use d4py_sync::crc::crc32;
use d4py_sync::ByteBuf;

/// Frame magic: the first eight bytes of every versioned snapshot.
pub const MAGIC: [u8; 8] = *b"D4PYSNAP";
/// Current (and only) frame format version.
pub const FORMAT_VERSION: u16 = 1;
/// Flag bits defined in v1: none. Any set bit is from the future.
pub const KNOWN_FLAGS: u16 = 0;

/// Everything that can go wrong decoding a snapshot frame.
///
/// The taxonomy is deliberately fine-grained: the corruption
/// fault-injection suite asserts the *precise* variant for each damage
/// class, so a regression that collapses distinct failures into one
/// (or into a panic) is caught.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with [`MAGIC`] — not a versioned frame.
    BadMagic,
    /// The frame declares a version this build does not understand.
    UnsupportedVersion(u16),
    /// The frame sets flag bits this build does not know (future feature).
    UnknownFlags(u16),
    /// The input ended before a complete header or section was read.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A section's checksum does not match its bytes.
    SectionCrc {
        /// Zero-based index of the damaged section.
        section: usize,
    },
    /// The whole-file checksum does not match the frame bytes.
    FileCrc {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the frame bytes.
        computed: u32,
    },
    /// A section payload or name failed codec-level decoding.
    Payload(CodecError),
    /// Bytes remained after the file checksum.
    TrailingBytes(usize),
    /// A single-slot frame describes a different slot than requested.
    SlotMismatch {
        /// Slot the caller asked for.
        expected: String,
        /// Slot the frame actually contains.
        found: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad magic: not a snapshot frame"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::UnknownFlags(bits) => {
                write!(f, "unknown snapshot flags 0x{bits:04x}")
            }
            SnapshotError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated frame: needed {needed} bytes, {remaining} remain"
                )
            }
            SnapshotError::SectionCrc { section } => {
                write!(f, "CRC mismatch in section {section}")
            }
            SnapshotError::FileCrc { stored, computed } => {
                write!(
                    f,
                    "file CRC mismatch: stored 0x{stored:08x}, computed 0x{computed:08x}"
                )
            }
            SnapshotError::Payload(e) => write!(f, "section payload: {e}"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after file checksum")
            }
            SnapshotError::SlotMismatch { expected, found } => {
                write!(
                    f,
                    "slot mismatch: frame holds '{found}', expected '{expected}'"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Payload(e)
    }
}

/// One stateful slot's externalized state inside a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Name of the stateful PE.
    pub pe: String,
    /// Instance index of the pinned slot.
    pub instance: u32,
    /// The instance's state, as produced by
    /// [`ProcessingElement::snapshot`](crate::pe::ProcessingElement::snapshot).
    pub state: Value,
}

impl Section {
    /// The canonical `"<pe>#<instance>"` slot name of this section.
    pub fn slot(&self) -> String {
        super::slot_name(&self.pe, self.instance as usize)
    }
}

/// A decoded (or to-be-encoded) snapshot: an ordered set of per-slot
/// sections with a canonical byte form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    sections: Vec<Section>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the state for `(pe, instance)`, keeping sections
    /// sorted so the encoding stays canonical regardless of insert order.
    pub fn insert(&mut self, pe: impl Into<String>, instance: u32, state: Value) {
        let pe = pe.into();
        match self
            .sections
            .binary_search_by(|s| (s.pe.as_str(), s.instance).cmp(&(pe.as_str(), instance)))
        {
            Ok(i) => self.sections[i].state = state,
            Err(i) => self.sections.insert(
                i,
                Section {
                    pe,
                    instance,
                    state,
                },
            ),
        }
    }

    /// The state stored for `(pe, instance)`, if any.
    pub fn get(&self, pe: &str, instance: u32) -> Option<&Value> {
        self.sections
            .binary_search_by(|s| (s.pe.as_str(), s.instance).cmp(&(pe, instance)))
            .ok()
            .map(|i| &self.sections[i].state)
    }

    /// All sections, sorted by `(pe, instance)`.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when the snapshot holds no sections.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Encodes the snapshot into a v1 frame. Canonical: equal snapshots
    /// produce equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = ByteBuf::with_capacity(64 + 64 * self.sections.len());
        buf.put_slice(&MAGIC);
        buf.put_u16_le(FORMAT_VERSION);
        buf.put_u16_le(KNOWN_FLAGS);
        buf.put_u32_le(self.sections.len() as u32);
        for section in &self.sections {
            let mut body = ByteBuf::with_capacity(64);
            body.put_u32_le(section.pe.len() as u32);
            body.put_slice(section.pe.as_bytes());
            body.put_u32_le(section.instance);
            let payload = encode_value(&section.state);
            body.put_u32_le(payload.len() as u32);
            body.put_slice(&payload);
            let body = body.freeze();
            let crc = crc32(&body);
            buf.put_slice(&body);
            buf.put_u32_le(crc);
        }
        let frame = buf.freeze();
        let file_crc = crc32(&frame);
        let mut out = frame;
        out.extend_from_slice(&file_crc.to_le_bytes());
        out
    }

    /// Decodes a v1 frame, verifying every checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        // Header: magic + version + flags + section count.
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated {
                needed: MAGIC.len(),
                remaining: bytes.len(),
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        // The file checksum is verified before anything past the magic is
        // trusted, so corruption anywhere in the frame surfaces as exactly
        // one error — except version/flags, which are checked first from
        // their fixed offsets so future-format frames (whose layout beyond
        // the header is unknowable) report what they are rather than a
        // spurious checksum failure.
        let mut rest = &bytes[MAGIC.len()..];
        let version = read_u16(&mut rest)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let flags = read_u16(&mut rest)?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(SnapshotError::UnknownFlags(flags));
        }
        if bytes.len() < MAGIC.len() + 8 + 4 {
            return Err(SnapshotError::Truncated {
                needed: MAGIC.len() + 8 + 4,
                remaining: bytes.len(),
            });
        }
        let (frame, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().expect("split at len-4"));
        let computed = crc32(frame);
        if stored != computed {
            return Err(SnapshotError::FileCrc { stored, computed });
        }

        let mut rest = &frame[MAGIC.len() + 4..];
        let count = read_u32(&mut rest)? as usize;
        let mut snapshot = Snapshot::new();
        for section in 0..count {
            let section_start = rest;
            let name_len = read_u32(&mut rest)? as usize;
            let name_bytes = take(&mut rest, name_len)?;
            let instance = read_u32(&mut rest)?;
            let payload_len = read_u32(&mut rest)? as usize;
            let payload = take(&mut rest, payload_len)?;
            let body_len = 4 + name_len + 4 + 4 + payload_len;
            let crc_stored = read_u32(&mut rest)?;
            if crc32(&section_start[..body_len]) != crc_stored {
                return Err(SnapshotError::SectionCrc { section });
            }
            let pe = std::str::from_utf8(name_bytes)
                .map_err(|_| SnapshotError::Payload(CodecError::BadUtf8))?
                .to_string();
            let state = decode_value(payload)?;
            snapshot.insert(pe, instance, state);
        }
        if !rest.is_empty() {
            return Err(SnapshotError::TrailingBytes(rest.len()));
        }
        Ok(snapshot)
    }
}

/// Encodes a single slot as a one-section frame — the per-slot stored form
/// used by every [`StateStore`](super::StateStore) backend.
pub fn encode_slot(pe: &str, instance: u32, state: &Value) -> Vec<u8> {
    let mut s = Snapshot::new();
    s.insert(pe, instance, state.clone());
    s.encode()
}

/// Decodes a one-section frame back to `(pe, instance, state)`.
pub fn decode_slot(bytes: &[u8]) -> Result<(String, u32, Value), SnapshotError> {
    let snapshot = Snapshot::decode(bytes)?;
    match snapshot.sections() {
        [only] => Ok((only.pe.clone(), only.instance, only.state.clone())),
        sections => Err(SnapshotError::Payload(CodecError::TrailingBytes(
            sections.len(),
        ))),
    }
}

/// Loads a per-slot blob: a v1 frame, checked against `slot`. This is the
/// single load path all stores share. A blob without the magic (such as a
/// bare codec value, the unframed form of builds before the versioned
/// format) is [`SnapshotError::BadMagic`].
pub fn decode_slot_payload(slot: &str, bytes: &[u8]) -> Result<Value, SnapshotError> {
    let (pe, instance, state) = decode_slot(bytes)?;
    let found = super::slot_name(&pe, instance as usize);
    if found != slot {
        return Err(SnapshotError::SlotMismatch {
            expected: slot.to_string(),
            found,
        });
    }
    Ok(state)
}

fn read_u16(input: &mut &[u8]) -> Result<u16, SnapshotError> {
    if input.len() < 2 {
        return Err(SnapshotError::Truncated {
            needed: 2,
            remaining: input.len(),
        });
    }
    let v = u16::from_le_bytes(input[..2].try_into().expect("length checked"));
    *input = &input[2..];
    Ok(v)
}

fn read_u32(input: &mut &[u8]) -> Result<u32, SnapshotError> {
    if input.len() < 4 {
        return Err(SnapshotError::Truncated {
            needed: 4,
            remaining: input.len(),
        });
    }
    let v = u32::from_le_bytes(input[..4].try_into().expect("length checked"));
    *input = &input[4..];
    Ok(v)
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotError> {
    if input.len() < n {
        return Err(SnapshotError::Truncated {
            needed: n,
            remaining: input.len(),
        });
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.insert(
            "happyState",
            1,
            Value::map([("TX", Value::list([Value::Float(4.5), Value::Int(3)]))]),
        );
        s.insert("happyState", 0, Value::map([("CA", Value::Int(2))]));
        s.insert("topPairs", 0, Value::list([Value::Str("a×b".into())]));
        s
    }

    #[test]
    fn roundtrip_preserves_sections() {
        let s = sample();
        let decoded = Snapshot::decode(&s.encode()).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.len(), 3);
    }

    #[test]
    fn encoding_is_canonical_regardless_of_insert_order() {
        let a = sample();
        let mut b = Snapshot::new();
        // Reverse insertion order.
        for sec in a.sections().iter().rev() {
            b.insert(sec.pe.clone(), sec.instance, sec.state.clone());
        }
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn insert_overwrites_existing_slot() {
        let mut s = Snapshot::new();
        s.insert("pe", 0, Value::Int(1));
        s.insert("pe", 0, Value::Int(2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("pe", 0), Some(&Value::Int(2)));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let s = Snapshot::new();
        let bytes = s.encode();
        // magic + version + flags + count + file crc.
        assert_eq!(bytes.len(), 8 + 2 + 2 + 4 + 4);
        assert_eq!(Snapshot::decode(&bytes).unwrap(), s);
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Snapshot::decode(&bytes), Err(SnapshotError::BadMagic));
        assert_eq!(
            Snapshot::decode(b"short"),
            Err(SnapshotError::Truncated {
                needed: 8,
                remaining: 5
            })
        );
    }

    #[test]
    fn future_version_detected_before_checksum() {
        let mut bytes = sample().encode();
        bytes[8] = 9; // version 9, checksum now stale — version must win.
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn unknown_flags_detected_before_checksum() {
        let mut bytes = sample().encode();
        bytes[10] = 0b100;
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::UnknownFlags(0b100))
        );
    }

    #[test]
    fn payload_corruption_is_a_file_crc_mismatch() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::FileCrc { .. })
        ));
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn slot_frame_roundtrip_and_mismatch() {
        let bytes = encode_slot("counter", 3, &Value::Int(9));
        assert_eq!(
            decode_slot(&bytes).unwrap(),
            ("counter".to_string(), 3, Value::Int(9))
        );
        assert_eq!(
            decode_slot_payload("counter#3", &bytes).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            decode_slot_payload("counter#4", &bytes),
            Err(SnapshotError::SlotMismatch {
                expected: "counter#4".into(),
                found: "counter#3".into(),
            })
        );
    }

    #[test]
    fn an_unframed_blob_is_bad_magic() {
        let unframed = encode_value(&Value::map([("k", Value::Int(7))]));
        assert_eq!(
            decode_slot_payload("any#0", &unframed),
            Err(SnapshotError::BadMagic)
        );
    }
}
