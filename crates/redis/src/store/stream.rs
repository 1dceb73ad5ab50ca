//! Redis Streams: append-only logs with consumer groups.
//!
//! The data type dispel4py's Redis mappings are built on. Implements the
//! semantics the paper relies on:
//!
//! * entry IDs `<ms>-<seq>`, auto-generated monotonically by `XADD *`;
//! * range reads (`XRANGE`) and cursor reads (`XREAD`);
//! * consumer groups: a shared cursor (`last_delivered`), per-entry pending
//!   lists (PEL) with delivery counts, `XACK`, and per-consumer metadata —
//!   crucially the **idle time** that `dyn_auto_redis`'s monitoring strategy
//!   samples via `XINFO CONSUMERS`.

use d4py_sync::SharedBuf;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// A stream entry identifier: milliseconds timestamp + sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId {
    /// Millisecond component.
    pub ms: u64,
    /// Sequence component (disambiguates entries in the same millisecond).
    pub seq: u64,
}

impl StreamId {
    /// The smallest id (`0-0`).
    pub const MIN: StreamId = StreamId { ms: 0, seq: 0 };
    /// The largest id (`u64::MAX-u64::MAX`).
    pub const MAX: StreamId = StreamId {
        ms: u64::MAX,
        seq: u64::MAX,
    };

    /// The next id after `self` (saturating).
    pub fn next(self) -> StreamId {
        if self.seq == u64::MAX {
            StreamId {
                ms: self.ms.saturating_add(1),
                seq: 0,
            }
        } else {
            StreamId {
                ms: self.ms,
                seq: self.seq + 1,
            }
        }
    }

    /// Parses `"ms-seq"`, or bare `"ms"` with `default_seq` as the sequence
    /// (XRANGE allows `"5"` to mean `5-0` at the start and `5-MAX` at the
    /// end of a range).
    pub fn parse(s: &str, default_seq: u64) -> Option<StreamId> {
        match s.split_once('-') {
            Some((ms, seq)) => Some(StreamId {
                ms: ms.parse().ok()?,
                seq: seq.parse().ok()?,
            }),
            None => Some(StreamId {
                ms: s.parse().ok()?,
                seq: default_seq,
            }),
        }
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.ms, self.seq)
    }
}

/// Field-value pairs of one entry. The [`SharedBuf`] halves alias the
/// network read buffer the entry arrived in, so storing an entry is a
/// refcount bump, not a payload copy.
pub type EntryBody = Vec<(SharedBuf, SharedBuf)>;

/// A pending (delivered but unacknowledged) entry in a consumer group.
#[derive(Debug, Clone)]
pub struct PendingEntry {
    /// Consumer the entry was last delivered to.
    pub consumer: String,
    /// Time of last delivery.
    pub delivered_at: Instant,
    /// Number of deliveries (1 on first read; grows on re-delivery).
    pub delivery_count: u64,
}

/// Per-consumer metadata in a group.
#[derive(Debug, Clone)]
pub struct Consumer {
    /// Last time this consumer successfully read or acked — the basis of the
    /// *idle time* metric the auto-scaler monitors.
    pub last_active: Instant,
    /// Entries currently pending for this consumer.
    pub pending: u64,
}

/// A consumer group over a stream.
#[derive(Debug, Clone, Default)]
pub struct ConsumerGroup {
    /// Group cursor: last entry delivered to *any* consumer via `>`.
    pub last_delivered: StreamId,
    /// Pending entries list (PEL), keyed by entry id.
    pub pending: BTreeMap<StreamId, PendingEntry>,
    /// Known consumers.
    pub consumers: HashMap<String, Consumer>,
}

/// An append-only stream with optional consumer groups.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    entries: BTreeMap<StreamId, EntryBody>,
    /// Highest id ever added (ids must keep increasing even after XDEL).
    last_id: StreamId,
    /// Total entries ever added (XADD count, not current length).
    entries_added: u64,
    groups: HashMap<String, ConsumerGroup>,
}

/// Errors from stream operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Explicit XADD id is ≤ the stream's last id.
    IdTooSmall,
    /// Consumer group already exists (XGROUP CREATE).
    GroupExists,
    /// Consumer group does not exist.
    NoGroup,
}

impl Stream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry. `id` of `None` auto-generates (like `XADD *`) from
    /// `now_ms`; an explicit id must exceed the last id.
    pub fn add(
        &mut self,
        id: Option<StreamId>,
        now_ms: u64,
        body: EntryBody,
    ) -> Result<StreamId, StreamError> {
        let id = match id {
            Some(explicit) => {
                if explicit <= self.last_id && self.entries_added > 0 {
                    return Err(StreamError::IdTooSmall);
                }
                explicit
            }
            None => {
                if now_ms > self.last_id.ms {
                    StreamId { ms: now_ms, seq: 0 }
                } else {
                    self.last_id.next()
                }
            }
        };
        self.entries.insert(id, body);
        self.last_id = id;
        self.entries_added += 1;
        Ok(id)
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the stream holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest id ever assigned.
    pub fn last_id(&self) -> StreamId {
        self.last_id
    }

    /// Entries in `[start, end]`, up to `count` (None = unlimited).
    pub fn range(
        &self,
        start: StreamId,
        end: StreamId,
        count: Option<usize>,
    ) -> Vec<(StreamId, EntryBody)> {
        let iter = self
            .entries
            .range(start..=end)
            .map(|(id, b)| (*id, b.clone()));
        match count {
            Some(n) => iter.take(n).collect(),
            None => iter.collect(),
        }
    }

    /// Entries strictly after `after` (XREAD semantics), up to `count`.
    pub fn read_after(&self, after: StreamId, count: Option<usize>) -> Vec<(StreamId, EntryBody)> {
        if after == StreamId::MAX {
            return vec![];
        }
        self.range(after.next(), StreamId::MAX, count)
    }

    /// Deletes entries by id; returns how many existed.
    pub fn delete(&mut self, ids: &[StreamId]) -> usize {
        let mut n = 0;
        for id in ids {
            if self.entries.remove(id).is_some() {
                n += 1;
                for group in self.groups.values_mut() {
                    group.pending.remove(id);
                }
            }
        }
        n
    }

    /// Creates a consumer group with its cursor at `start` (`$` = last id).
    pub fn create_group(&mut self, name: &str, start: StreamId) -> Result<(), StreamError> {
        if self.groups.contains_key(name) {
            return Err(StreamError::GroupExists);
        }
        self.groups.insert(
            name.to_string(),
            ConsumerGroup {
                last_delivered: start,
                ..ConsumerGroup::default()
            },
        );
        Ok(())
    }

    /// Immutable access to a group.
    pub fn group(&self, name: &str) -> Option<&ConsumerGroup> {
        self.groups.get(name)
    }

    /// Reads new entries (`>`) for `consumer` in `group`, advancing the
    /// group cursor. With `noack` the entries skip the PEL (at-most-once);
    /// otherwise they are added pending. Registers/updates the consumer's
    /// activity timestamp either way.
    pub fn read_group_new(
        &mut self,
        group: &str,
        consumer: &str,
        count: Option<usize>,
        noack: bool,
        now: Instant,
    ) -> Result<Vec<(StreamId, EntryBody)>, StreamError> {
        let g = self.groups.get_mut(group).ok_or(StreamError::NoGroup)?;
        let start = if g.last_delivered == StreamId::MAX {
            return Ok(vec![]);
        } else {
            g.last_delivered.next()
        };
        let taken: Vec<(StreamId, EntryBody)> = {
            let iter = self.entries.range(start..).map(|(id, b)| (*id, b.clone()));
            match count {
                Some(n) => iter.take(n).collect(),
                None => iter.collect(),
            }
        };
        let entry = g.consumers.entry(consumer.to_string()).or_insert(Consumer {
            last_active: now,
            pending: 0,
        });
        if !taken.is_empty() {
            entry.last_active = now;
        }
        for (id, _) in &taken {
            g.last_delivered = (*id).max(g.last_delivered);
            if !noack {
                g.pending.insert(
                    *id,
                    PendingEntry {
                        consumer: consumer.to_string(),
                        delivered_at: now,
                        delivery_count: 1,
                    },
                );
                g.consumers
                    .get_mut(consumer)
                    .expect("consumer registered above")
                    .pending += 1;
            }
        }
        Ok(taken)
    }

    /// Claims pending entries idle for at least `min_idle` onto `consumer`
    /// (the heart of `XCLAIM`/`XAUTOCLAIM`): ownership moves, the delivery
    /// time resets, and the delivery count increments. Returns the claimed
    /// entries with their bodies (entries deleted from the stream since
    /// delivery are dropped from the PEL, as real XAUTOCLAIM does).
    pub fn claim_idle(
        &mut self,
        group: &str,
        consumer: &str,
        min_idle: std::time::Duration,
        count: usize,
        now: Instant,
    ) -> Result<Vec<(StreamId, EntryBody)>, StreamError> {
        let g = self.groups.get_mut(group).ok_or(StreamError::NoGroup)?;
        let eligible: Vec<StreamId> = g
            .pending
            .iter()
            .filter(|(_, p)| now.saturating_duration_since(p.delivered_at) >= min_idle)
            .map(|(id, _)| *id)
            .take(count)
            .collect();
        let mut claimed = Vec::new();
        for id in eligible {
            let Some(body) = self.entries.get(&id).cloned() else {
                // The entry was XDELed after delivery: purge the stale PEL row.
                if let Some(p) = g.pending.remove(&id) {
                    if let Some(c) = g.consumers.get_mut(&p.consumer) {
                        c.pending = c.pending.saturating_sub(1);
                    }
                }
                continue;
            };
            let p = g.pending.get_mut(&id).expect("eligible id is pending");
            if let Some(old) = g.consumers.get_mut(&p.consumer) {
                old.pending = old.pending.saturating_sub(1);
            }
            p.consumer = consumer.to_string();
            p.delivered_at = now;
            p.delivery_count += 1;
            let c = g.consumers.entry(consumer.to_string()).or_insert(Consumer {
                last_active: now,
                pending: 0,
            });
            c.pending += 1;
            c.last_active = now;
            claimed.push((id, body));
        }
        Ok(claimed)
    }

    /// Acknowledges entries in a group's PEL; returns how many were pending.
    pub fn ack(
        &mut self,
        group: &str,
        ids: &[StreamId],
        now: Instant,
    ) -> Result<usize, StreamError> {
        let g = self.groups.get_mut(group).ok_or(StreamError::NoGroup)?;
        let mut n = 0;
        for id in ids {
            if let Some(p) = g.pending.remove(id) {
                n += 1;
                if let Some(c) = g.consumers.get_mut(&p.consumer) {
                    c.pending = c.pending.saturating_sub(1);
                    c.last_active = now;
                }
            }
        }
        Ok(n)
    }

    /// Per-consumer (name, pending, idle) rows for `XINFO CONSUMERS`,
    /// sorted by name.
    pub fn consumer_info(
        &self,
        group: &str,
        now: Instant,
    ) -> Result<Vec<(String, u64, std::time::Duration)>, StreamError> {
        let g = self.groups.get(group).ok_or(StreamError::NoGroup)?;
        let mut rows: Vec<_> = g
            .consumers
            .iter()
            .map(|(name, c)| {
                (
                    name.clone(),
                    c.pending,
                    now.saturating_duration_since(c.last_active),
                )
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> EntryBody {
        vec![(SharedBuf::from(&b"data"[..]), SharedBuf::from(s))]
    }

    #[test]
    fn id_parse_and_display() {
        assert_eq!(StreamId::parse("5-3", 0), Some(StreamId { ms: 5, seq: 3 }));
        assert_eq!(StreamId::parse("7", 9), Some(StreamId { ms: 7, seq: 9 }));
        assert_eq!(StreamId::parse("x", 0), None);
        assert_eq!(StreamId { ms: 12, seq: 34 }.to_string(), "12-34");
    }

    #[test]
    fn id_ordering() {
        assert!(StreamId { ms: 1, seq: 9 } < StreamId { ms: 2, seq: 0 });
        assert!(StreamId { ms: 1, seq: 0 } < StreamId { ms: 1, seq: 1 });
        assert_eq!(
            StreamId { ms: 1, seq: 1 }.next(),
            StreamId { ms: 1, seq: 2 }
        );
    }

    #[test]
    fn auto_ids_are_monotonic_within_same_ms() {
        let mut s = Stream::new();
        let a = s.add(None, 100, body("a")).unwrap();
        let b = s.add(None, 100, body("b")).unwrap();
        let c = s.add(None, 99, body("c")).unwrap(); // clock going backwards
        assert!(a < b && b < c);
        assert_eq!(a, StreamId { ms: 100, seq: 0 });
        assert_eq!(b, StreamId { ms: 100, seq: 1 });
        assert_eq!(c, StreamId { ms: 100, seq: 2 });
    }

    #[test]
    fn explicit_id_must_increase() {
        let mut s = Stream::new();
        s.add(Some(StreamId { ms: 5, seq: 0 }), 0, body("a"))
            .unwrap();
        assert_eq!(
            s.add(Some(StreamId { ms: 5, seq: 0 }), 0, body("b")),
            Err(StreamError::IdTooSmall)
        );
        s.add(Some(StreamId { ms: 5, seq: 1 }), 0, body("c"))
            .unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn range_and_read_after() {
        let mut s = Stream::new();
        let ids: Vec<_> = (0..5)
            .map(|i| s.add(None, i, body(&i.to_string())).unwrap())
            .collect();
        let all = s.range(StreamId::MIN, StreamId::MAX, None);
        assert_eq!(all.len(), 5);
        let after = s.read_after(ids[2], None);
        assert_eq!(after.len(), 2);
        assert_eq!(after[0].0, ids[3]);
        let capped = s.range(StreamId::MIN, StreamId::MAX, Some(2));
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn group_read_advances_cursor() {
        let mut s = Stream::new();
        for i in 0..4 {
            s.add(None, i, body(&i.to_string())).unwrap();
        }
        s.create_group("g", StreamId::MIN).unwrap();
        let now = Instant::now();
        let first = s.read_group_new("g", "c1", Some(2), false, now).unwrap();
        assert_eq!(first.len(), 2);
        let second = s.read_group_new("g", "c2", None, false, now).unwrap();
        assert_eq!(second.len(), 2, "c2 must not re-see c1's entries");
        let third = s.read_group_new("g", "c1", None, false, now).unwrap();
        assert!(third.is_empty());
    }

    #[test]
    fn group_created_at_dollar_skips_history() {
        let mut s = Stream::new();
        s.add(None, 1, body("old")).unwrap();
        s.create_group("g", s.last_id()).unwrap();
        let now = Instant::now();
        assert!(s
            .read_group_new("g", "c", None, false, now)
            .unwrap()
            .is_empty());
        s.add(None, 2, body("new")).unwrap();
        assert_eq!(
            s.read_group_new("g", "c", None, false, now).unwrap().len(),
            1
        );
    }

    #[test]
    fn pel_tracks_and_ack_clears() {
        let mut s = Stream::new();
        let id = s.add(None, 1, body("x")).unwrap();
        s.create_group("g", StreamId::MIN).unwrap();
        let now = Instant::now();
        s.read_group_new("g", "c", None, false, now).unwrap();
        assert_eq!(s.group("g").unwrap().pending.len(), 1);
        assert_eq!(s.group("g").unwrap().consumers["c"].pending, 1);
        assert_eq!(s.ack("g", &[id], now).unwrap(), 1);
        assert_eq!(s.group("g").unwrap().pending.len(), 0);
        assert_eq!(s.group("g").unwrap().consumers["c"].pending, 0);
        // Double-ack is a no-op.
        assert_eq!(s.ack("g", &[id], now).unwrap(), 0);
    }

    #[test]
    fn noack_skips_pel() {
        let mut s = Stream::new();
        s.add(None, 1, body("x")).unwrap();
        s.create_group("g", StreamId::MIN).unwrap();
        s.read_group_new("g", "c", None, true, Instant::now())
            .unwrap();
        assert!(s.group("g").unwrap().pending.is_empty());
    }

    #[test]
    fn claim_idle_moves_ownership_and_bumps_delivery_count() {
        let mut s = Stream::new();
        let id = s.add(None, 1, body("x")).unwrap();
        s.create_group("g", StreamId::MIN).unwrap();
        let t0 = Instant::now();
        s.read_group_new("g", "crashed", None, false, t0).unwrap();
        // 500 ms later, a recovery consumer claims entries idle ≥ 100 ms.
        let later = t0 + std::time::Duration::from_millis(500);
        let claimed = s
            .claim_idle(
                "g",
                "rescuer",
                std::time::Duration::from_millis(100),
                10,
                later,
            )
            .unwrap();
        assert_eq!(claimed.len(), 1);
        assert_eq!(claimed[0].0, id);
        let g = s.group("g").unwrap();
        assert_eq!(g.pending[&id].consumer, "rescuer");
        assert_eq!(g.pending[&id].delivery_count, 2);
        assert_eq!(g.consumers["crashed"].pending, 0);
        assert_eq!(g.consumers["rescuer"].pending, 1);
    }

    #[test]
    fn claim_idle_respects_min_idle_and_count() {
        let mut s = Stream::new();
        for i in 0..3 {
            s.add(None, i, body("x")).unwrap();
        }
        s.create_group("g", StreamId::MIN).unwrap();
        let t0 = Instant::now();
        s.read_group_new("g", "c", None, false, t0).unwrap();
        // Too fresh: nothing claimable.
        let fresh = s
            .claim_idle("g", "r", std::time::Duration::from_secs(1), 10, t0)
            .unwrap();
        assert!(fresh.is_empty());
        // Old enough, but capped at 2.
        let later = t0 + std::time::Duration::from_secs(2);
        let claimed = s
            .claim_idle("g", "r", std::time::Duration::from_secs(1), 2, later)
            .unwrap();
        assert_eq!(claimed.len(), 2);
    }

    #[test]
    fn claim_idle_purges_deleted_entries_from_pel() {
        let mut s = Stream::new();
        let id = s.add(None, 1, body("x")).unwrap();
        s.create_group("g", StreamId::MIN).unwrap();
        let t0 = Instant::now();
        s.read_group_new("g", "c", None, false, t0).unwrap();
        // XDEL's delete() cleans the PEL as it goes, so after it nothing is
        // claimable and no stale row is left behind.
        s.delete(&[id]);
        let later = t0 + std::time::Duration::from_secs(2);
        let claimed = s
            .claim_idle("g", "r", std::time::Duration::from_secs(1), 10, later)
            .unwrap();
        assert!(claimed.is_empty());
        assert!(s.group("g").unwrap().pending.is_empty());
    }

    #[test]
    fn consumer_idle_time_reflects_activity() {
        let mut s = Stream::new();
        s.add(None, 1, body("x")).unwrap();
        s.create_group("g", StreamId::MIN).unwrap();
        let t0 = Instant::now();
        s.read_group_new("g", "c", None, true, t0).unwrap();
        let later = t0 + std::time::Duration::from_millis(500);
        let info = s.consumer_info("g", later).unwrap();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].0, "c");
        assert_eq!(info[0].2, std::time::Duration::from_millis(500));
    }

    #[test]
    fn empty_group_read_still_registers_consumer() {
        let mut s = Stream::new();
        s.create_group("g", StreamId::MIN).unwrap();
        s.read_group_new("g", "c", None, true, Instant::now())
            .unwrap();
        assert_eq!(s.consumer_info("g", Instant::now()).unwrap().len(), 1);
    }

    #[test]
    fn missing_group_errors() {
        let mut s = Stream::new();
        assert_eq!(
            s.read_group_new("nope", "c", None, false, Instant::now()),
            Err(StreamError::NoGroup)
        );
        assert_eq!(
            s.ack("nope", &[], Instant::now()),
            Err(StreamError::NoGroup)
        );
        assert_eq!(
            s.consumer_info("nope", Instant::now()),
            Err(StreamError::NoGroup)
        );
    }

    #[test]
    fn duplicate_group_rejected() {
        let mut s = Stream::new();
        s.create_group("g", StreamId::MIN).unwrap();
        assert_eq!(
            s.create_group("g", StreamId::MIN),
            Err(StreamError::GroupExists)
        );
    }

    #[test]
    fn delete_removes_from_pel_too() {
        let mut s = Stream::new();
        let id = s.add(None, 1, body("x")).unwrap();
        s.create_group("g", StreamId::MIN).unwrap();
        s.read_group_new("g", "c", None, false, Instant::now())
            .unwrap();
        assert_eq!(s.delete(&[id]), 1);
        assert!(s.group("g").unwrap().pending.is_empty());
        assert_eq!(s.delete(&[id]), 0);
    }

    #[test]
    fn ids_keep_increasing_after_full_delete() {
        let mut s = Stream::new();
        let a = s.add(None, 10, body("a")).unwrap();
        s.delete(&[a]);
        assert!(s.is_empty());
        let b = s.add(None, 0, body("b")).unwrap();
        assert!(b > a);
    }
}
