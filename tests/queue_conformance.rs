//! [`TaskQueue`] trait-conformance suite.
//!
//! The dynamic engine is written once against the trait, so every backend
//! must agree on the observable contract: FIFO delivery, timeout-on-empty
//! pops, depth accounting that survives failed pushes, idle-time tracking,
//! and pill passthrough. Runs against both implementations — the in-process
//! [`WorkStealQueue`] and the Redis-stream [`RedisQueue`] (in-proc backend and
//! a two-shard cluster) — with capability-gated cases where the backends
//! intentionally differ.

use dispel4py::core::queue::{TaskQueue, WorkStealQueue};
use dispel4py::core::task::{QueueItem, Task};
use dispel4py::core::value::Value;
use dispel4py::graph::PeId;
use dispel4py::redis::queue::RedisQueue;
use dispel4py::redis::RedisBackend;
use dispel4py::redis_lite::server::Server;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn task(i: i64) -> QueueItem {
    QueueItem::Task(Task::new(PeId(0), "in", Value::Int(i)))
}

/// A process-lifetime two-shard redis-lite cluster the conformance cases
/// share (each case uses its own stream key, so they never interfere).
fn cluster_addrs() -> Vec<SocketAddr> {
    static CLUSTER: OnceLock<Vec<Server>> = OnceLock::new();
    CLUSTER
        .get_or_init(|| (0..2).map(|_| Server::start(0).unwrap()).collect())
        .iter()
        .map(|s| s.addr())
        .collect()
}

/// Builds each backend fresh for one conformance case.
fn backends(consumers: usize) -> Vec<(&'static str, Arc<dyn TaskQueue>)> {
    static NEXT_KEY: AtomicUsize = AtomicUsize::new(0);
    let key = format!("conformance:q{}", NEXT_KEY.fetch_add(1, Ordering::SeqCst));
    vec![
        ("steal", Arc::new(WorkStealQueue::new(consumers))),
        (
            "redis-stream",
            Arc::new(RedisQueue::new(&RedisBackend::in_proc(), key.clone(), consumers).unwrap()),
        ),
        (
            "redis-cluster",
            Arc::new(
                RedisQueue::new(&RedisBackend::cluster(cluster_addrs()), key, consumers).unwrap(),
            ),
        ),
    ]
}

#[test]
fn fifo_order_is_preserved() {
    for (name, q) in backends(1) {
        for i in 0..10 {
            q.push(task(i)).unwrap();
        }
        for i in 0..10 {
            assert_eq!(
                q.pop(0, Duration::from_millis(100)).unwrap(),
                Some(task(i)),
                "{name}: item {i} out of order"
            );
        }
    }
}

#[test]
fn pop_on_empty_times_out_with_none() {
    for (name, q) in backends(1) {
        let start = Instant::now();
        let got = q.pop(0, Duration::from_millis(30)).unwrap();
        assert_eq!(got, None, "{name}: empty queue must time out to None");
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "{name}: pop returned before the timeout"
        );
    }
}

#[test]
fn depth_reflects_pushes_and_pops() {
    for (name, q) in backends(1) {
        assert_eq!(q.depth(), 0, "{name}");
        for i in 0..5 {
            q.push(task(i)).unwrap();
        }
        assert_eq!(q.depth(), 5, "{name}");
        q.pop(0, Duration::from_millis(100)).unwrap();
        q.pop(0, Duration::from_millis(100)).unwrap();
        assert_eq!(q.depth(), 3, "{name}");
        while q.pop(0, Duration::from_millis(20)).unwrap().is_some() {}
        assert_eq!(q.depth(), 0, "{name}");
    }
}

#[test]
fn failed_push_leaves_depth_unchanged() {
    // Only the in-process backend can fail a push without tearing down the
    // whole Redis engine; this pins the depth-rollback contract there.
    let q = WorkStealQueue::new(1);
    q.push(task(1)).unwrap();
    assert_eq!(q.depth(), 1);
    q.close();
    assert!(q.push(task(2)).is_err());
    assert_eq!(
        q.depth(),
        1,
        "failed push must roll its depth increment back"
    );
}

#[test]
fn idle_times_cover_every_consumer() {
    for (name, q) in backends(3) {
        let idles = q.idle_times().expect("both backends track consumers");
        assert_eq!(idles.len(), 3, "{name}: one idle slot per consumer");
        q.push(task(1)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        q.pop(1, Duration::from_millis(100)).unwrap();
        let idles = q.idle_times().unwrap();
        assert!(
            idles[1] < Duration::from_millis(15),
            "{name}: consumer 1 just popped, idle was {:?}",
            idles[1]
        );
        assert!(
            idles[0] >= Duration::from_millis(15),
            "{name}: consumer 0 never popped, idle was {:?}",
            idles[0]
        );
    }
}

#[test]
fn late_joining_consumers_differ_by_design() {
    // Capability gate: the in-process queue grows its idle table on demand
    // (scale-up adds consumers mid-run); the Redis queue allocates one
    // reader connection per consumer up front, so an unknown index is a
    // hard error rather than a silent allocation.
    let q = WorkStealQueue::new(1);
    q.push(task(1)).unwrap();
    assert!(q.pop(2, Duration::from_millis(100)).unwrap().is_some());
    assert_eq!(
        q.idle_times().unwrap().len(),
        3,
        "in-process idle table grows"
    );

    let redis = RedisQueue::new(&RedisBackend::in_proc(), "conformance:late", 1).unwrap();
    redis.push(task(1)).unwrap();
    assert!(
        redis.pop(2, Duration::from_millis(100)).is_err(),
        "redis queue rejects unknown consumer indexes"
    );
}

#[test]
fn depth_never_exceeds_outstanding_under_concurrent_monitor_reads() {
    // Regression guard for the duplicate-depth-counter bug: an in-process
    // queue once kept its own AtomicUsize, decremented *after* the queue's
    // internal counter, so a monitor tick in that window read a phantom
    // backlog. With depth read from the queue's own counters, a concurrent
    // monitor must never see depth exceed items-pushed minus
    // items-whose-pop-completed.
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: usize = 150;
    for (name, q) in backends(CONSUMERS) {
        let pushed = Arc::new(AtomicUsize::new(0));
        let popped = Arc::new(AtomicUsize::new(0));

        let producer_handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                let pushed = pushed.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        // Count before the push so depth can never lead it.
                        pushed.fetch_add(1, Ordering::SeqCst);
                        q.push(task((p * PER_PRODUCER + i) as i64)).unwrap();
                    }
                })
            })
            .collect();
        let consumer_handles: Vec<_> = (0..CONSUMERS)
            .map(|c| {
                let q = q.clone();
                let popped = popped.clone();
                std::thread::spawn(move || {
                    while popped.load(Ordering::SeqCst) < PRODUCERS * PER_PRODUCER {
                        if q.pop(c, Duration::from_millis(5)).unwrap().is_some() {
                            // Count after the pop returns so depth can
                            // never trail it.
                            popped.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();

        // The monitor tick: sample depth continuously while the hammer
        // runs. Reading popped before and pushed after the depth sample
        // makes the bound conservative in both directions.
        while popped.load(Ordering::SeqCst) < PRODUCERS * PER_PRODUCER {
            let popped_before = popped.load(Ordering::SeqCst);
            let depth = q.depth();
            let pushed_after = pushed.load(Ordering::SeqCst);
            assert!(
                depth <= pushed_after - popped_before,
                "{name}: monitor read phantom backlog: depth {depth} > \
                 {pushed_after} pushed - {popped_before} popped"
            );
        }

        for h in producer_handles {
            h.join().unwrap();
        }
        for h in consumer_handles {
            h.join().unwrap();
        }
        assert_eq!(q.depth(), 0, "{name}: drained queue must report depth 0");
    }
}

#[test]
fn pop_with_duration_max_blocks_until_item_arrives() {
    // Regression: a pop once computed `Instant::now() + timeout`, which
    // panics on Duration::MAX ("block indefinitely"). The saturated deadline
    // must fall back to an untimed wait. In-process only: the Redis backend
    // hands the timeout to the server as BLOCK milliseconds, which has no
    // deadline arithmetic to overflow.
    let q = Arc::new(WorkStealQueue::new(1));
    let popper = {
        let q = q.clone();
        std::thread::spawn(move || q.pop(0, Duration::MAX))
    };
    std::thread::sleep(Duration::from_millis(30));
    q.push(task(42)).unwrap();
    assert_eq!(
        popper.join().expect("pop must not panic").unwrap(),
        Some(task(42))
    );
}

#[test]
fn never_popped_consumers_report_idle_since_creation() {
    // Regression: newly grown idle-table slots were backfilled with
    // `Instant::now()`, so intermediate scale-up consumers that never
    // popped read as just-active, deflating the mean idle signal and
    // suppressing legitimate Shrink decisions. A consumer that has never
    // popped must report idle >= elapsed-since-creation on both backends.
    for (name, q) in backends(3) {
        std::thread::sleep(Duration::from_millis(30));
        q.push(task(1)).unwrap();
        q.pop(1, Duration::from_millis(100)).unwrap();
        let idles = q.idle_times().unwrap();
        for never_popped in [0, 2] {
            assert!(
                idles[never_popped] >= Duration::from_millis(25),
                "{name}: consumer {never_popped} never popped but reports \
                 idle {:?} — backfilled as just-active",
                idles[never_popped]
            );
        }
        assert!(
            idles[1] < Duration::from_millis(25),
            "{name}: consumer 1 just popped, idle was {:?}",
            idles[1]
        );
    }

    // The late-joining growth path (in-process only: Redis rejects unknown
    // indexes, see late_joining_consumers_differ_by_design): slots created
    // by the resize for consumers 1..3 must also count from creation.
    let q = WorkStealQueue::new(1);
    std::thread::sleep(Duration::from_millis(30));
    q.push(task(1)).unwrap();
    q.pop(3, Duration::from_millis(100)).unwrap();
    let idles = q.idle_times().unwrap();
    assert_eq!(idles.len(), 4);
    for never_popped in [0, 1, 2] {
        assert!(
            idles[never_popped] >= Duration::from_millis(25),
            "steal: grown slot {never_popped} backfilled as just-active ({:?})",
            idles[never_popped]
        );
    }
    assert!(
        idles[3] < Duration::from_millis(25),
        "consumer 3 just popped"
    );
}

#[test]
fn pills_pass_through_like_tasks() {
    for (name, q) in backends(1) {
        q.push(task(1)).unwrap();
        q.push(QueueItem::Pill).unwrap();
        q.push(QueueItem::Flush).unwrap();
        assert_eq!(
            q.pop(0, Duration::from_millis(100)).unwrap(),
            Some(task(1)),
            "{name}"
        );
        assert_eq!(
            q.pop(0, Duration::from_millis(100)).unwrap(),
            Some(QueueItem::Pill),
            "{name}: pills must flow in order"
        );
        assert_eq!(
            q.pop(0, Duration::from_millis(100)).unwrap(),
            Some(QueueItem::Flush),
            "{name}: flush markers must flow in order"
        );
    }
}

#[test]
fn push_batch_preserves_per_producer_fifo() {
    // Batched sends may interleave *between* producers, but each
    // producer's own items must still arrive in the order it sent them —
    // the same guarantee per-item push gives.
    const PRODUCERS: usize = 3;
    const BATCHES: i64 = 8;
    const BATCH: i64 = 5;
    for (name, q) in backends(PRODUCERS) {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for b in 0..BATCHES {
                        let items = (0..BATCH)
                            .map(|i| task(p as i64 * 1_000 + b * BATCH + i))
                            .collect();
                        q.push_batch(Some(p), items).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut last_seen = [-1i64; PRODUCERS];
        let mut total = 0;
        while let Some(item) = q.pop(0, Duration::from_millis(50)).unwrap() {
            let QueueItem::Task(t) = item else { continue };
            let v = t.value.as_int().unwrap();
            let (p, seq) = ((v / 1_000) as usize, v % 1_000);
            assert!(
                seq > last_seen[p],
                "{name}: producer {p} delivered {seq} after {}",
                last_seen[p]
            );
            last_seen[p] = seq;
            total += 1;
        }
        assert_eq!(total, PRODUCERS as i64 * BATCHES * BATCH, "{name}");
    }
}

#[test]
fn depth_is_exact_across_batch_boundaries() {
    // The contract allows a backend to return fewer than `max` items per
    // batch pop, but depth must stay exact at every batch boundary: pushes
    // add len(batch), pops subtract exactly what was returned.
    for (name, q) in backends(1) {
        q.push_batch(None, (0..7).map(task).collect()).unwrap();
        assert_eq!(q.depth(), 7, "{name}: depth after one batched push");
        let got = q.pop_batch(0, 3, Duration::from_millis(100)).unwrap();
        assert!(
            !got.is_empty() && got.len() <= 3,
            "{name}: got {} items for max 3",
            got.len()
        );
        let mut popped = got.len();
        assert_eq!(
            q.depth(),
            7 - popped,
            "{name}: depth after a partial batch pop"
        );
        q.push_batch(None, vec![task(7), task(8)]).unwrap();
        assert_eq!(
            q.depth(),
            9 - popped,
            "{name}: depth across batch boundaries"
        );
        loop {
            let got = q.pop_batch(0, 4, Duration::from_millis(20)).unwrap();
            if got.is_empty() {
                break;
            }
            assert!(got.len() <= 4, "{name}: batch overran max");
            popped += got.len();
            assert_eq!(q.depth(), 9 - popped, "{name}: depth mid-drain");
        }
        assert_eq!(popped, 9, "{name}");
        assert_eq!(q.depth(), 0, "{name}: drained queue must report depth 0");
    }
}

#[test]
fn batch_pop_counts_as_one_activity_event() {
    // The autoscaler's idle signal must see a batch drain as a single
    // activity mark — and a timed-out (empty) batch must not reset idle,
    // or an idle worker polling on a drained queue would look busy forever
    // and never be shrunk away. Capability gate: the Redis server counts
    // idle from the last XREADGROUP *attempt* (even an empty one), so the
    // empty-pop clause is in-process-only.
    for (name, q) in backends(2) {
        std::thread::sleep(Duration::from_millis(30));
        let got = q.pop_batch(0, 8, Duration::from_millis(5)).unwrap();
        assert!(got.is_empty(), "{name}");
        let idles = q.idle_times().expect("both backends track consumers");
        if !name.starts_with("redis") {
            assert!(
                idles[0] >= Duration::from_millis(25),
                "{name}: empty batch pop must not reset idle, read {:?}",
                idles[0]
            );
        }
        q.push_batch(None, (0..4).map(task).collect()).unwrap();
        let got = q.pop_batch(0, 8, Duration::from_millis(100)).unwrap();
        assert!(!got.is_empty(), "{name}: items were waiting");
        let idles = q.idle_times().unwrap();
        assert!(
            idles[0] < Duration::from_millis(25),
            "{name}: batch pop must mark the consumer active, read {:?}",
            idles[0]
        );
        assert!(
            idles[1] >= Duration::from_millis(25),
            "{name}: consumer 1 never popped, read {:?}",
            idles[1]
        );
    }
}

#[test]
fn concurrent_producers_consumers_lose_nothing() {
    const PRODUCERS: usize = 3;
    const PER_PRODUCER: i64 = 50;
    for (name, q) in backends(PRODUCERS) {
        let produced: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(task(p as i64 * PER_PRODUCER + i)).unwrap();
                    }
                })
            })
            .collect();
        for h in produced {
            h.join().unwrap();
        }
        let total = PRODUCERS as i64 * PER_PRODUCER;
        let mut got = Vec::new();
        while let Some(item) = q.pop(0, Duration::from_millis(50)).unwrap() {
            if let QueueItem::Task(t) = item {
                got.push(t.value.as_int().unwrap());
            }
        }
        got.sort_unstable();
        let expected: Vec<i64> = (0..total).collect();
        assert_eq!(got, expected, "{name}: items lost or duplicated");
        assert_eq!(q.depth(), 0, "{name}");
    }
}

#[test]
fn batch_pops_stay_within_max_and_hand_out_held_items_first() {
    // A backend may read more than one pop returns (the Redis stream packs
    // several tasks into an entry). No pop may overrun its `max`, and what
    // a consumer's read held back must be the first its next pop returns,
    // ahead of anything pushed since.
    for (name, q) in backends(1) {
        q.push_batch(None, (0..20).map(task).collect()).unwrap();
        let mut got = Vec::new();
        for max in [3, 10, 1] {
            let batch = q.pop_batch(0, max, Duration::from_millis(100)).unwrap();
            assert!(
                !batch.is_empty() && batch.len() <= max,
                "{name}: {} items for max {max}",
                batch.len()
            );
            got.extend(batch);
        }
        q.push_batch(None, (20..30).map(task).collect()).unwrap();
        for max in [7, 4, 32, 2].into_iter().cycle() {
            let batch = q.pop_batch(0, max, Duration::from_millis(20)).unwrap();
            if batch.is_empty() {
                break;
            }
            assert!(
                batch.len() <= max,
                "{name}: {} items for max {max}",
                batch.len()
            );
            got.extend(batch);
            assert_eq!(q.depth(), 30 - got.len(), "{name}: depth mid-drain");
        }
        let want: Vec<QueueItem> = (0..30).map(task).collect();
        assert_eq!(got, want, "{name}: held-back items out of order or lost");
    }
}
