//! The global task queue abstraction behind dynamic scheduling.
//!
//! Dynamic mappings differ only in where the "Global Queue" of Figure 2
//! lives: in process (`dyn_multi`, `hybrid_multi`) or in a Redis stream
//! (`dyn_redis`, `hybrid_redis`). [`TaskQueue`] abstracts over both so the
//! engine core behind [`crate::mappings::dynamic`] and
//! [`crate::mappings::hybrid`] is written once. The trait exposes the two
//! monitoring signals the auto-scaling strategies need: queue depth
//! (multiprocessing strategy) and per-consumer idle times (Redis
//! consumer-group strategy).
//!
//! One in-process backend implements the trait: [`WorkStealQueue`],
//! per-worker locals with stealing (see [`d4py_sync::steal`]). It serves
//! the global queue of `dyn_multi` and `dyn_auto_multi` and every queue of
//! `hybrid_multi`; a private queue is simply one with a single consumer.
//! Batched operations ([`TaskQueue::push_batch`],
//! [`TaskQueue::pop_batch`]) have per-item default implementations so
//! backends without a native batch path (the Redis stream) stay conformant.

use crate::error::CoreError;
use crate::task::QueueItem;
use d4py_sync::channel::RecvTimeoutError;
use d4py_sync::steal::StealQueue;
use d4py_sync::Mutex;
use std::time::{Duration, Instant};

/// A shared multi-producer multi-consumer task queue.
pub trait TaskQueue: Send + Sync {
    /// Enqueues an item.
    fn push(&self, item: QueueItem) -> Result<(), CoreError>;

    /// Dequeues an item on behalf of `consumer`, blocking up to `timeout`.
    /// `Ok(None)` means the queue stayed empty for the whole timeout.
    fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError>;

    /// Enqueues a whole batch. `producer: Some(worker)` names the worker
    /// that generated the batch so locality-aware backends can keep the
    /// fan-out on that worker's local queue; `None` means no worker
    /// identity (seeding, pills). Backends with a native batch path issue
    /// one wakeup for the whole batch; this default degrades to per-item
    /// pushes. All-or-nothing on failure for native implementations; the
    /// default may leave a prefix enqueued if a mid-batch push fails.
    fn push_batch(&self, producer: Option<usize>, items: Vec<QueueItem>) -> Result<(), CoreError> {
        let _ = producer;
        for item in items {
            self.push(item)?;
        }
        Ok(())
    }

    /// Dequeues up to `max` items for `consumer`, blocking (up to
    /// `timeout`) only for the first. An empty vec means the queue stayed
    /// empty for the whole timeout. A successful batch counts as **one**
    /// activity event in the idle-time accounting, not one per item.
    fn pop_batch(
        &self,
        consumer: usize,
        max: usize,
        timeout: Duration,
    ) -> Result<Vec<QueueItem>, CoreError> {
        if max == 0 {
            return Ok(Vec::new());
        }
        Ok(self.pop(consumer, timeout)?.into_iter().collect())
    }

    /// Current number of queued items (the multiprocessing monitoring
    /// metric).
    fn depth(&self) -> usize;

    /// Per-consumer idle time — elapsed since each consumer's last
    /// successful pop (the Redis consumer-group monitoring metric). `None`
    /// if the backend does not track consumers.
    fn idle_times(&self) -> Option<Vec<Duration>> {
        None
    }

    /// Items this queue delivered by stealing from a peer's local queue.
    /// `None` for topologies without stealing.
    fn steals(&self) -> Option<u64> {
        None
    }
}

/// Victim-selection seed for [`WorkStealQueue`]. Fixed, not sampled: the
/// engine's behaviour must not vary run to run, and the PCG32 stream is
/// decorrelated per worker/sweep inside [`StealQueue`] anyway.
const STEAL_SEED: u64 = 0xd417_57ea;

/// In-process [`TaskQueue`] over per-worker locals with work stealing.
///
/// A worker's fan-out lands on its own local queue (`push_batch` with a
/// producer identity) and is usually popped back by the same worker
/// without touching any shared cursor; idle workers steal from a
/// PCG32-chosen victim before parking. External pushes (workflow seeding,
/// poison pills) and pushes by a producer with no worker identity go
/// through the shared injector lane, so pills reach whichever worker pops
/// next and a one-consumer queue delivers each producer's items in order.
///
/// Depth and idle-time accounting keep the contract the auto-scaling
/// strategies assume: `depth()` sums the single per-queue counters (no
/// duplicated count to drift), `idle_times()` grows on demand for
/// late-joining consumers and backfills "never popped" slots with the
/// creation instant, and a batch pop is one activity event.
pub struct WorkStealQueue {
    inner: StealQueue<QueueItem>,
    /// When the queue was built; a consumer that has never popped has been
    /// idle since this instant (as `RedisQueue` reports it).
    created: Instant,
    /// Per-consumer last successful pop; `None` until the first pop.
    last_pop: Mutex<Vec<Option<Instant>>>,
}

impl WorkStealQueue {
    /// Creates a queue set serving `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            inner: StealQueue::new(workers, STEAL_SEED),
            created: Instant::now(),
            last_pop: Mutex::new(vec![None; workers]),
        }
    }

    /// Closes the queue: further pushes fail, pops drain what remains and
    /// then report disconnection.
    pub fn close(&self) {
        self.inner.close();
    }

    /// Records one successful pop (or batch pop) for `consumer`.
    ///
    /// Consumers added by scale-up pop with indexes past the initial
    /// allocation; grow the table instead of silently dropping their
    /// idle-time signal. New slots backfill with `None` ("never popped"),
    /// not the current instant — otherwise intermediate never-active
    /// consumers would read as just-active and suppress legitimate Shrink
    /// decisions.
    fn note_activity(&self, consumer: usize) {
        let mut last_pop = self.last_pop.lock();
        if consumer >= last_pop.len() {
            last_pop.resize(consumer + 1, None);
        }
        last_pop[consumer] = Some(Instant::now());
    }
}

impl TaskQueue for WorkStealQueue {
    fn push(&self, item: QueueItem) -> Result<(), CoreError> {
        self.inner
            .push(item)
            .map_err(|_| CoreError::Queue("queue closed".into()))
    }

    fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
        match self.inner.pop_timeout(consumer, timeout) {
            Ok(item) => {
                self.note_activity(consumer);
                Ok(Some(item))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(CoreError::Queue("queue disconnected".into()))
            }
        }
    }

    fn push_batch(&self, producer: Option<usize>, items: Vec<QueueItem>) -> Result<(), CoreError> {
        self.inner
            .push_batch(producer, items)
            .map_err(|_| CoreError::Queue("queue closed".into()))
    }

    fn pop_batch(
        &self,
        consumer: usize,
        max: usize,
        timeout: Duration,
    ) -> Result<Vec<QueueItem>, CoreError> {
        match self.inner.pop_batch(consumer, max, timeout) {
            Ok(batch) => {
                if !batch.is_empty() {
                    // One activity event per batch, not per item: the idle
                    // signal measures "how long since this consumer did
                    // anything", which a batch answers once.
                    self.note_activity(consumer);
                }
                Ok(batch)
            }
            Err(RecvTimeoutError::Timeout) => Ok(Vec::new()),
            Err(RecvTimeoutError::Disconnected) => {
                Err(CoreError::Queue("queue disconnected".into()))
            }
        }
    }

    fn depth(&self) -> usize {
        self.inner.len()
    }

    fn idle_times(&self) -> Option<Vec<Duration>> {
        Some(
            self.last_pop
                .lock()
                .iter()
                .map(|t| t.map_or_else(|| self.created.elapsed(), |t| t.elapsed()))
                .collect(),
        )
    }

    fn steals(&self) -> Option<u64> {
        Some(self.inner.steals() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use crate::value::Value;
    use d4py_graph::PeId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn task(i: i64) -> QueueItem {
        QueueItem::Task(Task::new(PeId(0), "in", Value::Int(i)))
    }

    #[test]
    fn fifo_within_single_consumer() {
        let q = WorkStealQueue::new(1);
        q.push(task(1)).unwrap();
        q.push(task(2)).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(0, Duration::from_millis(10)).unwrap(), Some(task(1)));
        assert_eq!(q.pop(0, Duration::from_millis(10)).unwrap(), Some(task(2)));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn pop_times_out_on_empty() {
        let q = WorkStealQueue::new(1);
        let start = Instant::now();
        assert_eq!(q.pop(0, Duration::from_millis(20)).unwrap(), None);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn depth_tracks_pushes_and_pops() {
        let q = WorkStealQueue::new(1);
        for i in 0..5 {
            q.push(task(i)).unwrap();
        }
        assert_eq!(q.depth(), 5);
        q.pop(0, Duration::from_millis(10)).unwrap();
        assert_eq!(q.depth(), 4);
    }

    #[test]
    fn failed_push_does_not_leak_depth() {
        let q = WorkStealQueue::new(1);
        q.push(task(1)).unwrap();
        q.close();
        assert!(q.push(task(2)).is_err());
        assert_eq!(q.depth(), 1, "failed push must not count toward depth");
    }

    #[test]
    fn idle_times_reset_on_pop() {
        let q = WorkStealQueue::new(2);
        std::thread::sleep(Duration::from_millis(20));
        q.push(task(1)).unwrap();
        q.pop(0, Duration::from_millis(10)).unwrap();
        let idles = q.idle_times().unwrap();
        assert!(
            idles[0] < Duration::from_millis(15),
            "consumer 0 just popped"
        );
        assert!(
            idles[1] >= Duration::from_millis(20),
            "consumer 1 never popped"
        );
    }

    #[test]
    fn late_joining_consumer_gets_idle_slot() {
        let q = WorkStealQueue::new(1);
        q.push(task(1)).unwrap();
        q.pop(3, Duration::from_millis(10)).unwrap();
        let idles = q.idle_times().unwrap();
        assert_eq!(idles.len(), 4, "table grows to cover consumer 3");
        assert!(
            idles[3] < Duration::from_millis(15),
            "consumer 3 just popped"
        );
    }

    #[test]
    fn concurrent_producers_and_consumers() {
        let q = Arc::new(WorkStealQueue::new(4));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        q.push(task(p * 100 + i)).unwrap();
                    }
                })
            })
            .collect();
        let consumed = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|c| {
                let q = q.clone();
                let n = consumed.clone();
                std::thread::spawn(move || {
                    while n.load(Ordering::SeqCst) < 400 {
                        if q.pop(c, Duration::from_millis(5)).unwrap().is_some() {
                            n.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        for h in consumers {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::SeqCst), 400);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn pills_flow_through() {
        let q = WorkStealQueue::new(1);
        q.push(QueueItem::Pill).unwrap();
        assert_eq!(
            q.pop(0, Duration::from_millis(10)).unwrap(),
            Some(QueueItem::Pill)
        );
    }

    #[test]
    fn steal_queue_local_batch_round_trips_and_counts_steals() {
        let q = WorkStealQueue::new(2);
        q.push_batch(Some(0), (0..4).map(task).collect()).unwrap();
        assert_eq!(q.depth(), 4);
        // Worker 1 finds its local empty and must steal from worker 0.
        assert_eq!(q.pop(1, Duration::from_millis(10)).unwrap(), Some(task(0)));
        assert_eq!(q.steals(), Some(1));
        let batch = q.pop_batch(0, 8, Duration::from_millis(10)).unwrap();
        assert_eq!(batch, (1..4).map(task).collect::<Vec<_>>());
        assert_eq!(q.depth(), 0);
        assert!(q
            .pop_batch(0, 8, Duration::from_millis(5))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn steal_queue_pills_reach_workers_through_injector() {
        let q = WorkStealQueue::new(2);
        q.push(QueueItem::Pill).unwrap();
        assert_eq!(
            q.pop(1, Duration::from_millis(10)).unwrap(),
            Some(QueueItem::Pill)
        );
        assert_eq!(q.steals(), Some(0), "injector pops are not steals");
    }

    #[test]
    fn steal_queue_idle_accounting_matches_channel_contract() {
        let q = WorkStealQueue::new(2);
        std::thread::sleep(Duration::from_millis(20));
        q.push_batch(Some(0), vec![task(1), task(2)]).unwrap();
        q.pop_batch(0, 2, Duration::from_millis(10)).unwrap();
        let idles = q.idle_times().unwrap();
        assert!(
            idles[0] < Duration::from_millis(15),
            "batch pop is activity"
        );
        assert!(
            idles[1] >= Duration::from_millis(20),
            "consumer 1 never popped: idle since creation"
        );
        // Late-joining consumer grows the table.
        q.push(task(3)).unwrap();
        q.pop(5, Duration::from_millis(10)).unwrap();
        assert_eq!(q.idle_times().unwrap().len(), 6);
    }

    #[test]
    fn steal_queue_close_drains_then_disconnects() {
        let q = WorkStealQueue::new(1);
        q.push(task(1)).unwrap();
        q.close();
        assert!(q.push(task(2)).is_err());
        assert_eq!(q.pop(0, Duration::from_millis(10)).unwrap(), Some(task(1)));
        assert!(q.pop(0, Duration::from_millis(10)).is_err());
    }

    #[test]
    fn default_batch_impls_degrade_to_per_item() {
        // A backend that only implements push/pop (here: WorkStealQueue
        // viewed through the default methods via a thin wrapper) must stay
        // conformant through the trait defaults.
        struct Minimal(WorkStealQueue);
        impl TaskQueue for Minimal {
            fn push(&self, item: QueueItem) -> Result<(), CoreError> {
                self.0.push(item)
            }
            fn pop(
                &self,
                consumer: usize,
                timeout: Duration,
            ) -> Result<Option<QueueItem>, CoreError> {
                self.0.pop(consumer, timeout)
            }
            fn depth(&self) -> usize {
                self.0.depth()
            }
        }
        let q = Minimal(WorkStealQueue::new(1));
        q.push_batch(Some(0), vec![task(1), task(2)]).unwrap();
        assert_eq!(q.depth(), 2);
        let batch = q.pop_batch(0, 8, Duration::from_millis(10)).unwrap();
        assert_eq!(batch, vec![task(1)], "default pop_batch pops one item");
        assert_eq!(
            q.pop_batch(0, 0, Duration::from_millis(10)).unwrap(),
            vec![]
        );
        assert_eq!(q.steals(), None);
    }
}
