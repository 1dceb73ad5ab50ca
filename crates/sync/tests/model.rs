//! Model-checked invariants of the lock-free core, and replicas of two
//! protocols built over locks and atomics: how a dynamic or hybrid run
//! ends, and how a redis-lite blocking read waits for a write.
//!
//! Compiled only under `--cfg d4py_model` (see `scripts/verify.sh`), where
//! `segqueue`/`channel` run on the instrumented sync facade with tiny
//! blocks (`LAP = 4`) and a short park spin, so the explorer reaches block
//! installation, boundary hand-off, cooperative destruction, and the
//! condvar park/wakeup protocol within its preemption budget.
//!
//! Iteration budgets: tests tagged `iterations_env` scale with
//! `D4PY_MODEL_ITERS` (small smoke budget in verify.sh, full budget in
//! CI); the 10k-interleaving determinism witness uses a fixed budget
//! because its thresholds are the acceptance criterion.
#![cfg(d4py_model)]

use d4py_sync::channel::{unbounded, Receiver, Sender};
use d4py_sync::model::shim::{self, AtomicBool, AtomicUsize, Ordering};
use d4py_sync::model::{self, Checker, FailureKind, Mode};
use d4py_sync::segqueue::SegQueue;
use d4py_sync::steal::StealQueue;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Two producers pushing two items each, two consumers draining them, with
/// an exactly-once assertion — the workload the acceptance criterion's
/// 10k-interleaving exploration runs over.
fn segqueue_2p2c() {
    const P: usize = 2;
    const C: usize = 2;
    const ITEMS: usize = 2;
    let q = Arc::new(SegQueue::new());
    let popped = Arc::new(AtomicUsize::new(0));
    let got = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for p in 0..P {
        let q = q.clone();
        handles.push(model::thread::spawn(move || {
            for i in 0..ITEMS {
                q.push(p * ITEMS + i);
            }
        }));
    }
    for _ in 0..C {
        let q = q.clone();
        let popped = popped.clone();
        let got = got.clone();
        handles.push(model::thread::spawn(move || {
            while popped.load(Ordering::SeqCst) < P * ITEMS {
                if let Some(v) = q.pop() {
                    popped.fetch_add(1, Ordering::SeqCst);
                    got.lock().unwrap().push(v);
                } else {
                    model::thread::yield_now();
                }
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let mut all = got.lock().unwrap().clone();
    all.sort_unstable();
    let expected: Vec<usize> = (0..P * ITEMS).collect();
    assert_eq!(all, expected, "items lost or duplicated");
    assert_eq!(q.len(), 0);
}

/// Acceptance criterion: >= 10k distinct interleavings of the 2p/2c
/// scenario, explored deterministically — two identical DFS runs must walk
/// the identical schedule sequence (equal digests, equal counts).
#[test]
fn segqueue_2p2c_dfs_explores_10k_distinct_interleavings_deterministically() {
    let run = || {
        Checker::new("segqueue-2p2c")
            .iterations(12_000)
            .report(segqueue_2p2c)
    };
    let a = run();
    assert!(a.failure.is_none(), "unexpected failure: {:?}", a.failure);
    assert!(
        a.executions >= 10_000,
        "explored only {} interleavings",
        a.executions
    );
    // Under DFS every execution takes a distinct branch by construction.
    assert_eq!(a.distinct, a.executions);

    let b = run();
    assert_eq!(a.executions, b.executions, "non-deterministic exploration");
    assert_eq!(a.digest, b.digest, "non-deterministic schedule sequence");
}

/// The seeded-random fallback is just as reproducible: same seed, same
/// schedule sequence.
#[test]
fn segqueue_2p2c_random_mode_same_seed_same_schedules() {
    let run = |seed| {
        Checker::new("segqueue-2p2c-random")
            .mode(Mode::Random)
            .seed(seed)
            .iterations(250)
            .report(segqueue_2p2c)
    };
    let a = run(0x5eed_cafe);
    let b = run(0x5eed_cafe);
    assert!(a.failure.is_none(), "unexpected failure: {:?}", a.failure);
    assert_eq!(a.digest, b.digest, "same seed must replay the same runs");
    assert_eq!(a.distinct, b.distinct);
}

/// `len()` may never under-count into a phantom backlog or underflow (an
/// underflow panics in debug builds, which the checker reports with the
/// interleaving), even while pushes cross a block boundary.
#[test]
fn segqueue_len_stays_sane_under_concurrency() {
    Checker::new("segqueue-len")
        .iterations_env(2_000)
        .check(|| {
            let q = Arc::new(SegQueue::new());
            let q_push = q.clone();
            // 4 items crosses the model block boundary (BLOCK_CAP = 3).
            let t = model::thread::spawn(move || {
                for i in 0..4 {
                    q_push.push(i);
                }
            });
            let q_pop = q.clone();
            let c = model::thread::spawn(move || {
                let mut n = 0;
                while n < 4 {
                    if q_pop.pop().is_some() {
                        n += 1;
                    } else {
                        model::thread::yield_now();
                    }
                }
            });
            for _ in 0..3 {
                let len = q.len();
                assert!(len <= 4, "phantom backlog: len = {len}");
            }
            t.join();
            c.join();
            assert_eq!(q.len(), 0);
            assert!(q.is_empty());
        });
}

/// Regression for the trickiest reclamation schedule: a reader that
/// claimed a slot but was preempted before marking it READ, while a peer
/// crosses the block boundary and starts destruction. The DESTROY hand-off
/// must free the block exactly once (a double free or leak fails the run).
#[test]
fn segqueue_destroy_vs_late_reader_on_block_boundary() {
    Checker::new("segqueue-destroy-late-reader")
        .iterations_env(3_000)
        .check(|| {
            let q = Arc::new(SegQueue::new());
            // Fill block 0 entirely (3 slots) plus one item in block 1 so
            // popping crosses the boundary and reclaims block 0.
            for i in 0..4 {
                q.push(i);
            }
            let popped = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let q = q.clone();
                let popped = popped.clone();
                handles.push(model::thread::spawn(move || {
                    while popped.load(Ordering::SeqCst) < 4 {
                        if q.pop().is_some() {
                            popped.fetch_add(1, Ordering::SeqCst);
                        } else {
                            model::thread::yield_now();
                        }
                    }
                }));
            }
            for h in handles {
                h.join();
            }
        });
}

/// Acceptance criterion: a deliberately broken destroy hand-off (the
/// injected fault ignores in-progress readers and keeps walking) is caught
/// as a double free, with the failing interleaving attached.
#[test]
fn segqueue_double_destroy_fault_is_caught_with_trace() {
    let report = Checker::new("segqueue-double-destroy-fault")
        .iterations(5_000)
        .fault("segqueue-double-destroy")
        .report(|| {
            let q = Arc::new(SegQueue::new());
            for i in 0..4 {
                q.push(i);
            }
            let popped = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let q = q.clone();
                let popped = popped.clone();
                handles.push(model::thread::spawn(move || {
                    while popped.load(Ordering::SeqCst) < 4 {
                        if q.pop().is_some() {
                            popped.fetch_add(1, Ordering::SeqCst);
                        } else {
                            model::thread::yield_now();
                        }
                    }
                }));
            }
            for h in handles {
                h.join();
            }
        });
    let failure = report
        .failure
        .expect("injected double destroy must be detected");
    assert_eq!(failure.kind, FailureKind::DoubleFree);
    assert!(
        !failure.schedule.is_empty(),
        "failure must carry its schedule"
    );
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
    assert!(
        failure.trace.contains("free block"),
        "trace should show the block frees:\n{}",
        failure.trace
    );
}

/// Channel exactly-once delivery across 2 producers and 2 consumers,
/// including the disconnect-drain path when the last sender drops.
#[test]
fn channel_2p2c_exactly_once() {
    Checker::new("channel-2p2c")
        .iterations_env(3_000)
        .check(|| {
            let (tx, rx) = unbounded::<usize>();
            let mut handles = Vec::new();
            for p in 0..2 {
                let tx = tx.clone();
                handles.push(model::thread::spawn(move || {
                    for i in 0..2 {
                        tx.send(p * 2 + i).unwrap();
                    }
                }));
            }
            drop(tx);
            let got = Arc::new(Mutex::new(Vec::new()));
            for _ in 0..2 {
                let rx = rx.clone();
                let got = got.clone();
                handles.push(model::thread::spawn(move || {
                    while let Ok(v) = rx.recv() {
                        got.lock().unwrap().push(v);
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            let mut all = got.lock().unwrap().clone();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3], "items lost or duplicated");
        });
}

/// The park/wakeup-generation protocol never loses a wakeup: a receiver
/// blocked in untimed `recv` must always be woken by the one send. A lost
/// wakeup shows up as a deadlock, which the checker detects.
#[test]
fn channel_park_never_loses_a_wakeup() {
    Checker::new("channel-no-lost-wakeup")
        .iterations_env(3_000)
        .check(|| {
            let (tx, rx) = unbounded::<u32>();
            let tx_child = tx.clone();
            let t = model::thread::spawn(move || {
                tx_child.send(7).unwrap();
            });
            // `tx` stays alive in this thread, so the disconnect path can
            // never bail the receiver out — only the wakeup protocol can.
            assert_eq!(rx.recv(), Ok(7));
            t.join();
            drop(tx);
        });
}

/// Timed waits, organic coverage: two `recv_timeout` receivers and two
/// queued items — every schedule must deliver both items exactly once. A
/// receiver parked at (model) quiescence wakes timed-out and must recover
/// its item in the final-check pop rather than report a spurious timeout.
#[test]
fn channel_timed_receivers_deliver_exactly_once() {
    Checker::new("channel-timed-exactly-once")
        .iterations_env(3_000)
        .check(|| {
            let (tx, rx) = unbounded::<u32>();
            let tx_child = tx.clone();
            let sender = model::thread::spawn(move || {
                tx_child.send(1).unwrap();
                tx_child.send(2).unwrap();
            });
            let got = Arc::new(Mutex::new(Vec::new()));
            let mut receivers = Vec::new();
            for _ in 0..2 {
                let rx = rx.clone();
                let got = got.clone();
                receivers.push(model::thread::spawn(move || {
                    let v = rx
                        .recv_timeout(Duration::from_millis(10))
                        .expect("an item is queued for every timed receiver");
                    got.lock().unwrap().push(v);
                }));
            }
            sender.join();
            for r in receivers {
                r.join();
            }
            // `tx` stayed alive throughout, so the disconnect path never
            // rescued a receiver — only the timed park protocol ran.
            drop(tx);
            let mut all = got.lock().unwrap().clone();
            all.sort_unstable();
            assert_eq!(
                all,
                vec![1, 2],
                "timed receivers lost or duplicated an item"
            );
        });
}

/// Timed waits with one item short: exactly one of two timed receivers
/// gets the item, the other reports `Timeout` — never a deadlock, never a
/// duplicate.
#[test]
fn channel_timed_receivers_one_item_one_timeout() {
    Checker::new("channel-timed-one-item")
        .iterations_env(2_000)
        .check(|| {
            let (tx, rx) = unbounded::<u32>();
            let tx_child = tx.clone();
            let sender = model::thread::spawn(move || {
                tx_child.send(7).unwrap();
            });
            let oks = Arc::new(AtomicUsize::new(0));
            let mut receivers = Vec::new();
            for _ in 0..2 {
                let rx = rx.clone();
                let oks = oks.clone();
                receivers.push(model::thread::spawn(move || {
                    if rx.recv_timeout(Duration::from_millis(10)) == Ok(7) {
                        oks.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            sender.join();
            for r in receivers {
                r.join();
            }
            drop(tx);
            assert_eq!(
                oks.load(Ordering::SeqCst),
                1,
                "exactly one timed receiver must get the single item"
            );
        });
}

/// The timeout-steal scenario behind the rewake fix in `recv_core`: an
/// untimed receiver A and a timed receiver B, two items pushed with no
/// notification (reachable only via the injected repoll-skip fault). At
/// quiescence B wakes timed-out and its final-check pop takes an item; the
/// re-issued wakeup is then the only thing that can reach A, parked over
/// the second item.
fn timeout_steal_scenario() {
    let (tx, rx) = unbounded::<u32>();
    let rx_untimed = rx.clone();
    let a = model::thread::spawn(move || {
        // Two items are queued for two receivers, so an untimed receiver
        // must always get one.
        rx_untimed.recv().unwrap();
    });
    let b = model::thread::spawn(move || {
        // Err(Timeout) is legal for the timed receiver; stalling is not.
        let _ = rx.recv_timeout(Duration::from_millis(10));
    });
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    a.join();
    b.join();
    drop(tx);
}

/// Acceptance criterion for the rewake fix: suppressing the timeout-path
/// rewake (fault `channel-timeout-steal-no-wake`) on top of the repoll
/// skip is caught as a deadlock — B's final-check pop consumes the item
/// whose wakeup was A's only rescue. The repoll skip is required to reach
/// the window at all: with the re-poll in place, an item can never sit
/// queued without a pending notification, which is exactly the invariant
/// the shipped code maintains.
#[test]
fn channel_timeout_steal_without_rewake_is_caught_as_deadlock() {
    let report = Checker::new("channel-timeout-steal-fault")
        .iterations(5_000)
        .fault("channel-skip-park-repoll")
        .fault("channel-timeout-steal-no-wake")
        .report(timeout_steal_scenario);
    let failure = report
        .failure
        .expect("suppressed timeout-steal rewake must deadlock some schedule");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
}

/// Control for the test above: the rewake suppression alone (protocol
/// otherwise intact) never fails — the re-poll keeps the
/// queued-item-without-notification window closed, so the timeout path
/// never steals a notified item organically.
#[test]
fn channel_timeout_steal_rewake_alone_is_never_needed_organically() {
    let report = Checker::new("channel-timeout-steal-control")
        .iterations_env(2_000)
        .fault("channel-timeout-steal-no-wake")
        .report(timeout_steal_scenario);
    assert!(
        report.failure.is_none(),
        "unexpected failure: {:?}",
        report.failure
    );
}

/// Acceptance criterion: breaking the protocol (skip the re-poll between
/// waiter registration and the wait) is caught as a deadlock, with the
/// lost-wakeup interleaving printed.
#[test]
fn channel_lost_wakeup_fault_is_caught_with_trace() {
    let report = Checker::new("channel-lost-wakeup-fault")
        .iterations(5_000)
        .fault("channel-skip-park-repoll")
        .report(|| {
            let (tx, rx) = unbounded::<u32>();
            let tx_child = tx.clone();
            let t = model::thread::spawn(move || {
                tx_child.send(7).unwrap();
            });
            assert_eq!(rx.recv(), Ok(7));
            t.join();
            drop(tx);
        });
    let failure = report.failure.expect("lost wakeup must be detected");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
    assert!(
        failure.trace.contains("condvar#"),
        "trace should show the condvar wait:\n{}",
        failure.trace
    );
}

/// Steal-vs-pop exactly-once: worker 0's local holds two items and the
/// injector one; both workers drain concurrently, so worker 1's steal
/// races worker 0's own pop on the same segqueue slots. No item may be
/// lost or observed twice under any interleaving.
#[test]
fn steal_pop_vs_steal_exactly_once() {
    Checker::new("steal-exactly-once")
        .iterations_env(3_000)
        .check(|| {
            let q = Arc::new(StealQueue::new(2, 0xd4));
            q.push_local(0, 0).unwrap();
            q.push_local(0, 1).unwrap();
            q.push(2).unwrap();
            let popped = Arc::new(AtomicUsize::new(0));
            let got = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for w in 0..2 {
                let q = q.clone();
                let popped = popped.clone();
                let got = got.clone();
                handles.push(model::thread::spawn(move || {
                    while popped.load(Ordering::SeqCst) < 3 {
                        if let Some(v) = q.try_pop(w) {
                            popped.fetch_add(1, Ordering::SeqCst);
                            got.lock().unwrap().push(v);
                        } else {
                            model::thread::yield_now();
                        }
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            let mut all = got.lock().unwrap().clone();
            all.sort_unstable();
            assert_eq!(
                all,
                vec![0, 1, 2],
                "steal-vs-pop lost or duplicated an item"
            );
            assert_eq!(q.len(), 0);
        });
}

/// No lost wakeup after a failed sweep: worker 0 blocks with every queue
/// empty, then an item lands on worker 1's local. The push's wakeup must
/// reach the parked worker, whose re-sweep then steals the item — a lost
/// wakeup shows up as a deadlock.
#[test]
fn steal_park_never_loses_a_wakeup() {
    Checker::new("steal-no-lost-wakeup")
        .iterations_env(3_000)
        .check(|| {
            let q = Arc::new(StealQueue::new(2, 0xd4));
            let q_push = q.clone();
            let t = model::thread::spawn(move || {
                q_push.push_local(1, 7u32).unwrap();
            });
            assert_eq!(q.pop_wait(0), Ok(7), "parked worker must steal the item");
            t.join();
        });
}

/// Acceptance criterion: breaking the steal park protocol (skip the
/// re-sweep between waiter registration and the wait) is caught as a
/// deadlock with the lost-wakeup interleaving printed — the same guarantee
/// the channel fault test pins, now over the full steal sweep.
#[test]
fn steal_lost_wakeup_fault_is_caught_with_trace() {
    let report = Checker::new("steal-lost-wakeup-fault")
        .iterations(5_000)
        .fault("steal-skip-park-repoll")
        .report(|| {
            let q = Arc::new(StealQueue::new(2, 0xd4));
            let q_push = q.clone();
            let t = model::thread::spawn(move || {
                q_push.push_local(1, 7u32).unwrap();
            });
            assert_eq!(q.pop_wait(0), Ok(7));
            t.join();
        });
    let failure = report.failure.expect("lost wakeup must be detected");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
    assert!(
        failure.trace.contains("condvar#"),
        "trace should show the condvar wait:\n{}",
        failure.trace
    );
}

/// A batch push notifies once for the whole batch; that single
/// notification must still reach *every* parked worker that can make
/// progress (wake_many uses notify_all). A notify_one regression leaves
/// one worker parked over its item — a deadlock the checker detects.
#[test]
fn steal_batch_wakeup_reaches_every_parked_worker() {
    Checker::new("steal-batch-wakeup")
        .iterations_env(2_000)
        .check(|| {
            let q = Arc::new(StealQueue::new(2, 0xd4));
            let mut handles = Vec::new();
            for w in 0..2 {
                let q = q.clone();
                handles.push(model::thread::spawn(move || {
                    q.pop_wait(w).unwrap();
                }));
            }
            q.push_batch(None, vec![1, 2]).unwrap();
            for h in handles {
                h.join();
            }
            assert_eq!(q.len(), 0, "both items consumed exactly once");
        });
}

/// What travels the queue of [`quiescence_protocol`]: a task, named by what
/// it emits, or a pill.
#[derive(Debug, PartialEq)]
enum Item {
    Task(u8),
    Pill,
}

/// How [`quiescence_protocol`] orders a write: the engine's way, or one of
/// the mutations the checker must catch.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    /// Settle, then push; the source is retired by its last write.
    Engine,
    /// Push, then settle.
    PushBeforeSettle,
    /// The source is retired by its first, mid-task write.
    RetireAtFirstWrite,
}

/// One worker of [`quiescence_protocol`], with the run's shared state.
struct Replica {
    tx: Sender<Item>,
    rx: Receiver<Item>,
    outstanding: Arc<AtomicUsize>,
    popped: Arc<AtomicUsize>,
    broadcasts: Arc<AtomicUsize>,
    variant: Variant,
}

impl Replica {
    const WORKERS: usize = 2;
    const TASKS: usize = 4;

    /// Pops until a pill, which it may only meet once every task was
    /// popped: none is queued, and none is in a hand that has yet to push
    /// what it emits.
    fn work(&self) {
        loop {
            match self.rx.recv().unwrap() {
                Item::Pill => {
                    let popped = self.popped.load(Ordering::SeqCst);
                    assert_eq!(popped, Self::TASKS, "left while a task was queued or held");
                    return;
                }
                Item::Task(task) => self.run(task, true),
            }
        }
    }

    /// Task 3 is the source: it writes child 0 mid-task, then — as the
    /// engine's caller-runs backpressure does — tries one pop and runs
    /// what it got, then writes child 1 and retires. Task 1 emits 0, task
    /// 0 nothing: four tasks, two levels of emission. A helped task never
    /// helps.
    fn run(&self, task: u8, may_help: bool) {
        self.popped.fetch_add(1, Ordering::SeqCst);
        match task {
            3 => {
                self.write(&[0], self.variant == Variant::RetireAtFirstWrite);
                if may_help {
                    match self.rx.try_recv() {
                        Ok(Item::Task(child)) => self.run(child, false),
                        // The run is ending: the pill goes back.
                        Ok(Item::Pill) => self.tx.send(Item::Pill).unwrap(),
                        Err(_) => {}
                    }
                }
                self.write(&[1], self.variant != Variant::RetireAtFirstWrite);
            }
            1 => self.write(&[0], true),
            _ => self.write(&[], true),
        }
    }

    /// One write window: settle `outstanding` with one update
    /// (`+ children − retired`) and push the children; the settle that
    /// reaches zero raises the flag's equivalent and pushes one pill per
    /// worker.
    fn write(&self, children: &[u8], retires: bool) {
        let push = || {
            for &child in children {
                self.tx.send(Item::Task(child)).unwrap();
            }
        };
        let settle_first = self.variant != Variant::PushBeforeSettle;
        if !settle_first {
            push();
        }
        // As the engine: a window that emits what it retires does not
        // touch the counter, and only one without children can reach zero.
        let delta = children.len().wrapping_sub(usize::from(retires));
        let before = (delta != 0).then(|| self.outstanding.fetch_add(delta, Ordering::SeqCst));
        if settle_first {
            push();
        }
        if children.is_empty() && before == Some(1) {
            self.broadcasts.fetch_add(1, Ordering::SeqCst);
            for _ in 0..Self::WORKERS {
                self.tx.send(Item::Pill).unwrap();
            }
        }
    }
}

/// A replica of how a strict dynamic run ends (`core::mappings::engine`,
/// DESIGN.md §5): workers pop from one queue; each write window is settled
/// in `outstanding` with one update and its children pushed; the worker
/// whose settle reaches zero pushes one pill per worker and, like its
/// peers, leaves at the pill it pops. The source writes in two windows and
/// runs a popped child in between; it stays counted until its last one.
fn quiescence_protocol(variant: Variant) {
    let (tx, rx) = unbounded::<Item>();
    // Seeds are counted and queued before any worker exists.
    let outstanding = Arc::new(AtomicUsize::new(1));
    tx.send(Item::Task(3)).unwrap();
    let popped = Arc::new(AtomicUsize::new(0));
    let broadcasts = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..Replica::WORKERS)
        .map(|_| {
            let replica = Replica {
                tx: tx.clone(),
                rx: rx.clone(),
                outstanding: outstanding.clone(),
                popped: popped.clone(),
                broadcasts: broadcasts.clone(),
                variant,
            };
            model::thread::spawn(move || replica.work())
        })
        .collect();
    // Untimed receives: a schedule in which nobody broadcasts is a deadlock.
    for w in workers {
        w.join();
    }
    assert_eq!(
        broadcasts.load(Ordering::SeqCst),
        1,
        "one worker broadcasts"
    );
    assert!(
        rx.try_recv().is_err(),
        "every pill was read, nothing is queued"
    );
}

/// Settle before push, the source retired by its last write: in every
/// schedule — helping included — the run ends, exactly one worker
/// broadcasts, and no worker leaves while a task is queued or held.
#[test]
fn quiescence_zero_crossing_ends_the_run_exactly_once() {
    Checker::new("quiescence-zero-crossing")
        .iterations_env(3_000)
        .check(|| quiescence_protocol(Variant::Engine));
}

/// The order the engine must not use — push, then settle — lets a peer
/// retire a child before its parent's window is counted: the count touches
/// zero with a task in hand, and the checker must find that schedule.
#[test]
fn quiescence_push_before_settle_is_caught_with_trace() {
    // DFS reaches the preemption between push and settle a few thousand
    // schedules in; the budget leaves room for the channel to change.
    let report = Checker::new("quiescence-push-before-settle")
        .iterations(20_000)
        .report(|| quiescence_protocol(Variant::PushBeforeSettle));
    let failure = report
        .failure
        .expect("a premature zero must be reachable when the push comes first");
    assert_eq!(failure.kind, FailureKind::Panic, "{}", failure.message);
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
}

/// A source retired at its first mid-task write is no longer counted while
/// it still holds a child to write: a peer's settle can reach zero first,
/// and the checker must find that schedule.
#[test]
fn quiescence_retiring_the_source_early_is_caught_with_trace() {
    let report = Checker::new("quiescence-retire-at-first-write")
        .iterations(20_000)
        .report(|| quiescence_protocol(Variant::RetireAtFirstWrite));
    let failure = report
        .failure
        .expect("a premature zero must be reachable when the source retires early");
    assert_eq!(failure.kind, FailureKind::Panic, "{}", failure.message);
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
}

/// What travels a queue of [`staged_protocol`]: a task, named by what it
/// is, a Flush, or a pill.
#[derive(Debug, PartialEq)]
enum Staged {
    /// The source: one input for each stage.
    Source,
    /// An input of a stage: it only updates the stage's state.
    Input,
    /// What the flush of stage A (into B) or B (into the sink) emitted.
    Output(usize),
    Flush,
    Pill,
}

/// How [`staged_protocol`] takes a zero-crossing: the engine's way, or one
/// of the mutations the checker must catch.
#[derive(Clone, Copy, PartialEq)]
enum Staging {
    /// The next stage per zero-crossing, its Flush counted before the push.
    Engine,
    /// Both stages flushed at the first zero-crossing.
    FlushBothAtOnce,
    /// A Flush pushed without being counted, A's `on_done` emitting nothing.
    UncountedFlush,
}

/// The run [`staged_protocol`] replicates — a global queue with one pool
/// worker and two stateful stages, A → B, each with its own queue and one
/// slot worker — and what the checks read.
struct Stages {
    /// The global queue, then A's and B's.
    queues: [(Sender<Staged>, Receiver<Staged>); 3],
    outstanding: AtomicUsize,
    /// Stages whose Flush was pushed; past the last, the pills were sent.
    next_stage: AtomicUsize,
    /// Per stage, the Flushes it popped.
    flushes: [AtomicUsize; 2],
    /// Per stage, the runs of its flush's output.
    outputs_run: [AtomicUsize; 2],
    broadcasts: AtomicUsize,
    staging: Staging,
}

impl Stages {
    const POOL: usize = 0;
    const A: usize = 1;
    const B: usize = 2;

    /// The worker of queue `q`: pops until its pill. The source emits an
    /// input into each stage; A's flush emits one task into B, B's one into
    /// the global queue (the sink); every other task emits nothing.
    fn work(&self, q: usize) {
        loop {
            match self.queues[q].1.recv().unwrap() {
                Staged::Pill => {
                    for flushes in &self.flushes {
                        assert_eq!(flushes.load(Ordering::SeqCst), 1, "left unflushed");
                    }
                    return;
                }
                Staged::Source => self.write(&[Self::A, Self::B]),
                Staged::Input => self.write(&[]),
                Staged::Output(stage) => {
                    self.outputs_run[stage].fetch_add(1, Ordering::SeqCst);
                    self.write(&[]);
                }
                Staged::Flush => {
                    let stage = q - Self::A;
                    let before = self.flushes[stage].fetch_add(1, Ordering::SeqCst);
                    assert_eq!(before, 0, "stage {stage} flushed twice");
                    if q == Self::B {
                        let ran = self.outputs_run[0].load(Ordering::SeqCst);
                        assert_eq!(ran, 1, "B flushed before it ran A's flush output");
                    }
                    match (q, self.staging) {
                        (Self::A, Staging::UncountedFlush) => self.write(&[]),
                        (Self::A, _) => self.write_output(stage, Self::B),
                        _ => self.write_output(stage, Self::POOL),
                    }
                }
            }
        }
    }

    /// One write window retiring the item just run: settle `outstanding`
    /// with one update, then push one input per queue in `into`; the settle
    /// that reaches zero takes the zero-crossing step.
    fn write(&self, into: &[usize]) {
        self.settle_and_push(into.len(), || {
            for &q in into {
                self.queues[q].0.send(Staged::Input).unwrap();
            }
        });
    }

    /// [`write`](Self::write) for a flush that emits one task into `q`.
    fn write_output(&self, stage: usize, q: usize) {
        self.settle_and_push(1, || self.queues[q].0.send(Staged::Output(stage)).unwrap());
    }

    fn settle_and_push(&self, children: usize, push: impl FnOnce()) {
        let delta = children.wrapping_sub(1);
        let before = (delta != 0).then(|| self.outstanding.fetch_add(delta, Ordering::SeqCst));
        push();
        if children == 0 && before == Some(1) {
            self.at_zero();
        }
    }

    /// The engine's `at_zero`: flush the next stage — counted, then pushed
    /// — or, past the last one, broadcast one pill per worker.
    fn at_zero(&self) {
        let take = match self.staging {
            Staging::FlushBothAtOnce => 2,
            _ => 1,
        };
        let stage = self.next_stage.fetch_add(take, Ordering::SeqCst);
        if stage < self.flushes.len() {
            if self.staging != Staging::UncountedFlush {
                self.outstanding.fetch_add(take, Ordering::SeqCst);
            }
            for (tx, _) in &self.queues[Self::A + stage..Self::A + stage + take] {
                tx.send(Staged::Flush).unwrap();
            }
        } else if stage == self.flushes.len() {
            let sunk = self.outputs_run[1].load(Ordering::SeqCst);
            assert_eq!(sunk, 1, "broadcast before the last flush's work retired");
            self.broadcasts.fetch_add(1, Ordering::SeqCst);
            for (tx, _) in &self.queues {
                tx.send(Staged::Pill).unwrap();
            }
        }
    }
}

/// A replica of how a hybrid run ends (`core::mappings::engine`, DESIGN.md
/// §5): the source is counted and queued before any worker exists and feeds
/// both stages; whichever slot worker's settle reaches zero flushes A, the
/// settle after A's flush output retired (B's) flushes B, and the one after
/// B's output retired (the pool worker's) sends the pills.
fn staged_protocol(staging: Staging) {
    let stages = Arc::new(Stages {
        queues: [unbounded(), unbounded(), unbounded()],
        outstanding: AtomicUsize::new(1),
        next_stage: AtomicUsize::new(0),
        flushes: [AtomicUsize::new(0), AtomicUsize::new(0)],
        outputs_run: [AtomicUsize::new(0), AtomicUsize::new(0)],
        broadcasts: AtomicUsize::new(0),
        staging,
    });
    stages.queues[Stages::POOL].0.send(Staged::Source).unwrap();
    let workers: Vec<_> = [Stages::POOL, Stages::A, Stages::B]
        .into_iter()
        .map(|q| {
            let stages = stages.clone();
            model::thread::spawn(move || stages.work(q))
        })
        .collect();
    // Untimed receives: a schedule in which nobody pushes is a deadlock.
    for w in workers {
        w.join();
    }
    assert_eq!(stages.broadcasts.load(Ordering::SeqCst), 1, "one broadcast");
    for (_, rx) in &stages.queues {
        assert!(rx.try_recv().is_err(), "every pill was read");
    }
}

/// One stage per zero-crossing, each Flush counted before its push: in
/// every schedule B is flushed only after it ran A's flush output, each
/// stage exactly once, and one broadcast follows the last flush's work.
#[test]
fn staged_zero_crossings_flush_each_stage_once_then_pill() {
    Checker::new("staged-zero-crossing")
        .iterations_env(3_000)
        .check(|| staged_protocol(Staging::Engine));
}
/// Flushing B at the zero-crossing that flushes A lets B's `on_done` run
/// before A's output reached it: the checker must find that schedule.
#[test]
fn staged_flushing_both_at_once_is_caught_with_trace() {
    let report = Checker::new("staged-flush-both-at-once")
        .iterations(20_000)
        .report(|| staged_protocol(Staging::FlushBothAtOnce));
    let failure = report
        .failure
        .expect("B's flush must be reachable before A's output");
    assert_eq!(failure.kind, FailureKind::Panic, "{}", failure.message);
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
}

/// A Flush pushed uncounted is retired from a count that is already zero:
/// no settle crosses zero again, nothing flushes B or sends the pills, and
/// the checker must report the stall as a deadlock.
#[test]
fn staged_uncounted_flush_is_caught_as_deadlock() {
    let report = Checker::new("staged-uncounted-flush")
        .iterations(20_000)
        .report(|| staged_protocol(Staging::UncountedFlush));
    let failure = report
        .failure
        .expect("an uncounted flush must stall the run");
    assert_eq!(failure.kind, FailureKind::Deadlock, "{}", failure.message);
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
}

/// How [`blocking_protocol`]'s readers wait: the server's way, or one of
/// the mutations the checker must catch.
#[derive(Clone, Copy, PartialEq)]
enum Blocking {
    /// The in-process reader waits with the keyspace lock it attempted
    /// under; the reactor reads the epoch before its attempt.
    Server,
    /// The in-process reader unlocks between its attempt and its wait.
    UnlockBeforeWait,
    /// The reactor reads the epoch after its attempt.
    EpochAfterAttempt,
}

/// The redis-lite server state [`blocking_protocol`] replicates
/// (`redis::engine`, `redis::reactor`): the keyspace, the condvar a write
/// pulses, the write epoch, and one reactor worker's inbox lock, signal and
/// `parked` flag.
struct Keyspace {
    /// One list; a blocking pop takes its first item.
    list: shim::Mutex<Vec<u8>>,
    wakeup: shim::Condvar,
    epoch: AtomicUsize,
    inbox: shim::Mutex<()>,
    signal: shim::Condvar,
    parked: AtomicBool,
    blocking: Blocking,
}

impl Keyspace {
    /// The attempt both readers make (`Shared::attempt`), under the
    /// keyspace lock the caller holds: `Some` pops the list's first item.
    fn attempt(list: &mut Vec<u8>) -> Option<u8> {
        (!list.is_empty()).then(|| list.remove(0))
    }

    /// `mark_write` then `wake_if_parked`: bump the epoch, pulse `wakeup`,
    /// and wake the reactor worker if its flag is up.
    fn mark_write(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.wakeup.notify_all();
        if self.parked.load(Ordering::SeqCst) {
            drop(self.inbox.lock());
            self.signal.notify_one();
        }
    }

    /// A write: push under the keyspace lock, then mark it.
    fn write(&self, item: u8) {
        self.list.lock().push(item);
        self.mark_write();
    }

    /// A successful pop unlocks, then marks its own write.
    fn popped(&self, item: u8) -> u8 {
        self.mark_write();
        item
    }

    /// `Shared::dispatch` on a blocking pop: the first attempt of
    /// `dispatch_nonblocking`, then the attempt repeated with the keyspace
    /// lock held from each failure into an untimed wait on `wakeup`.
    fn in_process_read(&self) -> u8 {
        if let Some(item) = Self::attempt(&mut self.list.lock()) {
            return self.popped(item);
        }
        let mut list = self.list.lock();
        loop {
            if let Some(item) = Self::attempt(&mut list) {
                drop(list);
                return self.popped(item);
            }
            if self.blocking == Blocking::UnlockBeforeWait {
                drop(list);
                list = self.list.lock();
            }
            self.wakeup.wait(&mut list);
        }
    }

    /// A reactor worker on a blocking pop: the first attempt of
    /// `dispatch_nonblocking` records the epoch it read before trying; each
    /// sweep reads the epoch, `poll_blocked` attempts again only if the
    /// epoch moved past the recorded one, and a sweep that found nothing
    /// parks (`WorkerShared::park`) unless the epoch moved since the sweep
    /// began — untimed here, where the server's park times out.
    fn reactor_read(&self) -> u8 {
        let mut seen = self.epoch.load(Ordering::SeqCst);
        if let Some(item) = Self::attempt(&mut self.list.lock()) {
            return self.popped(item);
        }
        if self.blocking == Blocking::EpochAfterAttempt {
            seen = self.epoch.load(Ordering::SeqCst);
        }
        loop {
            let swept = self.epoch.load(Ordering::SeqCst);
            let now = self.epoch.load(Ordering::SeqCst);
            if now != seen {
                seen = now;
                if let Some(item) = Self::attempt(&mut self.list.lock()) {
                    return self.popped(item);
                }
            }
            let mut inbox = self.inbox.lock();
            self.parked.store(true, Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) == swept {
                self.signal.wait(&mut inbox);
            }
            self.parked.store(false, Ordering::SeqCst);
        }
    }
}

/// A replica of the one blocking path (`redis::engine`, DESIGN.md §5.9): an
/// in-process reader and a reactor reader each block on an empty list while
/// a writer pushes one item for each. Untimed waits: a schedule in which a
/// reader sleeps through the write that fed it is a deadlock.
fn blocking_protocol(blocking: Blocking) {
    let keyspace = Arc::new(Keyspace {
        list: shim::Mutex::new(Vec::new()),
        wakeup: shim::Condvar::new(),
        epoch: AtomicUsize::new(0),
        inbox: shim::Mutex::new(()),
        signal: shim::Condvar::new(),
        parked: AtomicBool::new(false),
        blocking,
    });
    let readers = [
        {
            let keyspace = keyspace.clone();
            model::thread::spawn(move || keyspace.in_process_read())
        },
        {
            let keyspace = keyspace.clone();
            model::thread::spawn(move || keyspace.reactor_read())
        },
    ];
    keyspace.write(1);
    keyspace.write(2);
    let mut got: Vec<u8> = readers.into_iter().map(|r| r.join()).collect();
    got.sort_unstable();
    assert_eq!(got, [1, 2], "each reader gets one item, none twice");
}

/// The keyspace lock held from a failed attempt into the wait, the epoch
/// read before the reactor's attempt: in every schedule both readers get
/// their item. Bound 3 exhausts the tree at 38 233 schedules; bound 4 lets
/// a `D4PY_MODEL_ITERS=100000` run explore 100 000 distinct ones.
#[test]
fn blocking_reads_never_sleep_through_a_write() {
    Checker::new("blocking-reads")
        .preemption_bound(4)
        .iterations_env(3_000)
        .check(|| blocking_protocol(Blocking::Server));
}

/// Unlocking between the attempt and the wait lets the write land in the
/// gap: its notify finds no waiter, and the checker must find the reader
/// asleep over its item.
#[test]
fn blocking_unlock_before_wait_is_caught_as_deadlock() {
    let report = Checker::new("blocking-unlock-before-wait")
        .iterations(20_000)
        .report(|| blocking_protocol(Blocking::UnlockBeforeWait));
    let failure = report
        .failure
        .expect("a write between attempt and wait must be reachable");
    assert_eq!(failure.kind, FailureKind::Deadlock, "{}", failure.message);
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
}

/// An epoch read after the attempt already includes a write the attempt
/// missed, so the parked check passes over it: the checker must find the
/// reactor parked over its item.
#[test]
fn blocking_epoch_after_attempt_is_caught_as_deadlock() {
    let report = Checker::new("blocking-epoch-after-attempt")
        .iterations(20_000)
        .report(|| blocking_protocol(Blocking::EpochAfterAttempt));
    let failure = report
        .failure
        .expect("a write between attempt and epoch read must be reachable");
    assert_eq!(failure.kind, FailureKind::Deadlock, "{}", failure.message);
    assert!(
        !failure.trace.is_empty(),
        "failing schedule must be replayed with a full trace"
    );
}
