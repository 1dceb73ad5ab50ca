//! The sink tap: the one piece of the harness that rides inside a measured
//! run.
//!
//! [`wrap`] rebuilds an executable over a clone of its graph, re-registering
//! `exe.instantiate(pe)` for every PE, so the workflow code is untouched.
//! Sink PEs get a [`TappedSink`] in front: it stamps the first result (the
//! `first_result_ms` metric), counts the items that reach a sink and folds
//! them into an order-independent hash for the correctness oracle. In a
//! traced pass every PE is also wrapped in a [`TimedPe`].

use crate::trace::{now_ns, TimedPe};
use dispel4py::core::executable::Executable;
use dispel4py::core::pe::{Context, ProcessingElement};
use dispel4py::core::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const UNSET: u64 = u64::MAX;

/// What the sinks of one run saw.
pub struct Tap {
    first_ns: AtomicU64,
    last_ns: AtomicU64,
    count: AtomicU64,
    hash: AtomicU64,
    /// Fold item payloads into `hash`. Off where the items a sink receives
    /// legitimately depend on scheduling (partial aggregates).
    hash_items: bool,
    /// Stamp every sink call, not just the first (traced pass only: it
    /// costs a clock read per sink item).
    stamp_last: bool,
}

/// A drained [`Tap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapReading {
    /// When the first item reached a sink ([`now_ns`] clock), if any did.
    pub first_ns: Option<u64>,
    /// When the last one did; only with `stamp_last`.
    pub last_ns: Option<u64>,
    pub count: u64,
    /// Order-independent hash of the items; `None` where it is switched off.
    pub hash: Option<u64>,
}

impl Tap {
    pub fn new(hash_items: bool, stamp_last: bool) -> Arc<Tap> {
        Arc::new(Tap {
            first_ns: AtomicU64::new(UNSET),
            last_ns: AtomicU64::new(UNSET),
            count: AtomicU64::new(0),
            hash: AtomicU64::new(0),
            hash_items,
            stamp_last,
        })
    }

    fn observe(&self, value: &Value) {
        // relaxed: the tap's cells are independent statistics; `take` reads
        // them only after the engine has joined its workers.
        let first_unset = self.first_ns.load(Ordering::Relaxed) == UNSET;
        if first_unset || self.stamp_last {
            let now = now_ns();
            if first_unset {
                // relaxed: as above; `fetch_min` keeps the earliest stamp
                // when two workers race for the first result.
                self.first_ns.fetch_min(now, Ordering::Relaxed);
            }
            if self.stamp_last {
                // relaxed: as above.
                self.last_ns.store(now, Ordering::Relaxed);
            }
        }
        // relaxed: as above.
        self.count.fetch_add(1, Ordering::Relaxed);
        if self.hash_items {
            // A wrapping sum of strong per-item hashes is order-independent
            // and, with the count, identifies the multiset.
            // relaxed: as above.
            self.hash
                .fetch_add(mix(value.routing_hash()), Ordering::Relaxed);
        }
    }

    /// Reads the tap and resets it for the next repetition.
    pub fn take(&self) -> TapReading {
        let stamp = |cell: &AtomicU64| match cell.swap(UNSET, Ordering::SeqCst) {
            UNSET => None,
            ns => Some(ns),
        };
        TapReading {
            first_ns: stamp(&self.first_ns),
            last_ns: stamp(&self.last_ns),
            count: self.count.swap(0, Ordering::SeqCst),
            hash: self.hash_items.then(|| self.hash.swap(0, Ordering::SeqCst)),
        }
    }
}

/// SplitMix64 finaliser: spreads FNV's weak low bits before summing.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct TappedSink {
    inner: Box<dyn ProcessingElement>,
    tap: Arc<Tap>,
}

impl ProcessingElement for TappedSink {
    fn process(&mut self, port: &str, value: Value, ctx: &mut dyn Context) {
        self.tap.observe(&value);
        self.inner.process(port, value, ctx);
    }
    fn on_done(&mut self, ctx: &mut dyn Context) {
        self.inner.on_done(ctx);
    }
    fn snapshot(&self) -> Option<Value> {
        self.inner.snapshot()
    }
    fn restore(&mut self, state: Value) {
        self.inner.restore(state);
    }
}

/// Rebuilds `exe` with its sinks tapped and, when `sample_every` is given,
/// every PE timed (sampling one delivered task in `sample_every`).
pub fn wrap(exe: &Executable, tap: &Arc<Tap>, sample_every: Option<u64>) -> Executable {
    let graph = exe.graph().clone();
    let sinks = graph.sinks();
    let mut wrapped = Executable::new(graph).expect("the graph validated once already");
    for pe in exe.graph().pe_ids() {
        let inner = exe.clone();
        let tap = sinks.contains(&pe).then(|| tap.clone());
        wrapped.register(pe, move || {
            let mut instance = inner
                .instantiate(pe)
                .expect("the wrapped executable was sealed");
            if let Some(sample_every) = sample_every {
                instance = Box::new(TimedPe {
                    inner: instance,
                    pe,
                    sample_every,
                });
            }
            match &tap {
                Some(tap) => Box::new(TappedSink {
                    inner: instance,
                    tap: tap.clone(),
                }),
                None => instance,
            }
        });
    }
    wrapped.seal().expect("every PE was re-registered")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispel4py::prelude::*;

    fn tiny(values: Vec<i64>) -> Executable {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, move || {
            let values = values.clone();
            Box::new(FnSource(move |ctx: &mut dyn Context| {
                for v in &values {
                    ctx.emit("out", Value::Int(*v));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        exe.seal().unwrap()
    }

    fn reading(values: Vec<i64>) -> TapReading {
        let tap = Tap::new(true, false);
        let exe = wrap(&tiny(values), &tap, None);
        Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        tap.take()
    }

    #[test]
    fn hash_is_order_independent_and_value_sensitive() {
        let a = reading(vec![1, 2, 3]);
        let b = reading(vec![3, 1, 2]);
        let c = reading(vec![1, 2, 4]);
        assert_eq!(a.count, 3);
        assert_eq!((a.count, a.hash), (b.count, b.hash));
        assert_ne!(a.hash, c.hash);
        assert!(a.first_ns.is_some());
    }

    #[test]
    fn take_resets_the_tap() {
        let tap = Tap::new(true, true);
        let exe = wrap(&tiny(vec![5]), &tap, None);
        Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        assert_eq!(tap.take().count, 1);
        let empty = tap.take();
        assert_eq!(
            (empty.count, empty.first_ns, empty.last_ns),
            (0, None, None)
        );
    }
}
