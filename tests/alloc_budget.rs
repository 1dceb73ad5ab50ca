//! The per-call path allocates nothing of its own (DESIGN.md §5, "ports as
//! indices"): an emission carries its port as an index into the route
//! table, resolved once, so on a null nine-hop chain under `dyn_multi` an
//! item costs the heap only its one queued task's port name. The count is
//! taken by a counting global allocator over the whole run — setup, workers
//! and teardown — and divided by the items, at one and at two workers.
//!
//! This binary holds a single test, so no other test's allocations run
//! alongside the counted one.

use dispel4py::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) since start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation it makes.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the only
// addition is an atomic increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: a tally read after the run's threads are joined.
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // relaxed: as in `alloc`.
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // relaxed: as in `alloc`.
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract: `ptr` came from
        // this allocator (hence from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract: `ptr` came from
        // this allocator (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ITEMS: i64 = 100_000;
const HOPS: usize = 9;

/// The bound per item. The chain reads ~1.14: the queued task's port name
/// (`Task::port` is a `String`) and the run's fixed cost spread over the
/// items. An allocation per emission — a port name per call — reads ~11.
const BUDGET: f64 = 1.5;

/// source → nine pass-through transforms → counting sink over `0..ITEMS`.
fn chain() -> (Executable, std::sync::Arc<AtomicU64>) {
    let mut g = WorkflowGraph::new("chain9");
    let source = g.add_pe(PeSpec::source("source", "out"));
    let mut prev = source;
    let mut hops = Vec::new();
    for i in 0..HOPS {
        let hop = g.add_pe(PeSpec::transform(format!("hop{i}"), "in", "out"));
        g.connect(prev, "out", hop, "in", Grouping::Shuffle)
            .expect("declared ports");
        hops.push(hop);
        prev = hop;
    }
    let sink = g.add_pe(PeSpec::sink("sink", "in"));
    g.connect(prev, "out", sink, "in", Grouping::Shuffle)
        .expect("declared ports");
    let mut exe = Executable::new(g).expect("a chain is valid");
    exe.register(source, || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            (0..ITEMS).for_each(|i| ctx.emit("out", Value::Int(i)));
        }))
    });
    for hop in hops {
        exe.register(hop, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", v)
            }))
        });
    }
    let (_, count) = CountingSink::new();
    let handle = count.clone();
    exe.register(sink, move || {
        Box::new(CountingSink::into_handle(handle.clone()))
    });
    (exe.seal().expect("every PE registered"), count)
}

#[test]
fn a_chain_item_allocates_about_once() {
    let (exe, count) = chain();
    for workers in [1, 2] {
        count.store(0, Relaxed);
        let opts = ExecutionOptions::new(workers);
        let before = ALLOCATIONS.load(Relaxed);
        let report = DynMulti.execute(&exe, &opts).expect("run");
        let allocations = ALLOCATIONS.load(Relaxed) - before;
        assert_eq!(count.load(Relaxed), ITEMS as u64, "{workers} worker(s)");
        assert_eq!(report.failed_tasks, 0);
        let per_item = allocations as f64 / ITEMS as f64;
        println!("{workers} worker(s): {allocations} allocations, {per_item:.3} per item");
        assert!(
            per_item < BUDGET,
            "{workers} worker(s): {per_item:.3} allocations per item, budget {BUDGET}"
        );
    }
}
