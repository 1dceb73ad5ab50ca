//! Ablation: global-queue core — `Mutex<VecDeque>` + `Condvar` baseline vs
//! the segmented lock-free channel vs the per-worker steal topology
//! (DESIGN.md §5.2 `ablation_queue`).
//!
//! The paper attributes `dyn_multi`'s degradation at high worker counts to
//! contention on the shared global queue (§3.1, Figure 2). This bench
//! isolates exactly that: W producer + W consumer threads hammer one queue
//! and we report end-to-end throughput for (a) the old mutex-per-operation
//! channel core, reconstructed here as the baseline, and (b) the lock-free
//! segmented channel `d4py-sync` now ships. The spread at 8+ workers is the
//! lock handoff the tentpole removed. The third column runs the same load
//! through the per-worker-deque + work-stealing topology with batched
//! push/pop — the composed dispatch path `dyn_multi` now uses — so the
//! table shows both steps of the plateau fix: global mutex → global
//! lock-free → per-worker + steal.
//!
//! Runs as a plain binary (`cargo bench --bench ablation_queue`). Honors
//! `D4PY_BENCH_QUICK=1` for CI smoke runs (the resulting JSON is tagged
//! `smoke: true` and `bench-compare` refuses to gate on it). Every rep's
//! throughput is kept as a sample and summarized by `d4py_sync::stats`
//! (MAD outlier rejection + bootstrap CI); results persist as versioned
//! JSON to `<target>/bench/BENCH_ablation_queue.json` for the
//! `bench-compare` regression gate. When the committed baseline
//! `bench/baselines/BENCH_ablation_queue.json` exists, a delta summary
//! prints inline (the hard gate is `bench-compare`'s job).
//!
//! `D4PY_BENCH_HANDICAP=<factor>` divides measured throughput; test-only,
//! so the regression gate can be exercised end-to-end.

use d4py_sync::channel;
use d4py_sync::report::{BenchEntry, BenchReport, Better};
use d4py_sync::stats::{summarize, StatsConfig, Summary};
use d4py_sync::steal::StealQueue;
use d4py_sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two queue cores under test, behind one minimal MPMC surface.
trait Chan: Send + Sync + 'static {
    fn push(&self, v: u64);
    /// Pops with a short internal timeout; `None` means "empty for now".
    fn pop(&self) -> Option<u64>;
}

/// The pre-tentpole channel core: one mutex acquisition per send and per
/// recv, condvar handoff for waiters. Kept here (not in `d4py-sync`) so the
/// production crate carries exactly one channel implementation.
struct MutexChan {
    queue: Mutex<VecDeque<u64>>,
    ready: Condvar,
}

impl MutexChan {
    fn new() -> Self {
        MutexChan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }
}

impl Chan for MutexChan {
    fn push(&self, v: u64) {
        self.queue.lock().push_back(v);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<u64> {
        let deadline = Instant::now() + Duration::from_millis(1);
        let mut q = self.queue.lock();
        loop {
            if let Some(v) = q.pop_front() {
                return Some(v);
            }
            if self.ready.wait_until(&mut q, deadline).timed_out() {
                return q.pop_front();
            }
        }
    }
}

/// The lock-free segmented channel shipping in `d4py-sync`.
struct SegChan {
    tx: channel::Sender<u64>,
    rx: channel::Receiver<u64>,
}

impl SegChan {
    fn new() -> Self {
        let (tx, rx) = channel::unbounded();
        SegChan { tx, rx }
    }
}

impl Chan for SegChan {
    fn push(&self, v: u64) {
        self.tx.send(v).expect("bench channel never closes");
    }

    fn pop(&self) -> Option<u64> {
        self.rx.recv_timeout(Duration::from_millis(1)).ok()
    }
}

/// One timed run: `workers` producers push `items` total, `workers`
/// consumers drain them; returns messages per second wall-clock.
fn run_once<C: Chan>(chan: Arc<C>, workers: usize, items: usize) -> f64 {
    let popped = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();

    let producers: Vec<_> = (0..workers)
        .map(|w| {
            let chan = chan.clone();
            let share = items / workers + usize::from(w < items % workers);
            std::thread::spawn(move || {
                for i in 0..share {
                    chan.push(i as u64);
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..workers)
        .map(|_| {
            let chan = chan.clone();
            let popped = popped.clone();
            std::thread::spawn(move || {
                while popped.load(Ordering::Relaxed) < items {
                    if chan.pop().is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
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
    items as f64 / start.elapsed().as_secs_f64()
}

/// Per-rep throughput samples, fresh queue each rep, handicap applied.
fn samples<C: Chan>(
    make: impl Fn() -> C,
    workers: usize,
    items: usize,
    reps: usize,
    handicap: f64,
) -> Vec<f64> {
    (0..reps)
        .map(|_| run_once(Arc::new(make()), workers, items) / handicap)
        .collect()
}

/// One timed run through the per-worker steal topology. Unlike the
/// identity-less cores above, this is worker-indexed and batched end to
/// end: producer `w` lands batches on its own deque, consumer `w` drains
/// local-first and steals when dry — the exact dispatch path `dyn_multi`
/// runs, so the column measures the composed tentpole, not the raw queue.
fn run_once_steal(workers: usize, items: usize) -> f64 {
    const BATCH: usize = 32;
    /// Seed for victim selection; fixed so every rep walks the same
    /// steal order (reproducible spread).
    const SEED: u64 = 0xd417_57ea;
    let q = Arc::new(StealQueue::new(workers, SEED));
    let popped = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();

    let producers: Vec<_> = (0..workers)
        .map(|w| {
            let q = q.clone();
            let share = items / workers + usize::from(w < items % workers);
            std::thread::spawn(move || {
                let mut buf = Vec::with_capacity(BATCH);
                for i in 0..share {
                    buf.push(i as u64);
                    if buf.len() == BATCH {
                        let full = std::mem::replace(&mut buf, Vec::with_capacity(BATCH));
                        q.push_batch(Some(w), full)
                            .expect("bench queue never closes");
                    }
                }
                if !buf.is_empty() {
                    q.push_batch(Some(w), buf)
                        .expect("bench queue never closes");
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..workers)
        .map(|w| {
            let q = q.clone();
            let popped = popped.clone();
            std::thread::spawn(move || {
                while popped.load(Ordering::Relaxed) < items {
                    if let Ok(batch) = q.pop_batch(w, BATCH, Duration::from_millis(1)) {
                        popped.fetch_add(batch.len(), Ordering::Relaxed);
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
    items as f64 / start.elapsed().as_secs_f64()
}

fn steal_samples(workers: usize, items: usize, reps: usize, handicap: f64) -> Vec<f64> {
    (0..reps)
        .map(|_| run_once_steal(workers, items) / handicap)
        .collect()
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2} M/s", r / 1e6)
    } else {
        format!("{:.0} k/s", r / 1e3)
    }
}

fn workspace_root() -> PathBuf {
    // crates/bench -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed, versioned baseline location.
fn baseline_path() -> PathBuf {
    workspace_root().join("bench/baselines/BENCH_ablation_queue.json")
}

/// Loads the committed baseline, if there is a readable one.
fn load_baseline() -> Option<BenchReport> {
    let json = baseline_path();
    if !json.exists() {
        return None;
    }
    BenchReport::load(&json)
        .inspect_err(|e| eprintln!("warning: unreadable baseline {}: {e}", json.display()))
        .ok()
}

fn entry(id: String, s: Vec<f64>) -> BenchEntry {
    let summary = summarize(&s, &StatsConfig::default());
    BenchEntry {
        id,
        unit: "msg/s".into(),
        better: Better::Higher,
        samples: s,
        summary,
        noise_pct: None,
    }
}

fn main() {
    let quick = std::env::var("D4PY_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    let handicap = std::env::var("D4PY_BENCH_HANDICAP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|f| f.is_finite() && *f > 0.0)
        .unwrap_or(1.0);
    let (worker_counts, items, reps): (&[usize], usize, usize) = if quick {
        (&[2, 8], 20_000, 3)
    } else {
        (&[1, 2, 4, 8, 16], 200_000, 7)
    };

    println!("== ablation_queue: mutex channel baseline vs lock-free segmented channel ==");
    println!("   ({items} messages per run, {reps} reps, producers = consumers = workers)\n");
    if handicap != 1.0 {
        println!("   !! D4PY_BENCH_HANDICAP={handicap} — throughput divided for gate testing\n");
    }
    println!(
        "{:>8}  {:>20}  {:>20}  {:>20}  {:>9}",
        "workers", "mutex (median ±σ)", "lock-free (med ±σ)", "steal (median ±σ)", "steal/lf"
    );

    let mut report = BenchReport::new("ablation_queue", quick);
    for &workers in worker_counts {
        let mutex = entry(
            format!("ablation_queue/mutex/w{workers}"),
            samples(MutexChan::new, workers, items, reps, handicap),
        );
        let lockfree = entry(
            format!("ablation_queue/lockfree/w{workers}"),
            samples(SegChan::new, workers, items, reps, handicap),
        );
        let steal = entry(
            format!("ablation_queue/steal/w{workers}"),
            steal_samples(workers, items, reps, handicap),
        );
        let fmt = |s: &Summary| format!("{} ±{}", fmt_rate(s.median), fmt_rate(s.stddev));
        println!(
            "{workers:>8}  {:>20}  {:>20}  {:>20}  {:>8.2}x",
            fmt(&mutex.summary),
            fmt(&lockfree.summary),
            fmt(&steal.summary),
            steal.summary.median / lockfree.summary.median
        );
        report.benches.push(mutex);
        report.benches.push(lockfree);
        report.benches.push(steal);
    }

    // Informational inline comparison (the hard gate is `bench-compare`).
    if let Some(baseline) = load_baseline() {
        println!("\nvs baseline:");
        for cur in &report.benches {
            if let Some(base) = baseline.benches.iter().find(|b| b.id == cur.id) {
                let delta =
                    (cur.summary.median - base.summary.median) / base.summary.median * 100.0;
                println!(
                    "  {}: {} -> {} ({delta:+.1}%)",
                    cur.id,
                    fmt_rate(base.summary.median),
                    fmt_rate(cur.summary.median),
                );
            }
        }
    }

    let out = d4py_sync::bench::out_dir().join("BENCH_ablation_queue.json");
    match report.save(&out) {
        Ok(()) => println!(
            "\nwrote {} ({}{})",
            out.display(),
            if report.smoke {
                "smoke mode — not gateable"
            } else {
                "gateable"
            },
            if handicap != 1.0 { ", handicapped" } else { "" },
        ),
        Err(e) => eprintln!("note: could not persist bench report: {e}"),
    }
}
