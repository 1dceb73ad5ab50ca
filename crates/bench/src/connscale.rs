//! Connection-scaling harness for the reactor.
//!
//! Measures the cost of *connections themselves*: N concurrent clients each
//! issue unpipelined round-trips, so per-connection machinery (swept state
//! machines, readiness scans, wakeups) dominates and per-command work is
//! held constant. The matrix sweeps client counts; the reactor's claim —
//! flat worker count while connections grow — is exactly what the 256- and
//! 1024-client cells gate. Entry ids keep the `connections/reactor/c{N}`
//! form of the committed baseline.
//!
//! Shared by the `ablation_connections` bench binary (full runs, committed
//! baseline `bench/baselines/BENCH_connections.json`) and the
//! `connections_gate` end-to-end test (tiny non-smoke runs proving a
//! handicapped server fails `bench-compare`).

use d4py_sync::report::{BenchEntry, BenchReport, Better};
use d4py_sync::stats::{summarize, StatsConfig};
use dispel4py::redis_lite::client::{Client, RedisOps};
use dispel4py::redis_lite::server::{Server, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// One full matrix run's parameters.
#[derive(Debug, Clone)]
pub struct ConnScaleOpts {
    /// Concurrent client counts to sweep.
    pub counts: Vec<usize>,
    /// Total round-trips per run, split evenly across the clients.
    pub ops_total: usize,
    /// Repetitions per cell.
    pub reps: usize,
    /// Tag the report as statistically invalid (never gateable).
    pub smoke: bool,
    /// Divide measured throughput by this factor (gate testing only).
    pub handicap: f64,
}

/// The report entry id of one client count.
pub fn cell_id(clients: usize) -> String {
    format!("connections/reactor/c{clients}")
}

/// One timed run: `clients` connections hammer unpipelined PINGs, split
/// `ops_total` ways. Connect setup happens before the clock starts; the
/// window runs from barrier release until the last client finishes.
/// Returns aggregate round-trips per second.
pub fn run_once(clients: usize, ops_total: usize) -> f64 {
    let mut server = Server::start_with(
        0,
        ServerConfig {
            max_connections: clients + 64,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    let per_client = (ops_total / clients).max(1);
    let start_gate = Arc::new(Barrier::new(clients + 1));
    let failures = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let gate = start_gate.clone();
            let failures = failures.clone();
            std::thread::Builder::new()
                // Keep 1024 client threads affordable; the client's buffers
                // live on the heap, so a small stack is plenty.
                .stack_size(256 * 1024)
                .spawn(move || {
                    // A connect can lose a race against the accept backlog
                    // under a 1024-way dial storm; retry briefly.
                    let mut conn = None;
                    for _ in 0..20 {
                        match Client::connect(addr) {
                            Ok(c) => {
                                conn = Some(c);
                                break;
                            }
                            Err(_) => {
                                // sleep: connect backoff while the accept
                                // backlog drains under the dial storm.
                                std::thread::sleep(std::time::Duration::from_millis(5));
                            }
                        }
                    }
                    let Some(mut conn) = conn else {
                        // relaxed: failure tally, read once after joins.
                        failures.fetch_add(1, Ordering::Relaxed);
                        gate.wait();
                        return;
                    };
                    gate.wait();
                    for _ in 0..per_client {
                        if conn.ping().is_err() {
                            // relaxed: failure tally, read once after joins.
                            failures.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                })
                .expect("spawn client thread")
        })
        .collect();

    start_gate.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    // relaxed: joined above; all writes are visible.
    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "every client must connect and complete its ops"
    );
    server.shutdown();

    (per_client * clients) as f64 / elapsed
}

/// Runs one cell per client count and returns the `connections` report.
/// Reps interleave round-robin over all cells so ambient drift lands on
/// every cell instead of biasing whole cells.
pub fn run_matrix(opts: &ConnScaleOpts) -> BenchReport {
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(opts.reps); opts.counts.len()];
    for _ in 0..opts.reps {
        for (i, &clients) in opts.counts.iter().enumerate() {
            samples[i].push(run_once(clients, opts.ops_total) / opts.handicap);
        }
    }

    let mut report = BenchReport::new("connections", opts.smoke);
    for (&clients, s) in opts.counts.iter().zip(samples) {
        let summary = summarize(&s, &StatsConfig::default());
        report.benches.push(BenchEntry {
            id: cell_id(clients),
            unit: "ops/s".into(),
            better: Better::Higher,
            samples: s,
            summary,
            noise_pct: None,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_completes_a_tiny_run() {
        let rate = run_once(4, 64);
        assert!(rate > 0.0, "the reactor must make progress");
    }

    #[test]
    fn matrix_emits_one_entry_per_cell() {
        let report = run_matrix(&ConnScaleOpts {
            counts: vec![2, 4],
            ops_total: 32,
            reps: 2,
            smoke: true,
            handicap: 1.0,
        });
        assert!(report.smoke);
        let ids: Vec<&str> = report.benches.iter().map(|b| b.id.as_str()).collect();
        assert_eq!(ids, ["connections/reactor/c2", "connections/reactor/c4"]);
    }

    #[test]
    fn handicap_divides_throughput() {
        let plain = run_matrix(&ConnScaleOpts {
            counts: vec![2],
            ops_total: 64,
            reps: 2,
            smoke: true,
            handicap: 1.0,
        });
        let slowed = run_matrix(&ConnScaleOpts {
            counts: vec![2],
            ops_total: 64,
            reps: 2,
            smoke: true,
            handicap: 1000.0,
        });
        assert!(
            slowed.benches[0].summary.median < plain.benches[0].summary.median / 10.0,
            "a 1000x handicap must be plainly visible"
        );
    }
}
