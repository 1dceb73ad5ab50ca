//! Run metrics: *runtime*, *process time*, and auto-scaler traces.
//!
//! §5.1.2 of the paper defines the two headline metrics:
//!
//! * **runtime** — real-world (wall-clock) execution time of the workflow;
//! * **process time** — the sum of all *active* process durations. A worker
//!   contributes while it is active (running or polling); time spent parked
//!   in the auto-scaler's idle state does not count. This is the quantity
//!   auto-scaling improves.
//!
//! Every worker of every engine gathers its numbers privately in a
//! [`WorkerStats`] and hands it back through its join handle;
//! [`RunReport::new`] sums them once, after the joins. [`ScalingTrace`]
//! records the auto-scaler's (iteration, active size, monitored metric)
//! series that Figure 13 plots.

use d4py_graph::WorkflowGraph;
use d4py_sync::Mutex;
use std::time::Duration;

/// One observation of the auto-scaler: Figure 13 plots these series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Auto-scaler iteration (recorded when the monitored metric changes).
    pub iteration: u64,
    /// Active process count after this iteration's decision.
    pub active_size: usize,
    /// The monitored metric: queue size (multiprocessing strategy) or mean
    /// idle time in seconds (Redis strategy).
    pub metric: f64,
}

/// Time series of auto-scaler decisions, shared between the scaler thread
/// and the report.
#[derive(Debug, Default)]
pub struct ScalingTrace {
    points: Mutex<Vec<TracePoint>>,
}

impl ScalingTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation.
    pub fn push(&self, point: TracePoint) {
        self.points.lock().push(point);
    }

    /// Snapshots the recorded series.
    pub fn snapshot(&self) -> Vec<TracePoint> {
        self.points.lock().clone()
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.lock().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.lock().is_empty()
    }
}

/// A log-bucketed latency histogram (1 µs – ~36 min range).
///
/// Buckets are powers of two of microseconds: bucket *k* holds samples in
/// `[2^k, 2^(k+1))` µs. Each worker owns one (inside its [`WorkerStats`]),
/// so recording a per-task service time is a plain increment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whole microseconds from the seconds and the sub-second part: no
    /// `u128` division per sample.
    fn bucket_of(d: Duration) -> usize {
        let secs = d.as_secs().saturating_mul(1_000_000);
        let micros = secs.saturating_add(u64::from(d.subsec_micros())).max(1);
        (63 - micros.leading_zeros() as usize).min(31)
    }

    /// Records one sample.
    pub fn record(&mut self, d: Duration) {
        self.buckets[Self::bucket_of(d)] += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine += theirs;
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket containing quantile `q` ∈ [0, 1];
    /// `None` when empty. Resolution is the 2× bucket width.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(Duration::from_micros(1u64 << (k + 1)));
            }
        }
        Some(Duration::from_micros(1u64 << 32))
    }

    /// Summarises into the report-friendly form.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Report-friendly latency quantiles (bucket upper bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median task service time.
    pub p50: Option<Duration>,
    /// 90th percentile.
    pub p90: Option<Duration>,
    /// 99th percentile.
    pub p99: Option<Duration>,
}

/// What one worker counted while it ran. Worker-local: nothing here is
/// shared, so the hot path pays no atomics or locks for statistics; the
/// join that returns it is the synchronization point.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// `process()` calls that returned, per PE (indexed by `PeId`).
    pub per_pe: Vec<u64>,
    /// `process()` calls that panicked (contained; the item is lost).
    pub failed: u64,
    /// Emissions on an unconnected port of a PE that has connected ones.
    pub dropped: u64,
    /// Pills received while the run was not shutting down, and ignored.
    pub spurious_pills: u64,
    /// Transient transport errors absorbed by the retry budget.
    pub retries_used: u64,
    /// Service time of each successful task.
    pub latency: LatencyHistogram,
    /// Time this worker was active (not parked by the auto-scaler).
    pub active: Duration,
    /// Highest tasks-outstanding count a settle of this worker left.
    pub peak_outstanding: usize,
    /// Non-fatal degradations it worked around, one reason each.
    pub warnings: Vec<String>,
}

impl WorkerStats {
    /// Empty statistics for a workflow of `pes` PEs.
    pub fn new(pes: usize) -> Self {
        Self {
            per_pe: vec![0; pes],
            ..Self::default()
        }
    }

    /// Folds another worker's statistics into this one.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.per_pe.iter_mut().zip(&other.per_pe) {
            *mine += theirs;
        }
        self.failed += other.failed;
        self.dropped += other.dropped;
        self.spurious_pills += other.spurious_pills;
        self.retries_used += other.retries_used;
        self.latency.merge(&other.latency);
        self.active += other.active;
        self.peak_outstanding = self.peak_outstanding.max(other.peak_outstanding);
        self.warnings.extend_from_slice(&other.warnings);
    }
}

/// The result of executing a workflow under some mapping.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the mapping that produced this run (e.g. `dyn_auto_multi`).
    pub mapping: String,
    /// Wall-clock execution time.
    pub runtime: Duration,
    /// Sum of active worker durations (the paper's *process time*).
    pub process_time: Duration,
    /// Worker pool size the run was configured with.
    pub workers: usize,
    /// PE calls made across all PEs, kick-offs included: one per data item
    /// a PE processed. Under the dynamic family a call is a queue task or a
    /// staged hop called inline by the worker that made its input; both
    /// count.
    pub tasks_executed: u64,
    /// Auto-scaler decision series (empty for non-auto-scaling mappings).
    pub scaling_trace: Vec<TracePoint>,
    /// Emissions on an output port with no connection, made by a PE that has
    /// connected ports (a sink that emits is not counted). Counted by the
    /// engine core (`multi`, `dyn_*`, `hybrid_*`) alike; `simple` reports
    /// 0. Non-zero values mean produced data went nowhere.
    pub dropped_emissions: u64,
    /// Tasks whose `process()` panicked. The engines contain the panic (the
    /// item is lost, its emissions discarded) so one poisoned record cannot
    /// hang the workflow; non-zero values mean the run is incomplete.
    pub failed_tasks: u64,
    /// Items processed per PE, sorted by name — the per-stage breakdown an
    /// operator reads to find the bottleneck.
    pub per_pe_tasks: Vec<(String, u64)>,
    /// Per-task service-time quantiles (time inside `process()`, queue wait
    /// and the calls it made inline excluded), one sample per PE call
    /// counted in `tasks_executed`. Populated by the engine core
    /// (`multi`, `dyn_*` and `hybrid_*`); `simple` leaves it empty.
    pub task_latency: LatencySummary,
    /// Tasks delivered by work stealing (a worker popping from a peer's
    /// local queue). Zero for the single-global-queue topologies and for
    /// engines without per-worker queues; a high ratio of steals to tasks
    /// on a steal topology means the fan-out is badly balanced across
    /// workers.
    pub queue_steals: u64,
    /// High-water mark of the tasks pushed and not yet retired — queued,
    /// held by a worker, or running — as the engine core (`multi`,
    /// `dyn_*`, `hybrid_*`) counts them. A source may run at most a fixed
    /// credit ahead of its consumers, so this stays bounded however long
    /// the stream is. `simple` reports 0.
    pub peak_outstanding: usize,
    /// Non-fatal degradations the run worked around, one human-readable
    /// reason each — e.g. a warm start skipped because the stored snapshot
    /// frame was damaged or from an unknown future format version. An
    /// empty list means the run used everything it was given.
    pub warnings: Vec<String>,
}

impl RunReport {
    /// Assembles the report of a finished run from the sum of its workers'
    /// statistics (the calling thread's share carrying the pre-flight
    /// warnings) — the one place a report is built. Absorbed transport
    /// retries and ignored pills become warnings here. Engines with a
    /// scaler or a stealing queue set [`scaling_trace`](Self::scaling_trace)
    /// / [`queue_steals`](Self::queue_steals) afterwards.
    pub fn new(
        mapping: &str,
        workers: usize,
        runtime: Duration,
        graph: &WorkflowGraph,
        stats: WorkerStats,
    ) -> Self {
        let mut warnings = stats.warnings;
        if stats.retries_used > 0 {
            warnings.push(format!(
                "absorbed {} transient transport error(s) via retry",
                stats.retries_used
            ));
        }
        if stats.spurious_pills > 0 {
            warnings.push(format!(
                "ignored {} spurious poison pill(s) received before shutdown",
                stats.spurious_pills
            ));
        }
        let mut per_pe_tasks: Vec<(String, u64)> = graph
            .pes()
            .map(|(id, spec)| (spec.name.clone(), stats.per_pe[id.0]))
            .filter(|(_, n)| *n > 0)
            .collect();
        per_pe_tasks.sort();
        RunReport {
            mapping: mapping.to_string(),
            runtime,
            process_time: stats.active,
            workers,
            tasks_executed: stats.per_pe.iter().sum(),
            scaling_trace: Vec::new(),
            dropped_emissions: stats.dropped,
            failed_tasks: stats.failed,
            per_pe_tasks,
            task_latency: stats.latency.summary(),
            queue_steals: 0,
            peak_outstanding: stats.peak_outstanding,
            warnings,
        }
    }

    /// process_time / runtime: the mean number of simultaneously active
    /// workers, a quick efficiency read-out.
    pub fn mean_active_workers(&self) -> f64 {
        if self.runtime.is_zero() {
            return 0.0;
        }
        self.process_time.as_secs_f64() / self.runtime.as_secs_f64()
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<16} workers={:<3} runtime={:>8.3}s process_time={:>9.3}s tasks={}",
            self.mapping,
            self.workers,
            self.runtime.as_secs_f64(),
            self.process_time.as_secs_f64(),
            self.tasks_executed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bucket_of` files a sample where the `as_micros` formula did: at
    /// zero, just under a microsecond, one nanosecond either side of every
    /// bucket edge, and past the last bucket.
    #[test]
    fn bucket_of_matches_the_as_micros_formula() {
        let reference = |d: Duration| {
            let micros = d.as_micros().max(1) as u64;
            (63 - micros.leading_zeros() as usize).min(31)
        };
        let nanos = Duration::from_nanos;
        let mut samples = vec![Duration::ZERO, nanos(999)];
        for k in 0..40 {
            let edge = Duration::from_micros(1 << k);
            samples.extend([edge - nanos(1), edge, edge + nanos(1)]);
        }
        let hour = Duration::from_secs(3_600);
        samples.extend([hour, hour * 1_000, Duration::from_secs(1 << 40)]);
        for d in samples {
            assert_eq!(LatencyHistogram::bucket_of(d), reference(d), "{d:?}");
        }
        assert_eq!(LatencyHistogram::bucket_of(Duration::MAX), 31);
    }

    #[test]
    fn worker_stats_sum_into_one_report() {
        use d4py_graph::{Grouping, PeSpec};
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("zeta", "out"));
        let b = g.add_pe(PeSpec::sink("alpha", "in"));
        let idle = g.add_pe(PeSpec::sink("idle", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "out", idle, "in", Grouping::Shuffle).unwrap();

        let mut total = WorkerStats::new(g.pe_count());
        total.warnings.push("D4PY202: kept".into());
        for (w, tasks) in [(0u64, 1u64), (1, 4)] {
            let mut stats = WorkerStats::new(g.pe_count());
            stats.per_pe[a.0] = w;
            stats.per_pe[b.0] = tasks;
            stats.failed = 1;
            stats.retries_used = w;
            stats.latency.record(Duration::from_micros(100));
            stats.active = Duration::from_millis(10);
            stats.peak_outstanding = 7 - tasks as usize;
            total.merge(&stats);
        }
        let report = RunReport::new("test", 2, Duration::from_millis(10), &g, total);
        assert_eq!(report.tasks_executed, 6);
        assert_eq!(report.failed_tasks, 2);
        assert_eq!(report.process_time, Duration::from_millis(20));
        assert_eq!(report.task_latency.count, 2);
        assert_eq!(report.peak_outstanding, 6, "merged by max, not summed");
        // Sorted by name; PEs that ran nothing are left out.
        assert_eq!(
            report.per_pe_tasks,
            vec![("alpha".to_string(), 5), ("zeta".to_string(), 1)]
        );
        assert_eq!(report.warnings.len(), 2, "{:?}", report.warnings);
        assert!(report.warnings[1].contains("1 transient transport error"));
        assert!((report.mean_active_workers() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn trace_preserves_order() {
        let trace = ScalingTrace::new();
        for i in 0..4 {
            trace.push(TracePoint {
                iteration: i,
                active_size: i as usize + 1,
                metric: 0.0,
            });
        }
        let snap = trace.snapshot();
        assert_eq!(snap.len(), 4);
        assert!(snap.windows(2).all(|w| w[0].iteration < w[1].iteration));
        assert!(!trace.is_empty());
    }

    #[test]
    fn mean_active_workers_ratio() {
        let report = RunReport {
            mapping: "test".into(),
            runtime: Duration::from_secs(2),
            process_time: Duration::from_secs(8),
            workers: 8,
            tasks_executed: 100,
            scaling_trace: vec![],
            dropped_emissions: 0,
            failed_tasks: 0,
            per_pe_tasks: vec![],
            task_latency: LatencySummary::default(),
            queue_steals: 0,
            peak_outstanding: 0,
            warnings: vec![],
        };
        assert!((report.mean_active_workers() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_runtime_report_is_safe() {
        let report = RunReport {
            mapping: "test".into(),
            runtime: Duration::ZERO,
            process_time: Duration::ZERO,
            workers: 1,
            tasks_executed: 0,
            scaling_trace: vec![],
            dropped_emissions: 0,
            failed_tasks: 0,
            per_pe_tasks: vec![],
            task_latency: LatencySummary::default(),
            queue_steals: 0,
            peak_outstanding: 0,
            warnings: vec![],
        };
        assert_eq!(report.mean_active_workers(), 0.0);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // bucket [64,128)µs
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10)); // bucket [8192,16384)µs
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= Duration::from_micros(256), "p50 {p50:?}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= Duration::from_millis(8), "p99 {p99:?}");
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p90.unwrap() <= s.p99.unwrap());
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary().count, 0);
        h.record(Duration::ZERO); // clamps into the first bucket
        h.record(Duration::from_secs(10_000)); // clamps into the last bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0).is_some());
    }
}
