//! Experiment sweeps: one workflow × a set of mappings × worker counts on
//! a simulated platform.

use dispel4py::prelude::*;
use dispel4py::workflows::{astro, seismic, sentiment};
use std::net::SocketAddr;

/// Which of the §4 use cases to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkflowKind {
    /// Internal Extinction of Galaxies (4 PEs, stateless).
    Astro,
    /// Seismic Cross-Correlation phase 1 (9 PEs, stateless).
    Seismic,
    /// Sentiment Analyses for News Articles (stateful).
    Sentiment,
}

impl WorkflowKind {
    /// Builds the workflow under `cfg`, discarding the results handle (the
    /// harness measures, correctness is the test suite's job).
    pub fn build(self, cfg: &WorkloadConfig) -> Executable {
        match self {
            WorkflowKind::Astro => astro::build(cfg).0,
            WorkflowKind::Seismic => seismic::build(cfg).0,
            WorkflowKind::Sentiment => sentiment::build(cfg).0,
        }
    }

    /// Minimum workers the static `multi` mapping needs.
    pub fn multi_minimum(self, cfg: &WorkloadConfig) -> usize {
        let exe = self.build(cfg);
        d4py_graph::partition::minimum_processes(exe.graph())
    }
}

/// Where the Redis-backed techniques find their server(s).
///
/// `InProc` mints a fresh in-process engine per mapping instantiation (no
/// wire, no state shared between cells); `Tcp` is the paper's deployment
/// shape; `Cluster` hash-slot shards the keyspace across several
/// redis-lite servers (the `repro -- … --shards N` path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum RedisTarget {
    /// Fresh in-process engine per instantiation.
    #[default]
    InProc,
    /// One redis-lite (or real Redis) server over TCP.
    Tcp(SocketAddr),
    /// Hash-slot sharding across these servers; order defines slot-range
    /// ownership and must match for every client.
    Cluster(Vec<SocketAddr>),
}

impl RedisTarget {
    /// Mints the backend this target describes.
    pub fn backend(&self) -> RedisBackend {
        match self {
            RedisTarget::InProc => RedisBackend::in_proc(),
            RedisTarget::Tcp(addr) => RedisBackend::Tcp(*addr),
            RedisTarget::Cluster(addrs) => RedisBackend::cluster(addrs.clone()),
        }
    }

    /// Short description for logs ("inproc", "tcp", "cluster×4").
    pub fn label(&self) -> String {
        match self {
            RedisTarget::InProc => "inproc".into(),
            RedisTarget::Tcp(_) => "tcp".into(),
            RedisTarget::Cluster(addrs) => format!("cluster×{}", addrs.len()),
        }
    }
}

/// The six evaluated techniques (§5's abbreviation list), constructed fresh
/// per run so no state leaks between cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Native static Multiprocessing (baseline).
    Multi,
    /// Dynamic scheduling, multiprocessing queue.
    DynMulti,
    /// Dynamic + auto-scaling, queue-size monitor.
    DynAutoMulti,
    /// Dynamic scheduling over a Redis stream.
    DynRedis,
    /// Dynamic + auto-scaling over Redis, idle-time monitor.
    DynAutoRedis,
    /// Hybrid (stateful-capable) over Redis.
    HybridRedis,
}

impl MappingKind {
    /// The paper's abbreviation.
    pub fn label(self) -> &'static str {
        match self {
            MappingKind::Multi => "multi",
            MappingKind::DynMulti => "dyn_multi",
            MappingKind::DynAutoMulti => "dyn_auto_multi",
            MappingKind::DynRedis => "dyn_redis",
            MappingKind::DynAutoRedis => "dyn_auto_redis",
            MappingKind::HybridRedis => "hybrid_redis",
        }
    }

    /// All six techniques.
    pub fn all() -> [MappingKind; 6] {
        [
            MappingKind::Multi,
            MappingKind::DynMulti,
            MappingKind::DynAutoMulti,
            MappingKind::DynRedis,
            MappingKind::DynAutoRedis,
            MappingKind::HybridRedis,
        ]
    }

    /// The multiprocessing-family techniques (HPC has no Redis deployment,
    /// §5.1.1).
    pub fn multi_family() -> [MappingKind; 3] {
        [
            MappingKind::Multi,
            MappingKind::DynMulti,
            MappingKind::DynAutoMulti,
        ]
    }

    /// True if the technique needs a Redis backend.
    pub fn needs_redis(self) -> bool {
        matches!(
            self,
            MappingKind::DynRedis | MappingKind::DynAutoRedis | MappingKind::HybridRedis
        )
    }

    /// Instantiates the mapping. `redis` tells the Redis-backed techniques
    /// where their server(s) live; the multiprocessing family ignores it.
    pub fn instantiate(self, redis: &RedisTarget) -> Box<dyn Mapping> {
        let backend = || redis.backend();
        let auto = AutoscaleConfig {
            tick: std::time::Duration::from_millis(2),
            ..AutoscaleConfig::default()
        };
        match self {
            MappingKind::Multi => Box::new(Multi),
            MappingKind::DynMulti => Box::new(DynMulti),
            MappingKind::DynAutoMulti => Box::new(DynAutoMulti::with_config(auto)),
            MappingKind::DynRedis => Box::new(DynRedis::new(backend())),
            MappingKind::DynAutoRedis => Box::new(DynAutoRedis::with_config(
                backend(),
                AutoscaleConfig {
                    threshold: 0.03,
                    ..auto
                },
            )),
            MappingKind::HybridRedis => Box::new(HybridRedis::new(backend())),
        }
    }
}

/// One measured cell of an experiment grid.
#[derive(Debug, Clone)]
pub struct RunRow {
    /// Platform label ("server" / "cloud" / "HPC").
    pub platform: &'static str,
    /// Workload label (e.g. "1X std", "5X heavy", "50 stations").
    pub workload: String,
    /// Mapping abbreviation.
    pub mapping: &'static str,
    /// Worker ("process") count.
    pub workers: usize,
    /// Wall-clock runtime, seconds.
    pub runtime_s: f64,
    /// Total active process time, seconds.
    pub process_s: f64,
    /// Auto-scaler trace (empty for non-auto mappings).
    pub trace: Vec<TracePoint>,
    /// Non-fatal degradations the run worked around
    /// ([`RunReport::warnings`]) — e.g. a cold start because a stored
    /// snapshot frame was damaged. Silent in the numbers, loud here.
    pub warnings: Vec<String>,
}

/// A collection of measured cells.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// All measured rows, in execution order.
    pub rows: Vec<RunRow>,
}

impl Sweep {
    /// Rows of one mapping, ordered by worker count.
    pub fn series(&self, mapping: &str, workload: &str) -> Vec<&RunRow> {
        let mut rows: Vec<&RunRow> = self
            .rows
            .iter()
            .filter(|r| r.mapping == mapping && r.workload == workload)
            .collect();
        rows.sort_by_key(|r| r.workers);
        rows
    }

    /// Distinct workload labels, in first-seen order.
    pub fn workloads(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r.workload) {
                seen.push(r.workload.clone());
            }
        }
        seen
    }

    /// Distinct mapping labels, in first-seen order.
    pub fn mappings(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r.mapping) {
                seen.push(r.mapping);
            }
        }
        seen
    }
}

/// Runs one experiment cell: fresh workflow, fresh mapping, one execution.
pub fn run_cell(
    wf: WorkflowKind,
    cfg: &WorkloadConfig,
    platform: Platform,
    mapping: MappingKind,
    workers: usize,
    workload_label: &str,
    redis: &RedisTarget,
) -> Option<RunRow> {
    let cfg = cfg.clone().with_limiter(platform.limiter());
    let exe = wf.build(&cfg);
    let m = mapping.instantiate(redis);
    let opts = ExecutionOptions::new(workers);
    match m.execute(&exe, &opts) {
        Ok(report) => Some(RunRow {
            platform: platform.name,
            workload: workload_label.to_string(),
            mapping: mapping.label(),
            workers,
            runtime_s: report.runtime.as_secs_f64(),
            process_s: report.process_time.as_secs_f64(),
            trace: report.scaling_trace,
            warnings: report.warnings,
        }),
        // A mapping that cannot run this cell (its pre-flight refuses it,
        // e.g. multi below its process minimum, D4PY425) contributes no
        // row, exactly like the paper's plots.
        Err(CoreError::Analysis { .. }) => None,
        Err(e) => panic!("cell {}/{workers} failed: {e}", mapping.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> WorkloadConfig {
        WorkloadConfig::standard().with_time_scale(0.002)
    }

    #[test]
    fn run_cell_measures_a_mapping() {
        let row = run_cell(
            WorkflowKind::Astro,
            &tiny_cfg(),
            Platform::SERVER,
            MappingKind::DynMulti,
            4,
            "1X std",
            &RedisTarget::InProc,
        )
        .unwrap();
        assert_eq!(row.mapping, "dyn_multi");
        assert_eq!(row.workers, 4);
        assert!(row.runtime_s > 0.0);
        assert!(row.process_s > 0.0);
    }

    #[test]
    fn unsupported_cells_are_skipped() {
        // multi needs ≥4 workers for the 4-PE astro workflow.
        let row = run_cell(
            WorkflowKind::Astro,
            &tiny_cfg(),
            Platform::SERVER,
            MappingKind::Multi,
            2,
            "1X std",
            &RedisTarget::InProc,
        );
        assert!(row.is_none());
    }

    #[test]
    fn sweep_series_filters_and_sorts() {
        let mut sweep = Sweep::default();
        for (workers, mapping) in [(8, "multi"), (4, "multi"), (4, "dyn_multi")] {
            sweep.rows.push(RunRow {
                platform: "server",
                workload: "1X".into(),
                mapping: if mapping == "multi" {
                    "multi"
                } else {
                    "dyn_multi"
                },
                workers,
                runtime_s: 1.0,
                process_s: 2.0,
                trace: vec![],
                warnings: vec![],
            });
        }
        let series = sweep.series("multi", "1X");
        assert_eq!(series.len(), 2);
        assert!(series[0].workers < series[1].workers);
        assert_eq!(sweep.mappings(), vec!["multi", "dyn_multi"]);
        assert_eq!(sweep.workloads(), vec!["1X".to_string()]);
    }

    #[test]
    fn mapping_kind_metadata() {
        assert_eq!(MappingKind::all().len(), 6);
        assert_eq!(MappingKind::multi_family().len(), 3);
        assert!(MappingKind::DynRedis.needs_redis());
        assert!(!MappingKind::DynMulti.needs_redis());
        assert_eq!(MappingKind::HybridRedis.label(), "hybrid_redis");
    }

    #[test]
    fn sentiment_minimum_matches_paper() {
        assert_eq!(
            WorkflowKind::Sentiment.multi_minimum(&tiny_cfg()),
            14,
            "the paper's 14-process constraint"
        );
        assert_eq!(WorkflowKind::Seismic.multi_minimum(&tiny_cfg()), 9);
    }
}
