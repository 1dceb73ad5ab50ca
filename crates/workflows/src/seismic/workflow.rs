//! The Seismic Cross-Correlation phase-1 workflow (§4.2, Figure 6).
//!
//! Nine interconnected PEs: `readStations` reads (generates) the raw
//! waveforms; seven intermediate PEs transform them in memory — detrend,
//! demean, band-pass, decimate, whiten, RMS-normalise, amplitude spectrum —
//! and the final PE writes results to disk (real file I/O), reproducing the
//! paper's "more imbalanced workloads among PEs" character: the middle PEs
//! are compute-only with heterogeneous costs, the sink is I/O-bound.

use crate::config::WorkloadConfig;
use crate::seismic::dsp;
use crate::seismic::waveform::{self, SAMPLE_RATE};
use d4py_core::executable::Executable;
use d4py_core::pe::{Context, FnSource, ProcessingElement};
use d4py_core::value::Value;
use d4py_graph::{Grouping, PeId, PeSpec, WorkflowGraph};
use d4py_sync::Mutex;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Stations per 1X of workload (the paper fixes 50 stations).
pub const STATIONS_PER_X: u32 = 50;

/// Base modelled compute time per PE, index-aligned with the pipeline
/// order below (read has none; write models disk latency instead).
const STAGE_COMPUTE_MS: [u64; 7] = [1, 1, 3, 1, 4, 1, 2];
/// The DSP kernel of each stage, in pipeline order.
const KERNELS: [fn(&mut Vec<f64>); 7] = [
    |s| dsp::detrend(s),
    |s| dsp::demean(s),
    |s| dsp::bandpass(s, SAMPLE_RATE, 0.3, 3.0),
    |s| *s = dsp::decimate(s, 2),
    |s| *s = dsp::whiten(s, 1e-6),
    |s| dsp::normalize_rms(s),
    |s| *s = dsp::amplitude_spectrum(s),
];
/// Base disk latency of the write PE.
const WRITE_LATENCY: Duration = Duration::from_millis(6);

fn trace_to_value(station: &str, samples: &[f64]) -> Value {
    Value::map([
        ("station", Value::Str(station.to_string())),
        (
            "samples",
            Value::List(samples.iter().map(|&s| Value::Float(s)).collect()),
        ),
    ])
}

fn value_to_trace(v: &Value) -> (String, Vec<f64>) {
    let station = v
        .get("station")
        .and_then(Value::as_str)
        .unwrap_or("UNKNOWN")
        .to_string();
    let samples = v
        .get("samples")
        .and_then(Value::as_list)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_float)
        .collect();
    (station, samples)
}

/// A generic trace-transform PE: modelled service time + a real DSP kernel.
/// It rewrites the trace it is handed: the samples are read into a buffer
/// it keeps between calls, and the kernel's output is written back into
/// the same list.
struct TraceStage {
    cfg: WorkloadConfig,
    compute: Duration,
    kernel: fn(&mut Vec<f64>),
    samples: Vec<f64>,
}

impl ProcessingElement for TraceStage {
    fn process(&mut self, _port: &str, mut v: Value, ctx: &mut dyn Context) {
        let Value::Map(trace) = &mut v else {
            panic!("a seismic stage is handed a trace map");
        };
        let Some(Value::List(list)) = trace.get_mut("samples") else {
            panic!("a trace map holds a samples list");
        };
        self.samples.clear();
        self.samples.extend(list.iter().filter_map(Value::as_float));
        self.cfg.limiter.with_core(|| {
            (self.kernel)(&mut self.samples);
            // sleep: simulated per-stage compute cost from the paper's
            // workload model; scaled to zero in the fast test config.
            std::thread::sleep(self.cfg.scaled(self.compute));
        });
        list.clear();
        list.extend(self.samples.iter().map(|&s| Value::Float(s)));
        ctx.emit("output", v);
    }
}

/// The disk-writing sink: real file I/O plus modelled device latency.
struct WriteOutput {
    cfg: WorkloadConfig,
    path: std::path::PathBuf,
    file: Option<std::fs::File>,
    written: Arc<Mutex<Vec<String>>>,
}

impl ProcessingElement for WriteOutput {
    fn process(&mut self, _port: &str, v: Value, _ctx: &mut dyn Context) {
        let (station, samples) = value_to_trace(&v);
        // sleep: modelled device write latency (no simulated core held);
        // scaled to zero in the fast test configuration.
        std::thread::sleep(self.cfg.scaled(WRITE_LATENCY));
        let file = self.file.get_or_insert_with(|| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .expect("open seismic output file")
        });
        let mut line = String::with_capacity(samples.len() * 12 + 16);
        line.push_str(&station);
        for s in &samples {
            line.push(' ');
            line.push_str(&format!("{s:.5}"));
        }
        line.push('\n');
        file.write_all(line.as_bytes())
            .expect("write seismic output");
        self.written.lock().push(station);
    }
}

impl Drop for WriteOutput {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

static FILE_SALT: AtomicU64 = AtomicU64::new(0);

/// Builds the 9-PE workflow. Returns the executable and a handle listing
/// the station codes the sink wrote, in completion order.
pub fn build(cfg: &WorkloadConfig) -> (Executable, Arc<Mutex<Vec<String>>>) {
    let mut g = WorkflowGraph::new("seismic_cross_correlation_phase1");
    let read = g.add_pe(PeSpec::source("readStations", "output"));
    let stages = [
        "detrend",
        "demean",
        "bandpass",
        "decimate",
        "whiten",
        "normalize",
        "spectrum",
    ];
    let mut prev = read;
    let mut stage_ids: Vec<PeId> = Vec::new();
    for name in stages {
        let pe = g.add_pe(PeSpec::transform(name, "input", "output"));
        g.connect(prev, "output", pe, "input", Grouping::Shuffle)
            .expect("ports declared on the PeSpecs above");
        stage_ids.push(pe);
        prev = pe;
    }
    let write = g.add_pe(PeSpec::sink("writeData", "input"));
    g.connect(prev, "output", write, "input", Grouping::Shuffle)
        .expect("ports declared on the PeSpecs above");

    let written = Arc::new(Mutex::new(Vec::new()));
    let mut exe = Executable::new(g).expect("seismic graph is valid");

    let n = cfg.scale * STATIONS_PER_X;
    let seed = cfg.seed;
    let shaped = cfg.clone();
    exe.register(read, move || {
        let shaped = shaped.clone();
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            for i in 0..n {
                let gap = shaped.arrival_gap(i as u64);
                if gap > std::time::Duration::ZERO {
                    // sleep: traffic-shape pacing — the configured
                    // inter-arrival gap before this trace, index-derived.
                    std::thread::sleep(gap);
                }
                let trace = waveform::station_trace(i, seed);
                ctx.emit("output", trace_to_value(&trace.station, &trace.samples));
            }
        }))
    });

    for ((pe, kernel), ms) in stage_ids.iter().zip(KERNELS).zip(STAGE_COMPUTE_MS) {
        let cfg = cfg.clone();
        exe.register(*pe, move || {
            Box::new(TraceStage {
                cfg: cfg.clone(),
                compute: Duration::from_millis(ms),
                kernel,
                samples: Vec::new(),
            })
        });
    }

    let cfg_w = cfg.clone();
    let handle = written.clone();
    exe.register(write, move || {
        // relaxed: uniqueness-only filename salt — no other memory depends
        // on its ordering.
        let salt = FILE_SALT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("d4py_seismic_{}_{salt}.txt", std::process::id()));
        Box::new(WriteOutput {
            cfg: cfg_w.clone(),
            path,
            file: None,
            written: handle.clone(),
        })
    });

    (exe.seal().expect("all seismic PEs registered"), written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d4py_core::mapping::Mapping;
    use d4py_core::mappings::{DynMulti, Simple};
    use d4py_core::options::ExecutionOptions;

    fn fast_cfg() -> WorkloadConfig {
        // 1X = 50 stations; shrink service times hard for unit tests.
        WorkloadConfig::standard().with_time_scale(0.01)
    }

    #[test]
    fn nine_pes_as_in_the_paper() {
        let (exe, _) = build(&fast_cfg());
        assert_eq!(exe.graph().pe_count(), 9);
        assert_eq!(d4py_graph::partition::minimum_processes(exe.graph()), 9);
    }

    #[test]
    fn simple_run_writes_every_station() {
        let (exe, written) = build(&fast_cfg());
        Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        let mut stations = written.lock().clone();
        stations.sort();
        assert_eq!(stations.len(), 50);
        assert_eq!(stations[0], "ST000");
        assert_eq!(stations[49], "ST049");
    }

    #[test]
    fn dynamic_run_matches_simple() {
        let (exe, w1) = build(&fast_cfg());
        Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        let (exe, w2) = build(&fast_cfg());
        DynMulti.execute(&exe, &ExecutionOptions::new(6)).unwrap();
        let mut a = w1.lock().clone();
        let mut b = w2.lock().clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn stages_rewrite_the_trace_in_place() {
        use d4py_core::pe::EmitBuffer;
        let trace = waveform::station_trace(3, 42);
        let mut samples = trace.samples.clone();
        for kernel in KERNELS {
            let mut stage = TraceStage {
                cfg: fast_cfg(),
                compute: Duration::ZERO,
                kernel,
                samples: Vec::new(),
            };
            let mut out = EmitBuffer::new(0, 1);
            stage.process("input", trace_to_value(&trace.station, &samples), &mut out);
            kernel(&mut samples);
            let emitted = out.drain();
            assert_eq!(emitted.len(), 1);
            assert_eq!(emitted[0].0, "output");
            assert_eq!(emitted[0].1, trace_to_value(&trace.station, &samples));
        }
    }

    #[test]
    fn pipeline_output_is_a_spectrum() {
        // End to end, one trace: the final samples must be a half-length
        // non-negative spectrum.
        use crate::seismic::waveform::{station_trace, TRACE_LEN};
        let t = station_trace(0, 42);
        let mut s = t.samples.clone();
        dsp::detrend(&mut s);
        dsp::demean(&mut s);
        dsp::bandpass(&mut s, SAMPLE_RATE, 0.3, 3.0);
        let mut s = dsp::decimate(&s, 2);
        s = dsp::whiten(&s, 1e-6);
        dsp::normalize_rms(&mut s);
        let spec = dsp::amplitude_spectrum(&s);
        assert_eq!(spec.len(), TRACE_LEN / 4); // 512 → decimate 2 → 256 → half
        assert!(spec.iter().all(|v| *v >= 0.0));
    }
}
