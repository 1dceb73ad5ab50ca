//! The runtime processing-element API.
//!
//! A [`ProcessingElement`] is the executable behaviour behind a
//! [`PeSpec`](d4py_graph::PeSpec): it receives data items on input ports and
//! emits data items on output ports through a [`Context`]. PEs are created
//! per instance from factories registered on an
//! [`Executable`](crate::executable::Executable), so every worker holds its
//! own copies — the property that makes dynamic scheduling possible for
//! stateless PEs and that forces the hybrid mapping to pin stateful ones.

use crate::value::Value;

/// Execution context handed to a PE while it processes an item.
///
/// What the PE emits is buffered in emission order. `simple` routes the
/// buffer after `process` returns. The engine core of every other mapping
/// routes and writes it out *during* the call, every few dozen emissions
/// (DESIGN.md §5), so a source's stream reaches the workers while it is
/// still being produced. A source that runs too far ahead is held inside
/// `emit`: a pool worker runs queued tasks there, a pinned one waits for
/// the other workers to run them.
pub trait Context {
    /// Emits `value` on the PE's output port `port`.
    fn emit(&mut self, port: &str, value: Value);
    /// The instance index this PE copy is running as (0-based). Stateless
    /// PEs under dynamic scheduling see the executing worker's index.
    fn instance(&self) -> usize;
    /// Total number of instances of this PE in the concrete workflow.
    fn instance_count(&self) -> usize;
}

/// A buffering [`Context`]: what `simple` and the profiler emit into,
/// routed once the call returns.
#[derive(Debug, Default)]
pub struct EmitBuffer {
    pub(crate) emissions: Vec<(String, Value)>,
    instance: usize,
    instance_count: usize,
}

impl EmitBuffer {
    /// Creates a buffer for the given instance coordinates.
    pub fn new(instance: usize, instance_count: usize) -> Self {
        Self {
            emissions: Vec::new(),
            instance,
            instance_count,
        }
    }

    /// Drains the buffered emissions in emission order.
    pub fn drain(&mut self) -> Vec<(String, Value)> {
        std::mem::take(&mut self.emissions)
    }

    /// Number of buffered emissions.
    pub fn len(&self) -> usize {
        self.emissions.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.emissions.is_empty()
    }
}

impl Context for EmitBuffer {
    fn emit(&mut self, port: &str, value: Value) {
        self.emissions.push((port.to_string(), value));
    }
    fn instance(&self) -> usize {
        self.instance
    }
    fn instance_count(&self) -> usize {
        self.instance_count
    }
}

/// Executable behaviour of a processing element.
///
/// Implementations must be `Send` (they move to worker threads) but not
/// `Sync`: each instance is owned by exactly one worker at a time.
pub trait ProcessingElement: Send {
    /// Handles one data item arriving on `port`.
    ///
    /// Source PEs receive a single item on
    /// [`KICKOFF_PORT`](crate::task::KICKOFF_PORT) and emit their stream in
    /// response.
    fn process(&mut self, port: &str, value: Value, ctx: &mut dyn Context);

    /// Called once after the instance has seen its entire input, in
    /// dataflow order. Stateful PEs flush aggregates here (e.g. the
    /// sentiment workflow's `happy State` emits per-state totals). Only
    /// mappings that track per-instance completion (simple, multi, hybrid)
    /// deliver emissions made here; plain dynamic mappings require
    /// `on_done` to be emission-free, which holds for stateless PEs.
    fn on_done(&mut self, _ctx: &mut dyn Context) {}

    /// Serializes this instance's state for externalization (see
    /// [`crate::state::StateStore`]). Stateful PEs that want warm-start /
    /// inspection support return `Some`; the default `None` opts out.
    fn snapshot(&self) -> Option<Value> {
        None
    }

    /// Restores state produced by an earlier [`snapshot`](Self::snapshot).
    /// Called before the instance receives any input.
    fn restore(&mut self, _state: Value) {}
}

/// Runs one `process()` call with panic containment: a panicking PE loses
/// the item but cannot take the worker — and with it the whole workflow —
/// down. Returns `false` when the call panicked; the caller then discards
/// what `ctx` still buffers. Emissions an engine already wrote out during
/// the call stay delivered. Engines count failures into
/// [`RunReport::failed_tasks`](crate::metrics::RunReport::failed_tasks).
pub fn process_guarded(
    pe: &mut dyn ProcessingElement,
    port: &str,
    value: Value,
    ctx: &mut dyn Context,
) -> bool {
    let call = std::panic::AssertUnwindSafe(|| pe.process(port, value, ctx));
    std::panic::catch_unwind(call).is_ok()
}

/// A source PE built from a closure that produces the whole stream.
pub struct FnSource<F>(pub F);

impl<F> ProcessingElement for FnSource<F>
where
    F: FnMut(&mut dyn Context) + Send,
{
    fn process(&mut self, _port: &str, _value: Value, ctx: &mut dyn Context) {
        (self.0)(ctx);
    }
}

/// A transform PE built from a closure invoked per item.
pub struct FnTransform<F>(pub F);

impl<F> ProcessingElement for FnTransform<F>
where
    F: FnMut(&str, Value, &mut dyn Context) + Send,
{
    fn process(&mut self, port: &str, value: Value, ctx: &mut dyn Context) {
        (self.0)(port, value, ctx);
    }
}

/// A sink PE that appends every received item to a shared vector, for tests
/// and result capture in examples.
pub struct Collector {
    sink: std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>,
}

impl Collector {
    /// Creates a collector and the handle used to read what it gathered.
    pub fn new() -> (Self, std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) {
        let sink = std::sync::Arc::new(d4py_sync::Mutex::new(Vec::new()));
        (Self { sink: sink.clone() }, sink)
    }

    /// Creates a collector writing into an existing handle (so every
    /// instance of the PE shares one result vector).
    pub fn into_handle(sink: std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) -> Self {
        Self { sink }
    }
}

impl ProcessingElement for Collector {
    fn process(&mut self, _port: &str, value: Value, _ctx: &mut dyn Context) {
        self.sink.lock().push(value);
    }
}

/// A counting sink: cheaper than [`Collector`] when only volume matters.
pub struct CountingSink {
    count: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl CountingSink {
    /// Creates a counting sink and its shared counter.
    pub fn new() -> (Self, std::sync::Arc<std::sync::atomic::AtomicU64>) {
        let count = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        (
            Self {
                count: count.clone(),
            },
            count,
        )
    }

    /// Creates a sink incrementing an existing counter.
    pub fn into_handle(count: std::sync::Arc<std::sync::atomic::AtomicU64>) -> Self {
        Self { count }
    }
}

impl ProcessingElement for CountingSink {
    fn process(&mut self, _port: &str, _value: Value, _ctx: &mut dyn Context) {
        // relaxed: test-helper invocation counter, read after the run.
        self.count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_buffer_collects_in_order() {
        let mut buf = EmitBuffer::new(2, 4);
        buf.emit("out", Value::Int(1));
        buf.emit("err", Value::Int(2));
        assert_eq!(buf.instance(), 2);
        assert_eq!(buf.instance_count(), 4);
        assert_eq!(buf.len(), 2);
        let drained = buf.drain();
        assert_eq!(drained[0], ("out".to_string(), Value::Int(1)));
        assert_eq!(drained[1], ("err".to_string(), Value::Int(2)));
        assert!(buf.is_empty());
    }

    #[test]
    fn fn_source_emits_stream() {
        let mut src = FnSource(|ctx: &mut dyn Context| {
            for i in 0..3 {
                ctx.emit("out", Value::Int(i));
            }
        });
        let mut buf = EmitBuffer::new(0, 1);
        src.process("__kickoff__", Value::Null, &mut buf);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn fn_transform_sees_port_and_value() {
        let mut t = FnTransform(|port: &str, value: Value, ctx: &mut dyn Context| {
            assert_eq!(port, "in");
            let x = value.as_int().unwrap();
            ctx.emit("out", Value::Int(x * 2));
        });
        let mut buf = EmitBuffer::new(0, 1);
        t.process("in", Value::Int(21), &mut buf);
        assert_eq!(buf.drain()[0].1, Value::Int(42));
    }

    #[test]
    fn collector_accumulates() {
        let (mut c, handle) = Collector::new();
        let mut buf = EmitBuffer::new(0, 1);
        c.process("in", Value::Int(1), &mut buf);
        c.process("in", Value::Int(2), &mut buf);
        assert_eq!(handle.lock().len(), 2);
    }

    #[test]
    fn counting_sink_counts() {
        let (mut c, n) = CountingSink::new();
        let mut buf = EmitBuffer::new(0, 1);
        for _ in 0..5 {
            c.process("in", Value::Null, &mut buf);
        }
        assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), 5);
    }

    #[test]
    fn default_on_done_is_noop() {
        let mut t = FnTransform(|_: &str, _: Value, _: &mut dyn Context| {});
        let mut buf = EmitBuffer::new(0, 1);
        t.on_done(&mut buf);
        assert!(buf.is_empty());
    }
}
