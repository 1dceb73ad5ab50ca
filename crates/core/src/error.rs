//! Error types for the dispel4py-rs runtime.

use d4py_graph::{GraphError, PeId};

/// Errors raised while preparing or executing a workflow.
#[derive(Debug)]
pub enum CoreError {
    /// The abstract workflow failed validation.
    Graph(GraphError),
    /// The mapping cannot run this workflow: its pre-flight analysis under
    /// the mapping's placement found Error-severity diagnostics (see
    /// `d4py_graph::analyze`), such as plain dynamic scheduling given a
    /// stateful PE (`D4PY401`) or `multi` given too few workers
    /// (`D4PY425`). The rendered report carries the `D4PY` rule codes.
    Analysis {
        /// The mapping that refused the workflow.
        mapping: &'static str,
        /// The rendered diagnostics report.
        report: String,
    },
    /// A PE id has no registered runtime factory.
    MissingFactory(PeId),
    /// Invalid execution options (e.g. zero workers).
    InvalidOptions(String),
    /// Binary codec failure while (de)serializing stream data.
    Codec(CodecError),
    /// A stored state snapshot frame is damaged, truncated, or from an
    /// unknown format version (see [`crate::state::snapshot`]).
    Snapshot(crate::state::snapshot::SnapshotError),
    /// A queue/transport failure (e.g. the Redis connection dropped).
    Queue(String),
    /// A worker thread panicked.
    WorkerPanic {
        /// Index of the worker that died.
        worker: usize,
    },
    /// A deliberately injected fault fired (see [`crate::fault`]). Chaos
    /// scenarios match on this to distinguish the planned crash from a
    /// genuine engine failure.
    InjectedFault(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "invalid workflow: {e}"),
            CoreError::Analysis { mapping, report } => {
                write!(f, "mapping '{mapping}' cannot run this workflow:\n{report}")
            }
            CoreError::MissingFactory(pe) => {
                write!(f, "no runtime factory registered for {pe}")
            }
            CoreError::InvalidOptions(msg) => write!(f, "invalid options: {msg}"),
            CoreError::Codec(e) => write!(f, "codec error: {e}"),
            CoreError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            CoreError::Queue(msg) => write!(f, "queue error: {msg}"),
            CoreError::WorkerPanic { worker } => write!(f, "worker {worker} panicked"),
            CoreError::InjectedFault(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::Codec(e)
    }
}

/// Errors from the binary value codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a complete value was decoded.
    UnexpectedEof,
    /// An unknown type tag was encountered.
    BadTag(u8),
    /// A declared length exceeds the remaining input.
    BadLength {
        /// Length declared by the encoding.
        declared: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes remained after decoding a complete value.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag(t) => write!(f, "unknown type tag 0x{t:02x}"),
            CodecError::BadLength {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "declared length {declared} exceeds remaining {remaining} bytes"
                )
            }
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}
