//! Execution options shared by every mapping.

use crate::platform::{CoreLimiter, Platform};
use std::sync::Arc;
use std::time::Duration;

/// How a dynamic run ends: at quiescence, with the retry + poison-pill
/// protocol of §3.2.3 of the paper underneath.
///
/// In strict mode (the default) the engine counts tasks pushed but not yet
/// retired, and the worker whose update takes that count to zero broadcasts
/// poison pills at once: the run ends when it is over, and neither
/// `max_retries` nor `poll_timeout` is paid for. The paper's protocol — a
/// worker that finds the queue empty waits `poll_timeout` and retries up to
/// `max_retries` times before deciding the workflow is finished, then
/// broadcasts the pills so the others stop quickly instead of each
/// exhausting its own retries — is the only signal when `strict` is off, and
/// the fallback whenever the engine has evidence that its count is not exact
/// (a queue operation absorbed a transport retry, or a task was delivered
/// twice); the report then carries a warning saying so. A plan with stateful
/// stages (the hybrid mappings) ends at its last zero-crossing, the one
/// after its last stage's flush work retired, whatever these settings say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TerminationConfig {
    /// How long one empty-queue poll blocks before returning: one step of
    /// the retry protocol, and the latency with which an idle worker notices
    /// that the run was aborted.
    pub poll_timeout: Duration,
    /// Empty polls tolerated before a worker initiates termination by the
    /// retry protocol. Not consulted by a strict run whose count is exact.
    pub max_retries: u32,
    /// When true (default), the engine's outstanding-task counter decides:
    /// reaching zero ends the run, and should the counter stop being exact,
    /// a worker only *begins* counting retries while it reads zero, which
    /// keeps termination sound rather than heuristic. Disabling reproduces
    /// the paper's original purely queue-emptiness-based check (which it
    /// notes "is not foolproof and could lead to unexpected exits in some
    /// extreme cases").
    pub strict: bool,
}

impl Default for TerminationConfig {
    fn default() -> Self {
        Self {
            poll_timeout: Duration::from_millis(10),
            max_retries: 5,
            strict: true,
        }
    }
}

/// Options controlling one workflow execution.
#[derive(Clone)]
pub struct ExecutionOptions {
    /// Worker-pool size — the paper's "number of processes".
    pub workers: usize,
    /// Simulated-core limiter (see [`crate::platform`]). Defaults to
    /// unlimited, i.e. no platform simulation.
    pub limiter: Arc<CoreLimiter>,
    /// Termination protocol parameters for dynamic mappings.
    pub termination: TerminationConfig,
    /// How many consecutive transient transport errors one queue operation
    /// may absorb before the run fails. The default of 0 preserves the
    /// historical fail-fast behaviour; chaos scenarios that inject dropped
    /// redis-lite connections raise it so the engine rides through the
    /// fault. Retries are counted and surfaced in
    /// [`RunReport::warnings`](crate::mapping::RunReport::warnings).
    pub transport_retries: u32,
}

impl ExecutionOptions {
    /// Options for `workers` workers with no platform cap.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            limiter: CoreLimiter::unlimited(),
            termination: TerminationConfig::default(),
            transport_retries: 0,
        }
    }

    /// Applies a platform profile (builder style).
    pub fn on_platform(mut self, platform: Platform) -> Self {
        self.limiter = platform.limiter();
        self
    }

    /// Overrides the termination protocol (builder style).
    pub fn with_termination(mut self, t: TerminationConfig) -> Self {
        self.termination = t;
        self
    }

    /// Shares an existing limiter (so several runs compete for the same
    /// simulated cores).
    pub fn with_limiter(mut self, limiter: Arc<CoreLimiter>) -> Self {
        self.limiter = limiter;
        self
    }

    /// Allows each queue operation to absorb up to `n` consecutive
    /// transient transport errors (builder style).
    pub fn with_transport_retries(mut self, n: u32) -> Self {
        self.transport_retries = n;
        self
    }
}

impl std::fmt::Debug for ExecutionOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionOptions")
            .field("workers", &self.workers)
            .field("cores", &self.limiter.cores())
            .field("termination", &self.termination)
            .field("transport_retries", &self.transport_retries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let opts = ExecutionOptions::new(8);
        assert_eq!(opts.workers, 8);
        assert!(opts.limiter.is_unlimited());
        assert!(opts.termination.strict);
        assert_eq!(opts.termination.max_retries, 5);
        assert_eq!(opts.transport_retries, 0);
    }

    #[test]
    fn transport_retry_builder() {
        let opts = ExecutionOptions::new(4).with_transport_retries(3);
        assert_eq!(opts.transport_retries, 3);
    }

    #[test]
    fn platform_builder_sets_cores() {
        let opts = ExecutionOptions::new(16).on_platform(Platform::CLOUD);
        assert_eq!(opts.limiter.cores(), 8);
    }

    #[test]
    fn termination_builder() {
        let t = TerminationConfig {
            poll_timeout: Duration::from_millis(50),
            max_retries: 2,
            strict: false,
        };
        let opts = ExecutionOptions::new(4).with_termination(t);
        assert_eq!(opts.termination.poll_timeout, Duration::from_millis(50));
        assert!(!opts.termination.strict);
    }
}
