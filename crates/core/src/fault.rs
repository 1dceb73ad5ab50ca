//! Deterministic fault injection for the engine core, armed through the
//! hybrid front door (DESIGN.md §10).
//!
//! A [`FaultPlan`] describes the faults one chaos run should suffer. The
//! plan is *declarative* and fully deterministic: faults trigger on task
//! counts, never on wall-clock time, so a cell that passes once passes
//! every time (modulo scheduling noise in *when* within the run a
//! threshold is crossed — the invariants asserted by the chaos matrix are
//! count-based, not order-based).
//!
//! Three fault families are modelled here; the fourth chaos dimension
//! (dropped/stalled Redis connections) is injected *below* the engine,
//! through [`RedisBackend::Custom`] connection factories, and absorbed by
//! the transport-retry budget in
//! [`ExecutionOptions::transport_retries`](crate::options::ExecutionOptions).
//!
//! * [`Straggler`] — one PE's service time is inflated by a fixed delay
//!   per call (queued or inlined), the classic slow-worker scenario;
//! * [`CrashFault`] — the pinned worker of one stateful instance dies
//!   after N tasks. The run aborts with
//!   [`CoreError::InjectedFault`](crate::error::CoreError::InjectedFault)
//!   and, crucially, *does not* write snapshots: recovery must restart
//!   from the last completed checkpoint, exactly like a real crash;
//! * [`PillStorm`] — spurious poison pills are injected into the global
//!   queue mid-run. The engine must recognise them as illegitimate (the
//!   shutdown flag is not set) and keep draining real work.

use std::time::Duration;

/// One PE's service time inflated by a fixed delay per call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Straggler {
    /// Name of the straggling PE (as in the workflow graph).
    pub pe: String,
    /// Extra service time added before each of its calls.
    pub extra: Duration,
}

/// Kill the dedicated worker of one stateful instance mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFault {
    /// Name of the stateful PE whose worker dies.
    pub pe: String,
    /// Which pinned instance of that PE dies.
    pub instance: usize,
    /// The worker dies after processing this many tasks.
    pub after_tasks: u64,
}

/// Inject spurious poison pills into the global queue mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PillStorm {
    /// Fire once the engine-wide count of PE calls crosses this.
    pub after_tasks: u64,
    /// How many spurious pills to inject.
    pub pills: usize,
}

/// The faults one hybrid run should suffer. `FaultPlan::default()` is the
/// healthy run — every existing entry point uses it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Straggler PE, if any.
    pub straggler: Option<Straggler>,
    /// Worker crash, if any.
    pub crash: Option<CrashFault>,
    /// Poison-pill storm, if any.
    pub pill_storm: Option<PillStorm>,
}

impl FaultPlan {
    /// A healthy run (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a straggler PE (builder style).
    pub fn with_straggler(mut self, pe: impl Into<String>, extra: Duration) -> Self {
        self.straggler = Some(Straggler {
            pe: pe.into(),
            extra,
        });
        self
    }

    /// Adds a worker crash (builder style).
    pub fn with_crash(mut self, pe: impl Into<String>, instance: usize, after_tasks: u64) -> Self {
        self.crash = Some(CrashFault {
            pe: pe.into(),
            instance,
            after_tasks,
        });
        self
    }

    /// Adds a poison-pill storm (builder style).
    pub fn with_pill_storm(mut self, after_tasks: u64, pills: usize) -> Self {
        self.pill_storm = Some(PillStorm { after_tasks, pills });
        self
    }

    /// True when no fault is armed.
    pub fn is_empty(&self) -> bool {
        self.straggler.is_none() && self.crash.is_none() && self.pill_storm.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn builders_arm_faults() {
        let plan = FaultPlan::default()
            .with_straggler("filterColumns", Duration::from_millis(5))
            .with_crash("count", 0, 10)
            .with_pill_storm(20, 8);
        assert!(!plan.is_empty());
        assert_eq!(plan.straggler.as_ref().unwrap().pe, "filterColumns");
        assert_eq!(plan.crash.as_ref().unwrap().after_tasks, 10);
        assert_eq!(plan.pill_storm.unwrap().pills, 8);
    }
}
