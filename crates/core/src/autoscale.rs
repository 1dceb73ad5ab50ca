//! The auto-scaler (Algorithm 1 of the paper) and its monitoring strategies.
//!
//! Auto-scaling extends dynamic scheduling with two process states: *active*
//! workers execute tasks; *idle* workers park in a low-energy standby state
//! (here: blocked on a condvar, contributing nothing to *process time*). A
//! scaler loop monitors a metric and adjusts the active size by ±1 per
//! iteration — the paper's deliberately simple incremental policy:
//!
//! * [`QueueSizeStrategy`] (`dyn_auto_multi`): grow when the queue grew
//!   since the previous observation, shrink when it shrank, and use an
//!   absolute threshold to break ties — the "minimum threshold \[that\]
//!   prevents unnecessary scaling during low demand".
//! * [`IdleTimeStrategy`] (`dyn_auto_redis`): observe the mean idle time of
//!   the *active* consumers (Redis consumer-group metadata); shrink when it
//!   exceeds the configured reactivation threshold, grow otherwise.
//!
//! Every observation is recorded into a [`ScalingTrace`], which is what the
//! paper's Figure 13 plots.

use crate::metrics::{ScalingTrace, TracePoint};
use crate::queue::TaskQueue;
use d4py_sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Auto-scaler parameters (Algorithm 1's constructor arguments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Initial active size. `None` uses the paper's default of half the
    /// maximum pool size (line 5 of Algorithm 1).
    pub initial_active: Option<usize>,
    /// Lower bound on the active size (the shrink floor; the paper uses 1).
    pub min_active: usize,
    /// Strategy threshold: queue depth for the multiprocessing strategy,
    /// seconds of idle time for the Redis strategy.
    pub threshold: f64,
    /// Interval between scaler iterations.
    pub tick: Duration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            initial_active: None,
            min_active: 1,
            threshold: 4.0,
            tick: Duration::from_millis(5),
        }
    }
}

/// One scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Activate `n` more workers (clamped to the pool size).
    Grow(usize),
    /// Deactivate `n` workers (clamped to the minimum).
    Shrink(usize),
    /// Leave the active size unchanged.
    Hold,
}

/// A monitoring strategy: observes a metric and proposes a decision.
pub trait MonitorStrategy: Send {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;
    /// Samples the metric given the current active size and proposes a
    /// decision. Returns `(metric_value, decision)`.
    fn observe(&mut self, active_size: usize) -> (f64, ScaleDecision);
}

/// Queue-depth strategy used by `dyn_auto_multi` (§3.2.2).
pub struct QueueSizeStrategy {
    queue: Arc<dyn TaskQueue>,
    threshold: f64,
    prev_depth: Option<usize>,
}

impl QueueSizeStrategy {
    /// Creates the strategy over the global queue.
    pub fn new(queue: Arc<dyn TaskQueue>, threshold: f64) -> Self {
        Self {
            queue,
            threshold,
            prev_depth: None,
        }
    }
}

impl MonitorStrategy for QueueSizeStrategy {
    fn name(&self) -> &'static str {
        "queue_size"
    }

    fn observe(&mut self, _active_size: usize) -> (f64, ScaleDecision) {
        let depth = self.queue.depth();
        let decision = match self.prev_depth {
            Some(prev) if depth > prev => ScaleDecision::Grow(1),
            Some(prev) if depth < prev => ScaleDecision::Shrink(1),
            // Flat queue: fall back to Algorithm 1's threshold rule so a
            // persistently loaded queue keeps activating processes.
            _ if depth as f64 > self.threshold => ScaleDecision::Grow(1),
            _ => ScaleDecision::Hold,
        };
        self.prev_depth = Some(depth);
        (depth as f64, decision)
    }
}

/// Mean-idle-time strategy used by `dyn_auto_redis` (§3.2.2).
///
/// "If a process's idle time exceeds the time needed for reactivation and
/// redeployment, it is logically deactivated" — the threshold models that
/// reactivation cost.
pub struct IdleTimeStrategy {
    queue: Arc<dyn TaskQueue>,
    threshold_secs: f64,
}

impl IdleTimeStrategy {
    /// Creates the strategy; `threshold_secs` is the reactivation-cost
    /// threshold on mean idle time.
    pub fn new(queue: Arc<dyn TaskQueue>, threshold_secs: f64) -> Self {
        Self {
            queue,
            threshold_secs,
        }
    }
}

impl MonitorStrategy for IdleTimeStrategy {
    fn name(&self) -> &'static str {
        "idle_time"
    }

    fn observe(&mut self, active_size: usize) -> (f64, ScaleDecision) {
        let Some(idles) = self.queue.idle_times() else {
            return (0.0, ScaleDecision::Hold);
        };
        let active = active_size.max(1).min(idles.len());
        let mean_idle: f64 =
            idles[..active].iter().map(|d| d.as_secs_f64()).sum::<f64>() / active as f64;
        let decision = if mean_idle > self.threshold_secs {
            ScaleDecision::Shrink(1)
        } else {
            ScaleDecision::Grow(1)
        };
        (mean_idle, decision)
    }
}

/// Proportional strategy — the refinement the paper's §5.5 calls for.
///
/// The naive strategies move ±1 per tick and react only to *changes*,
/// giving the lag ("inertia") visible in Figure 13 and the HPC anomaly
/// where 64 workers never activate despite a consistently deep queue. This
/// strategy smooths the queue depth with an EWMA and steps the active size
/// toward an absolute target of one worker per `items_per_worker` queued
/// items, up to `max_step` workers per tick.
pub struct ProportionalStrategy {
    queue: Arc<dyn TaskQueue>,
    items_per_worker: f64,
    alpha: f64,
    max_step: usize,
    ewma: Option<f64>,
}

impl ProportionalStrategy {
    /// Creates the strategy. `items_per_worker` is the queue depth one
    /// active worker is expected to absorb; `alpha` ∈ (0, 1] smooths the
    /// depth signal; `max_step` caps the per-tick adjustment.
    pub fn new(
        queue: Arc<dyn TaskQueue>,
        items_per_worker: f64,
        alpha: f64,
        max_step: usize,
    ) -> Self {
        assert!(items_per_worker > 0.0, "items_per_worker must be positive");
        assert!(
            (0.0..=1.0).contains(&alpha) && alpha > 0.0,
            "alpha must be in (0, 1]"
        );
        Self {
            queue,
            items_per_worker,
            alpha,
            max_step: max_step.max(1),
            ewma: None,
        }
    }
}

impl MonitorStrategy for ProportionalStrategy {
    fn name(&self) -> &'static str {
        "proportional"
    }

    fn observe(&mut self, active_size: usize) -> (f64, ScaleDecision) {
        let depth = self.queue.depth() as f64;
        let ewma = match self.ewma {
            Some(prev) => self.alpha * depth + (1.0 - self.alpha) * prev,
            None => depth,
        };
        self.ewma = Some(ewma);
        let target = (ewma / self.items_per_worker).ceil() as usize;
        let decision = if target > active_size {
            ScaleDecision::Grow((target - active_size).min(self.max_step))
        } else if target < active_size {
            ScaleDecision::Shrink((active_size - target).min(self.max_step))
        } else {
            ScaleDecision::Hold
        };
        (ewma, decision)
    }
}

/// Constructor for a monitoring strategy over the run's queue.
pub type StrategyBuilder = Box<dyn FnOnce(Arc<dyn TaskQueue>) -> Box<dyn MonitorStrategy> + Send>;

/// Auto-scaling attachment for a dynamic run: the configuration plus a
/// strategy constructor (the strategy usually needs the queue).
pub struct AutoscaleSetup {
    /// Scaler parameters.
    pub config: AutoscaleConfig,
    /// Builds the monitoring strategy over the run's queue.
    pub strategy: StrategyBuilder,
}

/// Whether a worker passing the activation gate should run or stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The worker is active: take a task.
    Proceed,
    /// The engine is shutting down: exit the worker loop.
    Shutdown,
}

struct ScalerState {
    active_size: usize,
}

/// The auto-scaler shared between workers and the scaler loop.
///
/// Workers call [`gate`](AutoScaler::gate) before each queue poll: workers
/// whose index is at or above the active size park until reactivated. The
/// scaler loop ([`run_monitor`](AutoScaler::run_monitor)) applies a
/// [`MonitorStrategy`] every tick and records a [`TracePoint`] whenever the
/// observed metric or the active size changes.
pub struct AutoScaler {
    max_pool: usize,
    min_active: usize,
    state: Mutex<ScalerState>,
    changed: Condvar,
    shutdown: AtomicBool,
    trace: Arc<ScalingTrace>,
}

impl AutoScaler {
    /// Creates a scaler for a pool of `max_pool` workers.
    pub fn new(max_pool: usize, config: &AutoscaleConfig) -> Self {
        let initial = config
            .initial_active
            .unwrap_or_else(|| (max_pool / 2).max(1))
            .clamp(config.min_active.max(1), max_pool);
        Self {
            max_pool,
            min_active: config.min_active.max(1),
            state: Mutex::new(ScalerState {
                active_size: initial,
            }),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            trace: Arc::new(ScalingTrace::new()),
        }
    }

    /// Current active size.
    pub fn active_size(&self) -> usize {
        self.state.lock().active_size
    }

    /// The shared decision trace.
    pub fn trace(&self) -> Arc<ScalingTrace> {
        self.trace.clone()
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Increases the active size by `n`, clamped to the pool size
    /// (Algorithm 1's `grow`).
    pub fn grow(&self, n: usize) {
        let mut st = self.state.lock();
        st.active_size = (st.active_size + n).min(self.max_pool);
        drop(st);
        self.changed.notify_all();
    }

    /// Decreases the active size by `n`, clamped to the minimum
    /// (Algorithm 1's `shrink`).
    pub fn shrink(&self, n: usize) {
        let mut st = self.state.lock();
        st.active_size = st.active_size.saturating_sub(n).max(self.min_active);
        drop(st);
        self.changed.notify_all();
    }

    /// Applies one decision.
    pub fn apply(&self, decision: ScaleDecision) {
        match decision {
            ScaleDecision::Grow(n) => self.grow(n),
            ScaleDecision::Shrink(n) => self.shrink(n),
            ScaleDecision::Hold => {}
        }
    }

    /// Worker-side activation gate. Returns [`Gate::Proceed`] when `worker`
    /// is within the active set, parking it (idle state) while it is not.
    /// `on_transition(true)` fires when the worker parks and
    /// `on_transition(false)` when it reactivates, so callers can close and
    /// reopen their process-time spans.
    pub fn gate(&self, worker: usize, mut on_transition: impl FnMut(bool)) -> Gate {
        let mut st = self.state.lock();
        if worker < st.active_size {
            return Gate::Proceed;
        }
        if self.shutdown.load(Ordering::SeqCst) {
            return Gate::Shutdown;
        }
        on_transition(true);
        while worker >= st.active_size && !self.shutdown.load(Ordering::SeqCst) {
            self.changed.wait(&mut st);
        }
        drop(st);
        on_transition(false);
        if self.shutdown.load(Ordering::SeqCst) {
            Gate::Shutdown
        } else {
            Gate::Proceed
        }
    }

    /// Requests shutdown and wakes every parked worker and the monitor.
    pub fn request_shutdown(&self) {
        // Stored under the lock: a waiter between its check of the flag and
        // its wait holds it, so the notification cannot fall in between.
        let st = self.state.lock();
        self.shutdown.store(true, Ordering::SeqCst);
        drop(st);
        self.changed.notify_all();
    }

    /// Sits out one sampling tick; `false` when a shutdown request cut it
    /// short (or came before it), so a finished run does not wait for it.
    fn tick_elapsed(&self, tick: Duration) -> bool {
        let deadline = Instant::now() + tick;
        let mut st = self.state.lock();
        while !self.shutdown.load(Ordering::SeqCst) {
            if self.changed.wait_until(&mut st, deadline).timed_out() {
                return true;
            }
        }
        false
    }

    /// The scaler loop: every `tick`, observes the strategy, applies the
    /// decision, and records a trace point when the metric or active size
    /// changed. Runs until [`request_shutdown`](Self::request_shutdown).
    pub fn run_monitor(&self, mut strategy: Box<dyn MonitorStrategy>, tick: Duration) {
        let mut iteration: u64 = 0;
        let mut prev_metric: Option<f64> = None;
        let mut prev_active = self.active_size();
        while self.tick_elapsed(tick) {
            let active = self.active_size();
            let (metric, decision) = strategy.observe(active);
            self.apply(decision);
            let new_active = self.active_size();
            let metric_changed = prev_metric.map(|m| m != metric).unwrap_or(true);
            if metric_changed || new_active != prev_active {
                iteration += 1;
                self.trace.push(TracePoint {
                    iteration,
                    active_size: new_active,
                    metric,
                });
            }
            prev_metric = Some(metric);
            prev_active = new_active;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ChannelQueue;
    use crate::task::{QueueItem, Task};
    use crate::value::Value;
    use d4py_graph::PeId;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig::default()
    }

    #[test]
    fn initial_active_defaults_to_half_pool() {
        let s = AutoScaler::new(16, &cfg());
        assert_eq!(s.active_size(), 8);
    }

    #[test]
    fn initial_active_respects_explicit_value() {
        let c = AutoscaleConfig {
            initial_active: Some(3),
            ..cfg()
        };
        assert_eq!(AutoScaler::new(16, &c).active_size(), 3);
    }

    #[test]
    fn initial_active_clamped_to_pool() {
        let c = AutoscaleConfig {
            initial_active: Some(99),
            ..cfg()
        };
        assert_eq!(AutoScaler::new(4, &c).active_size(), 4);
    }

    #[test]
    fn grow_clamps_to_max_pool() {
        let s = AutoScaler::new(4, &cfg());
        s.grow(100);
        assert_eq!(s.active_size(), 4);
    }

    #[test]
    fn shrink_clamps_to_min_active() {
        let s = AutoScaler::new(8, &cfg());
        s.shrink(100);
        assert_eq!(s.active_size(), 1);
    }

    #[test]
    fn apply_dispatches() {
        let s = AutoScaler::new(8, &cfg());
        let before = s.active_size();
        s.apply(ScaleDecision::Grow(1));
        assert_eq!(s.active_size(), before + 1);
        s.apply(ScaleDecision::Shrink(1));
        assert_eq!(s.active_size(), before);
        s.apply(ScaleDecision::Hold);
        assert_eq!(s.active_size(), before);
    }

    #[test]
    fn gate_proceeds_for_active_worker() {
        let s = AutoScaler::new(8, &cfg()); // active = 4
        assert_eq!(s.gate(0, |_| {}), Gate::Proceed);
        assert_eq!(s.gate(3, |_| {}), Gate::Proceed);
    }

    #[test]
    fn gate_parks_inactive_worker_until_grow() {
        let s = Arc::new(AutoScaler::new(8, &cfg())); // active = 4
        let s2 = s.clone();
        let handle = std::thread::spawn(move || {
            let mut transitions = Vec::new();
            let g = s2.gate(6, |parked| transitions.push(parked));
            (g, transitions)
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!handle.is_finished(), "worker 6 should be parked");
        s.grow(3); // active = 7 > 6
        let (g, transitions) = handle.join().unwrap();
        assert_eq!(g, Gate::Proceed);
        assert_eq!(transitions, vec![true, false]);
    }

    #[test]
    fn gate_released_by_shutdown() {
        let s = Arc::new(AutoScaler::new(8, &cfg()));
        let s2 = s.clone();
        let handle = std::thread::spawn(move || s2.gate(7, |_| {}));
        std::thread::sleep(Duration::from_millis(20));
        s.request_shutdown();
        assert_eq!(handle.join().unwrap(), Gate::Shutdown);
    }

    #[test]
    fn gate_shutdown_when_already_requested() {
        let s = AutoScaler::new(8, &cfg());
        s.request_shutdown();
        assert_eq!(s.gate(7, |_| {}), Gate::Shutdown);
        // Active workers still proceed to drain pills.
        assert_eq!(s.gate(0, |_| {}), Gate::Proceed);
    }

    fn push_tasks(q: &ChannelQueue, n: usize) {
        for i in 0..n {
            q.push(QueueItem::Task(Task::new(
                PeId(0),
                "in",
                Value::Int(i as i64),
            )))
            .unwrap();
        }
    }

    #[test]
    fn queue_strategy_grows_on_rising_depth() {
        let q = Arc::new(ChannelQueue::new(1));
        let mut s = QueueSizeStrategy::new(q.clone(), 100.0);
        let (_, first) = s.observe(4);
        assert_eq!(
            first,
            ScaleDecision::Hold,
            "first observation has no delta, low depth"
        );
        push_tasks(&q, 5);
        let (metric, d) = s.observe(4);
        assert_eq!(metric, 5.0);
        assert_eq!(d, ScaleDecision::Grow(1));
    }

    #[test]
    fn queue_strategy_shrinks_on_falling_depth() {
        let q = Arc::new(ChannelQueue::new(1));
        push_tasks(&q, 5);
        let mut s = QueueSizeStrategy::new(q.clone(), 100.0);
        s.observe(4); // prev = 5
        q.pop(0, Duration::from_millis(5)).unwrap();
        let (_, d) = s.observe(4);
        assert_eq!(d, ScaleDecision::Shrink(1));
    }

    #[test]
    fn queue_strategy_threshold_breaks_flat_ties() {
        let q = Arc::new(ChannelQueue::new(1));
        push_tasks(&q, 10);
        let mut s = QueueSizeStrategy::new(q.clone(), 4.0);
        s.observe(4); // prev = 10 (first: grows? no — first has no prev; depth 10 > threshold → Grow)
        let (_, d) = s.observe(4); // flat at 10, above threshold
        assert_eq!(d, ScaleDecision::Grow(1));
    }

    #[test]
    fn idle_strategy_shrinks_when_idle_exceeds_threshold() {
        let q = Arc::new(ChannelQueue::new(2));
        std::thread::sleep(Duration::from_millis(30));
        let mut s = IdleTimeStrategy::new(q.clone(), 0.01); // 10ms threshold
        let (metric, d) = s.observe(2);
        assert!(metric > 0.01);
        assert_eq!(d, ScaleDecision::Shrink(1));
    }

    #[test]
    fn idle_strategy_grows_when_consumers_busy() {
        let q = Arc::new(ChannelQueue::new(2));
        push_tasks(&q, 2);
        q.pop(0, Duration::from_millis(5)).unwrap();
        q.pop(1, Duration::from_millis(5)).unwrap();
        let mut s = IdleTimeStrategy::new(q.clone(), 10.0); // generous threshold
        let (_, d) = s.observe(2);
        assert_eq!(d, ScaleDecision::Grow(1));
    }

    #[test]
    fn proportional_steps_toward_target() {
        let q = Arc::new(ChannelQueue::new(1));
        push_tasks(&q, 40);
        // Target = ceil(40 / 4) = 10 active; from 2, capped at step 3.
        let mut s = ProportionalStrategy::new(q.clone(), 4.0, 1.0, 3);
        let (metric, d) = s.observe(2);
        assert_eq!(metric, 40.0);
        assert_eq!(d, ScaleDecision::Grow(3));
        // From 9 of target 10: grow just 1.
        let (_, d) = s.observe(9);
        assert_eq!(d, ScaleDecision::Grow(1));
        // At target: hold.
        let (_, d) = s.observe(10);
        assert_eq!(d, ScaleDecision::Hold);
    }

    #[test]
    fn proportional_shrinks_on_drained_queue() {
        let q = Arc::new(ChannelQueue::new(1));
        let mut s = ProportionalStrategy::new(q.clone(), 4.0, 1.0, 2);
        let (_, d) = s.observe(8);
        assert_eq!(
            d,
            ScaleDecision::Shrink(2),
            "empty queue → target 0, step-capped"
        );
    }

    #[test]
    fn proportional_ewma_smooths_spikes() {
        let q = Arc::new(ChannelQueue::new(1));
        let mut s = ProportionalStrategy::new(q.clone(), 1.0, 0.5, 100);
        s.observe(1); // ewma = 0
        push_tasks(&q, 100);
        let (metric, _) = s.observe(1);
        assert_eq!(metric, 50.0, "spike halved by alpha=0.5");
    }

    #[test]
    #[should_panic(expected = "items_per_worker")]
    fn proportional_rejects_zero_ratio() {
        let q = Arc::new(ChannelQueue::new(1));
        ProportionalStrategy::new(q, 0.0, 0.5, 1);
    }

    #[test]
    fn monitor_loop_records_trace_and_stops() {
        let q = Arc::new(ChannelQueue::new(2));
        let s = Arc::new(AutoScaler::new(4, &cfg()));
        let strategy = Box::new(QueueSizeStrategy::new(q.clone(), 1.0));
        let s2 = s.clone();
        let monitor =
            std::thread::spawn(move || s2.run_monitor(strategy, Duration::from_millis(2)));
        push_tasks(&q, 8);
        std::thread::sleep(Duration::from_millis(40));
        s.request_shutdown();
        monitor.join().unwrap();
        let trace = s.trace().snapshot();
        assert!(!trace.is_empty(), "monitor should have recorded points");
        assert!(
            trace.iter().any(|p| p.metric > 0.0),
            "queue depth should have been observed non-zero"
        );
    }

    use std::sync::Arc;
    use std::time::Duration;
}
