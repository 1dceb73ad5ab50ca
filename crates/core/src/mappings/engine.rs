//! The engine core of the dynamic family (DESIGN.md §5).
//!
//! Dynamic scheduling, auto-scaling and hybrid scheduling are one idea —
//! workers pull `(PE, data)` tasks from a queue and push what the PE emits
//! back — under different *placements*: a global queue with a pool of
//! workers, plus zero or more [`Slot`]s. The front doors
//! ([`super::dynamic`], [`super::hybrid`]) build the placement and pick the
//! [`Driver`]; the worker loop, task execution, routing, the fault hooks of
//! [`crate::fault`] and the worker-local statistics are here, once.
//!
//! A worker that leaves its loop with an error or a panic *aborts* the run:
//! nobody waits for the tasks it held, nothing more is flushed, every
//! worker is pilled and joined, and the first error is returned (an
//! injected fault winning over the collateral ones).

use crate::autoscale::{AutoScaler, AutoscaleSetup, Gate};
use crate::error::CoreError;
use crate::executable::Executable;
use crate::fault::FaultPlan;
use crate::metrics::{RunReport, WorkerStats};
use crate::options::ExecutionOptions;
use crate::pe::{process_guarded, EmitBuffer, ProcessingElement};
use crate::queue::TaskQueue;
use crate::routing::{Route, Router};
use crate::state::{slot_name, StateStore};
use crate::task::{QueueItem, Task, KICKOFF_PORT};
use crate::value::Value;
use d4py_graph::PeId;
use std::ops::Range;
use std::sync::atomic::Ordering::{self, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one blocking batch pop. Large enough to amortize the
/// parking layer on a hot queue, small enough that one worker cannot hoard
/// a backlog idle workers could run or sit long on a Pill drained mid-batch.
const POP_BATCH: usize = 32;

/// A stateful PE instance pinned to a dedicated worker with a private
/// queue. A plan's slots are sorted by `(pe, instance)`.
pub(crate) struct Slot {
    pub pe: PeId,
    pub instance: usize,
    pub queue: Arc<dyn TaskQueue>,
}

/// Who decides that the run is over. Chosen by the front door.
pub(crate) enum Driver {
    /// §3.2.3: a pool worker that keeps finding the queue empty (and, in
    /// strict mode, nothing outstanding) retries, then broadcasts pills.
    WorkerRetries,
    /// The calling thread waits for quiescence, flushes the stateful PEs in
    /// topological order (each flush's work drains first), then pills.
    Coordinator,
}

/// One run, as a front door hands it over.
pub(crate) struct Plan<'a> {
    pub exe: &'a Executable,
    pub opts: &'a ExecutionOptions,
    pub mapping: &'static str,
    pub started: Instant,
    pub global: Arc<dyn TaskQueue>,
    /// Workers popping the global queue.
    pub pool: usize,
    pub slots: Vec<Slot>,
    pub driver: Driver,
    pub state: Option<Arc<dyn StateStore>>,
    pub faults: &'a FaultPlan,
    /// Pre-flight warnings, to lead the report's list.
    pub warnings: Vec<String>,
}

/// State shared by the workers of one run. Worker `w` serves `slots[w]`,
/// or, past the slots, the global queue as pool consumer `w - slots.len()`.
struct Engine<'a> {
    plan: Plan<'a>,
    /// Per PE, its slots (empty: the PE is not pinned).
    pinned: Vec<Range<usize>>,
    /// Tasks pushed but not yet fully processed. Children are counted before
    /// they are pushed, so before their parent is done: 0 ⇒ quiescent.
    outstanding: AtomicUsize,
    flushes_pending: AtomicUsize,
    /// Stored before any legitimate pill is pushed: a pill seen while it is
    /// unset is injected or foreign, and is ignored (and counted).
    shutdown: AtomicBool,
    /// A worker failed: shut down without waiting for quiescence.
    aborted: AtomicBool,
    scaler: Option<AutoScaler>,
    /// Fault hook: the straggling PE and its extra service time.
    straggler: Option<(PeId, Duration)>,
    /// Fault hook: (worker, it dies after this many tasks).
    crash: Option<(usize, u64)>,
    /// Tasks run engine-wide; counted only while a pill storm is armed.
    storm_tasks: AtomicU64,
}

/// Runs `plan` to completion and assembles the report; `autoscale` puts the
/// pool workers under Algorithm 1.
pub(crate) fn run(
    mut plan: Plan<'_>,
    autoscale: Option<AutoscaleSetup>,
) -> Result<RunReport, CoreError> {
    // The calling thread's share: pre-flight warnings, its own retries.
    let mut total = WorkerStats::new(plan.exe.graph().pe_count());
    total.warnings = std::mem::take(&mut plan.warnings);
    let config = autoscale.as_ref().map(|setup| &setup.config);
    let scaler = config.map(|config| AutoScaler::new(plan.pool, config));
    let engine = &Engine::new(plan, scaler)?;
    let plan = &engine.plan;
    engine.seed(&mut total.retries_used)?;

    let (driven, joined) = std::thread::scope(|s| {
        if let (Some(scaler), Some(setup)) = (&engine.scaler, autoscale) {
            let strategy = (setup.strategy)(plan.global.clone());
            s.spawn(move || scaler.run_monitor(strategy, setup.config.tick));
        }
        let handles: Vec<_> = (0..plan.slots.len() + plan.pool)
            .map(|w| s.spawn(move || engine.worker_loop(w)))
            .collect();
        let driven = match plan.driver {
            Driver::WorkerRetries => Ok(()),
            Driver::Coordinator => engine.coordinate(&mut total.retries_used),
        };
        if driven.is_err() {
            engine.abort();
        }
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        if let Some(scaler) = &engine.scaler {
            scaler.request_shutdown();
        }
        (driven, joined)
    });

    let mut error = None;
    for (worker, result) in joined.into_iter().enumerate() {
        match result {
            Ok(Ok(stats)) => total.merge(&stats),
            // An injected fault is the root cause of any collateral worker
            // errors — make sure it is the one reported.
            Ok(Err(e)) if error.is_none() || matches!(e, CoreError::InjectedFault(_)) => {
                error = Some(e);
            }
            Ok(Err(_)) => {}
            Err(_) => error = error.or(Some(CoreError::WorkerPanic { worker })),
        }
    }
    if let Some(e) = error.or(driven.err()) {
        return Err(e);
    }
    let runtime = plan.started.elapsed();
    let graph = plan.exe.graph();
    let mut report = RunReport::new(plan.mapping, plan.opts.workers, runtime, graph, total);
    if let Some(scaler) = &engine.scaler {
        report.scaling_trace = scaler.trace().snapshot();
    }
    report.queue_steals = plan.global.steals().unwrap_or(0);
    Ok(report)
}

impl<'a> Engine<'a> {
    /// Resolves the fault plan's PE names: a typo in a scenario is an
    /// options error, not a silently healthy run.
    fn new(plan: Plan<'a>, scaler: Option<AutoScaler>) -> Result<Self, CoreError> {
        let graph = plan.exe.graph();
        let resolve = |name: &str| {
            graph.pe_by_name(name).ok_or_else(|| {
                CoreError::InvalidOptions(format!("fault plan targets unknown PE '{name}'"))
            })
        };
        let straggler = match &plan.faults.straggler {
            Some(s) => Some((resolve(&s.pe)?, s.extra)),
            None => None,
        };
        let crash = match &plan.faults.crash {
            Some(c) => {
                let pe = resolve(&c.pe)?;
                let target = |s: &Slot| s.pe == pe && s.instance == c.instance;
                let slot = plan.slots.iter().position(target).ok_or_else(|| {
                    CoreError::InvalidOptions(format!(
                        "crash fault targets '{}'#{} which is not a pinned stateful instance",
                        c.pe, c.instance
                    ))
                })?;
                Some((slot, c.after_tasks))
            }
            None => None,
        };
        let upto = |pe: PeId| plan.slots.partition_point(|s| s.pe < pe);
        let pinned = graph.pe_ids().map(|pe| upto(pe)..upto(PeId(pe.0 + 1)));
        let pinned = pinned.collect();
        Ok(Self {
            pinned,
            outstanding: AtomicUsize::new(0),
            flushes_pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            scaler,
            straggler,
            crash,
            storm_tasks: AtomicU64::new(0),
            plan,
        })
    }

    /// The slots of `pe`; empty when it is not pinned.
    fn slots_of(&self, pe: PeId) -> &[Slot] {
        &self.plan.slots[self.pinned[pe.0].clone()]
    }

    /// The state-store key (and display name) of a slot.
    fn slot_key(&self, slot: &Slot) -> String {
        let spec = self.plan.exe.graph().pe(slot.pe);
        slot_name(spec.map_or("", |s| &s.name), slot.instance)
    }

    /// Runs one queue operation, absorbing up to `transport_retries`
    /// consecutive [`CoreError::Queue`] errors (counted in `used`). A blind
    /// retry is safe here: a re-delivered task is tolerated by the
    /// saturating outstanding decrement (DESIGN.md §10).
    fn retrying<T>(
        &self,
        used: &mut u64,
        mut op: impl FnMut() -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let mut attempts = 0u32;
        loop {
            match op() {
                Err(CoreError::Queue(_)) if attempts < self.plan.opts.transport_retries => {
                    attempts += 1;
                    *used += 1;
                    // sleep: fixed backoff; the budget bounds total delay.
                    std::thread::sleep(Duration::from_millis(2));
                }
                done => return done,
            }
        }
    }

    /// [`retrying`](Self::retrying) for pushes: the payload is cloned per
    /// attempt only when there is a retry budget to spend it on.
    fn send<T: Clone>(
        &self,
        used: &mut u64,
        payload: T,
        push: impl Fn(T) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        if self.plan.opts.transport_retries == 0 {
            push(payload)
        } else {
            self.retrying(used, || push(payload.clone()))
        }
    }

    /// Pushes one task, counted outstanding first.
    fn push(&self, used: &mut u64, queue: &dyn TaskQueue, task: Task) -> Result<(), CoreError> {
        self.outstanding.fetch_add(1, SeqCst);
        self.send(used, QueueItem::Task(task), |it| queue.push(it))
    }

    /// One kickoff per source PE, or per pinned instance of a stateful one.
    fn seed(&self, used: &mut u64) -> Result<(), CoreError> {
        for source in self.plan.exe.graph().sources() {
            let slots = self.slots_of(source);
            if slots.is_empty() {
                self.push(used, &*self.plan.global, Task::kickoff(source))?;
            }
            for slot in slots {
                let kickoff = Task::pinned(source, slot.instance, KICKOFF_PORT, Value::Null);
                self.push(used, &*slot.queue, kickoff)?;
            }
        }
        Ok(())
    }

    /// Ends the run: flag first, then one pill per worker.
    fn broadcast_pills(&self, used: &mut u64) -> Result<(), CoreError> {
        self.shutdown.store(true, SeqCst);
        if let Some(scaler) = &self.scaler {
            scaler.request_shutdown();
        }
        for _ in 0..self.plan.pool {
            self.send(used, QueueItem::Pill, |it| self.plan.global.push(it))?;
        }
        for slot in &self.plan.slots {
            self.send(used, QueueItem::Pill, |it| slot.queue.push(it))?;
        }
        Ok(())
    }

    /// Gives the run up. A worker the pills do not reach sees the flag at
    /// its next poll timeout.
    fn abort(&self) {
        self.aborted.store(true, SeqCst);
        let _ = self.broadcast_pills(&mut 0);
    }

    /// Waits until nothing is in flight; `false` if the run aborted instead.
    fn quiesced(&self) -> bool {
        while self.outstanding.load(SeqCst) != 0 || self.flushes_pending.load(SeqCst) != 0 {
            if self.aborted.load(SeqCst) {
                return false;
            }
            // sleep: paces the poll; the counters are the real signal.
            std::thread::sleep(Duration::from_millis(1));
        }
        !self.aborted.load(SeqCst)
    }

    /// [`Driver::Coordinator`], on the calling thread. After an abort
    /// nothing more is flushed: no snapshot is written past the fault, so
    /// the state store keeps the last *completed* checkpoint.
    fn coordinate(&self, used: &mut u64) -> Result<(), CoreError> {
        for pe in self.plan.exe.graph().topological_order()? {
            let slots = self.slots_of(pe);
            if !slots.is_empty() && !self.quiesced() {
                return Ok(());
            }
            self.flushes_pending.fetch_add(slots.len(), SeqCst);
            for slot in slots {
                self.send(used, QueueItem::Flush, |it| slot.queue.push(it))?;
            }
        }
        if self.quiesced() {
            self.broadcast_pills(used)?;
        }
        Ok(())
    }

    /// The per-worker loop: gate (auto-scaling), pop, then per item obey a
    /// pill, flush, or run a task; under [`Driver::WorkerRetries`], end the run.
    fn worker_loop(&self, w: usize) -> Result<WorkerStats, CoreError> {
        let abort_unless_ok = AbortOnDrop(self);
        let mut w = Worker::new(self, w)?;
        let term = self.plan.opts.termination;
        let (queue, consumer) = match w.slot {
            Some(slot) => (&*slot.queue, 0),
            None => (&*self.plan.global, w.coords.0),
        };
        // Process time: active from now until parked or done.
        let mut active_since = Instant::now();
        let mut retries: u32 = 0;
        while !self.shutdown.load(SeqCst) {
            if let (Some(scaler), None) = (&self.scaler, w.slot) {
                let gate = scaler.gate(consumer, |parked| match parked {
                    true => w.stats.active += active_since.elapsed(),
                    false => active_since = Instant::now(),
                });
                if gate == Gate::Shutdown {
                    break;
                }
            }
            let batch = self.retrying(&mut w.stats.retries_used, || {
                queue.pop_batch(consumer, POP_BATCH, term.poll_timeout)
            })?;
            if batch.is_empty() {
                let quiescent = !term.strict || self.outstanding.load(SeqCst) == 0;
                if matches!(self.plan.driver, Driver::WorkerRetries) && quiescent {
                    retries += 1;
                    if retries > term.max_retries {
                        // This worker decides the workflow is done (§3.2.3).
                        self.broadcast_pills(&mut w.stats.retries_used)?;
                        break;
                    }
                } else {
                    retries = 0;
                }
                continue;
            }
            // A pill may arrive mid-batch; finish the tasks drained alongside
            // it (their outstanding decrements must still happen) first.
            let mut saw_pill = false;
            for item in batch {
                match item {
                    QueueItem::Pill if self.shutdown.load(SeqCst) => saw_pill = true,
                    QueueItem::Pill => w.stats.spurious_pills += 1,
                    QueueItem::Flush => w.flush()?,
                    QueueItem::Task(task) => {
                        retries = 0;
                        w.run_task(task)?;
                    }
                }
            }
            if saw_pill {
                break;
            }
        }
        w.stats.active += active_since.elapsed();
        std::mem::forget(abort_unless_ok);
        Ok(w.stats)
    }
}

/// Aborts the run when a worker leaves its loop by an error or a panic.
struct AbortOnDrop<'e, 'a>(&'e Engine<'a>);

impl Drop for AbortOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.abort();
    }
}

/// One worker's private state.
struct Worker<'e, 'a> {
    engine: &'e Engine<'a>,
    index: usize,
    /// The pinned instance it serves; `None` for a pool worker.
    slot: Option<&'e Slot>,
    /// Instance coordinates its PEs see: the slot's, or (consumer, pool).
    coords: (usize, usize),
    /// PE copies by `PeId`: instantiated lazily, or the pinned instance.
    pes: Vec<Option<Box<dyn ProcessingElement>>>,
    router: Router,
    stats: WorkerStats,
}

impl<'e, 'a> Worker<'e, 'a> {
    fn new(engine: &'e Engine<'a>, index: usize) -> Result<Self, CoreError> {
        let plan = &engine.plan;
        let n = plan.exe.graph().pe_count();
        let mut w = Worker {
            engine,
            index,
            slot: plan.slots.get(index),
            coords: (index.saturating_sub(plan.slots.len()), plan.pool),
            pes: (0..n).map(|_| None).collect(),
            router: Router::new(),
            stats: WorkerStats::new(n),
        };
        if let Some(slot) = w.slot {
            w.coords = (slot.instance, engine.slots_of(slot.pe).len());
            let mut pe = plan.exe.instantiate(slot.pe)?;
            // Warm start. A damaged or future-versioned snapshot frame is a
            // degradation, not a failure: the instance starts cold and says
            // why. Only transport-level store errors abort.
            if let Some(store) = &plan.state {
                let key = engine.slot_key(slot);
                match store.load(&key) {
                    Ok(Some(saved)) => pe.restore(saved),
                    Ok(None) => {}
                    Err(CoreError::Snapshot(e)) => {
                        let why = format!("warm start skipped for {key}: {e}");
                        w.stats.warnings.push(why);
                    }
                    Err(e) => return Err(e),
                }
            }
            w.pes[slot.pe.0] = Some(pe);
        }
        Ok(w)
    }

    /// Executes one task on this worker's copy of the PE; routes its output.
    fn run_task(&mut self, task: Task) -> Result<(), CoreError> {
        let engine = self.engine;
        if let Some((_, extra)) = engine.straggler.filter(|(pe, _)| *pe == task.pe) {
            // sleep: injected straggler fault, a fixed delay per task.
            std::thread::sleep(extra);
        }
        let known = self.pes.get_mut(task.pe.0);
        let pe = match known.ok_or(CoreError::MissingFactory(task.pe))? {
            Some(pe) => pe,
            empty => empty.insert(engine.plan.exe.instantiate(task.pe)?),
        };
        let mut buf = EmitBuffer::new(self.coords.0, self.coords.1);
        let started = Instant::now();
        if process_guarded(pe, &task.port, task.value, &mut buf) {
            self.stats.latency.record(started.elapsed());
            self.stats.per_pe[task.pe.0] += 1;
        } else {
            self.stats.failed += 1;
        }
        let processed = self.stats.per_pe[task.pe.0] + self.stats.failed;
        if engine
            .crash
            .is_some_and(|(w, after)| w == self.index && processed >= after)
        {
            // Like a real crash: emissions lost, no snapshot, never drains.
            let who = self.slot.map(|slot| engine.slot_key(slot));
            return Err(CoreError::InjectedFault(format!(
                "worker for {} crashed after {processed} task(s)",
                who.unwrap_or_default()
            )));
        }
        self.route_emissions(task.pe, &mut buf)?;
        // Saturating decrement: an at-least-once queue may re-deliver a
        // task, and a second decrement must not wrap the counter.
        let _ = engine
            .outstanding
            .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1));
        if let Some(storm) = engine.plan.faults.pill_storm {
            // relaxed: a count that publishes no other data; each task draws
            // a distinct value, so exactly one worker meets the threshold.
            let run = engine.storm_tasks.fetch_add(1, Ordering::Relaxed) + 1;
            if run == storm.after_tasks.max(1) {
                let used = &mut self.stats.retries_used;
                for _ in 0..storm.pills {
                    engine.send(used, QueueItem::Pill, |it| engine.plan.global.push(it))?;
                }
            }
        }
        Ok(())
    }

    /// Slot-only: the instance has seen its entire input. Externalize the
    /// final state before `on_done` may drain it, then flush.
    fn flush(&mut self) -> Result<(), CoreError> {
        let engine = self.engine;
        // A Flush on the global queue is a stray control item: ignore it.
        let Some(slot) = self.slot else {
            return Ok(());
        };
        let pe = self.pes[slot.pe.0]
            .as_mut()
            .expect("a slot worker holds its PE");
        if let (Some(store), Some(snapshot)) = (&engine.plan.state, pe.snapshot()) {
            store.save(&engine.slot_key(slot), &snapshot)?;
        }
        let mut buf = EmitBuffer::new(self.coords.0, self.coords.1);
        pe.on_done(&mut buf);
        self.route_emissions(slot.pe, &mut buf)?;
        engine.flushes_pending.fetch_sub(1, SeqCst);
        Ok(())
    }

    /// Routes everything a PE emitted: into the private queue the
    /// connection's grouping selects when the target is pinned, otherwise
    /// batched to the global queue (whoever pops first runs it) — one push
    /// and one wakeup per drain, tagged with a pool worker's consumer index
    /// so a work-stealing queue can keep the fan-out local.
    fn route_emissions(&mut self, from: PeId, buf: &mut EmitBuffer) -> Result<(), CoreError> {
        let engine = self.engine;
        let graph = engine.plan.exe.graph();
        let used = &mut self.stats.retries_used;
        let mut global_batch = Vec::new();
        for (port, value) in buf.drain() {
            let mut delivered = false;
            for (conn_id, conn) in graph.outgoing_from_port(from, &port) {
                delivered = true;
                let slots = engine.slots_of(conn.to_pe);
                let n = slots.len().max(1);
                let route = self.router.route(conn_id, &conn.grouping, &value, n);
                if slots.is_empty() {
                    // The front doors reject one-to-all into an unpinned PE,
                    // and any one instance of it means "any worker".
                    let task = Task::new(conn.to_pe, conn.to_port.clone(), value.clone());
                    global_batch.push(QueueItem::Task(task));
                    continue;
                }
                let targets = match route {
                    Route::One(i) => &slots[i..i + 1],
                    Route::All => slots,
                };
                for slot in targets {
                    let task =
                        Task::pinned(conn.to_pe, slot.instance, &*conn.to_port, value.clone());
                    engine.push(used, &*slot.queue, task)?;
                }
            }
            if !delivered && graph.outgoing(from).next().is_some() {
                self.stats.dropped += 1;
            }
        }
        if !global_batch.is_empty() {
            engine.outstanding.fetch_add(global_batch.len(), SeqCst);
            let producer = self.slot.is_none().then_some(self.coords.0);
            engine.send(used, global_batch, |b| {
                engine.plan.global.push_batch(producer, b)
            })?;
        }
        Ok(())
    }
}
