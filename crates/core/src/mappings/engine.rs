//! The engine core of the dynamic family (DESIGN.md §5).
//!
//! Dynamic scheduling, auto-scaling and hybrid scheduling are one idea —
//! workers pull `(PE, data)` tasks from a queue and push what the PE emits
//! back — under different *placements*: a global queue with a pool of
//! workers, plus zero or more [`Slot`]s. The front doors
//! ([`super::dynamic`], [`super::hybrid`]) build the placement; the worker
//! loop, task execution, routing, termination, the fault hooks of
//! [`crate::fault`] and the worker-local statistics are here, once.
//!
//! A run ends by one rule, taken by the worker whose settle leaves the
//! outstanding-task count at zero ([`Engine::at_zero`]): it flushes the next
//! stateful stage — a pinned PE's slots, in topological order — whose
//! Flushes are counted like tasks, so their `on_done` work drives the next
//! zero-crossing; once no stage is left, it sends the pills. A plan with
//! slots trusts the count; one without ends there only in strict mode while
//! the count is exact, and otherwise by §3.2.3's retries in the worker loop.
//!
//! A worker is the [`Context`] of every PE call it makes: what the PE emits
//! is written out while it runs, and a source that gets [`CREDIT`] tasks
//! ahead has its own worker run queued tasks before it emits more.
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
use crate::pe::{process_guarded, Context, ProcessingElement};
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

/// PE service time a worker may accumulate before it flushes what it has
/// buffered, even mid-batch: the order of one loopback round trip. Thirty-two
/// null hops (~1 µs each) share one write; a 3 ms seismic task crosses it
/// alone, so its output reaches idle workers as soon as it exists — which is
/// why `seismic_*` (the benchmark's control) does not move. The rule reads
/// only observed service time, never the queue kind or the workload.
const FLUSH_AFTER: Duration = Duration::from_micros(100);

/// What a strict run that could not end at quiescence says in its report.
const INEXACT_WARNING: &str = "the outstanding-task count was not exact (a transport retry or a \
    re-delivered task): the run ended by the retry protocol, max_retries × poll_timeout after \
    the queue emptied";

/// Emissions a PE call may buffer: the one that reaches it is routed and
/// written out with the rest while the call is still running, as is any
/// emission that finds [`FLUSH_AFTER`] gone by since the last write.
const EMIT_KEEP: usize = 64;

/// `ctx.emit` reads the clock for the [`FLUSH_AFTER`] rule once per this
/// many emissions of one call, so a call that emits once never reads it.
const CLOCK_EVERY: usize = 8;

/// Tasks a source may have outstanding before its worker stops emitting
/// and runs queued tasks itself until half of them are gone (DESIGN.md §5,
/// "bounded sources"). Large enough that a chain's workers never starve
/// between two helping rounds; small enough to keep a stream's footprint
/// in the megabytes.
const CREDIT: usize = 4096;

/// A stateful PE instance pinned to a dedicated worker with a private
/// queue. A plan's slots are sorted by `(pe, instance)`.
pub(crate) struct Slot {
    pub pe: PeId,
    pub instance: usize,
    pub queue: Arc<dyn TaskQueue>,
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
    /// Tasks pushed but not yet retired. A worker settles a flush window in
    /// one step, before the push: its buffered children are added and the
    /// tasks that produced them retired, so a parent is counted until its
    /// children are: 0 ⇒ quiescent.
    outstanding: AtomicUsize,
    /// `outstanding` may read low: a queue operation absorbed a transport
    /// error (a push may have appended twice), or a settle saturated (a
    /// re-delivered task was retired twice). Stored before the retry, so
    /// before a duplicate can be retired; zero no longer ends the run.
    inexact: AtomicBool,
    /// The stateful stages: per pinned PE, in topological order, its slots.
    stages: Vec<Range<usize>>,
    /// Stages flushed so far; one past the last, the pills were sent.
    next_stage: AtomicUsize,
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
    // The calling thread's share: pre-flight warnings, the seed's retries.
    let mut total = WorkerStats::new(plan.exe.graph().pe_count());
    total.warnings = std::mem::take(&mut plan.warnings);
    let config = autoscale.as_ref().map(|setup| &setup.config);
    let scaler = config.map(|config| AutoScaler::new(plan.pool, config));
    let engine = &Engine::new(plan, scaler)?;
    let plan = &engine.plan;
    engine.seed(&mut total.retries_used)?;

    let joined: Vec<_> = std::thread::scope(|s| {
        if let (Some(scaler), Some(setup)) = (&engine.scaler, autoscale) {
            let strategy = (setup.strategy)(plan.global.clone());
            s.spawn(move || scaler.run_monitor(strategy, setup.config.tick));
        }
        let handles: Vec<_> = (0..plan.slots.len() + plan.pool)
            .map(|w| s.spawn(move || engine.worker_loop(w)))
            .collect();
        let joined = handles.into_iter().map(|h| h.join()).collect();
        if let Some(scaler) = &engine.scaler {
            scaler.request_shutdown();
        }
        joined
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
    if let Some(e) = error {
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
        let pinned: Vec<_> = pinned.collect();
        let stages = graph.topological_order()?.into_iter();
        let stages = stages.map(|pe| pinned[pe.0].clone());
        let stages = stages.filter(|slots| !slots.is_empty()).collect();
        Ok(Self {
            pinned,
            outstanding: AtomicUsize::new(0),
            inexact: AtomicBool::new(false),
            stages,
            next_stage: AtomicUsize::new(0),
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
    /// saturating outstanding decrement, and the count is marked inexact
    /// first (DESIGN.md §10).
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
                    self.inexact.store(true, SeqCst);
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
        self.push_pills(used, &*self.plan.global, self.plan.pool)?;
        for slot in &self.plan.slots {
            self.push_pills(used, &*slot.queue, 1)?;
        }
        Ok(())
    }

    /// One push per pill: each wakes a consumer of its own.
    fn push_pills(&self, used: &mut u64, queue: &dyn TaskQueue, n: usize) -> Result<(), CoreError> {
        (0..n).try_for_each(|_| self.send(used, QueueItem::Pill, |it| queue.push(it)))
    }

    /// A settle left `outstanding` at zero with no children: nothing is
    /// queued, held or buffered anywhere, and nothing can be again. Flushes
    /// the next stateful stage — counted before the push, like any task, so
    /// the stage's `on_done` work drives the next zero-crossing — or, past
    /// the last one, ends the run. A plan with slots ends here whatever
    /// `strict` says (its workers never retry); one without only in strict
    /// mode while the count is exact, leaving the rest to the retries.
    /// After an abort nothing more is flushed, so no snapshot is written
    /// past the fault and the state store keeps the last completed
    /// checkpoint.
    fn at_zero(&self, used: &mut u64) -> Result<(), CoreError> {
        if self.aborted.load(SeqCst) {
            return Ok(());
        }
        let stage = self.next_stage.fetch_add(1, SeqCst);
        if let Some(slots) = self.stages.get(stage) {
            self.outstanding.fetch_add(slots.len(), SeqCst);
            for slot in &self.plan.slots[slots.clone()] {
                self.send(used, QueueItem::Flush, |it| slot.queue.push(it))?;
            }
            return Ok(());
        }
        let exact = self.plan.opts.termination.strict && !self.inexact.load(SeqCst);
        if stage == self.stages.len() && (exact || !self.stages.is_empty()) {
            self.broadcast_pills(used)?;
        }
        Ok(())
    }

    /// Gives the run up. A worker the pills do not reach sees the flag at
    /// its next poll timeout.
    fn abort(&self) {
        self.aborted.store(true, SeqCst);
        let _ = self.broadcast_pills(&mut 0);
    }

    /// The per-worker loop: gate (auto-scaling), pop, then per item obey a
    /// pill, flush, or run a task. A plan without slots may also be ended
    /// here, by §3.2.3's retries.
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
        // An aborted run is left at the next turn. One that ends in order is
        // left by a pill — the worker that broadcast them reads its own like
        // any other, so a queue that settles deliveries with the next read
        // settles its last batch too — or at an empty pop after `shutdown`.
        while !self.aborted.load(SeqCst) {
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
                if self.shutdown.load(SeqCst) {
                    // A peer drained this worker's pill along with its own.
                    break;
                }
                let quiescent = !term.strict || self.outstanding.load(SeqCst) == 0;
                if self.stages.is_empty() && quiescent {
                    retries += 1;
                    if retries > term.max_retries {
                        // This worker decides the workflow is done (§3.2.3).
                        if term.strict && self.inexact.load(SeqCst) {
                            w.stats.warnings.push(INEXACT_WARNING.into());
                        }
                        self.broadcast_pills(&mut w.stats.retries_used)?;
                        break;
                    }
                } else {
                    retries = 0;
                }
                continue;
            }
            // A pill may arrive mid-batch; finish the tasks drained alongside
            // it (their retirement must still happen) first.
            let mut pills = 0;
            for item in batch {
                match item {
                    QueueItem::Pill if self.shutdown.load(SeqCst) => pills += 1,
                    QueueItem::Pill => w.stats.spurious_pills += 1,
                    QueueItem::Flush => w.flush()?,
                    QueueItem::Task(task) => {
                        retries = 0;
                        w.run_task(task)?;
                    }
                }
            }
            // Nothing stays buffered across anything that can block: the
            // gate, the next pop, leaving the loop.
            w.write_out()?;
            if pills > 0 {
                // One is this worker's. The rest, drained in the same batch,
                // go back: a peer they were meant for would otherwise sit
                // out a whole `poll_timeout` before it noticed `shutdown`.
                self.push_pills(&mut w.stats.retries_used, queue, pills - 1)?;
                break;
            }
        }
        w.stats.active += active_since.elapsed();
        std::mem::forget(abort_unless_ok);
        Ok(w.stats)
    }
}

/// The value for one more edge: a copy, or the original on the last one.
fn hand_over(value: &mut Option<Value>, last: bool) -> Value {
    match last {
        true => value.take(),
        false => value.clone(),
    }
    .expect("moved only on the last edge")
}

/// Aborts the run when a worker leaves its loop by an error or a panic.
struct AbortOnDrop<'e, 'a>(&'e Engine<'a>);

impl Drop for AbortOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.abort();
    }
}

/// One worker's private state, and the [`Context`] of every PE call it
/// makes.
struct Worker<'e, 'a> {
    engine: &'e Engine<'a>,
    index: usize,
    /// The pinned instance it serves; `None` for a pool worker.
    slot: Option<&'e Slot>,
    /// Instance coordinates its PEs see: the slot's, or (consumer, pool).
    coords: (usize, usize),
    /// PE copies by `PeId`: instantiated lazily, or the pinned instance.
    /// The one being called is out of its place for the call.
    pes: Vec<Option<Box<dyn ProcessingElement>>>,
    router: Router,
    stats: WorkerStats,
    /// What the call in progress emitted and has not routed yet: fewer
    /// than [`EMIT_KEEP`] emissions.
    emissions: Vec<(String, Value)>,
    /// Routed tasks not yet pushed: for the global queue, and per slot (by
    /// index into the plan's slots). Each is FIFO and written out in order,
    /// so per-connection order is what it was with a push per task.
    global_out: Vec<QueueItem>,
    slot_out: Vec<Vec<QueueItem>>,
    /// Tasks run since the last [`write_out`](Self::write_out): still
    /// counted in `outstanding`, as the tasks buffered above are not yet.
    retired: usize,
    /// PE service time since the last write; see [`FLUSH_AFTER`].
    unwritten_service: Duration,
    /// The PE call in progress.
    call: Call,
    /// Where the running call's unwritten service began: its start, its
    /// last write or the end of its last helping round.
    segment_start: Instant,
    /// How a write `emit` made failed: its error, or its panic. `emit`
    /// cannot return either; the call's end re-raises it.
    halted: Option<std::thread::Result<CoreError>>,
}

/// The PE call a worker is making, as its emissions need it.
#[derive(Clone, Copy)]
struct Call {
    /// Where the emissions are routed from.
    pe: PeId,
    /// A pool worker's source kickoff: its writes may help (see
    /// [`CREDIT`]).
    may_help: bool,
    /// Time spent helping, not counted as this call's service.
    helped: Duration,
}

impl Call {
    fn of(pe: PeId, may_help: bool) -> Self {
        Call {
            pe,
            may_help,
            helped: Duration::ZERO,
        }
    }
}

impl<'e, 'a> Worker<'e, 'a> {
    fn new(engine: &'e Engine<'a>, index: usize) -> Result<Self, CoreError> {
        let plan = &engine.plan;
        let n = plan.exe.graph().pe_count();
        let slot = plan.slots.get(index);
        let coords = match slot {
            Some(slot) => (slot.instance, engine.slots_of(slot.pe).len()),
            None => (index - plan.slots.len(), plan.pool),
        };
        let mut w = Worker {
            engine,
            index,
            slot,
            coords,
            pes: (0..n).map(|_| None).collect(),
            router: Router::new(),
            stats: WorkerStats::new(n),
            emissions: Vec::new(),
            global_out: Vec::new(),
            slot_out: plan.slots.iter().map(|_| Vec::new()).collect(),
            retired: 0,
            unwritten_service: Duration::ZERO,
            call: Call::of(PeId(0), false),
            segment_start: Instant::now(),
            halted: None,
        };
        if let Some(slot) = slot {
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

    /// Executes one task on this worker's copy of the PE, which is handed
    /// this worker as its context: what it emits is routed and written out
    /// as it goes, and the rest when it returns once [`FLUSH_AFTER`] of
    /// service time has gone by since the last write.
    fn run_task(&mut self, task: Task) -> Result<(), CoreError> {
        let engine = self.engine;
        if let Some((_, extra)) = engine.straggler.filter(|(pe, _)| *pe == task.pe) {
            // sleep: injected straggler fault, a fixed delay per task.
            std::thread::sleep(extra);
            self.unwritten_service += extra;
        }
        let known = self.pes.get_mut(task.pe.0);
        let mut pe = match known.ok_or(CoreError::MissingFactory(task.pe))?.take() {
            Some(pe) => pe,
            None => engine.plan.exe.instantiate(task.pe)?,
        };
        // A task run inside a call that may help is a helped one: it never
        // helps itself.
        let may_help = task.is_kickoff() && self.slot.is_none() && !self.call.may_help;
        let outer = std::mem::replace(&mut self.call, Call::of(task.pe, may_help));
        let started = Instant::now();
        self.segment_start = started;
        let ok = process_guarded(&mut *pe, &task.port, task.value, self);
        let ended = Instant::now();
        let service = (ended - started).saturating_sub(self.call.helped);
        self.unwritten_service += ended - self.segment_start;
        self.call = outer;
        self.pes[task.pe.0] = Some(pe);
        self.reraise()?;
        if ok {
            self.stats.latency.record(service);
            self.stats.per_pe[task.pe.0] += 1;
        } else {
            // The item is lost with what it left buffered; what it already
            // wrote out stays delivered.
            self.emissions.clear();
            self.stats.failed += 1;
        }
        let processed = self.stats.per_pe[task.pe.0] + self.stats.failed;
        if engine
            .crash
            .is_some_and(|(w, after)| w == self.index && processed >= after)
        {
            // Like a real crash: everything not yet written out is lost
            // (this task's emissions and the buffered ones of the tasks
            // before it in the flush window), no snapshot, never drains.
            let who = self.slot.map(|slot| engine.slot_key(slot));
            return Err(CoreError::InjectedFault(format!(
                "worker for {} crashed after {processed} task(s)",
                who.unwrap_or_default()
            )));
        }
        self.route_emissions(task.pe);
        self.retired += 1;
        if self.unwritten_service > FLUSH_AFTER {
            self.write_out()?;
        }
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

    /// Re-raises what a write inside the last PE call met.
    fn reraise(&mut self) -> Result<(), CoreError> {
        match self.halted.take() {
            None => Ok(()),
            Some(Ok(error)) => Err(error),
            Some(Err(panic)) => std::panic::resume_unwind(panic),
        }
    }

    /// Slot-only: the instance has seen its entire input. Externalize the
    /// final state before `on_done` may drain it, then retire the Flush
    /// like a task: its `on_done` output is counted before it is.
    fn flush(&mut self) -> Result<(), CoreError> {
        let engine = self.engine;
        // A Flush on the global queue is a stray control item: ignore it.
        let Some(slot) = self.slot else {
            return Ok(());
        };
        let mut pe = self.pes[slot.pe.0]
            .take()
            .expect("a slot worker holds its PE");
        if let (Some(store), Some(snapshot)) = (&engine.plan.state, pe.snapshot()) {
            store.save(&engine.slot_key(slot), &snapshot)?;
        }
        let outer = std::mem::replace(&mut self.call, Call::of(slot.pe, false));
        self.segment_start = Instant::now();
        pe.on_done(self);
        self.call = outer;
        self.pes[slot.pe.0] = Some(pe);
        self.reraise()?;
        self.route_emissions(slot.pe);
        // Retired only once `on_done` returned: a write it made while it
        // ran settles its children, never the Flush.
        self.retired += 1;
        self.write_out().map(drop)
    }

    /// Routes everything the current PE call emitted so far into this
    /// worker's outgoing buffers: the private queue the connection's
    /// grouping selects when the target is pinned, otherwise the global
    /// queue (whoever pops first runs it). The value is moved on the last
    /// edge it travels.
    fn route_emissions(&mut self, from: PeId) {
        let engine = self.engine;
        let graph = engine.plan.exe.graph();
        let mut emissions = std::mem::take(&mut self.emissions);
        for (port, value) in emissions.drain(..) {
            let mut conns = graph.outgoing_from_port(from, &port).peekable();
            if conns.peek().is_none() && graph.outgoing(from).next().is_some() {
                self.stats.dropped += 1;
            }
            let mut value = Some(value);
            while let Some((conn_id, conn)) = conns.next() {
                let last_conn = conns.peek().is_none();
                let pinned = engine.pinned[conn.to_pe.0].clone();
                if pinned.is_empty() {
                    // The front doors reject one-to-all into an unpinned PE,
                    // and any one instance of it means "any worker".
                    let task = Task::new(
                        conn.to_pe,
                        conn.to_port.clone(),
                        hand_over(&mut value, last_conn),
                    );
                    self.global_out.push(QueueItem::Task(task));
                    continue;
                }
                let routed = value.as_ref().expect("moved only on the last edge");
                let route = self
                    .router
                    .route(conn_id, &conn.grouping, routed, pinned.len());
                let targets = match route {
                    Route::One(i) => pinned.start + i..pinned.start + i + 1,
                    Route::All => pinned,
                };
                let last_target = targets.end - 1;
                for s in targets {
                    let instance = engine.plan.slots[s].instance;
                    let value = hand_over(&mut value, last_conn && s == last_target);
                    let task = Task::pinned(conn.to_pe, instance, &*conn.to_port, value);
                    self.slot_out[s].push(QueueItem::Task(task));
                }
            }
        }
        self.emissions = emissions;
    }

    /// Writes the outgoing buffers out — one `push_batch` per destination
    /// queue — after settling the window in `outstanding` with one update:
    /// the buffered children in, the tasks that ran out. Returns the count
    /// the settle left, if there was one.
    fn write_out(&mut self) -> Result<Option<usize>, CoreError> {
        let engine = self.engine;
        let children = self.global_out.len() + self.slot_out.iter().map(Vec::len).sum::<usize>();
        let retired = std::mem::take(&mut self.retired);
        self.unwritten_service = Duration::ZERO;
        let used = &mut self.stats.retries_used;
        let mut left = None;
        if children != retired {
            // Saturating: an at-least-once queue may re-deliver a task, and
            // a second retirement must not wrap the counter.
            let settle = |n: usize| Some((n + children).saturating_sub(retired));
            let before = engine.outstanding.fetch_update(SeqCst, SeqCst, settle);
            let before = before.expect("the settle always yields a value");
            left = (before + children).checked_sub(retired);
            if left.is_none() {
                engine.inexact.store(true, SeqCst);
            }
            match left {
                Some(n) if n > 0 => {
                    self.stats.peak_outstanding = self.stats.peak_outstanding.max(n)
                }
                // No children and `retired` (non-zero) tasks were all that
                // was counted — or more, if it saturated: this settle is a
                // zero-crossing. A call still running is counted, so a write
                // it makes never gets here.
                _ if children == 0 => return engine.at_zero(used).map(|()| left),
                _ => {}
            }
        }
        if children == 0 {
            return Ok(left);
        }
        for (slot, out) in engine.plan.slots.iter().zip(&mut self.slot_out) {
            if !out.is_empty() {
                let out = std::mem::take(out);
                engine.send(used, out, |b| slot.queue.push_batch(None, b))?;
            }
        }
        if !self.global_out.is_empty() {
            // Tagged with a pool worker's consumer index so a work-stealing
            // queue can keep the fan-out local.
            let producer = self.slot.is_none().then_some(self.coords.0);
            let out = std::mem::take(&mut self.global_out);
            engine.send(used, out, |b| engine.plan.global.push_batch(producer, b))?;
        }
        Ok(left)
    }

    /// The write a PE call makes while it runs: what it emitted so far and
    /// whatever the window holds, through the same settle-before-push as
    /// any write. The call stays counted until it returns, so this settle
    /// never reaches zero.
    fn write_mid_call(&mut self) -> Result<(), CoreError> {
        self.route_emissions(self.call.pe);
        let left = self.write_out()?;
        if self.call.may_help && left.is_some_and(|n| n > CREDIT) {
            let started = Instant::now();
            self.help(CREDIT / 2)?;
            self.call.helped += started.elapsed();
        }
        self.segment_start = Instant::now();
        Ok(())
    }

    /// Caller-runs backpressure (DESIGN.md §5): a source that left more
    /// than [`CREDIT`] tasks outstanding runs queued ones on its own worker
    /// — popped without blocking from the queue the worker serves — until
    /// `outstanding` is down to `until` or nothing is there for it to pop.
    /// No worker ever waits on credit, so a bounded pipeline cannot
    /// deadlock, and a one-worker run is bounded too.
    fn help(&mut self, until: usize) -> Result<(), CoreError> {
        let engine = self.engine;
        let queue = &*engine.plan.global;
        let consumer = self.coords.0;
        while engine.outstanding.load(SeqCst) > until && !engine.aborted.load(SeqCst) {
            let batch = engine.retrying(&mut self.stats.retries_used, || {
                queue.pop_batch(consumer, POP_BATCH, Duration::ZERO)
            })?;
            if batch.is_empty() {
                break;
            }
            let mut pills = 0;
            for item in batch {
                match item {
                    QueueItem::Pill if engine.shutdown.load(SeqCst) => pills += 1,
                    QueueItem::Pill => self.stats.spurious_pills += 1,
                    QueueItem::Flush => self.flush()?,
                    QueueItem::Task(task) => self.run_task(task)?,
                }
            }
            self.write_out()?;
            if pills > 0 {
                // The run is ending: the pills go back for the loop to obey.
                engine.push_pills(&mut self.stats.retries_used, queue, pills)?;
                break;
            }
        }
        Ok(())
    }
}

impl Context for Worker<'_, '_> {
    /// Buffers the emission. The [`EMIT_KEEP`]-th, or one that finds
    /// [`FLUSH_AFTER`] gone by since the last write (read every
    /// [`CLOCK_EVERY`]), writes them out while the call goes on.
    fn emit(&mut self, port: &str, value: Value) {
        if self.halted.is_some() {
            // The run is being given up: nothing more is written.
            return;
        }
        self.emissions.push((port.to_string(), value));
        let n = self.emissions.len();
        let due = n >= EMIT_KEEP
            || n.is_multiple_of(CLOCK_EVERY)
                && self.unwritten_service + self.segment_start.elapsed() > FLUSH_AFTER;
        if due {
            // The PE's own panic guard must not swallow the engine's.
            let wrote =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.write_mid_call()));
            self.halted = match wrote {
                Ok(Ok(())) => None,
                Ok(Err(error)) => Some(Ok(error)),
                Err(panic) => Some(Err(panic)),
            };
        }
    }
    fn instance(&self) -> usize {
        self.coords.0
    }
    fn instance_count(&self) -> usize {
        self.coords.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mappings::dynamic::run_dynamic;
    use crate::mappings::hybrid::{run_hybrid, QueueFactory};
    use crate::pe::{Context, CountingSink, FnSource, FnTransform};
    use crate::queue::WorkStealQueue;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
    use d4py_sync::Mutex;

    /// What a [`Watched`] queue and the PEs of a test write down, in order.
    #[derive(Debug, PartialEq)]
    enum Event {
        /// A `push` or `push_batch` call carrying these task payloads.
        Pushed(Vec<i64>),
        /// A `pop_batch` call that delivered this many items.
        Popped(usize),
        /// The watched PE started on this payload.
        Started(i64),
    }

    type Log = Arc<Mutex<Vec<Event>>>;

    /// An in-process queue that logs every call that moved something.
    struct Watched {
        inner: WorkStealQueue,
        log: Log,
    }

    fn payloads(items: &[QueueItem]) -> Vec<i64> {
        let ints = items.iter().filter_map(|item| match item {
            QueueItem::Task(task) => task.value.as_int(),
            _ => None,
        });
        ints.collect()
    }

    impl TaskQueue for Watched {
        fn push(&self, item: QueueItem) -> Result<(), CoreError> {
            let pushed = payloads(std::slice::from_ref(&item));
            self.log.lock().push(Event::Pushed(pushed));
            self.inner.push(item)
        }
        fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
            self.inner.pop(consumer, timeout)
        }
        fn push_batch(&self, from: Option<usize>, items: Vec<QueueItem>) -> Result<(), CoreError> {
            self.log.lock().push(Event::Pushed(payloads(&items)));
            self.inner.push_batch(from, items)
        }
        fn pop_batch(
            &self,
            consumer: usize,
            max: usize,
            timeout: Duration,
        ) -> Result<Vec<QueueItem>, CoreError> {
            let batch = self.inner.pop_batch(consumer, max, timeout)?;
            if !batch.is_empty() {
                self.log.lock().push(Event::Popped(batch.len()));
            }
            Ok(batch)
        }
        fn depth(&self) -> usize {
            self.inner.depth()
        }
    }

    impl QueueFactory for Log {
        fn make(&self, _name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
            Ok(Arc::new(Watched {
                inner: WorkStealQueue::new(consumers),
                log: self.clone(),
            }))
        }
    }

    /// source → `hops` stages → counting sink over `0..items`; each stage
    /// runs `stage` on the payload before passing it on.
    fn chain(
        items: i64,
        hops: usize,
        stage: impl Fn(i64) + Clone + Send + Sync + 'static,
    ) -> (Executable, Arc<AtomicU64>) {
        let mut g = WorkflowGraph::new("chain");
        let source = g.add_pe(PeSpec::source("source", "out"));
        let stages: Vec<PeId> = (0..hops)
            .map(|i| g.add_pe(PeSpec::transform(format!("hop{i}"), "in", "out")))
            .collect();
        let sink = g.add_pe(PeSpec::sink("sink", "in"));
        let mut prev = source;
        for &next in stages.iter().chain([&sink]) {
            g.connect(prev, "out", next, "in", Grouping::Shuffle)
                .expect("declared ports");
            prev = next;
        }
        let mut exe = Executable::new(g).expect("a chain is valid");
        exe.register(source, move || {
            Box::new(FnSource(move |ctx: &mut dyn Context| {
                (0..items).for_each(|i| ctx.emit("out", Value::Int(i)));
            }))
        });
        for pe in stages {
            let stage = stage.clone();
            exe.register(pe, move || {
                let stage = stage.clone();
                Box::new(FnTransform(
                    move |_: &str, v: Value, ctx: &mut dyn Context| {
                        stage(v.as_int().expect("the source emits ints"));
                        ctx.emit("out", v);
                    },
                ))
            });
        }
        let (_, count) = CountingSink::new();
        let handle = count.clone();
        exe.register(sink, move || {
            Box::new(CountingSink::into_handle(handle.clone()))
        });
        (exe.seal().expect("every PE registered"), count)
    }

    /// Queue traffic is per popped batch, not per task, through both front
    /// doors: a popped batch is answered by at most one write per
    /// destination (here one, the global queue), and a running source
    /// writes once per [`EMIT_KEEP`] emissions. The service-time rule may
    /// split the batch of a worker that was descheduled mid-batch, hence the
    /// factor two; a push per task is thirty times over the bound.
    #[test]
    fn pushes_follow_popped_batches_not_tasks() {
        const WORKERS: usize = 3;
        type Door = fn(&Executable, &ExecutionOptions, &Log) -> Result<RunReport, CoreError>;
        let runs: [(&str, Door); 2] = [
            ("run_dynamic", |exe, opts, log| {
                run_dynamic(exe, opts, log.make("global", WORKERS)?, "dyn_test", None)
            }),
            ("run_hybrid", |exe, opts, log| {
                run_hybrid(exe, opts, log, "hybrid_test")
            }),
        ];
        for (door, run) in runs {
            let (exe, count) = chain(2_000, 4, |_| {});
            let log = Log::default();
            let report = run(&exe, &ExecutionOptions::new(WORKERS), &log)
                .unwrap_or_else(|e| panic!("{door}: {e}"));
            assert_eq!(count.load(SeqCst), 2_000, "{door}");
            assert_eq!(report.tasks_executed, 1 + 2_000 * 5, "{door}");
            let log = log.lock();
            let pushes = log.iter().filter(|e| matches!(e, Event::Pushed(_))).count();
            let pops = log.iter().filter(|e| matches!(e, Event::Popped(_))).count();
            // Per worker: its pill; once: the seed; per EMIT_KEEP emissions:
            // a write the source makes while it runs.
            let source_writes = 2_000usize.div_ceil(EMIT_KEEP);
            assert!(
                pushes <= 2 * pops + WORKERS + 1 + source_writes,
                "{door}: {pushes} pushes for {pops} delivering pops"
            );
        }
    }

    /// The clock rule mid-call: a source slower than [`FLUSH_AFTER`] per
    /// emission has its stream written out [`CLOCK_EVERY`] emissions at a
    /// time while it runs, not in one write when it returns.
    #[test]
    fn a_slow_source_is_written_out_while_it_runs() {
        let mut g = WorkflowGraph::new("slow");
        let source = g.add_pe(PeSpec::source("source", "out"));
        let sink = g.add_pe(PeSpec::sink("sink", "in"));
        g.connect(source, "out", sink, "in", Grouping::Shuffle)
            .expect("declared ports");
        let mut exe = Executable::new(g).expect("valid");
        exe.register(source, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..2 * CLOCK_EVERY as i64 {
                    // sleep: simulated production time, past FLUSH_AFTER.
                    std::thread::sleep(FLUSH_AFTER);
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        let (_, count) = CountingSink::new();
        let handle = count.clone();
        exe.register(sink, move || {
            Box::new(CountingSink::into_handle(handle.clone()))
        });
        let exe = exe.seal().expect("every PE registered");
        let log = Log::default();
        let queue = log.make("global", 1).expect("queue");
        run_dynamic(&exe, &ExecutionOptions::new(1), queue, "dyn_test", None).expect("run");
        assert_eq!(count.load(SeqCst), 2 * CLOCK_EVERY as u64);
        let log = log.lock();
        let windows = [
            0..CLOCK_EVERY as i64,
            CLOCK_EVERY as i64..2 * CLOCK_EVERY as i64,
        ];
        for window in windows {
            let pushed = Event::Pushed(window.collect());
            assert!(log.contains(&pushed), "{pushed:?} is one write: {log:?}");
        }
    }

    /// The early write: a PE whose tasks each outlast [`FLUSH_AFTER`] has
    /// every emission on the queue before the next task of the same popped
    /// batch starts, as with a push per task.
    #[test]
    fn slow_tasks_are_written_out_one_by_one() {
        let log = Log::default();
        let seen = log.clone();
        let (exe, count) = chain(8, 1, move |i| {
            seen.lock().push(Event::Started(i));
            // sleep: simulated PE compute, well past FLUSH_AFTER.
            std::thread::sleep(FLUSH_AFTER * 10);
        });
        let queue = log.make("global", 1).expect("queue");
        run_dynamic(&exe, &ExecutionOptions::new(1), queue, "dyn_test", None).expect("run");
        assert_eq!(count.load(SeqCst), 8);
        let log = log.lock();
        let at = |wanted: &Event| log.iter().position(|e| e == wanted);
        assert!(
            log.contains(&Event::Popped(8)),
            "one worker pops the source's eight items as one batch: {log:?}"
        );
        for i in 0..7 {
            // The source's burst carries all eight; the hop's own write of
            // `i` is the single-payload one.
            let written = at(&Event::Pushed(vec![i])).expect("the hop's emission is pushed");
            let next = at(&Event::Started(i + 1)).expect("the next task runs");
            assert!(
                written < next,
                "emission {i} waited for task {}: {log:?}",
                i + 1
            );
        }
    }
}
