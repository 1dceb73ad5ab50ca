//! The engine core of every mapping but `simple` (DESIGN.md §5).
//!
//! Static multiprocessing, dynamic scheduling, auto-scaling and hybrid
//! scheduling are one idea — workers pull `(PE, data)` tasks from a queue
//! and push what the PE emits back — under different *placements*: a global
//! queue with a pool of workers, plus zero or more [`Slot`]s. The front
//! doors ([`super::multi`], [`super::dynamic`], [`super::hybrid`]) build the
//! placement; the worker loop, task execution, routing, termination, the
//! fault hooks of [`crate::fault`] and the worker-local statistics are
//! here, once.
//!
//! A run ends by one rule, taken by the worker whose settle leaves the
//! outstanding-task count at zero ([`Engine::at_zero`]): it flushes the next
//! stage — a range of slots, in topological order — whose Flushes are
//! counted like tasks, so their `on_done` work drives the next
//! zero-crossing; once no stage is left, it sends the pills. A plan with
//! slots trusts the count; one without ends there only in strict mode while
//! the count is exact, and otherwise by §3.2.3's retries in the worker loop.
//!
//! A worker is the [`Context`] of every PE call it makes: what the PE emits
//! is written out while it runs, and a source that gets [`CREDIT`] tasks
//! ahead stops emitting: a pool worker runs queued tasks itself, a slot
//! worker waits for the other workers to run them.
//!
//! A placement also carries a clustering (§2.2): the dynamic and hybrid
//! front doors pass staging's ([`d4py_graph::optimize::staging`]), `multi`
//! the one it was given. A hop inside one cluster between two PEs placed
//! alike is not a task: the worker that routes an emission over it calls
//! the target itself, at its next write. Between two unpinned stateless
//! PEs that holds unless the target's calls run past [`FLUSH_AFTER`];
//! between two members of the same slots, always, since a pinned member
//! has no idle peer to take the task. A task is one queue trip; a PE call
//! is a task or an inlined call, and the report counts calls. An inlined
//! call is never counted in `outstanding`: the task it descends from stays
//! counted until it and all its inlined descendants have returned.
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
use crate::routing::{hand_over, Edge, Route, RouteTable, Router};
use crate::state::{slot_name, StateStore};
use crate::task::{QueueItem, Task, KICKOFF_PORT};
use crate::value::Value;
use d4py_graph::optimize::Clustering;
use d4py_graph::PeId;
use d4py_sync::{Condvar, Mutex};
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
/// null hops (~1 µs each) share one write; a task that runs past it crosses
/// it alone, so its output reaches idle workers as soon as it exists, as
/// with a push per task (`slow_tasks_are_written_out_one_by_one`). It also
/// bounds what a staged hop may inline: a PE whose last [`SLOW_CALLS`] calls
/// on a worker each ran longer is not called inline there
/// (`a_slow_pe_is_not_called_inline`). Slow work stays a task, which an idle
/// worker can take, rather than joining an inlined chain bound to the
/// worker that holds the popped batch. The rule reads only observed service
/// time, never the queue kind or the workload.
const FLUSH_AFTER: Duration = Duration::from_micros(100);

/// Consecutive calls past [`FLUSH_AFTER`] that make a PE slow: two, so one
/// call stretched by a preemption changes no route.
const SLOW_CALLS: u8 = 2;

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
/// until half of them are gone: a pool worker runs queued tasks itself, a
/// slot worker waits (DESIGN.md §5, "bounded sources"). Large enough that
/// a chain's workers never starve between two rounds; small enough to
/// keep a stream's footprint in the megabytes.
const CREDIT: usize = 4096;

/// An instance of a cluster of PEs pinned to a dedicated worker with a
/// private queue; the worker holds one instance of each member. A plan
/// lists the slots of a PE together, in instance order.
pub(crate) struct Slot {
    /// The members, in topological order: the order of their `on_done`.
    pub pes: Vec<PeId>,
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
    /// Which hops may be inlined, in dataflow order
    /// ([`Clustering::in_dataflow_order`]).
    pub clustering: Clustering,
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
    /// Per PE and output port, the connections an emission travels; the
    /// hops inside a cluster between PEs placed alike are marked inline.
    routes: RouteTable,
    /// Tasks pushed but not yet retired. A worker settles a flush window in
    /// one step, before the push: its buffered children are added and the
    /// tasks that produced them retired, so a parent is counted until its
    /// children are: 0 ⇒ quiescent. A task is retired only once the calls
    /// inlined under it have returned, so they need no count of their own.
    outstanding: AtomicUsize,
    /// `outstanding` may read low: a queue operation absorbed a transport
    /// error (a push may have appended twice), or a settle saturated (a
    /// re-delivered task was retired twice). Stored before the retry, so
    /// before a duplicate can be retired; zero no longer ends the run.
    inexact: AtomicBool,
    /// The stages: the distinct slot ranges, in topological order.
    stages: Vec<Range<usize>>,
    /// Stages flushed so far; one past the last, the pills were sent.
    next_stage: AtomicUsize,
    /// Stored before any legitimate pill is pushed: a pill seen while it is
    /// unset is injected or foreign, and is ignored (and counted).
    shutdown: AtomicBool,
    /// A worker failed: shut down without waiting for quiescence.
    aborted: AtomicBool,
    /// Where a slot worker whose source is a credit ahead waits: the settle
    /// that takes `outstanding` to half the credit, and an abort, notify.
    credit: Mutex<()>,
    credit_freed: Condvar,
    scaler: Option<AutoScaler>,
    /// Fault hook: the straggling PE and its extra service time.
    straggler: Option<(PeId, Duration)>,
    /// Fault hook: (worker, it dies after this many tasks).
    crash: Option<(usize, u64)>,
    /// PE calls made engine-wide; counted only while a pill storm is armed.
    storm_calls: AtomicU64,
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
                let target = |s: &Slot| s.pes.contains(&pe) && s.instance == c.instance;
                let slot = plan.slots.iter().position(target).ok_or_else(|| {
                    CoreError::InvalidOptions(format!(
                        "crash fault targets '{}'#{} which is not a pinned instance",
                        c.pe, c.instance
                    ))
                })?;
                Some((slot, c.after_tasks))
            }
            None => None,
        };
        // Walked backwards: a PE's last slot sets the end, its first the
        // start.
        let mut pinned = vec![0..0; graph.pe_count()];
        for (s, slot) in plan.slots.iter().enumerate().rev() {
            for pe in &slot.pes {
                pinned[pe.0] = s..pinned[pe.0].end.max(s + 1);
            }
        }
        let stages = plan.clustering.clusters.iter().flatten();
        let stages = stages.map(|pe| pinned[pe.0].clone());
        let mut stages: Vec<_> = stages.filter(|slots| !slots.is_empty()).collect();
        stages.dedup();
        let clustered = &plan.clustering;
        let free = |pe: PeId| pinned[pe.0].is_empty() && !graph.is_effectively_stateful(pe);
        let routes = RouteTable::with_inline(graph, |c| {
            let alike = match pinned[c.from_pe.0].is_empty() {
                true => free(c.from_pe) && free(c.to_pe),
                false => pinned[c.from_pe.0] == pinned[c.to_pe.0],
            };
            alike && clustered.fused(c.from_pe, c.to_pe)
        });
        Ok(Self {
            pinned,
            routes,
            outstanding: AtomicUsize::new(0),
            inexact: AtomicBool::new(false),
            stages,
            next_stage: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            credit: Mutex::new(()),
            credit_freed: Condvar::new(),
            scaler,
            straggler,
            crash,
            storm_calls: AtomicU64::new(0),
            plan,
        })
    }

    /// The slots of `pe`; empty when it is not pinned.
    fn slots_of(&self, pe: PeId) -> &[Slot] {
        &self.plan.slots[self.pinned[pe.0].clone()]
    }

    /// The state-store key (and display name) of `pe`'s instance in a slot.
    fn slot_key(&self, pe: PeId, slot: &Slot) -> String {
        let spec = self.plan.exe.graph().pe(pe);
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
    /// the next stage — counted before the push, like any task, so
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
    /// its next poll timeout, or, waiting for credit, at the notification.
    fn abort(&self) {
        self.aborted.store(true, SeqCst);
        self.free_credit();
        let _ = self.broadcast_pills(&mut 0);
    }

    /// Blocks a slot worker whose source is a credit ahead until
    /// `outstanding` is down to half the credit or the run is given up.
    /// Only a source's worker waits, and no task is ever queued to a
    /// source's slot: every counted task is in a queue or a hand that a
    /// worker which never waits serves, so the count comes down.
    fn wait_for_credit(&self) {
        let mut held = self.credit.lock();
        while self.outstanding.load(SeqCst) > CREDIT / 2 && !self.aborted.load(SeqCst) {
            self.credit_freed.wait(&mut held);
        }
    }

    /// Wakes the waiting slot workers. Taking the lock orders this after a
    /// waiter's check, so a wakeup between its check and its wait is not
    /// lost.
    fn free_credit(&self) {
        drop(self.credit.lock());
        self.credit_freed.notify_all();
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
    /// Per PE, how many of its last calls on this worker that returned ran
    /// past [`FLUSH_AFTER`], up to [`SLOW_CALLS`]: at that count it is not
    /// called inline.
    slow_calls: Vec<u8>,
    router: Router,
    stats: WorkerStats,
    /// What the call in progress emitted and has not routed yet: fewer
    /// than [`EMIT_KEEP`] emissions, each with its port's index in the
    /// calling PE's row of the route table (`None`: not connected).
    emissions: Vec<(Option<usize>, Value)>,
    /// Calls routed over inline edges and not made yet, the next one last.
    inline: Vec<(&'e Edge, Value)>,
    /// Routed tasks not yet pushed: for the global queue, and per slot (by
    /// index into the plan's slots). Each is FIFO and written out in order,
    /// so per-connection order is what it was with a push per task.
    global_out: Vec<QueueItem>,
    slot_out: Vec<Vec<QueueItem>>,
    /// Tasks run since the last [`write_out`](Self::write_out): still
    /// counted in `outstanding`, as the tasks buffered above are not yet.
    /// Inlined calls are not tasks and never counted here.
    retired: usize,
    /// PE service time since the last write; see [`FLUSH_AFTER`].
    unwritten_service: Duration,
    /// The PE call in progress.
    call: Call,
    /// Where the running call's unwritten service began: its start, its
    /// last write or the end of its last helping round.
    segment_start: Instant,
    /// When the last call ended, while only routing has happened since:
    /// the next call starts there instead of reading the clock. Anything
    /// else the worker does clears it: a write, and so every pop, help
    /// round, credit wait and PE code resuming after a mid-call write,
    /// which come after one; the straggler's sleep; the pill storm's
    /// pushes.
    last_end: Option<Instant>,
    /// Why `emit` stopped writing in the running call; see [`Halt`].
    halted: Option<Halt>,
}

/// Why a PE call's emissions are dropped from some write on.
enum Halt {
    /// A write `emit` made failed: its error, or its panic. `emit` cannot
    /// return either; the call's end re-raises it.
    Failed(std::thread::Result<CoreError>),
    /// A write found the run aborted: the rest of the call's output would
    /// go into queues nobody pops. Nothing to re-raise; the worker leaves
    /// its loop at the next turn.
    Aborted,
}

/// The PE call a worker is making, as its emissions need it.
#[derive(Clone, Copy)]
struct Call {
    /// Where the emissions are routed from.
    pe: PeId,
    /// A source's kickoff, bounded by [`CREDIT`]: at a write that leaves
    /// it a credit ahead, a pool worker helps and a slot worker waits.
    bounded: bool,
    /// Time spent on other calls inside this one — helping, or the calls
    /// inlined at its writes — not counted as its service.
    aside: Duration,
}

impl Call {
    fn of(pe: PeId, bounded: bool) -> Self {
        Call {
            pe,
            bounded,
            aside: Duration::ZERO,
        }
    }
}

impl<'e, 'a> Worker<'e, 'a> {
    fn new(engine: &'e Engine<'a>, index: usize) -> Result<Self, CoreError> {
        let plan = &engine.plan;
        let n = plan.exe.graph().pe_count();
        let slot = plan.slots.get(index);
        let coords = match slot {
            Some(slot) => (slot.instance, engine.slots_of(slot.pes[0]).len()),
            None => (index - plan.slots.len(), plan.pool),
        };
        let mut w = Worker {
            engine,
            index,
            slot,
            coords,
            pes: (0..n).map(|_| None).collect(),
            slow_calls: vec![0; n],
            router: Router::new(),
            stats: WorkerStats::new(n),
            emissions: Vec::new(),
            inline: Vec::new(),
            global_out: Vec::new(),
            slot_out: plan.slots.iter().map(|_| Vec::new()).collect(),
            retired: 0,
            unwritten_service: Duration::ZERO,
            call: Call::of(PeId(0), false),
            segment_start: Instant::now(),
            last_end: None,
            halted: None,
        };
        if let Some(slot) = slot {
            for &id in &slot.pes {
                let mut pe = plan.exe.instantiate(id)?;
                // Warm start. A damaged or future-versioned snapshot frame is
                // a degradation, not a failure: the instance starts cold and
                // says why. Only transport-level store errors abort.
                if let Some(store) = &plan.state {
                    let key = engine.slot_key(id, slot);
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
                w.pes[id.0] = Some(pe);
            }
        }
        Ok(w)
    }

    /// Executes one task, then the calls inlined under it: it is retired
    /// only once they have all returned. What they left buffered is written
    /// out once [`FLUSH_AFTER`] of service time has gone by since the last
    /// write.
    fn run_task(&mut self, task: Task) -> Result<(), CoreError> {
        // A task run inside a bounded call is a helped one: it never helps
        // itself.
        let bounded = task.is_kickoff() && !self.call.bounded;
        let floor = self.inline.len();
        self.call(task.pe, &task.port, task.value, bounded)?;
        self.run_inline(floor)?;
        self.retired += 1;
        if self.unwritten_service > FLUSH_AFTER {
            self.write_out()?;
        }
        Ok(())
    }

    /// Makes the inlined calls queued above `floor`, and those they route,
    /// depth first: a chain's item reaches its end before the next enters.
    fn run_inline(&mut self, floor: usize) -> Result<(), CoreError> {
        while self.inline.len() > floor {
            let (edge, value) = self.inline.pop().expect("above the floor");
            self.call(edge.to_pe, &edge.to_port, value, false)?;
        }
        Ok(())
    }

    /// One PE call, queued or inlined, on this worker's copy of the PE,
    /// which is handed this worker as its context: what it emits is routed
    /// and written out as it goes, and the rest routed when it returns. The
    /// fault hooks count calls. A call that follows another with only
    /// routing between them starts where that one ended: one clock read per
    /// call along an inlined chain.
    fn call(&mut self, id: PeId, port: &str, value: Value, bounded: bool) -> Result<(), CoreError> {
        let engine = self.engine;
        if let Some((_, extra)) = engine.straggler.filter(|(pe, _)| *pe == id) {
            // sleep: injected straggler fault, a fixed delay per call.
            std::thread::sleep(extra);
            self.unwritten_service += extra;
            // The sleep is not the call's service.
            self.last_end = None;
        }
        let known = self.pes.get_mut(id.0);
        let mut pe = match known.ok_or(CoreError::MissingFactory(id))?.take() {
            Some(pe) => pe,
            None => engine.plan.exe.instantiate(id)?,
        };
        let outer = std::mem::replace(&mut self.call, Call::of(id, bounded));
        let started = self.last_end.take().unwrap_or_else(Instant::now);
        self.segment_start = started;
        let ok = process_guarded(&mut *pe, port, value, self);
        let ended = Instant::now();
        self.last_end = Some(ended);
        let service = (ended - started).saturating_sub(self.call.aside);
        self.unwritten_service += ended - self.segment_start;
        self.call = outer;
        self.pes[id.0] = Some(pe);
        self.reraise()?;
        if ok {
            self.stats.latency.record(service);
            self.stats.per_pe[id.0] += 1;
            let slow = &mut self.slow_calls[id.0];
            *slow = match service > FLUSH_AFTER {
                true => (*slow + 1).min(SLOW_CALLS),
                false => 0,
            };
        } else {
            // The item is lost with what it left buffered; what it already
            // wrote out stays delivered.
            self.emissions.clear();
            self.stats.failed += 1;
        }
        let processed = self.stats.per_pe[id.0] + self.stats.failed;
        if engine
            .crash
            .is_some_and(|(w, after)| w == self.index && processed >= after)
        {
            // Like a real crash: everything not yet written out is lost
            // (this task's emissions and the buffered ones of the tasks
            // before it in the flush window), no snapshot, never drains.
            let who = self.slot.map(|slot| engine.slot_key(slot.pes[0], slot));
            return Err(CoreError::InjectedFault(format!(
                "worker for {} crashed after {processed} task(s)",
                who.unwrap_or_default()
            )));
        }
        self.route_emissions(id);
        if let Some(storm) = engine.plan.faults.pill_storm {
            // relaxed: a count that publishes no other data; each call draws
            // a distinct value, so exactly one worker meets the threshold.
            let run = engine.storm_calls.fetch_add(1, Ordering::Relaxed) + 1;
            if run == storm.after_tasks.max(1) {
                self.last_end = None;
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
            None | Some(Halt::Aborted) => Ok(()),
            Some(Halt::Failed(Ok(error))) => Err(error),
            Some(Halt::Failed(Err(panic))) => std::panic::resume_unwind(panic),
        }
    }

    /// Slot-only: the instance has seen its entire input. Per member, in
    /// topological order: externalize the final state before `on_done` may
    /// drain it, then make the calls its output inlines, so a later member
    /// has its whole input before its own `on_done`. Then retire the Flush
    /// like a task: its `on_done` output is counted before it is.
    fn flush(&mut self) -> Result<(), CoreError> {
        let engine = self.engine;
        // A Flush on the global queue is a stray control item: ignore it.
        let Some(slot) = self.slot else {
            return Ok(());
        };
        for &id in &slot.pes {
            let mut pe = self.pes[id.0].take().expect("a slot worker holds its PEs");
            if let (Some(store), Some(snapshot)) = (&engine.plan.state, pe.snapshot()) {
                store.save(&engine.slot_key(id, slot), &snapshot)?;
            }
            let outer = std::mem::replace(&mut self.call, Call::of(id, false));
            self.segment_start = Instant::now();
            pe.on_done(self);
            self.call = outer;
            self.pes[id.0] = Some(pe);
            self.reraise()?;
            let floor = self.inline.len();
            self.route_emissions(id);
            self.run_inline(floor)?;
        }
        // Retired only once every `on_done` returned: a write one made
        // while it ran settles its children, never the Flush.
        self.retired += 1;
        self.write_out().map(drop)
    }

    /// Routes everything the current PE call emitted so far: over an
    /// inline edge into a PE that is not slow, or into a member of this
    /// worker's slot, onto this worker's list of
    /// calls to make, otherwise into its outgoing buffers — the private
    /// queue the connection's grouping selects when the target is pinned,
    /// else the global queue (whoever pops first runs it). The value is
    /// moved on the last edge it travels.
    fn route_emissions(&mut self, from: PeId) {
        let engine = self.engine;
        let routes = &engine.routes;
        let queued = self.inline.len();
        let mut emissions = std::mem::take(&mut self.emissions);
        for (port, value) in emissions.drain(..) {
            let Some(port) = port else {
                if routes.has_outgoing(from) {
                    self.stats.dropped += 1;
                }
                continue;
            };
            let edges = routes.edges_at(from, port);
            let mut value = Some(value);
            for (i, edge) in edges.iter().enumerate() {
                let last_conn = i + 1 == edges.len();
                // A slot worker inlines only into its own members: always.
                if edge.inline
                    && (self.slow_calls[edge.to_pe.0] < SLOW_CALLS || self.slot.is_some())
                {
                    self.inline.push((edge, hand_over(&mut value, last_conn)));
                    continue;
                }
                let pinned = engine.pinned[edge.to_pe.0].clone();
                if pinned.is_empty() {
                    // The front doors reject one-to-all into an unpinned PE,
                    // and any one instance of it means "any worker".
                    let task = Task::new(
                        edge.to_pe,
                        edge.to_port.clone(),
                        hand_over(&mut value, last_conn),
                    );
                    self.global_out.push(QueueItem::Task(task));
                    continue;
                }
                let routed = value.as_ref().expect("moved only on the last edge");
                let route = self
                    .router
                    .route(edge.id, &edge.grouping, routed, pinned.len());
                let targets = match route {
                    Route::One(i) => pinned.start + i..pinned.start + i + 1,
                    Route::All => pinned,
                };
                let last_target = targets.end - 1;
                for s in targets {
                    let instance = engine.plan.slots[s].instance;
                    let value = hand_over(&mut value, last_conn && s == last_target);
                    let task = Task::pinned(edge.to_pe, instance, &*edge.to_port, value);
                    self.slot_out[s].push(QueueItem::Task(task));
                }
            }
        }
        self.emissions = emissions;
        // The list is taken from its end: reversed, the calls are made in
        // the order they were emitted.
        self.inline[queued..].reverse();
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
        self.last_end = None;
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
            if before > CREDIT / 2 && left.unwrap_or(0) <= CREDIT / 2 {
                engine.free_credit();
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

    /// The write a PE call makes while it runs: what it emitted so far,
    /// after the calls inlined under it, and whatever the window holds,
    /// through the same settle-before-push as any write. The call stays
    /// counted until it returns, so this settle never reaches zero.
    fn write_mid_call(&mut self) -> Result<(), CoreError> {
        let floor = self.inline.len();
        self.route_emissions(self.call.pe);
        if self.inline.len() > floor {
            let started = Instant::now();
            self.run_inline(floor)?;
            self.call.aside += started.elapsed();
        }
        let left = self.write_out()?;
        if self.call.bounded && left.is_some_and(|n| n > CREDIT) {
            let started = Instant::now();
            match self.slot {
                None => self.help(CREDIT / 2)?,
                Some(_) => self.engine.wait_for_credit(),
            }
            self.call.aside += started.elapsed();
        }
        self.segment_start = Instant::now();
        Ok(())
    }

    /// Caller-runs backpressure (DESIGN.md §5): a source that left more
    /// than [`CREDIT`] tasks outstanding runs queued ones on its own worker
    /// — popped without blocking from the queue the worker serves — until
    /// `outstanding` is down to `until` or nothing is there for it to pop.
    /// A pool worker never waits on credit, so a bounded pipeline cannot
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
    /// Buffers the emission with its port resolved, once, to the port's
    /// index in the calling PE's row of the route table. The
    /// [`EMIT_KEEP`]-th, or one that finds [`FLUSH_AFTER`] gone by since the
    /// last write (read every [`CLOCK_EVERY`]), writes them out while the
    /// call goes on.
    fn emit(&mut self, port: &str, value: Value) {
        if self.halted.is_some() {
            // The call's output stops here: nothing more is written.
            return;
        }
        let port = self.engine.routes.port_of(self.call.pe, port);
        self.emissions.push((port, value));
        let n = self.emissions.len();
        let due = n >= EMIT_KEEP
            || n.is_multiple_of(CLOCK_EVERY)
                && self.unwritten_service + self.segment_start.elapsed() > FLUSH_AFTER;
        if due {
            // The PE's own panic guard must not swallow the engine's.
            let wrote =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.write_mid_call()));
            // The flag is read per write, not per emission: a source
            // stops within one write of an abort, even one it waited in.
            self.halted = match wrote {
                Ok(Ok(())) if self.engine.aborted.load(SeqCst) => Some(Halt::Aborted),
                Ok(Ok(())) => None,
                Ok(Err(error)) => Some(Halt::Failed(Ok(error))),
                Err(panic) => Some(Halt::Failed(Err(panic))),
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
    use crate::mapping::Mapping;
    use crate::mappings::dynamic::run_dynamic;
    use crate::mappings::hybrid::{run_hybrid, run_hybrid_with_faults, HybridMulti, QueueFactory};
    use crate::mappings::{Multi, Simple};
    use crate::pe::{Collector, Context, CountingSink, FnSource, FnTransform};
    use crate::queue::WorkStealQueue;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
    use d4py_sync::Mutex;

    /// What a [`Watched`] queue and the PEs of a test write down, in order.
    #[derive(Debug, PartialEq)]
    enum Event {
        /// A `push` or `push_batch` call carrying these task payloads (a
        /// kickoff's is -1).
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
            QueueItem::Task(task) => Some(task.value.as_int().unwrap_or(-1)),
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

    /// Task items in all the writes of a run.
    fn tasks_pushed(log: &Log) -> usize {
        let pushed = log.lock();
        let sizes = pushed.iter().map(|event| match event {
            Event::Pushed(payloads) => payloads.len(),
            _ => 0,
        });
        sizes.sum()
    }

    /// source → `hops` stages → counting sink over `0..items`; stage `h`
    /// runs `stage(h, payload)` before passing the payload on.
    fn chain(
        items: i64,
        hops: usize,
        stage: impl Fn(usize, i64) + Clone + Send + Sync + 'static,
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
        for (h, pe) in stages.into_iter().enumerate() {
            let stage = stage.clone();
            exe.register(pe, move || {
                let stage = stage.clone();
                Box::new(FnTransform(
                    move |_: &str, v: Value, ctx: &mut dyn Context| {
                        stage(h, v.as_int().expect("the source emits ints"));
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
            let (exe, count) = chain(2_000, 4, |_, _| {});
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
    /// batch starts, as with a push per task. Its emissions fan out, so
    /// they are tasks, not inlined calls.
    #[test]
    fn slow_tasks_are_written_out_one_by_one() {
        let log = Log::default();
        let seen = log.clone();
        let fan_out = [
            ("s", "hop", Shuffle),
            ("hop", "k1", Shuffle),
            ("hop", "k2", Shuffle),
        ];
        let (exe, count) = shape(8, &fan_out, &[], move |pe, i| {
            if pe == "hop" {
                seen.lock().push(Event::Started(i));
                // sleep: simulated PE compute, well past FLUSH_AFTER.
                std::thread::sleep(FLUSH_AFTER * 10);
            }
        });
        let queue = log.make("global", 1).expect("queue");
        run_dynamic(&exe, &ExecutionOptions::new(1), queue, "dyn_test", None).expect("run");
        assert_eq!(count.load(SeqCst), 16);
        let log = log.lock();
        let at = |wanted: &Event| log.iter().position(|e| e == wanted);
        assert!(
            log.contains(&Event::Popped(8)),
            "one worker pops the source's eight items as one batch: {log:?}"
        );
        for i in 0..7 {
            // The source's burst carries all eight; the hop's own write of
            // `i` carries its two copies.
            let written = at(&Event::Pushed(vec![i, i])).expect("the hop's emission is pushed");
            let next = at(&Event::Started(i + 1)).expect("the next task runs");
            assert!(
                written < next,
                "emission {i} waited for task {}: {log:?}",
                i + 1
            );
        }
    }

    /// A PE whose calls outlast [`FLUSH_AFTER`] is called inline only until
    /// a worker has seen [`SLOW_CALLS`] such calls: from then on its input is
    /// a task, which an idle worker can take.
    #[test]
    fn a_slow_pe_is_not_called_inline() {
        const ITEMS: usize = 20;
        let (exe, count) = chain(ITEMS as i64, 2, |h, _| {
            if h == 1 {
                // sleep: simulated PE compute, past FLUSH_AFTER.
                std::thread::sleep(FLUSH_AFTER * 2);
            }
        });
        let log = Log::default();
        let queue = log.make("global", 1).expect("queue");
        run_dynamic(&exe, &ExecutionOptions::new(1), queue, "dyn_test", None).expect("run");
        assert_eq!(count.load(SeqCst), ITEMS as u64);
        // The kickoff, every item into hop0, and every item into hop1 but
        // the first SLOW_CALLS; the sink is called inline.
        let into_hop1 = ITEMS - usize::from(SLOW_CALLS);
        assert_eq!(tasks_pushed(&log), 1 + ITEMS + into_hop1);
    }

    use Grouping::{Global, Shuffle};

    /// A workflow over named PEs from its edges: `s` is the source and
    /// emits `0..items`; every other PE calls `stage(name, payload)` and
    /// passes the payload on, or, without successors, counts it into the
    /// returned counter. The PEs named in `stateful` are declared stateful.
    fn shape(
        items: i64,
        edges: &[(&str, &str, Grouping)],
        stateful: &[&str],
        stage: impl Fn(&str, i64) + Clone + Send + Sync + 'static,
    ) -> (Executable, Arc<AtomicU64>) {
        let mut names: Vec<&str> = vec!["s"];
        for &(from, to, _) in edges {
            for name in [from, to] {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        let forwards = |name: &str| edges.iter().any(|&(from, _, _)| from == name);
        let mut g = WorkflowGraph::new("shape");
        let ids: Vec<PeId> = names
            .iter()
            .map(|&name| {
                let spec = match name {
                    "s" => PeSpec::source(name, "out"),
                    _ if forwards(name) => PeSpec::transform(name, "in", "out"),
                    _ => PeSpec::sink(name, "in"),
                };
                g.add_pe(if stateful.contains(&name) {
                    spec.stateful()
                } else {
                    spec
                })
            })
            .collect();
        let id = |name: &str| ids[names.iter().position(|&n| n == name).expect("named")];
        for (from, to, grouping) in edges {
            g.connect(id(from), "out", id(to), "in", grouping.clone())
                .expect("declared ports");
        }
        let mut exe = Executable::new(g).expect("a valid shape");
        exe.register(id("s"), move || {
            Box::new(FnSource(move |ctx: &mut dyn Context| {
                (0..items).for_each(|i| ctx.emit("out", Value::Int(i)));
            }))
        });
        let count = Arc::new(AtomicU64::new(0));
        for &name in &names[1..] {
            let (pe, sink) = (id(name), !forwards(name));
            let (name, stage, count) = (name.to_string(), stage.clone(), count.clone());
            exe.register(pe, move || {
                let (name, stage, count) = (name.clone(), stage.clone(), count.clone());
                Box::new(FnTransform(
                    move |_: &str, v: Value, ctx: &mut dyn Context| {
                        stage(&name, v.as_int().expect("the source emits ints"));
                        match sink {
                            true => drop(count.fetch_add(1, SeqCst)),
                            false => ctx.emit("out", v),
                        }
                    },
                ))
            });
        }
        (exe.seal().expect("every PE registered"), count)
    }

    /// A staged chain is one queue trip per item: the source's emissions
    /// are tasks, and the worker that pops one calls every hop after it
    /// itself. The report still counts PE calls, as `simple` does, with one
    /// latency sample per call.
    #[test]
    fn a_staged_chain_pushes_one_task_per_item() {
        const ITEMS: i64 = 2_000;
        let (exe, count) = chain(ITEMS, 3, |_, _| {});
        let reference = Simple
            .execute(&exe, &ExecutionOptions::new(1))
            .expect("simple");
        count.store(0, SeqCst);
        for workers in [1, 3] {
            let log = Log::default();
            let queue = log.make("global", workers).expect("queue");
            let opts = ExecutionOptions::new(workers);
            let report = run_dynamic(&exe, &opts, queue, "dyn_test", None).expect("run");
            assert_eq!(count.swap(0, SeqCst), ITEMS as u64, "{workers} worker(s)");
            assert_eq!(
                tasks_pushed(&log),
                1 + ITEMS as usize,
                "the kickoff and the items"
            );
            assert_eq!(report.per_pe_tasks, reference.per_pe_tasks);
            assert_eq!(report.tasks_executed, 1 + 4 * ITEMS as u64);
            assert_eq!(report.task_latency.count, report.tasks_executed);
        }
    }

    /// Every hop staging does not fuse between two free PEs is a queue trip:
    /// out of a source, into a group-by or global grouping or a `stateful()`
    /// PE (a hybrid slot), out of a slot, at a fan-out and at a fan-in. On
    /// each shape every PE call was a popped task.
    #[test]
    fn every_boundary_is_a_queue_trip() {
        let group_by = || Grouping::group_by("k");
        type Shape = (
            &'static str,
            Vec<(&'static str, &'static str, Grouping)>,
            &'static [&'static str],
        );
        let shapes: [Shape; 7] = [
            ("out of a source", vec![("s", "a", Shuffle)], &[]),
            (
                "group-by entry",
                vec![("s", "a", Shuffle), ("a", "b", group_by())],
                &[],
            ),
            (
                "global entry",
                vec![("s", "a", Shuffle), ("a", "b", Global)],
                &[],
            ),
            (
                "stateful PE",
                vec![("s", "a", Shuffle), ("a", "b", Shuffle)],
                &["b"],
            ),
            (
                "out of a slot",
                vec![
                    ("s", "a", Shuffle),
                    ("a", "b", group_by()),
                    ("b", "c", Shuffle),
                ],
                &[],
            ),
            (
                "fan-out",
                vec![
                    ("s", "a", Shuffle),
                    ("a", "b", Shuffle),
                    ("a", "c", Shuffle),
                ],
                &[],
            ),
            (
                "fan-in",
                vec![
                    ("s", "a", Shuffle),
                    ("s", "b", Shuffle),
                    ("a", "c", Shuffle),
                    ("b", "c", Shuffle),
                ],
                &[],
            ),
        ];
        for (name, edges, stateful) in shapes {
            let (exe, _) = shape(50, &edges, stateful, |_, _| {});
            let log = Log::default();
            let report = run_hybrid(&exe, &ExecutionOptions::new(4), &log, "hybrid_test")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.failed_tasks, 0, "{name}");
            assert_eq!(
                tasks_pushed(&log) as u64,
                report.tasks_executed,
                "{name}: a call was not a task"
            );
        }
    }

    /// The fault hooks see inlined calls: the straggler delays each one, and
    /// the pill storm's threshold counts calls — here one past the run's
    /// tasks, so per task it would never fire. One worker pops its own
    /// writes before the storm, so the storm's pills are drained with the
    /// last tasks, before the run ends.
    #[test]
    fn fault_hooks_count_inlined_calls() {
        const ITEMS: i64 = 2_000;
        let tasks = 1 + ITEMS as u64;
        let storm = FaultPlan::default().with_pill_storm(tasks + 1, 3);
        let extra = Duration::from_millis(2);
        let straggler = FaultPlan::default().with_straggler("hop2", extra);
        for (plan, items) in [(storm, ITEMS), (straggler, 20)] {
            let (exe, count) = chain(items, 3, |_, _| {});
            let opts = ExecutionOptions::new(1);
            let report =
                run_hybrid_with_faults(&exe, &opts, &HybridMulti, "hybrid_test", None, &plan)
                    .expect("run");
            assert_eq!(count.load(SeqCst), items as u64);
            if plan.pill_storm.is_some() {
                let ignored = report.warnings.iter().any(|w| w.contains("spurious"));
                assert!(ignored, "the storm fired: {:?}", report.warnings);
            } else {
                assert!(
                    report.runtime >= extra * items as u32,
                    "{:?}",
                    report.runtime
                );
            }
        }
    }

    /// A task is retired only after the calls inlined under it: the settle
    /// that flushes a stateful stage cannot come while an item is still on
    /// its way to it. source → a → b (inlined) → group-by counter, whose
    /// `on_done` reports how many items it saw.
    #[test]
    fn a_stage_is_flushed_after_the_calls_inlined_before_it() {
        const ITEMS: i64 = 40;
        struct Counter(i64);
        impl ProcessingElement for Counter {
            fn process(&mut self, _: &str, _: Value, _: &mut dyn Context) {
                self.0 += 1;
            }
            fn on_done(&mut self, ctx: &mut dyn Context) {
                ctx.emit("out", Value::Int(self.0));
            }
        }
        let mut g = WorkflowGraph::new("flush");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let [a, b, k] = ["a", "b", "k"].map(|name| g.add_pe(PeSpec::transform(name, "in", "out")));
        let out = g.add_pe(PeSpec::sink("out", "in"));
        let key = Grouping::group_by("x");
        for (from, to, grouping) in [
            (s, a, Shuffle),
            (a, b, Shuffle),
            (b, k, key),
            (k, out, Shuffle),
        ] {
            g.connect(from, "out", to, "in", grouping)
                .expect("declared ports");
        }
        let mut exe = Executable::new(g).expect("valid");
        exe.register(s, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                (0..ITEMS).for_each(|i| ctx.emit("out", Value::Int(i)));
            }))
        });
        for hop in [a, b] {
            exe.register(hop, || {
                Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                    ctx.emit("out", v)
                }))
            });
        }
        exe.register(k, || Box::new(Counter(0)));
        let (_, seen) = Collector::new();
        let into = seen.clone();
        exe.register(out, move || Box::new(Collector::into_handle(into.clone())));
        let exe = exe.seal().expect("every PE registered");
        for run in 0..20 {
            run_hybrid(&exe, &ExecutionOptions::new(3), &HybridMulti, "hybrid_test").expect("run");
            let counts = std::mem::take(&mut *seen.lock());
            assert_eq!(counts, vec![Value::Int(ITEMS)], "run {run}");
        }
    }

    /// An inlined call that panics loses its own item only: the task it
    /// descends from is retired as usual and the run ends at quiescence.
    #[test]
    fn a_panicking_inlined_call_loses_only_its_item() {
        const ITEMS: i64 = 200;
        let (exe, count) = chain(ITEMS, 3, |h, i| {
            assert!(h != 1 || i != 7, "injected: hop1 fails on 7");
        });
        for workers in [1, 2] {
            count.store(0, SeqCst);
            let log = Log::default();
            let queue = log.make("global", workers).expect("queue");
            let opts = ExecutionOptions::new(workers);
            let report = run_dynamic(&exe, &opts, queue, "dyn_test", None).expect("run");
            assert_eq!(report.failed_tasks, 1);
            assert_eq!(count.load(SeqCst), ITEMS as u64 - 1);
            assert_eq!(tasks_pushed(&log), 1 + ITEMS as usize);
            let retried = report.warnings.iter().any(|w| w.contains("retry protocol"));
            assert!(!retried, "ended at quiescence: {:?}", report.warnings);
        }
    }

    /// A pinned source ten credits ahead of a slow sink — `multi` pins
    /// every PE — has its worker wait: the run stays within the credit,
    /// plus one write of the source and one popped batch per worker, with
    /// a sink of one instance (two workers) and of two (three).
    #[test]
    fn a_pinned_source_waits_for_its_credit() {
        const ITEMS: i64 = 10 * CREDIT as i64;
        let (exe, count) = shape(ITEMS, &[("s", "k", Shuffle)], &[], |_, _| {
            // A slow sink: ~2 µs of compute per item.
            let until = Instant::now() + Duration::from_micros(2);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        });
        for workers in [2, 3] {
            let report = Multi
                .execute(&exe, &ExecutionOptions::new(workers))
                .expect("run");
            assert_eq!(count.swap(0, SeqCst), ITEMS as u64, "{workers} workers");
            let bound = CREDIT + EMIT_KEEP + POP_BATCH * workers;
            let peak = report.peak_outstanding;
            assert!(
                (1..=bound).contains(&peak),
                "{workers} workers: {peak} tasks outstanding at the peak, bound {bound}"
            );
        }
    }

    /// An abort wakes a source waiting for its credit: the stateful sink
    /// holds its first call until the source is past its credit, then its
    /// slot crashes. The run returns the injected fault instead of hanging,
    /// and the source stops writing at the abort.
    #[test]
    fn an_abort_wakes_a_waiting_source() {
        let emitted = Arc::new(AtomicU64::new(0));
        let mut g = WorkflowGraph::new("waits");
        let s = g.add_pe(PeSpec::source("s", "out").stateful());
        let k = g.add_pe(PeSpec::sink("k", "in").stateful());
        g.connect(s, "out", k, "in", Shuffle)
            .expect("declared ports");
        let mut exe = Executable::new(g).expect("valid");
        let counts = emitted.clone();
        exe.register(s, move || {
            let emitted = counts.clone();
            Box::new(FnSource(move |ctx: &mut dyn Context| {
                for i in 0..10 * CREDIT as i64 {
                    emitted.fetch_add(1, SeqCst);
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(k, move || {
            let emitted = emitted.clone();
            Box::new(FnTransform(
                move |_: &str, _: Value, _: &mut dyn Context| {
                    // Until this call returns nothing is retired, so the
                    // source's write at its CREDIT-th emission leaves it a
                    // credit ahead.
                    while emitted.load(SeqCst) < CREDIT as u64 {
                        std::thread::yield_now();
                    }
                    // sleep: lets the source's worker reach its wait.
                    std::thread::sleep(Duration::from_millis(20));
                },
            ))
        });
        let exe = exe.seal().expect("every PE registered");
        let plan = FaultPlan::default().with_crash("k", 0, 1);
        let log = Log::default();
        let queues = log.clone();
        let (tx, rx) = d4py_sync::channel::unbounded();
        std::thread::spawn(move || {
            let opts = ExecutionOptions::new(2);
            let run = run_hybrid_with_faults(&exe, &opts, &queues, "hybrid_test", None, &plan);
            let _ = tx.send(run.map(drop));
        });
        // timing: hang detector with a generous bound (the run takes
        // milliseconds), not a performance gate.
        let run = rx.recv_timeout(Duration::from_secs(20));
        let run = run.expect("the run hung: the waiting source was not woken");
        assert!(
            matches!(run, Err(CoreError::InjectedFault(_))),
            "unexpected: {run:?}"
        );
        // The woken source writes nothing more: what it wrote is the credit,
        // its kickoff, and at most what its call buffered when it returned.
        let written = tasks_pushed(&log);
        assert!(
            written <= CREDIT + 2 * EMIT_KEEP,
            "{written} tasks written, the source ran on after the abort"
        );
    }
}
