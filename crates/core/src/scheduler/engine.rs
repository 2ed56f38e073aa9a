//! The policy-generic Figure-2 traversal engine.
//!
//! The paper presents fault tolerance as a *shading* of the NABBIT
//! traversal: Figure 2 shows one algorithm, with the FT additions
//! highlighted. This module encodes that literally. [`Engine`] owns the
//! single copy of `InitAndCompute` / `TryInitCompute` / `NotifyOnce` /
//! `ComputeAndNotify` / `NotifySuccessor`, and an [`FtPolicy`] supplies
//! everything the shading adds:
//!
//! * the descriptor type (via [`Descriptor`], unifying
//!   [`BaseDesc`](crate::task::BaseDesc) and
//!   [`FtDesc`](crate::task::FtDesc));
//! * the guarded-access wrappers (the paper's Cilk++ `try`/`catch`);
//! * bit-vector-gated notification (Guarantee 3);
//! * the Section-VI fault-injection probe points;
//! * the Figure-3 recovery hooks invoked from the catch blocks.
//!
//! The baseline instantiation [`Engine<NoFt>`](super::BaselineScheduler)
//! uses [`Infallible`](std::convert::Infallible) as its error type and a
//! zero-sized policy, so after monomorphization every guard is `Ok(())`,
//! every catch arm is uninhabited, and the descriptor carries no FT
//! fields — the compiled baseline is the unshaded Figure 2, matching "the
//! baseline version includes no additional data structures or statements
//! introduced for fault tolerance". The FT instantiation
//! [`Engine<FtRecovery>`](super::FtScheduler) restores every shaded line.
//!
//! Task keys and life numbers are threaded through the call stack as
//! explicit parameters rather than read back from (possibly corrupt)
//! descriptors. The traversal is **work-first**, like NABBIT's Cilk++
//! `spawn`: every predecessor but the last is a stealable work-stealing
//! job ("the creation and computation of the predecessors of a given task
//! are concurrent and can be executed by different threads"), while the
//! last predecessor, and the traversal of each task a visit creates, run
//! inline on the visiting worker — bounded by [`MAX_INLINE_CHAIN`] and
//! gated by the same rule as the inline completion chain. The engine asks
//! the executor for the current worker index at every step and hands it to
//! the policy, so trace shards and sharded metrics lanes are selected by
//! worker identity instead of contending cross-worker.
//!
//! # Allocation discipline (PR 8)
//!
//! The traversal hot path is allocation-free. Descriptors live in an
//! [`Arena`] owned by the engine — one epoch, one slab set — and travel as
//! `Copy` [`ArenaRef`] handles instead of `Arc`s; every job the engine
//! spawns captures ≤ 48 bytes, so the [`ft_steal::Job`] cell stores it
//! inline; predecessor lists are built through a per-thread scratch buffer
//! ([`TaskGraph::predecessors_into`]); and single-ready-successor chains
//! execute **inline** via continuation passing ([`MAX_INLINE_CHAIN`])
//! instead of a queue round-trip per task. Handle validity is epoch-scoped:
//! every job carries an `Arc<Engine>`, so the arena outlives every handle,
//! and reclamation happens when the epoch's last reference drops — after
//! quiesce (see `docs/ALGORITHM.md`, "Arena allocation & inline chains").

use crate::deadline::DeadlineMonitor;
use crate::fault::Fault;
use crate::graph::{ComputeCtx, Key, TaskGraph};
use crate::inject::Phase;
use crate::metrics::{ExecTally, RunMetrics, RunReport};
use crate::task::{NotifyCells, Status, Take};
use crate::trace::Event;
use ft_cmap::ShardedMap;
use ft_steal::arena::{Arena, ArenaRef};
use ft_steal::pool::{Executor, Scope};
use ft_steal::{Job, Priority};
use ft_sync::atomic::{fence, AtomicI64, AtomicU32, Ordering};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Maps a task key to the acquisition priority of the jobs that traverse,
/// notify, or compute it. Typically derived from a DAG analysis (hard
/// tasks and their ancestors are [`Priority::High`]).
pub type PriorityFn = Arc<dyn Fn(Key) -> Priority + Send + Sync>;

/// Maximum inline depth of one job: tasks executed back-to-back through
/// the single-successor completion chain, and nested traversal levels
/// (`InitAndCompute` → `TryInitCompute` → `InitAndCompute` of the created
/// predecessor), before the continuation is re-enqueued.
///
/// Inlining never *hides* parallel work — every ready successor beyond the
/// chain candidate and every predecessor but the last is spawned normally
/// — but an unbounded chain would keep one worker from touching its own
/// deque indefinitely, and unbounded traversal nesting would overflow the
/// worker's stack on a long serial chain. Re-enqueueing every
/// `MAX_INLINE_CHAIN` levels (the spawned job restarts at depth 0) bounds
/// both and gives the scheduler (and a `DetPool` campaign's seeded
/// schedule) a periodic interleaving point.
pub const MAX_INLINE_CHAIN: usize = 64;

thread_local! {
    /// Scratch buffer for predecessor lists: reused across every
    /// descriptor the thread creates, so `make_desc` allocates nothing
    /// once warm (graphs that override `predecessors_into` fill it
    /// in place).
    static PRED_SCRATCH: RefCell<Vec<Key>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with the thread's predecessor scratch buffer (shared with the
/// recovery path's `ReplaceTask`).
pub(super) fn with_pred_scratch<R>(f: impl FnOnce(&mut Vec<Key>) -> R) -> R {
    PRED_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Optional scheduling behaviors threaded through the engine, orthogonal
/// to the fault-tolerance policy.
///
/// The default (`None` everywhere) is the exact pre-PR6 scheduler: every
/// job spawns at [`Priority::Normal`] and no completion times are
/// recorded.
#[derive(Clone, Default)]
pub struct SchedOpts {
    /// Priority pop order: every job the engine spawns *toward* a task
    /// key is submitted at `priority(key)`. `None` = FIFO mode.
    pub priority: Option<PriorityFn>,
    /// Completion-time probe: `record(key)` is invoked at each task's
    /// `Completed` transition (first completion wins inside the monitor).
    pub deadline: Option<Arc<DeadlineMonitor>>,
}

impl std::fmt::Debug for SchedOpts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedOpts")
            .field("priority", &self.priority.as_ref().map(|_| "fn"))
            .field("deadline", &self.deadline)
            .finish()
    }
}

/// The per-task state the shared traversal needs from a descriptor,
/// whichever flavor the policy picks.
///
/// Accessors return the Section-III fields common to both descriptor
/// types; anything FT-specific (bit vector, poison flags, life bumping) is
/// reached only through the policy, so the baseline descriptor never has
/// to carry it.
pub trait Descriptor: Send + Sync + 'static {
    /// Life number of this incarnation (always 1 for the baseline).
    fn life(&self) -> u64;
    /// Ordered immediate predecessor keys, cached at creation (`Init(A)`).
    fn preds(&self) -> &[Key];
    /// Join counter (`|preds| + 1`; the +1 is the self-notification).
    fn join(&self) -> &AtomicI64;
    /// Lock-free successor notification cells (PR 9): slots claimed by
    /// registrants, scanned by this task's completion drain.
    fn notify_cells(&self) -> &NotifyCells;
    /// Store a new status.
    fn set_status(&self, s: Status);
    /// Successful computes of this incarnation, bumped by the worker that
    /// computes it.
    fn execs(&self) -> &AtomicU32;
    /// N(A): successful computes summed over this incarnation and every
    /// incarnation it replaced. Read at quiescence.
    fn execs_all_lives(&self) -> u64 {
        // ord: Relaxed — statistics counter read at quiescence.
        u64::from(self.execs().load(Ordering::Relaxed))
    }
}

/// The shaded behavior of Figure 2 — everything that differs between the
/// baseline and fault-tolerant schedulers.
///
/// Hooks come in two kinds. Guards (`check*`, `read_status`,
/// `consume_notification`) return `Result<_, Self::Err>`; the engine's
/// `?`s are the paper's `try` blocks and the `Err` arms its `catch`
/// blocks. Handlers (`on_guard_fault`, `on_compute_fault`) are the catch
/// bodies and dispatch into Figure-3 recovery. With
/// [`Err = Infallible`](std::convert::Infallible) both kinds compile to
/// nothing.
pub trait FtPolicy: Send + Sync + Sized + 'static {
    /// Descriptor type stored in the task map.
    type Desc: Descriptor;
    /// Guard error type: [`Fault`] for FT, uninhabited for the baseline.
    type Err;

    /// Build the first (life-1) incarnation of `key`'s descriptor.
    /// `scratch` is a reusable buffer for the predecessor list (filled via
    /// [`TaskGraph::predecessors_into`]).
    fn make_desc(&self, graph: &dyn TaskGraph, key: Key, scratch: &mut Vec<Key>) -> Self::Desc;

    /// Record a trace event (no-op unless the policy carries a trace).
    fn emit(&self, worker: Option<usize>, event: Event);

    /// Guarded descriptor access: fail if the descriptor is corrupt.
    fn check(d: &Self::Desc) -> Result<(), Self::Err>;

    /// Read the status field, surfacing a smashed status byte as an error.
    fn read_status(d: &Self::Desc) -> Result<Status, Self::Err>;

    /// `TryInitCompute`'s prologue guard on the predecessor `B`: corrupt
    /// descriptor or `if (B.overwritten) throw`.
    fn check_dependable(b: &Self::Desc) -> Result<(), Self::Err>;

    /// `NotifyOnce`'s gate: should this notification decrement the join
    /// counter? The FT policy unsets the bit for `pkey` and absorbs
    /// duplicates (Guarantee 3); the baseline always says yes.
    fn consume_notification(
        engine: &Engine<Self>,
        a: &Self::Desc,
        key: Key,
        pkey: Key,
        life: u64,
        worker: Option<usize>,
    ) -> Result<bool, Self::Err>;

    /// Whether a negative join counter is tolerated (only under the
    /// FT policy's mutation-testing sabotage switches).
    fn join_underflow_ok(&self) -> bool;

    /// Mutation-test switch: when true, the inline-chain notify path
    /// skips [`FtPolicy::consume_notification`] and decrements the join
    /// counter unconditionally — a deliberately broken inline shortcut
    /// (exactly the bug a careless chain implementation would have) that
    /// the G1–G6 trace oracle must flag. Default: off, i.e. correct.
    fn sabotage_chain(&self) -> bool {
        false
    }

    /// Mutation-test switch: when true (one-shot), the next notify-cell
    /// registration claims a slot but drops both the `Release` publish and
    /// the self-delivery fallback — a lost notification (exactly the bug a
    /// missing publish fence would cause) that the G3/G4 trace oracle must
    /// flag as a quiesced-but-incomplete run. Default: off, i.e. correct.
    fn sabotage_cell(&self) -> bool {
        false
    }

    /// Whether this incarnation was created by `RecoverTask` (threaded
    /// into [`ComputeCtx`] so apps can distinguish recovery executions).
    fn is_recovery_exec(d: &Self::Desc) -> bool;

    /// Section-VI fault-injection probe (before compute / after compute /
    /// after notify). No-op for the baseline.
    fn probe(engine: &Engine<Self>, a: &Self::Desc, key: Key, phase: Phase, worker: Option<usize>);

    /// The user compute returned a fault. The FT policy counts and
    /// propagates it into the catch block; the baseline panics ("the
    /// baseline scheduler has no recovery path").
    fn compute_error(engine: &Engine<Self>, f: Fault) -> Self::Err;

    /// Catch block of `TryInitCompute` / `NotifyOnce`:
    /// `RecoverTaskOnce(key, life)` on the task whose guard failed.
    fn on_guard_fault(engine: &Arc<Engine<Self>>, s: &Scope<'_>, f: Self::Err, key: Key, life: u64);

    /// Catch block of `ComputeAndNotify`: recover `A` itself, or — for a
    /// fault in an input — recover the input's producer and reset `A`.
    fn on_compute_fault(
        engine: &Arc<Engine<Self>>,
        s: &Scope<'_>,
        a: ArenaRef<Self::Desc>,
        key: Key,
        life: u64,
        f: Self::Err,
    );
}

/// The single Figure-2 traversal, generic over the fault-tolerance policy.
///
/// Use the two instantiations: [`BaselineScheduler`](super::BaselineScheduler)
/// (`Engine<NoFt>`) and [`FtScheduler`](super::FtScheduler)
/// (`Engine<FtRecovery>`). One engine instance = one run (one epoch: the
/// engine owns the arena every descriptor of the run lives in).
///
/// Aligned to 128 bytes, the alignment of `CachePadded`: every job holds
/// an `Arc<Engine>`, and its clone and drop write the `Arc` counts on every
/// task. The alignment puts those counts on a line of their own, apart from
/// the fields every task reads (`graph`, `map`, `arena`).
#[repr(align(128))]
pub struct Engine<P: FtPolicy> {
    pub(super) graph: Arc<dyn TaskGraph>,
    /// The task map: key → current incarnation (arena handle).
    pub(super) map: ShardedMap<ArenaRef<P::Desc>>,
    /// Epoch slab: every descriptor incarnation of this run, reclaimed en
    /// masse when the engine (epoch) drops. Declared after `map` so the
    /// handles stored there are dropped first (they are `Copy`, nothing
    /// dangles either way).
    pub(super) arena: Arena<P::Desc>,
    pub(super) metrics: RunMetrics,
    pub(super) policy: P,
    pub(super) opts: SchedOpts,
}

impl<P: FtPolicy> Engine<P> {
    /// Build an engine around `policy`.
    pub(super) fn with_policy(graph: Arc<dyn TaskGraph>, policy: P) -> Arc<Self> {
        Self::with_policy_opts(graph, policy, SchedOpts::default())
    }

    /// Build an engine around `policy` with explicit scheduling options.
    pub(super) fn with_policy_opts(
        graph: Arc<dyn TaskGraph>,
        policy: P,
        opts: SchedOpts,
    ) -> Arc<Self> {
        Arc::new(Engine {
            graph,
            map: ShardedMap::new(),
            arena: Arena::new(),
            metrics: RunMetrics::new(),
            policy,
            opts,
        })
    }

    /// Acquisition priority for jobs targeting `key`.
    #[inline]
    pub(super) fn prio_of(&self, key: Key) -> Priority {
        match &self.opts.priority {
            Some(f) => f(key),
            None => Priority::Normal,
        }
    }

    /// Whether a call toward a target of priority `prio` may run inline in
    /// the current job at inline depth `depth`, instead of going through
    /// the queues. One rule for the completion chain and the traversal:
    /// bounded by [`MAX_INLINE_CHAIN`], and in priority mode only hot
    /// targets run inline, so inlined work never runs ahead of queued hot
    /// work it should yield to.
    #[inline]
    fn may_inline(&self, depth: usize, prio: Priority) -> bool {
        depth < MAX_INLINE_CHAIN && (self.opts.priority.is_none() || prio == Priority::High)
    }

    /// Execute the task graph to completion on `exec`; returns run
    /// statistics.
    ///
    /// Any [`Executor`] works: the multithreaded [`ft_steal::pool::Pool`]
    /// or the deterministic single-threaded `ft-det` pool for replayable
    /// schedule exploration. Execution begins by inserting the **sink**
    /// task and invoking `InitAndCompute` on it; the traversal expands the
    /// graph bottom-up toward the sources.
    pub fn run(self: &Arc<Self>, exec: &dyn Executor) -> RunReport {
        let start = Instant::now();
        let sink = self.graph.sink();
        self.insert_if_absent(sink, None);
        // ft-lint: allow(L5) the sink was inserted on the line above and
        // nothing can remove it before the run starts; a miss here is a
        // programming error worth aborting on, not a runtime condition.
        let (sd, life) = self.get_task(sink).expect("sink just inserted");
        let this = Arc::clone(self);
        let prio = self.prio_of(sink);
        exec.execute_job(Job::new(move |scope: &Scope<'_>| {
            scope.spawn_with(prio, move |s| this.init_and_compute(s, sd, sink, life, 0));
        }));
        self.finish_report(start)
    }

    /// Snapshot the run statistics into a [`RunReport`]: metrics counters,
    /// the sink's completion status, and the elapsed time since `start`.
    /// Shared by [`Engine::run`] and the graph service's per-instance
    /// tickets (`super::service`), which finish reports asynchronously.
    pub(super) fn finish_report(&self, start: Instant) -> RunReport {
        let mut execs = ExecTally::default();
        self.map.for_each(|_, d| execs.add(d.execs_all_lives()));
        let mut report = self.metrics.snapshot(execs);
        report.sink_completed = self
            .map
            .get(self.graph.sink())
            .map(|d| matches!(P::read_status(&d), Ok(Status::Completed)))
            .unwrap_or(false);
        report.elapsed = start.elapsed();
        report
    }

    /// Number of distinct task keys ever inserted (diagnostics).
    pub fn tasks_created(&self) -> usize {
        self.map.len()
    }

    /// Borrow the task graph this engine runs.
    pub fn graph_ref(&self) -> &dyn TaskGraph {
        self.graph.as_ref()
    }

    /// Whether `d` was allocated by this engine's epoch arena (per-epoch
    /// isolation diagnostics; see the service-layer tests).
    pub fn owns_desc(&self, d: ArenaRef<P::Desc>) -> bool {
        self.arena.owns(d.as_ptr())
    }

    /// Current incarnation handle for `key`, if the task was ever
    /// inserted (per-epoch isolation diagnostics; pair with
    /// [`Engine::owns_desc`]).
    pub fn desc_handle(&self, key: Key) -> Option<ArenaRef<P::Desc>> {
        self.map.get(key)
    }

    /// `InsertTaskIfAbsent`.
    pub(super) fn insert_if_absent(&self, key: Key, worker: Option<usize>) -> bool {
        let inserted = self.map.insert_if_absent(key, || {
            with_pred_scratch(|scratch| {
                self.arena
                    .alloc(self.policy.make_desc(self.graph.as_ref(), key, scratch))
            })
        });
        if inserted {
            self.policy.emit(worker, Event::Inserted { key });
        }
        inserted
    }

    /// `GetTask`: current incarnation and its life number.
    pub(super) fn get_task(&self, key: Key) -> Option<(ArenaRef<P::Desc>, u64)> {
        self.map.get(key).map(|d| {
            let life = d.life();
            (d, life)
        })
    }

    /// `InitAndCompute(A, key, life)`: traverse immediate predecessors,
    /// then self-notify (consuming the `+1` in the join counter).
    ///
    /// Work-first: every predecessor but the last is a stealable
    /// `TryInitCompute` job; the last is visited inline at `depth + 1` when
    /// `Engine::may_inline` allows it. `depth` is the inline nesting of
    /// the calling job (0 for a freshly spawned job).
    pub(super) fn init_and_compute(
        self: &Arc<Self>,
        s: &Scope<'_>,
        a: ArenaRef<P::Desc>,
        key: Key,
        life: u64,
        depth: usize,
    ) {
        // Iterate the cached predecessor slice by reference: the hot path
        // allocates nothing per traversal.
        if let Some((&last, rest)) = a.preds().split_last() {
            for &pkey in rest {
                self.spawn_try_init_compute(s, a, key, life, pkey);
            }
            if self.may_inline(depth, self.prio_of(last)) {
                self.try_init_compute(s, a, key, life, last, depth + 1);
            } else {
                self.spawn_try_init_compute(s, a, key, life, last);
            }
        }
        // Section VI "before compute" injection point: the task "has
        // traversed its predecessors and is waiting for one or more
        // notifications to be scheduled for execution".
        P::probe(self, &a, key, Phase::BeforeCompute, s.worker_index());
        self.notify_once(s, a, key, key, life);
    }

    /// Spawn `TryInitCompute(A, key, life, pkey)` as a fresh job (inline
    /// depth 0) at the priority of its *target*: hard tasks and their
    /// ancestors traverse ahead of soft work.
    fn spawn_try_init_compute(
        self: &Arc<Self>,
        s: &Scope<'_>,
        a: ArenaRef<P::Desc>,
        key: Key,
        life: u64,
        pkey: Key,
    ) {
        let this = Arc::clone(self);
        s.spawn_with(self.prio_of(pkey), move |s| {
            this.try_init_compute(s, a, key, life, pkey, 0)
        });
    }

    /// `TryInitCompute(A, key, life, pkey)`: create/visit predecessor
    /// `pkey`; register A for notification or observe completion. If this
    /// visit created B, B's traversal follows inline at `depth` (or as a
    /// fresh job, per `Engine::may_inline`) — after A's registration,
    /// so B's own drain delivers to A instead of A's registrant
    /// self-delivering.
    pub(super) fn try_init_compute(
        self: &Arc<Self>,
        s: &Scope<'_>,
        a: ArenaRef<P::Desc>,
        key: Key,
        life: u64,
        pkey: Key,
        depth: usize,
    ) {
        let inserted = self.insert_if_absent(pkey, s.worker_index());
        let Some((b, blife)) = self.get_task(pkey) else {
            debug_assert!(false, "predecessor {pkey} vanished from the task map");
            return;
        };

        // try { check B; register; self-deliver if B already computed }
        let attempt: Result<bool, P::Err> = (|| {
            P::check_dependable(&b)?;
            self.register_notify(&b, key)
        })();

        match attempt {
            Ok(true) => self.notify_once(s, a, key, pkey, life),
            Ok(false) => {}
            // catch { RecoverTaskOnce(pkey, blife) }. A's published cell
            // (if the claim got that far) is inert on the corrupt
            // incarnation; B's recovery re-enqueues A via
            // ReinitNotifyEntry (A's bit for B is still set), and any
            // stale delivery from the old incarnation is absorbed by A's
            // notification bits.
            Err(f) => P::on_guard_fault(self, s, f, pkey, blife),
        }

        if inserted {
            let prio = self.prio_of(pkey);
            if self.may_inline(depth, prio) {
                self.init_and_compute(s, b, pkey, blife, depth);
            } else {
                let this = Arc::clone(self);
                s.spawn_with(prio, move |s| this.init_and_compute(s, b, pkey, blife, 0));
            }
        }
    }

    /// Lock-free registration of successor `key` in `b`'s notify cells
    /// (PR 9). Claims a slot, publishes the key, then — after an SC fence —
    /// re-reads `b`'s status: if `b` has already computed, the drainer's
    /// scan may have missed the publish, so the registrant takes its own
    /// slot back via CAS and delivers the notification itself. Returns
    /// `Ok(true)` iff the caller must self-deliver (it won the slot).
    ///
    /// Exactly-once: the slot's `key → TAKEN` CAS has one winner, whichever
    /// side it is. No-loss (Dekker over SC fences): if the drainer's scan
    /// load missed the publish, the drainer's fence precedes the
    /// registrant's in the SC order, so this status read observes
    /// `≥ Computed` and the registrant self-delivers; conversely a
    /// registrant that reads `< Computed` has its fence first, so the
    /// drainer's scan observes the published key.
    // ft-lint: hot-path begin(notify)
    pub(super) fn register_notify(&self, b: &P::Desc, key: Key) -> Result<bool, P::Err> {
        let cells = b.notify_cells();
        let slot = cells.claim();
        if self.policy.sabotage_cell() {
            // Mutation testing: the claim happened but the publish (and
            // the self-delivery fallback) is dropped — a lost notification
            // the G3/G4 trace oracle must flag.
            return Ok(false);
        }
        cells.publish(slot, key);
        // ord: SeqCst fence — Dekker pairing with the drainer's fence after
        // its `Computed` store (see `compute_and_notify_step`).
        // sc: notify-cells/registrant
        fence(Ordering::SeqCst);
        if P::read_status(b)? >= Status::Computed {
            return Ok(cells.try_take(slot, key));
        }
        Ok(false)
    }

    /// The gate of `NotifyOnce(A, key, pkey, life)`: consume the
    /// notification and decrement the join counter. Returns `true` iff the
    /// counter hit zero — the caller owns A's compute. Guard faults are
    /// handled here (`RecoverTaskOnce`), reported as not-ready.
    fn notify_gate(
        self: &Arc<Self>,
        s: &Scope<'_>,
        a: ArenaRef<P::Desc>,
        key: Key,
        pkey: Key,
        life: u64,
    ) -> bool {
        let worker = s.worker_index();
        let attempt: Result<bool, P::Err> = (|| {
            P::check(&a)?;
            if !P::consume_notification(self, &a, key, pkey, life, worker)? {
                return Ok(false);
            }
            self.metrics.notifications.add(worker);
            self.policy.emit(
                worker,
                Event::Notified {
                    key,
                    life,
                    pred: pkey,
                },
            );
            // ord: AcqRel — the decrement that releases this task's
            // contribution must publish its compute (Release) and the
            // winner that observes zero must see every predecessor's
            // writes (Acquire).
            let val = a.join().fetch_sub(1, Ordering::AcqRel) - 1;
            debug_assert!(
                val >= 0 || self.policy.join_underflow_ok(),
                "join counter underflow on task {key} life {life}"
            );
            Ok(val == 0)
        })();

        match attempt {
            Ok(ready) => ready,
            Err(f) => {
                P::on_guard_fault(self, s, f, key, life);
                false
            }
        }
    }

    /// `NotifyOnce(A, key, pkey, life)`: decrement the join counter (if the
    /// policy's gate consumes the notification); execute A at zero.
    pub(super) fn notify_once(
        self: &Arc<Self>,
        s: &Scope<'_>,
        a: ArenaRef<P::Desc>,
        key: Key,
        pkey: Key,
        life: u64,
    ) {
        if self.notify_gate(s, a, key, pkey, life) {
            self.compute_and_notify(s, a, key, life);
        }
    }

    /// `ComputeAndNotify(A, key, life)`, chained: run the user compute,
    /// transition to Computed, drain the notify array, transition to
    /// Completed — then, if draining left exactly one ready successor in
    /// this job's hands, continue with it **inline** instead of paying a
    /// queue round-trip (continuation passing, bounded by
    /// [`MAX_INLINE_CHAIN`]).
    pub(super) fn compute_and_notify(
        self: &Arc<Self>,
        s: &Scope<'_>,
        a: ArenaRef<P::Desc>,
        key: Key,
        life: u64,
    ) {
        let mut cur = Some((a, key, life));
        let mut depth = 0usize;
        while let Some((a, key, life)) = cur.take() {
            cur = self.compute_and_notify_step(s, a, key, life, depth);
            depth += 1;
        }
    }

    /// One link of the chain: compute + notify one task, returning the
    /// chain continuation (a successor made ready by this task's
    /// notifications) if there is one.
    fn compute_and_notify_step(
        self: &Arc<Self>,
        s: &Scope<'_>,
        a: ArenaRef<P::Desc>,
        key: Key,
        life: u64,
        depth: usize,
    ) -> Option<(ArenaRef<P::Desc>, Key, u64)> {
        let worker = s.worker_index();
        let mut chain: Option<(ArenaRef<P::Desc>, Key, u64)> = None;
        let attempt: Result<(), P::Err> = (|| {
            P::check(&a)?;
            let ctx = ComputeCtx::new(life, P::is_recovery_exec(&a), worker);
            if let Err(f) = self.graph.compute(key, &ctx) {
                return Err(P::compute_error(self, f));
            }
            // The compute ran to completion: count the work (even if the
            // injection right below discards it — that is exactly the
            // "work lost" the experiments measure). N(A) lands in the
            // descriptor this worker already owns, the total on its lane.
            // ord: Relaxed — statistics counter, summed at quiescence.
            a.execs().fetch_add(1, Ordering::Relaxed);
            self.metrics.computes.add(worker);
            self.policy.emit(worker, Event::Computed { key, life });
            // Section VI "after compute" injection point: computed, about
            // to notify successors. The guard right below observes it.
            P::probe(self, &a, key, Phase::AfterCompute, worker);
            P::check(&a)?;
            a.set_status(Status::Computed);
            // ord: SeqCst fence — Dekker pairing with the registrant's
            // fence after its cell publish (see `register_notify`): every
            // registration this scan misses is guaranteed to observe
            // `≥ Computed` and self-deliver.
            // sc: notify-cells/drainer
            fence(Ordering::SeqCst);

            let cells = a.notify_cells();
            let mut cursor = 0usize;
            loop {
                P::check(&a)?;
                // Scan every claimed slot once, lock-free. A `Deliver` win
                // is this drainer's to hand off; `Delegated`/`Done` slots
                // are (or will be) delivered by their registrant.
                let len = cells.len();
                while cursor < len {
                    if let Take::Deliver(skey) = cells.take_at(cursor) {
                        self.notify_entry(s, key, skey, depth, &mut chain);
                    }
                    cursor += 1;
                }
                // Claims that race past this re-read are SC-ordered after
                // this drain and self-deliver (registrant protocol).
                if cells.len() == cursor {
                    a.set_status(Status::Completed);
                    self.policy.emit(worker, Event::Completed { key, life });
                    if let Some(dl) = &self.opts.deadline {
                        dl.record(key);
                    }
                    break;
                }
            }
            // Section VI "after notify" injection point: only observed if a
            // later consumer still touches this task or its data.
            P::probe(self, &a, key, Phase::AfterNotify, worker);
            Ok(())
        })();

        if let Err(f) = attempt {
            // The faulted step must not swallow a successor it already made
            // ready (its notification is consumed — nobody will re-deliver
            // it): hand the continuation back to the queues, then let
            // recovery own this task's traversal.
            if let Some((ca, ckey, clife)) = chain.take() {
                let this = Arc::clone(self);
                s.spawn_with(self.prio_of(ckey), move |s| {
                    this.compute_and_notify(s, ca, ckey, clife)
                });
            }
            P::on_compute_fault(self, s, a, key, life, f);
            return None;
        }
        chain
    }

    /// Deliver one notify-array entry inline — the inline-chain site: the
    /// gate of `NotifySuccessor`+`NotifyOnce` runs in this job, and a
    /// successor whose join counter hits zero either becomes the chain
    /// continuation or is spawned as a fresh `ComputeAndNotify` job.
    fn notify_entry(
        self: &Arc<Self>,
        s: &Scope<'_>,
        key: Key,
        skey: Key,
        depth: usize,
        chain: &mut Option<(ArenaRef<P::Desc>, Key, u64)>,
    ) {
        let Some((sd, slife)) = self.get_task(skey) else {
            debug_assert!(false, "successor {skey} vanished from the task map");
            return;
        };
        let ready = if self.policy.sabotage_chain() {
            // Deliberately broken gate (mutation testing): skips the
            // policy's exactly-once check and decrements unconditionally.
            // Under faults, re-delivered notifications then double-
            // decrement — the G3 violation the trace oracle must flag.
            self.metrics.notifications.add(s.worker_index());
            self.policy.emit(
                s.worker_index(),
                Event::Notified {
                    key: skey,
                    life: slife,
                    pred: key,
                },
            );
            // ord: AcqRel — same join-counter contract as above: the
            // observer of zero acquires every predecessor's compute.
            sd.join().fetch_sub(1, Ordering::AcqRel) - 1 == 0
        } else {
            self.notify_gate(s, sd, skey, key, slife)
        };
        if !ready {
            return;
        }
        let prio = self.prio_of(skey);
        // Chain policy: the first ready successor continues inline, under
        // the shared inline rule. Everything else goes through the queues
        // and stays stealable.
        if chain.is_none() && self.may_inline(depth, prio) {
            *chain = Some((sd, skey, slife));
        } else {
            let this = Arc::clone(self);
            s.spawn_with(prio, move |s| this.compute_and_notify(s, sd, skey, slife));
        }
    }
    // ft-lint: hot-path end(notify)
}

#[cfg(test)]
mod tests {
    use super::super::{FtRecovery, NoFt};
    use super::Engine;
    use std::mem::align_of;

    #[test]
    fn engine_is_aligned_clear_of_the_arc_counts() {
        // `ArcInner` places the strong/weak counts before the value, so a
        // 128-byte-aligned engine starts on a fresh pair of cache lines.
        assert!(align_of::<Engine<NoFt>>() >= 128);
        assert!(align_of::<Engine<FtRecovery>>() >= 128);
    }
}
