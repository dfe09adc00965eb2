//! The executor: a deterministic interpreter advancing one visible
//! operation at a time under external scheduling control, with an undo
//! trail that brings it back to a marked state.

use std::rc::Rc;

use crate::error::ExecError;
use crate::fault::{FaultKind, FaultPlan};
use crate::footprint::Footprint;
use crate::ids::{threads_in, CondId, MutexId, RwId, SemId, ThreadId, VarId};
use crate::lower::{Code, Instr, Locals, Op};
use crate::outcome::{BlockedOn, Outcome};
use crate::program::Program;
use crate::schedule::Schedule;
use crate::state::{CondState, MutexState, RwState, SemState};
use crate::statehash::{Comp, Fnv, Fold, StateHash};
use crate::stmt::RmwOp;
use crate::trace::{self, EventKind, Logged, Trace};
use crate::txn::TxState;

/// Fuel for uninterrupted local computation between two visible
/// operations; exhausting it means a pure-local infinite loop.
const LOCAL_FUEL: u32 = 100_000;

/// Default bound on transaction aborts before the execution is classified
/// [`Outcome::TxRetryLimit`].
pub(crate) const TX_RETRY_LIMIT: u32 = 64;

/// Whether an [`Executor`] records a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// No trace (fastest; the model checker's default).
    #[default]
    Off,
    /// Record every visible operation; [`Executor::into_trace`] computes
    /// the run's vector clocks from that log.
    Full,
}

/// Result of [`Executor::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult {
    /// The execution can continue; more threads are enabled.
    Running,
    /// The execution reached a terminal outcome.
    Done(Outcome),
}

/// How far a replayed schedule deviated from what the program could
/// actually do, as accounted by [`Executor::replay_checked`]. All
/// counters zero means the schedule was taken verbatim and completely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayDeviation {
    /// Entries naming a thread the program does not have. Always a
    /// schedule/program mismatch (wrong program version, corrupt file).
    pub out_of_range: u64,
    /// Entries naming a real thread that was not enabled when its turn
    /// came (skipped in favour of the next usable entry).
    pub not_enabled: u64,
    /// Steps taken after the schedule ran out, filled in with the
    /// lowest-id enabled thread.
    pub filled_in: u64,
}

impl ReplayDeviation {
    /// `true` when the schedule drove the whole execution verbatim.
    pub fn is_exact(&self) -> bool {
        *self == ReplayDeviation::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Hash)]
enum ThreadStatus {
    /// Declared with `thread_deferred` and not yet spawned.
    NotStarted,
    /// Has a next instruction (which may or may not be enabled).
    Ready,
    /// Parked on a condition variable.
    WaitingCond { cond: CondId, mutex: MutexId },
    /// Waiting to re-acquire the mutex after a wait: `signalled` is
    /// `false` for a spurious wakeup, whose wait-end event synchronizes
    /// with no signaller.
    Reacquire { mutex: MutexId, signalled: bool },
    /// Script complete.
    Finished,
}

#[derive(Debug, Clone, Hash)]
struct ThreadState {
    status: ThreadStatus,
    pc: usize,
    locals: Locals,
    held: Held,
    /// Boxed, so that the undo record of a thread outside a transaction
    /// stays small.
    tx: Option<Box<TxState>>,
    tx_retries: u32,
}

/// Mutexes a [`Held`] list keeps without a heap allocation.
const HELD_INLINE: usize = 3;

/// The mutexes a thread holds, in acquisition order, inline up to
/// [`HELD_INLINE`]: the undo record of a thread holding a lock
/// allocates nothing. A thread holds a mutex at most once, since a
/// mutex has one owner.
#[derive(Clone)]
enum Held {
    Inline(u8, [MutexId; HELD_INLINE]),
    Spilled(Vec<MutexId>),
}

impl Default for Held {
    fn default() -> Held {
        Held::Inline(0, [MutexId(0); HELD_INLINE])
    }
}

impl Held {
    fn as_slice(&self) -> &[MutexId] {
        match self {
            Held::Inline(len, held) => &held[..usize::from(*len)],
            Held::Spilled(held) => held,
        }
    }

    fn push(&mut self, m: MutexId) {
        match self {
            Held::Inline(len, held) if usize::from(*len) < HELD_INLINE => {
                held[usize::from(*len)] = m;
                *len += 1;
            }
            Held::Inline(_, held) => *self = Held::Spilled([&held[..], &[m]].concat()),
            Held::Spilled(held) => held.push(m),
        }
    }

    /// Drops `m`, keeping the order of the rest.
    fn remove(&mut self, m: MutexId) {
        match self {
            Held::Inline(len, held) => {
                let n = usize::from(*len);
                if let Some(at) = held[..n].iter().position(|&h| h == m) {
                    held.copy_within(at + 1..n, at);
                    *len -= 1;
                }
            }
            Held::Spilled(held) => held.retain(|&h| h != m),
        }
    }
}

/// Only the held mutexes count: entries past an inline list's length
/// are stale.
impl std::hash::Hash for Held {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Held {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Feeds an `Option<ThreadId>` into a component hash without colliding
/// `None` with any real thread.
fn hash_opt_thread(f: Fnv, t: Option<ThreadId>) -> Fnv {
    match t {
        Some(t) => f.byte(1).usize(t.index()),
        None => f.byte(0),
    }
}

/// A sync object's undo record: its index and its value before its
/// first write since the newest mark.
#[derive(Debug, Clone)]
enum SyncUndo {
    Mutex(u32, MutexState),
    Cond(u32, CondState),
    Rw(u32, RwState),
    Sem(u32, SemState),
}

/// The undo trail: the records pushed since the oldest live mark, one
/// stack per kind, so that a variable's or a fingerprint slot's record
/// is two words. A record holds a component's value before its first
/// write since the newest mark, or a slot's hash before its first
/// repair since then. One stamp per component and per fingerprint slot
/// (components first, both in [`StateHash`] slot order) equal to
/// `epoch` means the component is already recorded since the newest
/// mark or restore. Every mark and every restore starts a fresh epoch;
/// stamps and the epoch start at 0, so an executor that never marks
/// records nothing.
#[derive(Debug, Clone)]
struct Trail {
    epoch: u64,
    stamps: Box<[u64]>,
    vars: Vec<(u32, i64)>,
    slots: Vec<(u32, u64)>,
    threads: Vec<(u32, ThreadState)>,
    syncs: Vec<SyncUndo>,
}

impl Trail {
    /// `true` at the first write of stamp slot `at` since the newest
    /// mark or restore, which must push its record.
    #[inline]
    fn first_write(&mut self, at: usize) -> bool {
        let stamp = &mut self.stamps[at];
        if *stamp == self.epoch {
            return false;
        }
        *stamp = self.epoch;
        true
    }
}

/// A state [`Executor::undo_to`] can restore: the length of each of the
/// trail's stacks, and the scalars a step overwrites instead of
/// recording. A mark is taken where the run goes on, so it keeps no
/// outcome.
#[derive(Debug, Clone)]
pub(crate) struct Mark {
    vars: usize,
    slots: usize,
    threads: usize,
    syncs: usize,
    steps: usize,
    events: usize,
    io_journal: usize,
    enabled: u64,
    fold: Fold,
    /// [`Executor::digest`] of the marked state: the restore audit.
    #[cfg(debug_assertions)]
    digest: u64,
}

/// A deterministic interpreter for one execution of a [`Program`].
///
/// Drive it with [`Executor::step`] (choosing among
/// [`Executor::enabled`] threads) or one of the `run_*` conveniences.
/// The explorer's forward runs and `run_*` step through the
/// crate-private `Executor::step_enabled`, which builds no
/// [`StepResult`]: a step that ends the run leaves its outcome in the
/// executor, and so does the step budget.
///
/// # Undo trail
///
/// The model checker keeps one executor per search. It marks the state
/// at each branch point (`Executor::mark`) and restores the mark
/// before each child but the first, which starts where the mark was
/// taken (`Executor::undo_to`); the child's edge then runs in place.
/// The state is flat and unshared: the shared variables, the thread
/// states and the sync-object tables are plain tables, and the schedule
/// taken, the I/O journal and the event log are plain vectors. The
/// first write to a component since the newest mark pushes the
/// component's old value onto the trail's stack for its kind: a
/// variable's record and a fingerprint slot's are two words, a thread's
/// is its whole state (held locks inline up to three, so the record of
/// a lock holder allocates nothing), and the sync objects share one
/// stack. A per-component stamp makes every later write of the same
/// edge free. The logs only grow, so a mark keeps their lengths, with
/// the enabled mask and the fingerprint's fold and dirty list; a mark
/// is taken mid-run, so it keeps no outcome. An executor that never
/// marks records nothing, so samplers and replays pay one compare per
/// write. `Clone` is a deep copy.
///
/// # Lowered code, enabled mask
///
/// The executor steps on the code [`crate::ProgramBuilder::build`]
/// lowered once: locals by slot, and expressions inline but for one box
/// per operator with a deeper operand. It keeps one `u64` mask of the
/// enabled threads, which [`Executor::is_enabled`], the quiescence
/// check and the explorer's forward run all read. A step whose op
/// writes no sync object and no other thread, and which leaves its
/// thread `Ready`, re-checks only that thread's bit (debug builds check
/// it against a recomputation); every other step recomputes the mask.
///
/// # Thread-confined
///
/// The executor holds its [`Program`] through one `Rc`, so stepping
/// never touches the program's atomic count, and the executor is
/// `!Send`. Every search runs its walk on the calling thread; a
/// threaded search would hand its workers schedules to replay, not
/// executors. The [`Program`] itself stays `Send + Sync`.
///
/// # State key repaired on read
///
/// A step marks the fingerprint components it touches dirty and hashes
/// nothing. The explorer's dedup claim repairs the cached fold in place,
/// rehashing only the dirty components; [`Executor::state_key`] hashes
/// the whole state afresh and leaves the cache alone. A search that
/// never deduplicates (full enumeration, sleep sets, DPOR) therefore
/// never hashes.
///
/// # Semantics only
///
/// The state holds no vector clocks. Recording ([`RecordMode::Full`])
/// logs each event's thread and kind with the step that performed it,
/// and [`Executor::into_trace`] computes the happens-before relation
/// from that log and the schedule taken, once per recorded run.
#[derive(Debug, Clone)]
pub struct Executor {
    program: Rc<Program>,
    vars: Box<[i64]>,
    threads: Box<[ThreadState]>,
    mutexes: Box<[MutexState]>,
    conds: Box<[CondState]>,
    rws: Box<[RwState]>,
    sems: Box<[SemState]>,
    io_journal: Vec<(ThreadId, &'static str)>,
    /// Bit `i` set when thread `i` can step; 0 once the run is done.
    enabled: u64,
    outcome: Option<Outcome>,
    /// The schedule taken, one thread index per step (a program has at
    /// most 64 threads).
    taken: Vec<u8>,
    record: RecordMode,
    events: Vec<Logged>,
    fault: Option<FaultPlan>,
    hash: StateHash,
    trail: Trail,
}

impl Executor {
    /// Creates an executor at the program's initial state.
    pub fn new(program: &Program) -> Executor {
        Executor::with_record(program, RecordMode::Off)
    }

    /// Creates an executor that records according to `record`.
    pub fn with_record(program: &Program, record: RecordMode) -> Executor {
        let threads = program
            .threads()
            .iter()
            .map(|t| ThreadState {
                status: if t.auto_start() {
                    ThreadStatus::Ready
                } else {
                    ThreadStatus::NotStarted
                },
                pc: 0,
                locals: Locals::new(t.slots().len()),
                held: Held::default(),
                tx: None,
                tx_retries: 0,
            })
            .collect();
        let hash = StateHash::with_sizes(
            program.n_vars(),
            program.n_mutexes(),
            program.n_conds(),
            program.n_rws(),
            program.sem_init().len(),
            program.n_threads(),
        );
        let mut exec = Executor {
            vars: program.var_init().into(),
            mutexes: vec![MutexState::default(); program.n_mutexes()].into(),
            conds: vec![CondState::default(); program.n_conds()].into(),
            rws: vec![RwState::default(); program.n_rws()].into(),
            sems: (program.sem_init().iter())
                .map(|&count| SemState { count })
                .collect(),
            io_journal: Vec::new(),
            program: Rc::new(program.clone()),
            threads,
            enabled: 0,
            outcome: None,
            taken: Vec::new(),
            record,
            events: Vec::new(),
            fault: None,
            trail: Trail {
                epoch: 0,
                stamps: vec![0; 2 * hash.len()].into_boxed_slice(),
                vars: Vec::new(),
                slots: Vec::new(),
                threads: Vec::new(),
                syncs: Vec::new(),
            },
            hash,
        };
        // Record starts and fast-forward local prefixes so every pc points
        // at a visible op.
        for i in 0..exec.threads.len() {
            if exec.threads[i].status == ThreadStatus::Ready {
                let tid = ThreadId::from_index(i);
                exec.record_event(tid, EventKind::ThreadStart);
                exec.fast_forward(tid);
            }
        }
        exec.refresh_enabled(None);
        exec
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Installs a deterministic fault plan. Decisions are a pure function
    /// of `(plan, step, thread)`, so every path of a search that
    /// restores a marked state agrees on every future fault. Install it
    /// before a search marks the state: no restore undoes it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Whether `kind` fires for `thread` at the current step.
    fn fault_fires(&self, kind: FaultKind, thread: ThreadId) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|plan| plan.fires(kind, self.steps(), thread.index()))
    }

    /// Number of visible steps executed so far.
    pub fn steps(&self) -> usize {
        self.taken.len()
    }

    /// The terminal outcome, once reached.
    pub fn outcome(&self) -> Option<&Outcome> {
        self.outcome.as_ref()
    }

    /// `true` once a terminal outcome has been reached.
    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    /// Current values of all shared variables.
    pub fn vars(&self) -> &[i64] {
        &self.vars
    }

    /// The I/O journal: `(thread, tag)` in execution order.
    pub fn io_journal(&self) -> &[(ThreadId, &'static str)] {
        &self.io_journal
    }

    /// The schedule of choices taken so far, materialized from the
    /// log. O(steps) — use [`Executor::last_scheduled`] when only the
    /// most recent choice matters.
    pub fn schedule_taken(&self) -> Schedule {
        (self.taken.iter())
            .map(|&t| ThreadId::from_index(t.into()))
            .collect()
    }

    /// The thread scheduled by the most recent [`Executor::step`], if
    /// any. O(1), unlike materializing [`Executor::schedule_taken`].
    pub fn last_scheduled(&self) -> Option<ThreadId> {
        (self.taken.last()).map(|&t| ThreadId::from_index(t.into()))
    }

    /// Extracts the recorded trace ([`RecordMode::Full`] only; an empty
    /// trace otherwise), computing its vector clocks from the event log
    /// and the schedule taken.
    pub fn into_trace(self) -> Trace {
        Trace {
            program: self.program.name().to_string(),
            n_threads: self.program.n_threads(),
            n_vars: self.program.n_vars(),
            events: trace::stamp_clocks(self.program.n_threads(), &self.taken, self.events),
        }
    }

    /// The footprint of the visible operation `thread` would perform
    /// next, for the explorer's independence analysis. `None` when the
    /// thread has no next operation (not started / finished). The
    /// footprint of an invisible op ([`Executor::next_is_invisible`]) is
    /// empty and carries no effect.
    pub(crate) fn next_footprint(&self, thread: ThreadId) -> Option<Footprint> {
        let ts = &self.threads[thread.index()];
        match ts.status {
            ThreadStatus::Reacquire { mutex, .. } | ThreadStatus::WaitingCond { mutex, .. } => {
                Some(Footprint::of_reacquire(mutex))
            }
            ThreadStatus::Ready => self.peek_op(thread.index()).map(|op| match op {
                // Only a commit's footprint reads the transaction's sets.
                Op::TxCommit => {
                    (ts.tx.as_deref()).map_or_else(Footprint::default, Footprint::of_commit)
                }
                // A passing assert cannot abort: invisible.
                Op::Assert { .. } if self.next_is_invisible(thread) => {
                    Footprint::of_op(op).without_effect()
                }
                op => Footprint::of_op(op),
            }),
            ThreadStatus::NotStarted | ThreadStatus::Finished => None,
        }
    }

    /// `true` when `thread`'s next op is *invisible*: a yield, an assert
    /// whose condition currently holds, or a transaction commit with
    /// empty read and write sets. Such an op touches no shared variable
    /// and no sync object and cannot abort, so it commutes with every
    /// other thread's ops; the explorer runs it right after the step that
    /// exposed it, without a branch point (step fusion). An assert's
    /// condition reads only the owner's locals (the builder rejects
    /// `Expr::Shared` in thread bodies), so its verdict cannot change
    /// until the thread runs again; a failing assert stays visible, so
    /// the explorer still branches before the abort cuts off sibling
    /// outcomes. This is the one definition of invisibility in the
    /// crate: [`Executor::next_footprint`] clears an assert's effect by
    /// it.
    pub(crate) fn next_is_invisible(&self, thread: ThreadId) -> bool {
        let ts = &self.threads[thread.index()];
        if ts.status != ThreadStatus::Ready {
            return false;
        }
        match self.peek_op(thread.index()) {
            Some(Op::Yield) => true,
            Some(Op::Assert { cond, .. }) => cond.eval(&ts.locals) != 0,
            Some(Op::TxCommit) => {
                (ts.tx.as_ref()).is_none_or(|tx| tx.read_set.is_empty() && tx.write_set.is_empty())
            }
            _ => false,
        }
    }

    /// A hash of the semantically relevant execution state, used by the
    /// explorer's optional state deduplication. Two executors with equal
    /// keys have the same future behaviour *except* for transaction-retry
    /// exhaustion and preemption accounting (retry counters and the
    /// schedule taken are deliberately excluded so that retry loops
    /// collapse).
    ///
    /// The key is an XOR fold of per-component FNV hashes, all hashed
    /// afresh here: O(state). The explorer's dedup reads the same key
    /// from a cached fold instead, rehashing only the components that
    /// steps have touched since its last read.
    pub fn state_key(&self) -> u64 {
        let mut key = 0u64;
        for i in 0..self.vars.len() {
            key ^= self.component_hash(Comp::Var(i));
        }
        for i in 0..self.mutexes.len() {
            key ^= self.component_hash(Comp::Mutex(i));
        }
        for i in 0..self.conds.len() {
            key ^= self.component_hash(Comp::Cond(i));
        }
        for i in 0..self.rws.len() {
            key ^= self.component_hash(Comp::Rw(i));
        }
        for i in 0..self.sems.len() {
            key ^= self.component_hash(Comp::Sem(i));
        }
        for i in 0..self.threads.len() {
            key ^= self.component_hash(Comp::Thread(i));
        }
        key
    }

    /// [`Executor::state_key`], from the fingerprint's cached fold:
    /// rehashes every component marked dirty since the last call into
    /// the fold's slots (recording each slot's first repair since the
    /// newest mark on the trail) and returns the repaired key. The dedup
    /// claim reads the key this way, so a search that never
    /// deduplicates never hashes.
    pub(crate) fn flush_state_key(&mut self) -> u64 {
        while let Some(c) = self.hash.pop_dirty() {
            let fresh = self.component_hash(c);
            let (at, stale) = self.hash.replace(c, fresh);
            if self.trail.first_write(self.hash.len() + at) {
                self.trail.slots.push((at as u32, stale));
            }
        }
        self.hash.key()
    }

    /// Hashes one component's current content. Makes exactly the
    /// distinctions the pre-incremental whole-state hash made: retry
    /// counters and the schedule taken stay excluded;
    /// waiter queues, reader lists, held sets, and transaction
    /// read/write sets stay order-sensitive; thread locals are folded
    /// order-independently (XOR over entry hashes) so the order they
    /// were first written in never leaks into the key.
    fn component_hash(&self, c: Comp) -> u64 {
        match c {
            Comp::Var(i) => Fnv::new().byte(1).usize(i).i64(self.vars[i]).finish(),
            Comp::Mutex(i) => {
                let f = Fnv::new().byte(2).usize(i);
                hash_opt_thread(f, self.mutexes[i].owner).finish()
            }
            Comp::Cond(i) => {
                let cs = &self.conds[i];
                let mut f = Fnv::new().byte(3).usize(i).usize(cs.waiters.len());
                for &w in &cs.waiters {
                    f = f.usize(w.index());
                }
                f.finish()
            }
            Comp::Rw(i) => {
                // The readers are a set (no semantics reads their order),
                // so they fold without order, like a thread's locals.
                let rw = &self.rws[i];
                let readers_fold = rw
                    .readers
                    .iter()
                    .fold(0u64, |fold, r| fold ^ Fnv::new().usize(r.index()).finish());
                hash_opt_thread(Fnv::new().byte(4).usize(i), rw.writer)
                    .usize(rw.readers.len())
                    .u64(readers_fold)
                    .finish()
            }
            Comp::Sem(i) => Fnv::new().byte(5).usize(i).i64(self.sems[i].count).finish(),
            Comp::Thread(i) => {
                let ts = &self.threads[i];
                let mut f = Fnv::new().byte(6).usize(i);
                f = match &ts.status {
                    ThreadStatus::NotStarted => f.byte(0),
                    ThreadStatus::Ready => f.byte(1),
                    ThreadStatus::WaitingCond { cond, mutex } => {
                        f.byte(2).usize(cond.index()).usize(mutex.index())
                    }
                    ThreadStatus::Reacquire { mutex, signalled } => {
                        f.byte(3).usize(mutex.index()).byte(u8::from(*signalled))
                    }
                    ThreadStatus::Finished => f.byte(4),
                };
                f = f.usize(ts.pc);
                // Each written local hashes as its name's bytes, 0xff and
                // its value; the slot table keeps the name's part.
                let slots = self.program.threads()[i].slots();
                let mut locals_fold = 0u64;
                for (slot, value) in ts.locals.iter() {
                    locals_fold ^= slots.seed(slot).i64(value).finish();
                }
                f = f.usize(ts.locals.len()).u64(locals_fold);
                let held = ts.held.as_slice();
                f = f.usize(held.len());
                for m in held {
                    f = f.usize(m.index());
                }
                match &ts.tx {
                    None => f = f.byte(0),
                    Some(tx) => {
                        f = f.byte(1).usize(tx.start_pc);
                        f = f.usize(tx.read_set.len());
                        for (v, val) in &tx.read_set {
                            f = f.usize(v.index()).i64(*val);
                        }
                        f = f.usize(tx.write_set.len());
                        for (v, val) in &tx.write_set {
                            f = f.usize(v.index()).i64(*val);
                        }
                        f = f.byte(u8::from(tx.io_performed));
                    }
                }
                f.finish()
            }
        }
    }

    // ---- trailed accessors ---------------------------------------------

    /// Marks component `c` dirty and reports whether this is its first
    /// write since the newest mark, which must record its old value.
    #[inline]
    fn touch(&mut self, c: Comp) -> bool {
        let at = self.hash.touch(c);
        self.trail.first_write(at)
    }

    /// Mutable view of one thread's state; records it on the trail at
    /// its first write since the newest mark and marks its hash
    /// component dirty.
    fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadState {
        let i = t.index();
        if self.touch(Comp::Thread(i)) {
            let old = self.threads[i].clone();
            self.trail.threads.push((i as u32, old));
        }
        &mut self.threads[i]
    }

    fn mutex_mut(&mut self, m: MutexId) -> &mut MutexState {
        let i = m.index();
        if self.touch(Comp::Mutex(i)) {
            let old = self.mutexes[i].clone();
            self.trail.syncs.push(SyncUndo::Mutex(i as u32, old));
        }
        &mut self.mutexes[i]
    }

    fn cond_mut(&mut self, c: CondId) -> &mut CondState {
        let i = c.index();
        if self.touch(Comp::Cond(i)) {
            let old = self.conds[i].clone();
            self.trail.syncs.push(SyncUndo::Cond(i as u32, old));
        }
        &mut self.conds[i]
    }

    fn rw_mut(&mut self, rw: RwId) -> &mut RwState {
        let i = rw.index();
        if self.touch(Comp::Rw(i)) {
            let old = self.rws[i].clone();
            self.trail.syncs.push(SyncUndo::Rw(i as u32, old));
        }
        &mut self.rws[i]
    }

    fn sem_mut(&mut self, s: SemId) -> &mut SemState {
        let i = s.index();
        if self.touch(Comp::Sem(i)) {
            let old = self.sems[i].clone();
            self.trail.syncs.push(SyncUndo::Sem(i as u32, old));
        }
        &mut self.sems[i]
    }

    fn set_var(&mut self, var: VarId, value: i64) {
        let i = var.index();
        if self.touch(Comp::Var(i)) {
            self.trail.vars.push((i as u32, self.vars[i]));
        }
        self.vars[i] = value;
    }

    // ---- marks and restores --------------------------------------------

    /// Marks the current state for [`Executor::undo_to`]. Marks nest:
    /// a restore to one discards every mark taken after it.
    pub(crate) fn mark(&mut self) -> Mark {
        debug_assert!(self.outcome.is_none(), "a mark is taken mid-run");
        let trail = &mut self.trail;
        trail.epoch += 1;
        Mark {
            vars: trail.vars.len(),
            slots: trail.slots.len(),
            threads: trail.threads.len(),
            syncs: trail.syncs.len(),
            steps: self.taken.len(),
            events: self.events.len(),
            io_journal: self.io_journal.len(),
            enabled: self.enabled,
            fold: self.hash.fold(),
            #[cfg(debug_assertions)]
            digest: self.digest(),
        }
    }

    /// Restores the state `mark` was taken at: pops each stack's records
    /// above it, newest first (so a component recorded under several
    /// live marks gets its oldest value back), truncates the logs and
    /// reinstates the scalars. `mark` must be live: no restore to an
    /// older mark has happened since it was taken. Starts a fresh epoch,
    /// so the next write of every component records again. Debug builds
    /// audit the result against the mark's [`Executor::digest`].
    pub(crate) fn undo_to(&mut self, mark: &Mark) {
        let trail = &mut self.trail;
        for (i, v) in trail.vars.drain(mark.vars..).rev() {
            self.vars[i as usize] = v;
        }
        for (at, hash) in trail.slots.drain(mark.slots..).rev() {
            self.hash.restore_slot(at as usize, hash);
        }
        for (i, ts) in trail.threads.drain(mark.threads..).rev() {
            self.threads[i as usize] = ts;
        }
        for record in trail.syncs.drain(mark.syncs..).rev() {
            match record {
                SyncUndo::Mutex(i, m) => self.mutexes[i as usize] = m,
                SyncUndo::Cond(i, c) => self.conds[i as usize] = c,
                SyncUndo::Rw(i, rw) => self.rws[i as usize] = rw,
                SyncUndo::Sem(i, sem) => self.sems[i as usize] = sem,
            }
        }
        trail.epoch += 1;
        self.taken.truncate(mark.steps);
        self.events.truncate(mark.events);
        self.io_journal.truncate(mark.io_journal);
        self.enabled = mark.enabled;
        self.outcome = None;
        self.hash.set_fold(mark.fold);
        #[cfg(debug_assertions)]
        assert_eq!(self.digest(), mark.digest, "a restore missed a write");
    }

    /// A digest of the whole state, for the restore audit: equal
    /// digests mean equal states, down to what [`Executor::state_key`]
    /// leaves out (retry counters, the order of held locks, the I/O
    /// journal, the schedule, the enabled mask, the outcome, the events
    /// and the fingerprint's slots and fold). The destructuring names
    /// every field, so a new one fails to compile until it is digested
    /// (and so trailed) or listed as not restored, with the reason.
    #[cfg(any(test, debug_assertions))]
    fn digest(&self) -> u64 {
        use std::hash::Hash;
        let Executor {
            // Not restored: fixed at construction.
            program: _,
            record: _,
            // Not restored: installed before a search marks, and no
            // step writes it.
            fault: _,
            // Not restored: the undo books themselves.
            trail: _,
            vars,
            threads,
            mutexes,
            conds,
            rws,
            sems,
            io_journal,
            enabled,
            outcome,
            taken,
            events,
            hash,
        } = self;
        let mut h = Fnv::new();
        (vars, threads, mutexes, conds, rws, sems, io_journal).hash(&mut h);
        (enabled, outcome, taken, events, hash).hash(&mut h);
        h.finish()
    }

    /// Threads that can take a step right now, in thread order.
    ///
    /// With a fault plan installed, threads in a stall window are filtered
    /// out (a bounded descheduling). The filter never empties the set —
    /// if every enabled thread is stalled, or only one thread is enabled,
    /// the unfiltered set is returned, so deadlock detection and
    /// quiescence (which use [`Executor::is_enabled`]) are unaffected.
    pub fn enabled(&self) -> Vec<ThreadId> {
        let mut enabled = Vec::new();
        self.enabled_into(&mut enabled);
        enabled
    }

    /// [`Executor::enabled`] into a caller-owned buffer (cleared first),
    /// so a run of many steps can reuse one allocation.
    pub(crate) fn enabled_into(&self, out: &mut Vec<ThreadId>) {
        out.clear();
        out.extend(threads_in(self.enabled));
        if out.len() > 1 {
            if let Some(plan) = &self.fault {
                let stalled = |t: &ThreadId| plan.fires(FaultKind::Stall, self.steps(), t.index());
                if !out.iter().all(stalled) {
                    out.retain(|t| !stalled(t));
                }
            }
        }
    }

    /// The threads that can take a step, bit `i` for thread `i`, with no
    /// stall filter: the systematic search strips stalls from its plans.
    #[inline]
    pub(crate) fn enabled_mask(&self) -> u64 {
        self.enabled
    }

    /// `true` when `thread` can take a step.
    pub fn is_enabled(&self, thread: ThreadId) -> bool {
        (self.enabled.checked_shr(thread.index() as u32)).is_some_and(|bits| bits & 1 == 1)
    }

    /// The visible operation thread `i` will perform next, if any.
    #[inline]
    fn peek_op(&self, i: usize) -> Option<&Op> {
        let code = self.program.threads()[i].code();
        match code.get(self.threads[i].pc) {
            Some(Instr::Op(op)) => Some(op),
            _ => None,
        }
    }

    /// Whether thread `i` can take a step in the current state.
    fn can_step(&self, i: usize) -> bool {
        match self.threads[i].status {
            ThreadStatus::NotStarted
            | ThreadStatus::Finished
            | ThreadStatus::WaitingCond { .. } => false,
            ThreadStatus::Reacquire { mutex, .. } => self.mutexes[mutex.index()].owner.is_none(),
            ThreadStatus::Ready => self.peek_op(i).is_some_and(|op| match op {
                Op::Lock(m) => self.mutexes[m.index()].owner.is_none(),
                Op::RwRead(rw) => self.rws[rw.index()].can_read(ThreadId::from_index(i)),
                Op::RwWrite(rw) => self.rws[rw.index()].can_write(ThreadId::from_index(i)),
                Op::SemAcquire(s) => self.sems[s.index()].count > 0,
                Op::Join(t) => self.threads[t.index()].status == ThreadStatus::Finished,
                _ => true,
            }),
        }
    }

    /// The enabled mask recomputed from every thread: 0 once the run is
    /// done.
    fn mask_from_scratch(&self) -> u64 {
        if self.outcome.is_some() {
            return 0;
        }
        (0..self.threads.len())
            .filter(|&i| self.can_step(i))
            .fold(0, |mask, i| mask | 1 << i)
    }

    /// Sets the enabled mask after a step (or at construction, with
    /// `local` `None`). `local` names the thread of a thread-local step
    /// ([`Op::is_thread_local`]) that left it `Ready`: only its bit can
    /// have changed, so only it is re-checked; debug builds check the
    /// result against a recomputation. With no thread enabled, the
    /// execution has quiesced.
    fn refresh_enabled(&mut self, local: Option<usize>) {
        self.enabled = match local {
            Some(i) if self.outcome.is_none() => {
                let bit = 1 << i;
                let mask = if self.can_step(i) {
                    self.enabled | bit
                } else {
                    self.enabled & !bit
                };
                debug_assert_eq!(
                    mask,
                    self.mask_from_scratch(),
                    "a local step moved another thread"
                );
                mask
            }
            _ => self.mask_from_scratch(),
        };
        if self.enabled == 0 && self.outcome.is_none() {
            self.outcome = Some(self.quiesced());
        }
    }

    /// Executes one visible operation of `thread`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ThreadNotEnabled`] if `thread` cannot take a
    /// step (including after the execution has already terminated).
    pub fn step(&mut self, thread: ThreadId) -> Result<StepResult, ExecError> {
        if !self.is_enabled(thread) {
            return Err(ExecError::ThreadNotEnabled { thread });
        }
        Ok(if self.step_enabled(thread) {
            StepResult::Running
        } else {
            StepResult::Done(self.outcome.clone().expect("the run ended"))
        })
    }

    /// [`Executor::step`] for a thread known to be enabled: `true` while
    /// the execution goes on, and the outcome stays in the executor
    /// ([`Executor::outcome`]), so a step builds no result and copies no
    /// outcome. The explorer's forward runs and [`Executor::run_with`]
    /// step through it.
    pub(crate) fn step_enabled(&mut self, thread: ThreadId) -> bool {
        debug_assert!(self.is_enabled(thread), "{thread} is not enabled");
        let i = thread.index();
        self.taken.push(i as u8);
        let local = if let ThreadStatus::Reacquire { mutex, signalled } = self.threads[i].status {
            self.finish_wait(thread, mutex, signalled);
            false
        } else {
            // Borrow the op through a program handle: the step mutates
            // the executor while it reads the op.
            let program = Rc::clone(&self.program);
            let op = match program.threads()[i].code().get(self.threads[i].pc) {
                Some(Instr::Op(op)) => op,
                _ => unreachable!("enabled Ready thread has a visible op"),
            };
            self.exec_op(thread, op);
            op.is_thread_local()
        };
        if self.outcome.is_none() && self.threads[i].status == ThreadStatus::Ready {
            self.fast_forward(thread);
        }
        // A thread that finishes here may wake its joiners.
        let local = local && self.threads[i].status == ThreadStatus::Ready;
        self.refresh_enabled(local.then_some(i));
        self.outcome.is_none()
    }

    /// Ends the run with [`Outcome::StepLimit`] once it has taken
    /// `max_steps` steps; `true` when it did. The explorer's forward run
    /// and [`Executor::run_with`] both stop at their budget through it.
    pub(crate) fn stop_at_step_limit(&mut self, max_steps: usize) -> bool {
        if self.taken.len() < max_steps {
            return false;
        }
        self.outcome = Some(Outcome::StepLimit);
        self.enabled = 0;
        true
    }

    /// Runs to termination, choosing each step with `picker` (called with
    /// the non-empty enabled set). Stops with [`Outcome::StepLimit`] after
    /// `max_steps` visible operations.
    ///
    /// # Panics
    ///
    /// When `picker` chooses a thread that is not enabled.
    pub fn run_with(
        &mut self,
        max_steps: usize,
        mut picker: impl FnMut(&[ThreadId]) -> ThreadId,
    ) -> Outcome {
        let mut enabled = Vec::new();
        while self.outcome.is_none() && !self.stop_at_step_limit(max_steps) {
            self.enabled_into(&mut enabled);
            debug_assert!(!enabled.is_empty(), "quiescence should have fired");
            let choice = picker(&enabled);
            assert!(
                self.is_enabled(choice),
                "picker must choose an enabled thread"
            );
            self.step_enabled(choice);
        }
        self.outcome.clone().expect("loop sets outcome")
    }

    /// Replays a recorded schedule, then continues deterministically
    /// (always the lowest-id enabled thread). Choices that are not enabled
    /// at replay time are skipped in favour of the lowest-id enabled
    /// thread, so a schedule from a different program version degrades
    /// gracefully instead of panicking. Use [`Executor::replay_checked`]
    /// when the caller needs to know whether that grace was needed.
    pub fn replay(&mut self, schedule: &Schedule, max_steps: usize) -> Outcome {
        self.replay_checked(schedule, max_steps).0
    }

    /// [`Executor::replay`] plus an account of every place the schedule
    /// and the program disagreed. All replay paths — trace
    /// reconstruction, witness verification, ddmin candidate validation
    /// — run through this one helper, so an out-of-range or
    /// not-enabled choice degrades identically everywhere instead of
    /// silently diverging between them.
    pub fn replay_checked(
        &mut self,
        schedule: &Schedule,
        max_steps: usize,
    ) -> (Outcome, ReplayDeviation) {
        let n_threads = self.program.threads().len();
        let mut it = schedule.iter();
        let mut deviation = ReplayDeviation::default();
        let outcome = self.run_with(max_steps, |enabled| {
            for choice in it.by_ref() {
                if choice.index() >= n_threads {
                    deviation.out_of_range += 1;
                } else if enabled.contains(&choice) {
                    return choice;
                } else {
                    deviation.not_enabled += 1;
                }
            }
            deviation.filled_in += 1;
            enabled[0]
        });
        (outcome, deviation)
    }

    /// Runs to termination always choosing the lowest-id enabled thread —
    /// the canonical "serial" execution used as a sanity baseline.
    pub fn run_sequential(&mut self, max_steps: usize) -> Outcome {
        self.run_with(max_steps, |enabled| enabled[0])
    }

    // ---- internals -----------------------------------------------------

    fn eval(&self, thread: ThreadId, code: &Code) -> i64 {
        code.eval(&self.threads[thread.index()].locals)
    }

    /// Advances past purely-local instructions until the pc rests on a
    /// visible op or the script ends (then the thread finishes).
    fn fast_forward(&mut self, thread: ThreadId) {
        let program = Rc::clone(&self.program);
        let code = program.threads()[thread.index()].code();
        // A pc already on a visible op has nothing to run, and the
        // thread records nothing on the trail.
        if let Some(Instr::Op(_)) = code.get(self.threads[thread.index()].pc) {
            return;
        }
        let ts = self.thread_mut(thread);
        let mut fuel = LOCAL_FUEL;
        let exhausted = loop {
            match code.get(ts.pc) {
                None => {
                    ts.status = ThreadStatus::Finished;
                    break false;
                }
                Some(Instr::Op(_)) => return,
                Some(Instr::LocalSet { slot, value }) => {
                    let v = value.eval(&ts.locals);
                    ts.locals.set(*slot, v);
                    ts.pc += 1;
                }
                Some(Instr::Jump(t)) => ts.pc = *t,
                Some(Instr::JumpIfZero(cond, t)) => {
                    if cond.eval(&ts.locals) == 0 {
                        ts.pc = *t;
                    } else {
                        ts.pc += 1;
                    }
                }
            }
            fuel -= 1;
            if fuel == 0 {
                break true;
            }
        };
        if exhausted {
            self.misuse(thread, ExecError::LocalFuelExhausted);
        } else {
            self.record_event(thread, EventKind::ThreadExit);
        }
    }

    fn misuse(&mut self, thread: ThreadId, error: ExecError) {
        self.outcome = Some(Outcome::Misuse { thread, error });
    }

    /// Records `thread`'s event with the step that performed it.
    fn record_event(&mut self, thread: ThreadId, kind: EventKind) {
        if self.record == RecordMode::Full {
            self.events.push(Logged {
                step: self.taken.len(),
                thread,
                kind,
            });
        }
    }

    fn advance(&mut self, thread: ThreadId) {
        self.thread_mut(thread).pc += 1;
    }

    /// Aborts the thread's transaction when its read set no longer
    /// matches the globals (opacity: a transaction must never expose an
    /// inconsistent snapshot to the program, TL2-style per-read
    /// validation). Returns `true` when an abort happened — the caller
    /// must not execute its operation.
    fn tx_abort_if_invalid(&mut self, thread: ThreadId) -> bool {
        let valid = match &self.threads[thread.index()].tx {
            Some(tx) => tx.validate(&self.vars) && !self.fault_fires(FaultKind::TxAbort, thread),
            None => return false,
        };
        if valid {
            return false;
        }
        let tx = self.thread_mut(thread).tx.take().expect("validated above");
        self.tx_rollback(thread, *tx);
        true
    }

    /// Rolls back `thread`'s transaction `tx`, already taken out of the
    /// thread: records the abort, gives the thread back the locals it
    /// began with and sends it back to its `TxBegin`. The retry past
    /// [`TX_RETRY_LIMIT`] ends the execution.
    fn tx_rollback(&mut self, thread: ThreadId, tx: TxState) {
        self.record_event(thread, EventKind::TxAbort);
        let ts = self.thread_mut(thread);
        ts.locals = tx.locals_snapshot;
        ts.pc = tx.start_pc;
        ts.tx_retries += 1;
        if ts.tx_retries > TX_RETRY_LIMIT {
            self.outcome = Some(Outcome::TxRetryLimit { thread });
        }
    }

    /// Wakes `c`'s first waiter, or every waiter when `all`: each goes
    /// on to reacquire the mutex it waited with.
    fn wake_waiters(&mut self, c: CondId, all: bool) {
        while let Some(w) = self.cond_mut(c).waiters.pop_front() {
            let mutex = match &self.threads[w.index()].status {
                ThreadStatus::WaitingCond { mutex, .. } => *mutex,
                other => unreachable!("cond waiter in status {other:?}"),
            };
            self.thread_mut(w).status = ThreadStatus::Reacquire {
                mutex,
                signalled: true,
            };
            if !all {
                break;
            }
        }
    }

    /// Transaction-aware shared read.
    fn shared_read(&mut self, thread: ThreadId, var: VarId) -> i64 {
        let global = self.vars[var.index()];
        if self.threads[thread.index()].tx.is_some() {
            let tx = self.thread_mut(thread).tx.as_mut().expect("checked above");
            tx.read(var, global)
        } else {
            global
        }
    }

    /// Transaction-aware shared write.
    fn shared_write(&mut self, thread: ThreadId, var: VarId, value: i64) -> bool {
        if self.threads[thread.index()].tx.is_some() {
            let tx = self.thread_mut(thread).tx.as_mut().expect("checked above");
            tx.write(var, value);
            false // buffered; event recorded at commit
        } else {
            self.set_var(var, value);
            true
        }
    }

    fn finish_wait(&mut self, thread: ThreadId, mutex: MutexId, signalled: bool) {
        // Re-acquire the mutex and resume past the Wait statement.
        let cond = match self.peek_op(thread.index()) {
            Some(Op::Wait { cond, .. }) => *cond,
            _ => unreachable!("Reacquire pc rests on the Wait op"),
        };
        let ts = self.thread_mut(thread);
        ts.held.push(mutex);
        ts.status = ThreadStatus::Ready;
        self.mutex_mut(mutex).owner = Some(thread);
        self.record_event(
            thread,
            EventKind::WaitEnd {
                cond,
                mutex,
                signalled,
            },
        );
        self.advance(thread);
    }

    fn exec_op(&mut self, thread: ThreadId, op: &Op) {
        match op {
            Op::Read { var, into } => {
                if self.tx_abort_if_invalid(thread) {
                    return;
                }
                let value = self.shared_read(thread, *var);
                self.thread_mut(thread).locals.set(*into, value);
                self.record_event(thread, EventKind::Read { var: *var, value });
                self.advance(thread);
            }
            Op::Write { var, value } => {
                let v = self.eval(thread, value);
                if self.shared_write(thread, *var, v) {
                    self.record_event(
                        thread,
                        EventKind::Write {
                            var: *var,
                            value: v,
                        },
                    );
                }
                self.advance(thread);
            }
            Op::Rmw {
                var,
                op: rmw,
                operand,
                into,
            } => {
                if self.tx_abort_if_invalid(thread) {
                    return;
                }
                let operand = self.eval(thread, operand);
                let old = self.shared_read(thread, *var);
                let new = match rmw {
                    RmwOp::FetchAdd => old.wrapping_add(operand),
                    RmwOp::FetchSub => old.wrapping_sub(operand),
                    RmwOp::Exchange => operand,
                    RmwOp::FetchMax => old.max(operand),
                    RmwOp::FetchMin => old.min(operand),
                };
                let direct = self.shared_write(thread, *var, new);
                if let Some(into) = into {
                    self.thread_mut(thread).locals.set(*into, old);
                }
                if direct {
                    self.record_event(
                        thread,
                        EventKind::Rmw {
                            var: *var,
                            old,
                            new,
                        },
                    );
                } else {
                    self.record_event(
                        thread,
                        EventKind::Read {
                            var: *var,
                            value: old,
                        },
                    );
                }
                self.advance(thread);
            }
            Op::Cas {
                var,
                expected,
                new,
                into,
                observed_into,
            } => {
                if self.tx_abort_if_invalid(thread) {
                    return;
                }
                let expected = self.eval(thread, expected);
                let new = self.eval(thread, new);
                let observed = self.shared_read(thread, *var);
                let success = observed == expected;
                if success {
                    self.shared_write(thread, *var, new);
                }
                let ts = self.thread_mut(thread);
                ts.locals.set(*into, i64::from(success));
                if let Some(oi) = observed_into {
                    ts.locals.set(*oi, observed);
                }
                self.record_event(
                    thread,
                    EventKind::Cas {
                        var: *var,
                        success,
                        observed,
                    },
                );
                self.advance(thread);
            }
            Op::Lock(m) => {
                debug_assert!(self.mutexes[m.index()].owner.is_none());
                self.thread_mut(thread).held.push(*m);
                self.mutex_mut(*m).owner = Some(thread);
                self.record_event(thread, EventKind::Lock(*m));
                self.advance(thread);
            }
            Op::Unlock(m) => {
                if self.mutexes[m.index()].owner != Some(thread) {
                    self.misuse(thread, ExecError::UnlockNotHeld { mutex: *m });
                    return;
                }
                self.mutex_mut(*m).owner = None;
                self.thread_mut(thread).held.remove(*m);
                self.record_event(thread, EventKind::Unlock(*m));
                self.advance(thread);
            }
            Op::TryLock { mutex, into } => {
                // A forced failure models a contender winning and releasing
                // the lock between the check and the acquisition — legal
                // for any try-lock.
                let success = self.mutexes[mutex.index()].owner.is_none()
                    && !self.fault_fires(FaultKind::TryLockFail, thread);
                if success {
                    self.thread_mut(thread).held.push(*mutex);
                    self.mutex_mut(*mutex).owner = Some(thread);
                }
                self.thread_mut(thread)
                    .locals
                    .set(*into, i64::from(success));
                self.record_event(
                    thread,
                    EventKind::TryLock {
                        mutex: *mutex,
                        success,
                    },
                );
                self.advance(thread);
            }
            Op::RwRead(rw) => {
                debug_assert!(self.rws[rw.index()].can_read(thread));
                self.rw_mut(*rw).readers.push(thread);
                self.record_event(thread, EventKind::RwRead(*rw));
                self.advance(thread);
            }
            Op::RwWrite(rw) => {
                debug_assert!(self.rws[rw.index()].can_write(thread));
                self.rw_mut(*rw).writer = Some(thread);
                self.record_event(thread, EventKind::RwWrite(*rw));
                self.advance(thread);
            }
            Op::RwUnlock(rw) => {
                let state = &self.rws[rw.index()];
                if state.writer == Some(thread) {
                    self.rw_mut(*rw).writer = None;
                } else if let Some(pos) = state.readers.iter().position(|&r| r == thread) {
                    self.rw_mut(*rw).readers.remove(pos);
                } else {
                    self.misuse(thread, ExecError::RwUnlockNotHeld { rw: *rw });
                    return;
                }
                self.record_event(thread, EventKind::RwUnlock(*rw));
                self.advance(thread);
            }
            Op::Wait { cond, mutex } => {
                if self.mutexes[mutex.index()].owner != Some(thread) {
                    self.misuse(thread, ExecError::WaitWithoutMutex { mutex: *mutex });
                    return;
                }
                // A spurious wakeup returns without a signal: the thread
                // goes straight to re-acquisition without ever joining the
                // waiters queue, so it consumes no signal, and its
                // wait-end synchronizes with no signaller.
                let spurious = self.fault_fires(FaultKind::SpuriousWakeup, thread);
                self.mutex_mut(*mutex).owner = None;
                let ts = self.thread_mut(thread);
                ts.held.remove(*mutex);
                if spurious {
                    ts.status = ThreadStatus::Reacquire {
                        mutex: *mutex,
                        signalled: false,
                    };
                } else {
                    ts.status = ThreadStatus::WaitingCond {
                        cond: *cond,
                        mutex: *mutex,
                    };
                    self.cond_mut(*cond).waiters.push_back(thread);
                }
                self.record_event(
                    thread,
                    EventKind::WaitBegin {
                        cond: *cond,
                        mutex: *mutex,
                    },
                );
                // pc stays on the Wait; finish_wait advances it.
            }
            Op::Signal(c) | Op::Broadcast(c) => {
                let broadcast = matches!(op, Op::Broadcast(_));
                self.wake_waiters(*c, broadcast);
                let kind = if broadcast {
                    EventKind::Broadcast(*c)
                } else {
                    EventKind::Signal(*c)
                };
                self.record_event(thread, kind);
                self.advance(thread);
            }
            Op::SemAcquire(s) => {
                debug_assert!(self.sems[s.index()].count > 0);
                self.sem_mut(*s).count -= 1;
                self.record_event(thread, EventKind::SemAcquire(*s));
                self.advance(thread);
            }
            Op::SemRelease(s) => {
                self.sem_mut(*s).count += 1;
                self.record_event(thread, EventKind::SemRelease(*s));
                self.advance(thread);
            }
            Op::Spawn(t) => {
                if self.threads[t.index()].status != ThreadStatus::NotStarted {
                    self.misuse(thread, ExecError::DoubleSpawn { target: *t });
                    return;
                }
                self.thread_mut(*t).status = ThreadStatus::Ready;
                self.record_event(thread, EventKind::Spawn(*t));
                self.record_event(*t, EventKind::ThreadStart);
                self.advance(thread);
                self.fast_forward(*t);
            }
            Op::Join(t) => {
                debug_assert_eq!(self.threads[t.index()].status, ThreadStatus::Finished);
                self.record_event(thread, EventKind::Join(*t));
                self.advance(thread);
            }
            Op::Assert { cond, msg } => {
                let v = self.eval(thread, cond);
                if v == 0 {
                    self.record_event(thread, EventKind::AssertFail(msg));
                    self.outcome = Some(Outcome::AssertFailed {
                        thread: Some(thread),
                        msg,
                    });
                    return;
                }
                self.advance(thread);
            }
            Op::Io { tag } => {
                self.io_journal.push((thread, tag));
                if self.threads[thread.index()].tx.is_some() {
                    let tx = self.thread_mut(thread).tx.as_mut().expect("checked above");
                    tx.io_performed = true;
                }
                self.record_event(thread, EventKind::Io(tag));
                self.advance(thread);
            }
            Op::TxBegin => {
                let ts = self.thread_mut(thread);
                ts.tx = Some(Box::new(TxState::new(ts.pc, &ts.locals)));
                self.record_event(thread, EventKind::TxBegin);
                self.advance(thread);
            }
            Op::TxRetry => {
                let tx = (self.thread_mut(thread).tx.take())
                    .expect("TxRetry only occurs inside a transaction");
                self.tx_rollback(thread, *tx);
            }
            Op::TxCommit => {
                // TL2 permits conservative aborts: a forced abort at commit
                // is indistinguishable from a lost version-lock race.
                let forced = self.fault_fires(FaultKind::TxAbort, thread);
                let tx = self
                    .thread_mut(thread)
                    .tx
                    .take()
                    .expect("build validation pairs TxCommit with TxBegin");
                if !forced && tx.validate(&self.vars) {
                    for (var, value) in &tx.write_set {
                        self.set_var(*var, *value);
                        self.record_event(
                            thread,
                            EventKind::Write {
                                var: *var,
                                value: *value,
                            },
                        );
                    }
                    self.thread_mut(thread).tx_retries = 0;
                    self.record_event(thread, EventKind::TxCommit);
                    self.advance(thread);
                } else {
                    self.tx_rollback(thread, *tx);
                }
            }
            Op::Yield => {
                self.record_event(thread, EventKind::Yield);
                self.advance(thread);
            }
        }
    }

    /// The outcome of an execution in which no thread can move: it
    /// finished cleanly (the final assertions decide) or deadlocked.
    fn quiesced(&self) -> Outcome {
        let mut blocked = Vec::new();
        for (i, ts) in self.threads.iter().enumerate() {
            let tid = ThreadId::from_index(i);
            match ts.status {
                ThreadStatus::Finished | ThreadStatus::NotStarted => {}
                ThreadStatus::WaitingCond { cond, .. } => {
                    blocked.push((tid, BlockedOn::Cond(cond)));
                }
                ThreadStatus::Reacquire { mutex, .. } => {
                    blocked.push((tid, BlockedOn::CondReacquire(mutex)));
                }
                ThreadStatus::Ready => {
                    let on = match self.peek_op(i) {
                        Some(Op::Lock(m)) => BlockedOn::Mutex(*m),
                        Some(Op::RwRead(rw)) => BlockedOn::RwRead(*rw),
                        Some(Op::RwWrite(rw)) => BlockedOn::RwWrite(*rw),
                        Some(Op::SemAcquire(s)) => BlockedOn::Semaphore(*s),
                        Some(Op::Join(t)) => BlockedOn::Join(*t),
                        other => unreachable!("Ready-but-disabled thread at {other:?}"),
                    };
                    blocked.push((tid, on));
                }
            }
        }
        if blocked.is_empty() {
            self.finalize()
        } else {
            Outcome::Deadlock { blocked }
        }
    }

    fn finalize(&self) -> Outcome {
        for (cond, msg) in self.program.final_asserts() {
            let v = cond.eval(&|_| 0, &|var| self.vars[var.index()]);
            if v == 0 {
                return Outcome::AssertFailed { thread: None, msg };
            }
        }
        Outcome::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::ProgramBuilder;
    use crate::stmt::Stmt;

    fn t(i: usize) -> ThreadId {
        ThreadId::from_index(i)
    }

    fn racy_counter() -> Program {
        let mut b = ProgramBuilder::new("racy");
        let v = b.var("counter", 0);
        for name in ["a", "b"] {
            b.thread(
                name,
                vec![
                    Stmt::read(v, "tmp"),
                    Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                ],
            );
        }
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "no lost update");
        b.build().unwrap()
    }

    #[test]
    fn sequential_run_is_correct() {
        let p = racy_counter();
        let mut e = Executor::new(&p);
        assert_eq!(e.run_sequential(100), Outcome::Ok);
        assert_eq!(e.vars(), &[2]);
        assert_eq!(e.steps(), 4);
    }

    #[test]
    fn interleaved_run_loses_update() {
        let p = racy_counter();
        let mut e = Executor::new(&p);
        // a reads, b reads, a writes, b writes -> lost update.
        let sched: Schedule = vec![t(0), t(1), t(0), t(1)].into();
        let out = e.replay(&sched, 100);
        assert!(matches!(out, Outcome::AssertFailed { thread: None, .. }));
        assert_eq!(e.vars(), &[1]);
    }

    #[test]
    fn exact_replay_reports_no_deviation() {
        let p = racy_counter();
        let mut e = Executor::new(&p);
        let sched: Schedule = vec![t(0), t(1), t(0), t(1)].into();
        let (out, dev) = e.replay_checked(&sched, 100);
        assert!(matches!(out, Outcome::AssertFailed { .. }));
        assert!(dev.is_exact(), "verbatim schedule must be exact: {dev:?}");
        assert_eq!(e.schedule_taken(), sched);
    }

    #[test]
    fn out_of_range_choices_are_counted_not_followed() {
        let p = racy_counter(); // two threads: index 99 cannot exist
        let mut e = Executor::new(&p);
        let sched: Schedule = vec![t(99), t(0), t(99), t(1), t(0), t(1)].into();
        let (out, dev) = e.replay_checked(&sched, 100);
        // The real entries drive the same lost-update interleaving.
        assert!(matches!(out, Outcome::AssertFailed { .. }));
        assert_eq!(dev.out_of_range, 2);
        assert_eq!(dev.not_enabled, 0);
        assert_eq!(dev.filled_in, 0);
        assert!(!dev.is_exact());
        // And the replay wrapper degrades by the exact same rule.
        let mut e2 = Executor::new(&p);
        assert_eq!(e2.replay(&sched, 100), out);
        assert_eq!(e2.schedule_taken(), e.schedule_taken());
    }

    #[test]
    fn finished_thread_choices_count_as_not_enabled() {
        let p = racy_counter();
        let mut e = Executor::new(&p);
        // t(0) finishes after two ops; the third t(0) entry is skipped
        // in favour of the next usable entry.
        let sched: Schedule = vec![t(0), t(0), t(0), t(1), t(1)].into();
        let (out, dev) = e.replay_checked(&sched, 100);
        assert_eq!(out, Outcome::Ok);
        assert_eq!(dev.not_enabled, 1);
        assert_eq!(dev.out_of_range, 0);
        assert_eq!(dev.filled_in, 0);
    }

    #[test]
    fn exhausted_schedule_counts_filled_in_steps() {
        let p = racy_counter();
        let mut e = Executor::new(&p);
        let sched: Schedule = vec![t(1)].into();
        let (out, dev) = e.replay_checked(&sched, 100);
        // t(1) reads, then lowest-id fill-in runs t(0) to completion
        // before t(1)'s write lands — the classic lost update.
        assert!(matches!(out, Outcome::AssertFailed { .. }));
        assert_eq!(dev.filled_in, 3);
        assert_eq!(dev.out_of_range, 0);
        assert_eq!(dev.not_enabled, 0);
    }

    #[test]
    fn step_rejects_disabled_thread() {
        let p = racy_counter();
        let mut e = Executor::new(&p);
        e.run_sequential(100);
        assert!(e.is_done());
        assert_eq!(
            e.step(t(0)).unwrap_err(),
            ExecError::ThreadNotEnabled { thread: t(0) }
        );
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        let mut b = ProgramBuilder::new("locked");
        let v = b.var("counter", 0);
        let m = b.mutex();
        for name in ["a", "b"] {
            b.thread(
                name,
                vec![
                    Stmt::lock(m),
                    Stmt::read(v, "tmp"),
                    Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                    Stmt::unlock(m),
                ],
            );
        }
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "no lost update");
        let p = b.build().unwrap();
        // Adversarial: always prefer the *other* thread after each step.
        let mut e = Executor::new(&p);
        let out = e.run_with(100, |enabled| *enabled.last().unwrap());
        assert_eq!(out, Outcome::Ok);
        assert_eq!(e.vars(), &[2]);
    }

    #[test]
    fn abba_deadlocks_under_the_right_schedule() {
        let mut b = ProgramBuilder::new("abba");
        let m1 = b.mutex();
        let m2 = b.mutex();
        b.thread(
            "a",
            vec![
                Stmt::lock(m1),
                Stmt::lock(m2),
                Stmt::unlock(m2),
                Stmt::unlock(m1),
            ],
        );
        b.thread(
            "b",
            vec![
                Stmt::lock(m2),
                Stmt::lock(m1),
                Stmt::unlock(m1),
                Stmt::unlock(m2),
            ],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        let out = e.replay(&vec![t(0), t(1)].into(), 100);
        match out {
            Outcome::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 2);
                assert_eq!(blocked[0], (t(0), BlockedOn::Mutex(m2)));
                assert_eq!(blocked[1], (t(1), BlockedOn::Mutex(m1)));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn self_relock_deadlocks_with_one_thread() {
        let mut b = ProgramBuilder::new("self");
        let m = b.mutex();
        b.thread("a", vec![Stmt::lock(m), Stmt::lock(m)]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        let out = e.run_sequential(100);
        assert!(matches!(out, Outcome::Deadlock { ref blocked } if blocked.len() == 1));
    }

    #[test]
    fn unlock_not_held_is_misuse() {
        let mut b = ProgramBuilder::new("bad");
        let m = b.mutex();
        b.thread("a", vec![Stmt::unlock(m)]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        let out = e.run_sequential(100);
        assert!(matches!(
            out,
            Outcome::Misuse {
                error: ExecError::UnlockNotHeld { .. },
                ..
            }
        ));
    }

    #[test]
    fn condvar_signal_wakes_waiter() {
        let mut b = ProgramBuilder::new("cv");
        let ready = b.var("ready", 0);
        let m = b.mutex();
        let c = b.cond();
        b.thread(
            "consumer",
            vec![
                Stmt::lock(m),
                Stmt::read(ready, "r"),
                Stmt::while_loop(
                    Expr::local("r").eq(Expr::lit(0)),
                    vec![Stmt::Wait { cond: c, mutex: m }, Stmt::read(ready, "r")],
                ),
                Stmt::unlock(m),
                Stmt::assert(Expr::local("r").eq(Expr::lit(1)), "saw ready"),
            ],
        );
        b.thread(
            "producer",
            vec![
                Stmt::lock(m),
                Stmt::write(ready, 1),
                Stmt::Signal(c),
                Stmt::unlock(m),
            ],
        );
        let p = b.build().unwrap();
        // Consumer first: must wait, then get signalled.
        let mut e = Executor::new(&p);
        let out = e.replay(&vec![t(0), t(0), t(0)].into(), 200);
        assert_eq!(out, Outcome::Ok);
        // Producer first: consumer sees ready==1 and never waits.
        let mut e = Executor::new(&p);
        let out = e.replay(&vec![t(1), t(1), t(1), t(1)].into(), 200);
        assert_eq!(out, Outcome::Ok);
    }

    #[test]
    fn missed_signal_deadlocks() {
        // Signal before wait is lost; waiter then blocks forever.
        let mut b = ProgramBuilder::new("missed");
        let m = b.mutex();
        let c = b.cond();
        b.thread(
            "waiter",
            vec![
                Stmt::lock(m),
                Stmt::Wait { cond: c, mutex: m },
                Stmt::unlock(m),
            ],
        );
        b.thread("signaller", vec![Stmt::Signal(c)]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        // Signaller runs first -> signal lost -> waiter deadlocks.
        let out = e.replay(&vec![t(1), t(0), t(0)].into(), 100);
        assert!(matches!(
            out,
            Outcome::Deadlock { ref blocked } if blocked == &vec![(t(0), BlockedOn::Cond(c))]
        ));
    }

    #[test]
    fn semaphore_blocks_and_wakes() {
        let mut b = ProgramBuilder::new("sem");
        let s = b.semaphore(0);
        let v = b.var("x", 0);
        b.thread(
            "acq",
            vec![
                Stmt::SemAcquire(s),
                Stmt::read(v, "x"),
                Stmt::assert(Expr::local("x").eq(Expr::lit(1)), "after release"),
            ],
        );
        b.thread("rel", vec![Stmt::write(v, 1), Stmt::SemRelease(s)]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        let out = e.run_with(100, |enabled| enabled[0]);
        assert_eq!(out, Outcome::Ok);
    }

    #[test]
    fn spawn_and_join() {
        let mut b = ProgramBuilder::new("spawn");
        let v = b.var("x", 0);
        let child = b.thread_deferred("child", vec![Stmt::write(v, 7)]);
        b.thread(
            "parent",
            vec![
                Stmt::Spawn(child),
                Stmt::Join(child),
                Stmt::read(v, "x"),
                Stmt::assert(Expr::local("x").eq(Expr::lit(7)), "join ordered"),
            ],
        );
        let p = b.build().unwrap();
        for _ in 0..3 {
            let mut e = Executor::new(&p);
            let out = e.run_with(100, |enabled| *enabled.last().unwrap());
            assert_eq!(out, Outcome::Ok);
        }
    }

    #[test]
    fn join_on_never_spawned_thread_deadlocks() {
        let mut b = ProgramBuilder::new("orphan-join");
        let v = b.var("x", 0);
        let child = b.thread_deferred("child", vec![Stmt::write(v, 1)]);
        b.thread("parent", vec![Stmt::Join(child)]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        let out = e.run_sequential(100);
        assert!(matches!(
            out,
            Outcome::Deadlock { ref blocked } if blocked == &vec![(t(1), BlockedOn::Join(child))]
        ));
    }

    #[test]
    fn unspawned_thread_without_joiner_is_ok() {
        let mut b = ProgramBuilder::new("orphan");
        let v = b.var("x", 0);
        let _child = b.thread_deferred("child", vec![Stmt::write(v, 1)]);
        b.thread("parent", vec![Stmt::write(v, 2)]);
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "only parent ran");
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert_eq!(e.run_sequential(100), Outcome::Ok);
    }

    #[test]
    fn rwlock_allows_concurrent_readers_blocks_writer() {
        let mut b = ProgramBuilder::new("rw");
        let rw = b.rwlock();
        let v = b.var("x", 0);
        b.thread(
            "r1",
            vec![Stmt::RwRead(rw), Stmt::read(v, "a"), Stmt::RwUnlock(rw)],
        );
        b.thread(
            "r2",
            vec![Stmt::RwRead(rw), Stmt::read(v, "a"), Stmt::RwUnlock(rw)],
        );
        b.thread(
            "w",
            vec![Stmt::RwWrite(rw), Stmt::write(v, 1), Stmt::RwUnlock(rw)],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        // Both readers enter; writer must not be enabled.
        e.step(t(0)).unwrap();
        e.step(t(1)).unwrap();
        assert!(!e.is_enabled(t(2)));
        // Finish readers; writer proceeds.
        let out = e.run_with(100, |en| en[0]);
        assert_eq!(out, Outcome::Ok);
    }

    #[test]
    fn rwlock_upgrade_self_deadlocks() {
        let mut b = ProgramBuilder::new("upgrade");
        let rw = b.rwlock();
        b.thread(
            "a",
            vec![Stmt::RwRead(rw), Stmt::RwWrite(rw), Stmt::RwUnlock(rw)],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert!(matches!(e.run_sequential(100), Outcome::Deadlock { .. }));
    }

    #[test]
    fn transaction_commits_serially() {
        let mut b = ProgramBuilder::new("tx");
        let v = b.var("x", 0);
        for name in ["a", "b"] {
            b.thread(
                name,
                vec![
                    Stmt::TxBegin,
                    Stmt::read(v, "tmp"),
                    Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                    Stmt::TxCommit,
                ],
            );
        }
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "tx increments serialize");
        let p = b.build().unwrap();
        // Even a fully interleaved schedule serializes: one tx aborts and retries.
        let mut e = Executor::new(&p);
        let out = e.run_with(200, |enabled| *enabled.last().unwrap());
        assert_eq!(out, Outcome::Ok);
        assert_eq!(e.vars(), &[2]);
    }

    #[test]
    fn transaction_abort_restores_locals() {
        let mut b = ProgramBuilder::new("tx-abort");
        let v = b.var("x", 0);
        let marker = b.var("m", 0);
        b.thread(
            "tx",
            vec![
                Stmt::local("acc", 100),
                Stmt::TxBegin,
                Stmt::read(v, "tmp"),
                Stmt::local("acc", Expr::local("acc") + Expr::lit(1)),
                Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                Stmt::TxCommit,
                Stmt::assert(
                    Expr::local("acc").eq(Expr::lit(101)),
                    "acc incremented exactly once",
                ),
            ],
        );
        b.thread("other", vec![Stmt::write(v, 50), Stmt::write(marker, 1)]);
        let p = b.build().unwrap();
        // Interleave so the tx reads, the other thread writes, then commit
        // fails and retries.
        let mut e = Executor::new(&p);
        let sched: Schedule = vec![t(0), t(0), t(1), t(1), t(0)].into();
        let out = e.replay(&sched, 200);
        assert_eq!(out, Outcome::Ok);
        assert_eq!(e.vars()[0], 51);
    }

    #[test]
    fn io_journal_records_order() {
        let mut b = ProgramBuilder::new("io");
        b.thread("a", vec![Stmt::io("write-log-a")]);
        b.thread("b", vec![Stmt::io("write-log-b")]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        e.replay(&vec![t(1), t(0)].into(), 100);
        assert_eq!(
            e.io_journal(),
            &[(t(1), "write-log-b"), (t(0), "write-log-a")]
        );
    }

    #[test]
    fn trace_records_events_with_clocks() {
        let p = racy_counter();
        let mut e = Executor::with_record(&p, RecordMode::Full);
        e.run_sequential(100);
        let trace = e.into_trace();
        assert_eq!(trace.n_threads, 2);
        // 2 ThreadStart + 4 accesses + 2 ThreadExit
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.accesses().count(), 4);
        let evs: Vec<_> = trace.accesses().collect();
        // Same-thread accesses are HB-ordered…
        assert!(evs[0].clock.le(&evs[1].clock));
        // …but cross-thread accesses without synchronization are
        // concurrent even under a sequential schedule.
        assert!(evs[0].clock.concurrent_with(&evs[3].clock));
    }

    #[test]
    fn concurrent_accesses_have_concurrent_clocks() {
        let p = racy_counter();
        let mut e = Executor::with_record(&p, RecordMode::Full);
        // Interleave reads: a-read, b-read are concurrent.
        e.replay(&vec![t(0), t(1), t(0), t(1)].into(), 100);
        let trace = e.into_trace();
        let reads: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Read { .. }))
            .collect();
        assert_eq!(reads.len(), 2);
        assert!(reads[0].clock.concurrent_with(&reads[1].clock));
    }

    #[test]
    fn lock_induces_happens_before() {
        let mut b = ProgramBuilder::new("hb");
        let v = b.var("x", 0);
        let m = b.mutex();
        for name in ["a", "b"] {
            b.thread(
                name,
                vec![
                    Stmt::lock(m),
                    Stmt::read(v, "tmp"),
                    Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                    Stmt::unlock(m),
                ],
            );
        }
        let p = b.build().unwrap();
        let mut e = Executor::with_record(&p, RecordMode::Full);
        e.run_sequential(100);
        let trace = e.into_trace();
        let accesses: Vec<_> = trace.accesses().collect();
        assert_eq!(accesses.len(), 4);
        for w in accesses.windows(2) {
            assert!(
                w[0].clock.le(&w[1].clock),
                "lock-ordered accesses must be HB-ordered"
            );
        }
    }

    #[test]
    fn step_limit_reported() {
        let mut b = ProgramBuilder::new("spin");
        let v = b.var("flag", 0);
        b.thread(
            "spinner",
            vec![
                Stmt::read(v, "f"),
                Stmt::while_loop(Expr::local("f").eq(Expr::lit(0)), vec![Stmt::read(v, "f")]),
            ],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert_eq!(e.run_sequential(50), Outcome::StepLimit);
    }

    /// `waiters` threads park on one condition variable, then one more
    /// thread broadcasts and wakes them all.
    fn broadcast_program(waiters: usize) -> Program {
        const NAMES: [&str; 8] = ["w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"];
        let mut b = ProgramBuilder::new("broadcast-many");
        let ready = b.var("ready", 0);
        let m = b.mutex();
        let c = b.cond();
        for name in &NAMES[..waiters] {
            b.thread(
                name,
                vec![
                    Stmt::lock(m),
                    Stmt::read(ready, "r"),
                    Stmt::while_loop(
                        Expr::local("r").eq(Expr::lit(0)),
                        vec![Stmt::Wait { cond: c, mutex: m }, Stmt::read(ready, "r")],
                    ),
                    Stmt::unlock(m),
                ],
            );
        }
        b.thread(
            "broadcaster",
            vec![
                Stmt::lock(m),
                Stmt::write(ready, 1),
                Stmt::Broadcast(c),
                Stmt::unlock(m),
            ],
        );
        b.build().unwrap()
    }

    /// Repairs the fold as a dedup claim does and asserts it agrees
    /// with the from-scratch key.
    fn check_flushed(e: &mut Executor) {
        let scratch = e.state_key();
        assert_eq!(e.flush_state_key(), scratch);
    }

    #[test]
    fn broadcast_overflowing_the_dirty_list_keeps_the_key_exact() {
        use crate::statehash::DIRTY;
        // The broadcast touches the condition variable, its own thread
        // and every waiter: more components than the dirty list holds.
        // Repairing after every step puts each step on the list alone.
        let waiters = DIRTY;
        let p = broadcast_program(waiters);
        let mut e = Executor::new(&p);
        check_flushed(&mut e);
        for w in 0..waiters {
            for _ in 0..3 {
                e.step(t(w)).unwrap(); // lock, read, wait
                check_flushed(&mut e);
            }
        }
        let broadcaster = t(waiters);
        for _ in 0..3 {
            e.step(broadcaster).unwrap(); // lock, write, broadcast
            check_flushed(&mut e);
        }
        let woken = (0..waiters)
            .filter(|&w| matches!(e.threads[w].status, ThreadStatus::Reacquire { .. }))
            .count();
        assert_eq!(woken, waiters, "the broadcast woke every waiter");
        while !e.is_done() {
            e.step(e.enabled()[0]).unwrap();
            check_flushed(&mut e);
        }
        assert_eq!(e.outcome(), Some(&Outcome::Ok));
    }

    /// Forks one case takes at most, across all its paths, so it
    /// stays small.
    const MAX_FORKS: usize = 8;

    /// The fold the dedup claim repairs equals the from-scratch key after
    /// every step of any generated program, with repairs at a seeded
    /// third of the steps, on both sides of forks (deep clones) taken
    /// dirty or clean. 256 cases, case `i` drawn from
    /// `SplitMix64::new(i)`.
    #[test]
    fn incremental_state_key_matches_recomputation() {
        use crate::fault::SplitMix64;
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        for case in 0..256 {
            let mut rng = SplitMix64::new(case);
            let input = (
                rng.range(0u64..2_000),
                rng.range(2usize..=3),
                rng.range(2usize..=5),
                rng.range(0u8..=100),
                rng.range(0u8..=40),
                rng.range(1usize..=6),
            );
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| state_key_repairs_hold(input))) {
                eprintln!("property failed at case {case} with input {input:?}");
                resume_unwind(panic);
            }
        }
    }

    /// One case of [`incremental_state_key_matches_recomputation`]:
    /// `(seed, threads, ops, locked_pct, tx_pct, fork_at)`.
    fn state_key_repairs_hold(
        (seed, threads, ops, locked_pct, tx_pct, fork_at): (u64, usize, usize, u8, u8, usize),
    ) {
        use crate::fault::splitmix64;
        use crate::generate::{generate, GenConfig};
        let config = GenConfig {
            threads,
            vars: 2,
            mutexes: 1,
            ops_per_thread: ops,
            locked_pct,
            tx_pct,
        };
        let program = generate(&config, seed);
        let mut draw = seed;
        let mut next = |len: usize| {
            draw = splitmix64(draw);
            (draw % len as u64) as usize
        };
        let mut forks = 0;
        let mut paths = vec![Executor::new(&program)];
        while let Some(mut e) = paths.pop() {
            // The parent walks to its end first, then each child from its
            // fork, as the explorer's frames do.
            let mut fork_on = e.steps() + fork_at;
            loop {
                // A repaired copy reads the slots it shares with `e` and
                // must leave them as they are.
                let scratch = e.state_key();
                assert_eq!(e.clone().flush_state_key(), scratch);
                let enabled = e.enabled();
                if enabled.is_empty() {
                    break;
                }
                if next(3) == 0 {
                    assert_eq!(e.flush_state_key(), scratch);
                }
                if e.steps() == fork_on && forks < MAX_FORKS {
                    forks += 1;
                    fork_on += fork_at;
                    paths.push(e.clone());
                }
                e.step(enabled[next(enabled.len())])
                    .expect("enabled thread steps");
            }
        }
    }

    #[test]
    fn clones_and_steps_leave_the_program_count_alone() {
        for record in [RecordMode::Off, RecordMode::Full] {
            let p = every_kind_program();
            let mut e = Executor::with_record(&p, record);
            let count = p.handle_count();
            let mut snapshots = Vec::new();
            while !e.is_done() {
                snapshots.push(e.clone());
                let choice = *e.enabled().last().unwrap();
                e.step(choice).unwrap();
                assert_eq!(p.handle_count(), count, "{record:?}");
            }
            assert_eq!(snapshots.len(), e.steps());
            drop(snapshots);
            assert_eq!(p.handle_count(), count, "{record:?}");
        }
    }

    /// Every sync-object kind, thread creation and a transaction.
    fn every_kind_program() -> Program {
        let mut b = ProgramBuilder::new("every-kind");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        let m = b.mutex();
        let c = b.cond();
        let rw = b.rwlock();
        let s = b.semaphore(0);
        let child = b.thread_deferred("child", vec![Stmt::write(x, 7), Stmt::Yield]);
        b.thread(
            "a",
            vec![
                Stmt::lock(m),
                Stmt::read(x, "t"),
                Stmt::write(x, Expr::local("t") + Expr::lit(1)),
                Stmt::Signal(c),
                Stmt::unlock(m),
                Stmt::SemRelease(s),
                Stmt::RwRead(rw),
                Stmt::RwUnlock(rw),
                Stmt::Spawn(child),
                Stmt::Join(child),
            ],
        );
        b.thread(
            "b",
            vec![
                Stmt::SemAcquire(s),
                Stmt::RwWrite(rw),
                Stmt::write(y, 1),
                Stmt::RwUnlock(rw),
                Stmt::TxBegin,
                Stmt::read(x, "u"),
                Stmt::write(y, Expr::local("u")),
                Stmt::TxCommit,
                Stmt::TryLock {
                    mutex: m,
                    into: "got",
                },
                Stmt::if_then(Expr::local("got").ne(Expr::lit(0)), vec![Stmt::unlock(m)]),
            ],
        );
        b.build().unwrap()
    }

    /// The `Stmt` kinds [`every_kind_program`] leaves out: a
    /// compare-and-swap, an exchange, a wait woken by a broadcast, an
    /// in-thread assert, I/O inside a transaction, a retry that can
    /// exhaust the retry limit, and a commit another thread's write can
    /// abort. Its runs end in every outcome but a misuse: a clean
    /// finish, a failed assert, a deadlock (the waiter waits holding
    /// `m2`) and the retry limit.
    fn rest_of_kinds_program() -> Program {
        let mut b = ProgramBuilder::new("rest-of-kinds");
        let x = b.var("x", 0);
        let ready = b.var("ready", 0);
        let m = b.mutex();
        let m2 = b.mutex();
        let c = b.cond();
        b.thread(
            "waiter",
            vec![
                Stmt::lock(m2),
                Stmt::lock(m),
                Stmt::read(ready, "r"),
                Stmt::while_loop(
                    Expr::local("r").eq(Expr::lit(0)),
                    vec![Stmt::Wait { cond: c, mutex: m }, Stmt::read(ready, "r")],
                ),
                Stmt::unlock(m),
                Stmt::unlock(m2),
                Stmt::assert(Expr::local("r").eq(Expr::lit(1)), "woken when ready"),
            ],
        );
        b.thread(
            "waker",
            vec![
                Stmt::cas(x, 0, 1, "won"),
                Stmt::lock(m),
                Stmt::lock(m2),
                Stmt::write(ready, 1),
                Stmt::Broadcast(c),
                Stmt::unlock(m2),
                Stmt::unlock(m),
                Stmt::exchange(x, 5, "old"),
                Stmt::assert(Expr::local("won").eq(Expr::lit(1)), "the CAS won"),
            ],
        );
        b.thread(
            "tx",
            vec![
                Stmt::TxBegin,
                Stmt::read(x, "v"),
                Stmt::io("log"),
                Stmt::if_then(Expr::local("v").eq(Expr::lit(5)), vec![Stmt::TxRetry]),
                Stmt::write(x, Expr::local("v") + Expr::lit(1)),
                Stmt::TxCommit,
            ],
        );
        b.build().unwrap()
    }

    /// Restoring a mark gives back exactly the marked state: after
    /// seeded steps, repairs and nested marks (restoring often, or only
    /// from terminal states, so that long runs end), every restore's digest,
    /// key, enabled set, schedule and logs equal those of a deep clone
    /// taken at the mark, and the restored executor then runs like the
    /// clone. Programs reach every `Stmt` kind ([`every_kind_program`],
    /// [`rest_of_kinds_program`]) or come from the generator, recorded
    /// or not. 256 cases, case `i` drawn from `SplitMix64::new(i)`.
    #[test]
    fn undo_restores_the_marked_state() {
        use crate::fault::SplitMix64;
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        for case in 0..256 {
            let mut rng = SplitMix64::new(case);
            let input = (
                rng.range(0u64..2_000),
                rng.range(0u8..4),
                rng.range(0u8..4) == 0,
            );
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| undo_restores(input))) {
                eprintln!("property failed at case {case} with input {input:?}");
                resume_unwind(panic);
            }
        }
    }

    /// Asserts `e` is in the state `at_mark` was cloned in.
    fn assert_restored(e: &Executor, at_mark: &Executor) {
        assert_eq!(e.digest(), at_mark.digest());
        assert_eq!(e.state_key(), at_mark.state_key());
        assert_eq!(e.enabled(), at_mark.enabled());
        assert_eq!(e.outcome(), at_mark.outcome());
        assert_eq!(e.schedule_taken(), at_mark.schedule_taken());
        assert_eq!(e.io_journal(), at_mark.io_journal());
        assert_eq!(e.events, at_mark.events);
        let (mut a, mut b) = (e.clone(), at_mark.clone());
        assert_eq!(a.flush_state_key(), b.flush_state_key());
        assert_eq!(a.run_sequential(500), b.run_sequential(500));
        assert_eq!(a.digest(), b.digest());
    }

    /// The program a property case picks: [`every_kind_program`] (0),
    /// [`rest_of_kinds_program`] (1) or a generated one from `seed`.
    fn picked_program(pick: u8, seed: u64) -> Program {
        use crate::generate::{generate, GenConfig};
        match pick {
            0 => every_kind_program(),
            1 => rest_of_kinds_program(),
            _ => generate(
                &GenConfig {
                    threads: 3,
                    vars: 2,
                    mutexes: 1,
                    ops_per_thread: 4,
                    locked_pct: 50,
                    tx_pct: 30,
                },
                seed,
            ),
        }
    }

    /// One case of [`undo_restores_the_marked_state`]:
    /// `(seed, program, recorded)`.
    fn undo_restores((seed, pick, recorded): (u64, u8, bool)) {
        use crate::fault::splitmix64;
        let program = picked_program(pick, seed);
        let record = if recorded {
            RecordMode::Full
        } else {
            RecordMode::Off
        };
        let mut draw = seed;
        let mut next = |len: usize| {
            draw = splitmix64(draw);
            (draw % len as u64) as usize
        };
        let mut e = Executor::with_record(&program, record);
        let restore_mid_run = next(2) == 0;
        // Live marks, oldest first, each with a deep clone of its state.
        let mut marks: Vec<(Mark, Executor)> = Vec::new();
        for _ in 0..600 {
            if next(3) == 0 && !e.is_done() {
                marks.push((e.mark(), e.clone()));
            }
            if next(3) == 0 {
                e.flush_state_key();
            }
            if !marks.is_empty() && (e.is_done() || (restore_mid_run && next(4) == 0)) {
                // Restoring a mark discards every mark above it.
                marks.truncate(next(marks.len()) + 1);
                let (mark, at_mark) = marks.last().expect("a live mark");
                e.undo_to(mark);
                assert_restored(&e, at_mark);
            }
            if e.is_done() {
                break;
            }
            let enabled = e.enabled();
            e.step(enabled[next(enabled.len())])
                .expect("enabled thread steps");
        }
        while let Some((mark, at_mark)) = marks.pop() {
            e.undo_to(&mark);
            assert_restored(&e, &at_mark);
        }
    }

    /// After every step, the enabled mask equals a recomputation from
    /// every thread's state, and a run that quiesced leaves no thread
    /// that can step. A thread-local step re-checks only its own thread;
    /// this checks it in release builds too, where the step's own
    /// assertion is off. Programs reach every `Stmt` kind
    /// ([`every_kind_program`], [`rest_of_kinds_program`]) or come from
    /// the generator, each plain or under `FaultPlan::new(seed)`. 256
    /// cases, case `i` drawn from `SplitMix64::new(i)`.
    #[test]
    fn incremental_enabled_mask_matches_recomputation() {
        use crate::fault::SplitMix64;
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        for case in 0..256 {
            let mut rng = SplitMix64::new(case);
            let input = (
                rng.range(0u64..2_000),
                rng.range(0u8..4),
                rng.range(0u8..2) == 0,
            );
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| enabled_mask_holds(input))) {
                eprintln!("property failed at case {case} with input {input:?}");
                resume_unwind(panic);
            }
        }
    }

    /// The threads that can step, from every thread's state, whether or
    /// not the run is done.
    fn steppable(e: &Executor) -> u64 {
        (0..e.threads.len())
            .filter(|&i| e.can_step(i))
            .fold(0, |mask, i| mask | 1 << i)
    }

    /// One case of [`incremental_enabled_mask_matches_recomputation`]:
    /// `(seed, program, faulted)`. A random walk of at most 2 000 steps.
    fn enabled_mask_holds((seed, pick, faulted): (u64, u8, bool)) {
        use crate::fault::splitmix64;
        let program = picked_program(pick, seed);
        let mut e = Executor::new(&program);
        if faulted {
            e.set_fault_plan(FaultPlan::new(seed));
        }
        let mut draw = seed;
        while e.steps() < 2_000 {
            let scratch = steppable(&e);
            match e.outcome() {
                None => assert_eq!(e.enabled_mask(), scratch, "at step {}", e.steps()),
                Some(outcome) => {
                    assert_eq!(e.enabled_mask(), 0, "{outcome:?}");
                    let quiesced = matches!(
                        outcome,
                        Outcome::Ok
                            | Outcome::Deadlock { .. }
                            | Outcome::AssertFailed { thread: None, .. }
                    );
                    assert!(
                        !quiesced || scratch == 0,
                        "{outcome:?} with {scratch:#b} able to step"
                    );
                    break;
                }
            }
            let enabled = e.enabled();
            draw = splitmix64(draw);
            e.step(enabled[(draw % enabled.len() as u64) as usize])
                .expect("enabled thread steps");
        }
    }

    #[test]
    fn recording_changes_no_state_outcome_or_schedule() {
        for p in [racy_counter(), broadcast_program(2), every_kind_program()] {
            for seed in 0..16u64 {
                let mut off = Executor::new(&p);
                let mut on = Executor::with_record(&p, RecordMode::Full);
                let mut pick = seed;
                while !off.is_done() {
                    assert_eq!(off.state_key(), on.state_key());
                    let enabled = off.enabled();
                    assert_eq!(enabled, on.enabled());
                    pick = pick
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let choice = enabled[(pick >> 33) as usize % enabled.len()];
                    assert_eq!(off.step(choice), on.step(choice));
                }
                assert_eq!(off.state_key(), on.state_key());
                assert_eq!(off.outcome(), on.outcome());
                assert_eq!(off.schedule_taken(), on.schedule_taken());
                assert!(!on.events.is_empty() && off.events.is_empty());
            }
        }
    }

    #[test]
    fn schedule_taken_is_replayable() {
        let p = racy_counter();
        let mut e1 = Executor::new(&p);
        e1.run_with(100, |enabled| *enabled.last().unwrap());
        let sched = e1.schedule_taken().clone();
        let mut e2 = Executor::new(&p);
        let out2 = e2.replay(&sched, 100);
        assert_eq!(Some(&out2), e1.outcome());
        assert_eq!(e1.vars(), e2.vars());
    }

    /// [`Executor::next_is_invisible`] for `thread`, checked against the
    /// footprint: invisible exactly when the next op's footprint is
    /// empty.
    fn invisible(e: &Executor, thread: ThreadId) -> bool {
        let by_footprint = e.next_footprint(thread).is_some_and(|fp| fp.is_empty());
        assert_eq!(e.next_is_invisible(thread), by_footprint, "{thread}");
        by_footprint
    }

    #[test]
    fn a_yield_is_invisible() {
        let mut b = ProgramBuilder::new("yield");
        let x = b.var("x", 0);
        b.thread("a", vec![Stmt::Yield, Stmt::write(x, 1)]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert!(invisible(&e, t(0)));
        e.step(t(0)).unwrap();
        assert!(!invisible(&e, t(0)), "a write is visible");
    }

    #[test]
    fn an_assert_is_invisible_while_it_holds() {
        let mut b = ProgramBuilder::new("assert");
        let x = b.var("x", 0);
        let holds = Expr::local("v").eq(Expr::lit(0));
        b.thread(
            "a",
            vec![Stmt::read(x, "v"), Stmt::assert(holds, "x was 0")],
        );
        b.thread("b", vec![Stmt::write(x, 1)]);
        let p = b.build().unwrap();
        // `a` reads 0: its assert passes and cannot abort.
        let mut e = Executor::new(&p);
        e.step(t(0)).unwrap();
        assert!(invisible(&e, t(0)));
        // `b` writes first: the assert fails, so it stays visible.
        let mut e = Executor::new(&p);
        e.step(t(1)).unwrap();
        e.step(t(0)).unwrap();
        assert!(!invisible(&e, t(0)));
    }

    #[test]
    fn a_commit_is_invisible_only_with_empty_sets() {
        let mut b = ProgramBuilder::new("commit");
        let x = b.var("x", 0);
        b.thread("empty", vec![Stmt::TxBegin, Stmt::TxCommit]);
        b.thread(
            "reads",
            vec![Stmt::TxBegin, Stmt::read(x, "v"), Stmt::TxCommit],
        );
        b.thread(
            "writes",
            vec![Stmt::TxBegin, Stmt::write(x, 1), Stmt::TxCommit],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert!(!invisible(&e, t(0)), "a begin is visible");
        for i in [0, 1, 1, 2, 2] {
            e.step(t(i)).unwrap();
        }
        assert!(invisible(&e, t(0)), "a commit of nothing");
        assert!(!invisible(&e, t(1)), "a commit validating x");
        assert!(!invisible(&e, t(2)), "a commit publishing x");
    }

    #[test]
    fn waiting_and_reacquiring_threads_are_visible() {
        let mut b = ProgramBuilder::new("wait");
        let m = b.mutex();
        let c = b.cond();
        let wait = Stmt::Wait { cond: c, mutex: m };
        b.thread("waiter", vec![Stmt::lock(m), wait, Stmt::unlock(m)]);
        b.thread(
            "signaller",
            vec![Stmt::lock(m), Stmt::Signal(c), Stmt::unlock(m)],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        e.step(t(0)).unwrap();
        e.step(t(0)).unwrap();
        let status = |e: &Executor| e.threads[0].status;
        assert!(matches!(status(&e), ThreadStatus::WaitingCond { .. }));
        assert!(!invisible(&e, t(0)), "parked on the condition");
        e.step(t(1)).unwrap();
        e.step(t(1)).unwrap();
        assert!(matches!(status(&e), ThreadStatus::Reacquire { .. }));
        assert!(!invisible(&e, t(0)), "reacquiring the mutex");
    }

    #[test]
    fn finished_and_unstarted_threads_are_not_invisible() {
        let mut b = ProgramBuilder::new("finished");
        let x = b.var("x", 0);
        let child = b.thread_deferred("child", vec![Stmt::Yield]);
        b.thread("a", vec![Stmt::Spawn(child)]);
        b.thread("b", vec![Stmt::write(x, 2)]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert!(!invisible(&e, child), "not started");
        e.step(t(2)).unwrap();
        assert_eq!(e.threads[2].status, ThreadStatus::Finished);
        assert!(!invisible(&e, t(2)), "finished");
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::ProgramBuilder;
    use crate::stmt::Stmt;

    fn t(i: usize) -> ThreadId {
        ThreadId::from_index(i)
    }

    #[test]
    fn fetch_max_and_min_semantics() {
        let mut b = ProgramBuilder::new("minmax");
        let v = b.var("x", 5);
        b.thread(
            "t",
            vec![
                Stmt::Rmw {
                    var: v,
                    op: RmwOp::FetchMax,
                    operand: Expr::lit(9),
                    into: Some("old1"),
                },
                Stmt::Rmw {
                    var: v,
                    op: RmwOp::FetchMin,
                    operand: Expr::lit(2),
                    into: Some("old2"),
                },
                Stmt::assert(Expr::local("old1").eq(Expr::lit(5)), "max returned old"),
                Stmt::assert(Expr::local("old2").eq(Expr::lit(9)), "min returned old"),
            ],
        );
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "min applied last");
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert_eq!(e.run_sequential(100), Outcome::Ok);
    }

    #[test]
    fn cas_failure_reports_observed_value() {
        let mut b = ProgramBuilder::new("cas-observe");
        let v = b.var("x", 7);
        b.thread(
            "t",
            vec![
                Stmt::Cas {
                    var: v,
                    expected: Expr::lit(3),
                    new: Expr::lit(9),
                    into: "ok",
                    observed_into: Some("seen"),
                },
                Stmt::assert(Expr::local("ok").eq(Expr::lit(0)), "cas failed"),
                Stmt::assert(Expr::local("seen").eq(Expr::lit(7)), "observed current"),
            ],
        );
        b.final_assert(Expr::shared(v).eq(Expr::lit(7)), "value untouched");
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert_eq!(e.run_sequential(100), Outcome::Ok);
    }

    #[test]
    fn broadcast_wakes_all_waiters() {
        let mut b = ProgramBuilder::new("broadcast");
        let ready = b.var("ready", 0);
        let done = b.var("done", 0);
        let m = b.mutex();
        let c = b.cond();
        for name in ["w1", "w2"] {
            b.thread(
                name,
                vec![
                    Stmt::lock(m),
                    Stmt::read(ready, "r"),
                    Stmt::while_loop(
                        Expr::local("r").eq(Expr::lit(0)),
                        vec![Stmt::Wait { cond: c, mutex: m }, Stmt::read(ready, "r")],
                    ),
                    Stmt::unlock(m),
                    Stmt::fetch_add(done, 1),
                ],
            );
        }
        b.thread(
            "broadcaster",
            vec![
                Stmt::lock(m),
                Stmt::write(ready, 1),
                Stmt::Broadcast(c),
                Stmt::unlock(m),
            ],
        );
        b.final_assert(Expr::shared(done).eq(Expr::lit(2)), "both waiters woke");
        let p = b.build().unwrap();
        // Force both waiters to actually park before the broadcast.
        let mut e = Executor::new(&p);
        let out = e.replay(&vec![t(0), t(0), t(1), t(1), t(2)].into(), 500);
        assert_eq!(out, Outcome::Ok);
    }

    #[test]
    fn trylock_failure_leaves_mutex_and_locals_consistent() {
        let mut b = ProgramBuilder::new("trylock");
        let m = b.mutex();
        let v = b.var("who", 0);
        b.thread(
            "holder",
            vec![
                Stmt::lock(m),
                Stmt::write(v, 1),
                Stmt::Yield,
                Stmt::unlock(m),
            ],
        );
        b.thread(
            "taker",
            vec![
                Stmt::TryLock {
                    mutex: m,
                    into: "got",
                },
                Stmt::if_then(
                    Expr::local("got").ne(Expr::lit(0)),
                    vec![Stmt::write(v, 2), Stmt::unlock(m)],
                ),
            ],
        );
        let p = b.build().unwrap();
        // holder locks; taker try_lock fails; holder finishes.
        let mut e = Executor::new(&p);
        let out = e.replay(&vec![t(0), t(1), t(0), t(0), t(0)].into(), 100);
        assert_eq!(out, Outcome::Ok);
        assert_eq!(e.vars(), &[1]);
    }

    #[test]
    fn wait_without_mutex_is_misuse() {
        let mut b = ProgramBuilder::new("bad-wait");
        let m = b.mutex();
        let c = b.cond();
        b.thread("t", vec![Stmt::Wait { cond: c, mutex: m }]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        let out = e.run_sequential(100);
        assert!(matches!(
            out,
            Outcome::Misuse {
                error: ExecError::WaitWithoutMutex { .. },
                ..
            }
        ));
    }

    #[test]
    fn rw_unlock_not_held_is_misuse() {
        let mut b = ProgramBuilder::new("bad-rw");
        let rw = b.rwlock();
        b.thread("t", vec![Stmt::RwUnlock(rw)]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        assert!(matches!(
            e.run_sequential(100),
            Outcome::Misuse {
                error: ExecError::RwUnlockNotHeld { .. },
                ..
            }
        ));
    }

    #[test]
    fn double_spawn_is_misuse() {
        let mut b = ProgramBuilder::new("double-spawn");
        let v = b.var("x", 0);
        let child = b.thread_deferred("child", vec![Stmt::write(v, 1)]);
        b.thread("parent", vec![Stmt::Spawn(child), Stmt::Spawn(child)]);
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        // Run the parent only: spawn, then spawn again.
        let out = e.replay(&vec![t(1), t(1)].into(), 100);
        assert!(matches!(
            out,
            Outcome::Misuse {
                error: ExecError::DoubleSpawn { .. },
                ..
            }
        ));
    }

    #[test]
    fn local_infinite_loop_exhausts_fuel() {
        let mut b = ProgramBuilder::new("spin-local");
        let v = b.var("x", 0);
        b.thread(
            "t",
            vec![
                Stmt::read(v, "stop"),
                // Pure-local infinite loop: no visible op inside.
                Stmt::while_loop(
                    Expr::lit(1),
                    vec![Stmt::local("i", Expr::local("i") + Expr::lit(1))],
                ),
            ],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        let out = e.run_sequential(100);
        assert!(matches!(
            out,
            Outcome::Misuse {
                error: ExecError::LocalFuelExhausted,
                ..
            }
        ));
    }

    #[test]
    fn tx_retry_limit_is_reported() {
        let mut b = ProgramBuilder::new("retry-forever");
        let v = b.var("never", 0);
        b.thread(
            "t",
            vec![
                Stmt::TxBegin,
                Stmt::read(v, "n"),
                Stmt::if_then(Expr::local("n").eq(Expr::lit(0)), vec![Stmt::TxRetry]),
                Stmt::TxCommit,
            ],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        let out = e.run_sequential(10_000);
        assert!(matches!(out, Outcome::TxRetryLimit { .. }), "{out}");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::ProgramBuilder;
    use crate::stmt::Stmt;

    fn t(i: usize) -> ThreadId {
        ThreadId::from_index(i)
    }

    fn racy_counter() -> Program {
        let mut b = ProgramBuilder::new("racy");
        let v = b.var("counter", 0);
        for name in ["a", "b"] {
            b.thread(
                name,
                vec![
                    Stmt::read(v, "tmp"),
                    Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                ],
            );
        }
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "no lost update");
        b.build().unwrap()
    }

    /// A plan firing only `kind`, always.
    fn only(kind: FaultKind) -> FaultPlan {
        let mut plan = FaultPlan {
            seed: 0,
            spurious_wakeup_pct: 0,
            trylock_fail_pct: 0,
            tx_abort_pct: 0,
            stall_pct: 0,
            stall_window: 1,
        };
        match kind {
            FaultKind::SpuriousWakeup => plan.spurious_wakeup_pct = 100,
            FaultKind::TryLockFail => plan.trylock_fail_pct = 100,
            FaultKind::TxAbort => plan.tx_abort_pct = 100,
            FaultKind::Stall => plan.stall_pct = 100,
        }
        plan
    }

    fn wait_program(predicate_loop: bool) -> Program {
        let mut b = ProgramBuilder::new(if predicate_loop { "cv-loop" } else { "cv-if" });
        let ready = b.var("ready", 0);
        let m = b.mutex();
        let c = b.cond();
        let mut waiter = vec![Stmt::lock(m), Stmt::read(ready, "r")];
        if predicate_loop {
            waiter.push(Stmt::while_loop(
                Expr::local("r").eq(Expr::lit(0)),
                vec![Stmt::Wait { cond: c, mutex: m }, Stmt::read(ready, "r")],
            ));
        } else {
            waiter.push(Stmt::if_then(
                Expr::local("r").eq(Expr::lit(0)),
                vec![Stmt::Wait { cond: c, mutex: m }, Stmt::read(ready, "r")],
            ));
        }
        waiter.push(Stmt::assert(
            Expr::local("r").eq(Expr::lit(1)),
            "predicate holds after wait",
        ));
        waiter.push(Stmt::unlock(m));
        b.thread("waiter", waiter);
        b.thread(
            "producer",
            vec![
                Stmt::lock(m),
                Stmt::write(ready, 1),
                Stmt::Signal(c),
                Stmt::unlock(m),
            ],
        );
        b.build().unwrap()
    }

    #[test]
    fn spurious_wakeup_breaks_if_guarded_wait() {
        let p = wait_program(false);
        let mut e = Executor::new(&p);
        e.set_fault_plan(only(FaultKind::SpuriousWakeup));
        // Waiter parks... spuriously wakes with ready still 0.
        let out = e.replay(&vec![t(0), t(0), t(0), t(0)].into(), 200);
        assert!(
            matches!(out, Outcome::AssertFailed { .. }),
            "if-guarded wait must fail under spurious wakeup, got {out}"
        );
    }

    #[test]
    fn spurious_wakeup_is_survived_by_predicate_loop() {
        let p = wait_program(true);
        let mut e = Executor::new(&p);
        e.set_fault_plan(only(FaultKind::SpuriousWakeup));
        // The waiter's spurious wakeup releases the mutex; the producer
        // slips in, sets the flag (its signal finds no parked waiter and
        // is lost), and the loop re-checks the predicate and exits.
        let out = e.replay(&vec![t(0), t(0), t(0), t(1), t(1), t(1), t(1)].into(), 500);
        assert_eq!(out, Outcome::Ok);
    }

    #[test]
    fn producer_first_is_ok_under_spurious_plan() {
        let p = wait_program(true);
        let mut e = Executor::new(&p);
        e.set_fault_plan(only(FaultKind::SpuriousWakeup));
        let out = e.replay(&vec![t(1), t(1), t(1), t(1)].into(), 500);
        assert_eq!(out, Outcome::Ok);
    }

    #[test]
    fn forced_trylock_failure_takes_the_failure_path() {
        let mut b = ProgramBuilder::new("trylock-chaos");
        let m = b.mutex();
        b.thread(
            "t",
            vec![
                Stmt::TryLock {
                    mutex: m,
                    into: "got",
                },
                Stmt::assert(
                    Expr::local("got").eq(Expr::lit(0)),
                    "trylock forced to fail",
                ),
            ],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        e.set_fault_plan(only(FaultKind::TryLockFail));
        assert_eq!(e.run_sequential(100), Outcome::Ok);
        // The mutex must remain free after a forced failure.
        let mut e2 = Executor::new(&p);
        e2.set_fault_plan(only(FaultKind::TryLockFail));
        e2.step(t(0)).unwrap();
        assert!(e2.mutexes[m.index()].owner.is_none());
    }

    #[test]
    fn forced_tx_abort_at_full_rate_exhausts_retries() {
        let mut b = ProgramBuilder::new("tx-chaos");
        let v = b.var("x", 0);
        b.thread(
            "t",
            vec![
                Stmt::TxBegin,
                Stmt::read(v, "tmp"),
                Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                Stmt::TxCommit,
            ],
        );
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        e.set_fault_plan(only(FaultKind::TxAbort));
        let out = e.run_sequential(10_000);
        assert!(matches!(out, Outcome::TxRetryLimit { .. }), "{out}");
    }

    #[test]
    fn moderate_tx_abort_rate_eventually_commits() {
        let mut b = ProgramBuilder::new("tx-moderate");
        let v = b.var("x", 0);
        b.thread(
            "t",
            vec![
                Stmt::TxBegin,
                Stmt::read(v, "tmp"),
                Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                Stmt::TxCommit,
            ],
        );
        b.final_assert(Expr::shared(v).eq(Expr::lit(1)), "committed once");
        let p = b.build().unwrap();
        let mut e = Executor::new(&p);
        e.set_fault_plan(FaultPlan::new(42));
        assert_eq!(e.run_sequential(10_000), Outcome::Ok);
    }

    #[test]
    fn stall_filter_never_empties_the_enabled_set() {
        let p = racy_counter();
        // 100% stall: every thread is always stalled, so the filter falls
        // back to the unfiltered set and the run still completes.
        let mut e = Executor::new(&p);
        e.set_fault_plan(only(FaultKind::Stall));
        while !e.is_done() {
            let enabled = e.enabled();
            assert!(!enabled.is_empty());
            e.step(enabled[0]).unwrap();
        }
    }

    #[test]
    fn fault_decisions_survive_cloning() {
        let p = racy_counter();
        let mut a = Executor::new(&p);
        a.set_fault_plan(FaultPlan::new(7));
        let mut b = a.clone();
        let out_a = a.run_with(100, |en| *en.last().unwrap());
        let out_b = b.run_with(100, |en| *en.last().unwrap());
        assert_eq!(out_a, out_b);
        assert_eq!(a.vars(), b.vars());
        assert_eq!(a.schedule_taken(), b.schedule_taken());
    }
}
