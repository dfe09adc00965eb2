//! The exploration walk.
//!
//! Every search in this crate — [`crate::Explorer`], and through it the
//! [`crate::BudgetedExplorer`] ladder and the service — is one
//! depth-first [`walk`] on the calling thread, generic over a
//! [`Strategy`] ([`Classic`]: sibling cursor, sleep set, preemption
//! bound; or [`DporSearch`]: source-set DPOR backtrack frames, which it
//! keeps itself). The walk keeps one executor for the whole search.
//! Each frame holds a [`Mark`] of its branch state; before each child
//! but the first, which starts where the frame was opened, the walk
//! restores the frame's mark ([`Executor::undo_to`]), and it runs the
//! edge in place with [`Strategy::edge`]. No executor is cloned,
//! moved or dropped. Everything is booked into one [`Ledger`] in
//! preorder. Every edge runs forward through one loop, [`forward`],
//! which takes the strategy's bookkeeping as a [`Book`] and asks the
//! executor whether the running thread's next op is invisible; a DPOR
//! edge also commits its steps to the race log before it returns.
//! Thread sets are `u64` masks throughout. [`Mode`] says how requested
//! limits resolve into effective reductions.

use lfm_obs::{
    eta_ms, Event, KnuthEstimator, Phase, PhaseProfiler, ProgressTracker, Stopwatch, Value,
};

use crate::dpor::{child_sleep, Dpor};
use crate::exec::{Executor, Mark};
use crate::explore::{ExploreLimits, ExploreReport, Explorer, Truncation};
use crate::footprint::Footprint;
use crate::fxhash::FxHashSet;
use crate::ids::{threads_in, ThreadId};
use crate::outcome::Outcome;

/// The effective reductions and bounds for a run, resolved from the
/// requested [`ExploreLimits`] and whether a fault plan is installed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mode {
    /// State deduplication by [`Executor::state_key`].
    pub dedup: bool,
    /// Sleep-set reduction (classic, or part of DPOR).
    pub sleep: bool,
    /// Source-set dynamic partial-order reduction with sleep sets.
    pub dpor: bool,
    /// Invisible-step fusion: run the chosen thread through consecutive
    /// invisible ops without creating branch points.
    pub fuse: bool,
    /// Step budget of one execution.
    pub max_steps: usize,
    /// Preemption bound, if any.
    pub bound: Option<u32>,
}

impl Mode {
    /// Resolves the limits. DPOR's backtracking argument assumes every
    /// schedule in a step's equivalence class behaves identically —
    /// step-indexed chaos decisions break that — and that no enabled
    /// child is pruned for non-commutativity reasons — the preemption
    /// bound does exactly that — so either silently disables it, the
    /// same contract sleep sets already have with chaos. DPOR implies
    /// sleep sets: source-DPOR (Abdulla et al. 2014) is defined with
    /// them, so `dpor` turns them on whatever `sleep_sets` says, and
    /// chaos turns both off. State dedup is unsound *under* DPOR: a
    /// state reached along a different prefix carries a different race
    /// log, and skipping its subtree would skip the backtrack points
    /// only that prefix discovers.
    ///
    /// Step fusion is likewise silently disabled under chaos: fault
    /// decisions are step-indexed, so inserting an invisible step at a
    /// different position changes which later ops draw which faults,
    /// breaking the commutation argument. Fusion *stays on* under a
    /// preemption bound — bounded search is already an approximation
    /// (it enumerates schedules, not classes), and fusing only forces
    /// free (non-preemptive) continuations of the running thread.
    pub fn resolve(limits: &ExploreLimits, chaos: bool) -> Mode {
        let dpor = limits.dpor && !chaos && limits.max_preemptions.is_none();
        Mode {
            dedup: limits.dedup_states && !dpor,
            sleep: (limits.sleep_sets && !chaos) || dpor,
            dpor,
            fuse: limits.fuse && !chaos,
            max_steps: limits.max_steps,
            bound: limits.max_preemptions,
        }
    }
}

/// A branch state's scheduling context: the enabled threads, plus what
/// the classic prune verdicts read. Thread sets are `u64` masks (bit
/// `i` for thread `i`), and scheduler order is thread order. A DPOR
/// head carries `enabled` and the child's sleep set; the [`Dpor`]
/// engine keeps the rest.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Head {
    enabled: u64,
    /// Sleep set: threads an explored sibling subtree covers. The walk
    /// adds each child it runs (no later verdict changes).
    sleep: u64,
    /// Preemptions spent on the path (counted only under a bound).
    preemptions: u32,
    /// The thread that took the last step into this state.
    last: Option<ThreadId>,
    /// Classic cursor: the children not yet picked or skipped, and the
    /// last child no prune verdict skips (fixed at open: the final
    /// survivor is one check).
    todo: u64,
    last_live: Option<ThreadId>,
}

/// Why the classic cursor skips a child without running it.
#[derive(Debug, Clone, Copy)]
enum Prune {
    Sleep,
    Preemption,
}

impl Head {
    fn of(exec: &Executor) -> Head {
        let (enabled, last) = (exec.enabled_mask(), exec.last_scheduled());
        Head {
            enabled,
            last,
            ..Head::default()
        }
    }

    /// Whether scheduling `t` switches away from a still-enabled thread.
    fn preempts(&self, t: ThreadId) -> bool {
        (self.last).is_some_and(|last| last != t && self.enabled & last.bit() != 0)
    }

    /// The classic prune verdict for child `t`: a pure function of the
    /// state the frame was opened with.
    #[inline]
    fn prune(&self, t: ThreadId, mode: Mode) -> Option<Prune> {
        if mode.sleep && self.sleep & t.bit() != 0 {
            Some(Prune::Sleep)
        } else if mode.bound.is_some_and(|b| self.preemptions >= b) && self.preempts(t) {
            Some(Prune::Preemption)
        } else {
            None
        }
    }
}

/// The threads of `mask` for which `keep` holds.
fn retain(mask: u64, mut keep: impl FnMut(ThreadId) -> bool) -> u64 {
    threads_in(mask)
        .filter(|&t| keep(t))
        .fold(0, |kept, t| kept | t.bit())
}

/// Where an edge ends.
#[derive(Debug)]
enum End {
    /// The execution finished (or hit the step budget): its outcome is
    /// the executor's.
    Terminal,
    /// A state with more than one enabled thread was reached.
    Branch(Head),
    /// Classic sleep sets proved the whole subtree redundant.
    Redundant,
}

/// One child edge, as it ran. The executor stays at the edge's end.
#[derive(Debug)]
pub(crate) struct Edge {
    /// Invisible steps fused into the edge.
    fused: u64,
    end: End,
}

/// `true` when two optional footprints are known to commute.
fn commutes(a: &Option<Footprint>, b: Option<Footprint>) -> bool {
    matches!((a, b), (Some(a), Some(b)) if a.independent(&b))
}

/// What a forward run books besides its steps: the one part of
/// [`forward`] a strategy supplies.
trait Book {
    /// Whether the run goes on from a state whose enabled threads are
    /// `enabled` (a mask); `false` ends the edge as redundant.
    fn awake(&mut self, _enabled: u64) -> bool {
        true
    }

    /// Books the forced step the sole enabled thread `t` is about to
    /// take from `exec`'s state.
    fn forced(&mut self, exec: &Executor, t: ThreadId);

    /// Books the invisible step `t` is about to take from `exec`'s
    /// state, fused into the edge.
    fn fused(&mut self, _exec: &Executor, _t: ThreadId) {}
}

/// Classic bookkeeping, on the child's sleep set (a mask): sleepers that
/// stop being enabled are dropped, a state whose every enabled thread is
/// asleep ends the edge as redundant, and a forced step wakes the
/// sleepers it conflicts with. A forced step reads no footprint once no
/// sleeper is left, and no sleeper wakes on a fused step (an empty
/// footprint conflicts with nothing). Without sleep sets the set stays
/// empty, and a non-terminal state always has an enabled thread.
impl Book for u64 {
    #[inline]
    fn awake(&mut self, enabled: u64) -> bool {
        if *self == 0 {
            return true;
        }
        *self &= enabled;
        enabled & !*self != 0
    }

    #[inline]
    fn forced(&mut self, exec: &Executor, t: ThreadId) {
        if *self != 0 {
            let fp = exec.next_footprint(t);
            *self = retain(*self, |s| commutes(&fp, exec.next_footprint(s)));
        }
    }
}

/// DPOR bookkeeping, on the edge's log of forced steps: every forced
/// *and fused* step's `(thread, footprint)`, captured before the step
/// that consumes the op (the race scan's exactness depends on it), which
/// [`DporSearch::edge`] commits to the race log and filters the child's
/// sleep set against. A fused step enters the log with its (empty)
/// invisible footprint, so it contributes a program-order clock edge and
/// no races: this is the one place a fused step's footprint is read.
impl Book for Vec<(ThreadId, Footprint)> {
    fn forced(&mut self, exec: &Executor, t: ThreadId) {
        let fp = exec.next_footprint(t).expect("an enabled thread has an op");
        self.push((t, fp));
    }

    fn fused(&mut self, exec: &Executor, t: ThreadId) {
        self.forced(exec, t);
    }
}

/// The forward run: steps `choice` on `child`, then runs forward while
/// there is no real scheduling choice, booking every forced and fused
/// step in `book` before taking it.
///
/// With `fuse` on, "no real scheduling choice" extends past sole-enabled
/// states: while the *last-stepped* thread's next op is invisible
/// ([`Executor::next_is_invisible`] — touches nothing, cannot abort), the
/// edge keeps stepping that thread instead of branching. An invisible op
/// is a global both-mover, so every interleaving that delays it reaches
/// the same states through an equivalent trace; executing it eagerly
/// prunes whole subtrees without losing a single outcome. Fused steps
/// are counted into `fused`. Deciding fusion builds no footprint.
///
/// The run reads the executor's enabled mask and builds no thread set;
/// a branch end hands the mask to the branch head, and a terminal end
/// leaves the outcome in the executor, the step budget's included.
fn forward(
    child: &mut Executor,
    choice: ThreadId,
    mode: Mode,
    book: &mut impl Book,
    fused: &mut u64,
) -> End {
    let mut cur = choice;
    while child.step_enabled(cur) {
        if child.stop_at_step_limit(mode.max_steps) {
            break;
        }
        debug_assert!(
            invisibility_agrees(child),
            "an op is invisible exactly when its footprint is empty"
        );
        let enabled = child.enabled_mask();
        if !book.awake(enabled) {
            return End::Redundant;
        }
        if enabled.is_power_of_two() {
            cur = ThreadId::from_index(enabled.trailing_zeros() as usize);
            book.forced(child, cur);
        } else if mode.fuse && child.next_is_invisible(cur) {
            // Invisible next op on the running thread: fuse it into
            // this edge. The op touches nothing and cannot block or
            // abort, so the thread is enabled and the step succeeds.
            *fused += 1;
            book.fused(child, cur);
        } else {
            let head = Head {
                enabled,
                ..Head::default()
            };
            return End::Branch(head);
        }
    }
    End::Terminal
}

/// Whether, for every thread of `exec`, [`Executor::next_is_invisible`]
/// says what the next op's footprint says: invisible exactly when it is
/// empty ([`Footprint::is_empty`]). Checked in debug builds at every
/// state a forward run reaches.
fn invisibility_agrees(exec: &Executor) -> bool {
    (0..exec.program().n_threads())
        .map(ThreadId::from_index)
        .all(|t| {
            let by_footprint = exec.next_footprint(t).is_some_and(|fp| fp.is_empty());
            exec.next_is_invisible(t) == by_footprint
        })
}

/// The truncation-reason priority every run reports with: a wall
/// deadline outranks the schedule budget, which outranks the
/// per-execution step budget, which outranks the preemption bound.
fn derive_truncation(deadline_hit: bool, report: &ExploreReport) -> Option<Truncation> {
    if deadline_hit {
        Some(Truncation::WallDeadline)
    } else if report.truncated {
        Some(Truncation::ScheduleBudget)
    } else if report.counts.step_limit > 0 {
        Some(Truncation::StepBudget)
    } else if report.stats.preemption_limited > 0 {
        Some(Truncation::PreemptionBound)
    } else {
        None
    }
}

/// How often (in completed schedules) an enabled `Sink` receives an
/// `explore`/`progress` event during long sweeps.
const PROGRESS_EVERY: u64 = 25_000;

/// How often (in completed schedules) a progress-tracking run reads the
/// wall clock to see whether a `progress_est` event is due.
const PROGRESS_CHECK_EVERY: u64 = 64;

/// The report ledger every run books into: the [`ExploreReport`], the
/// Knuth tree-size estimator, the budgets, progress tracking, and the
/// `explore` scope events (`start`, `progress`, `progress_est`,
/// `report`). Only the walk writes it, in preorder.
struct Ledger<'a> {
    explorer: &'a Explorer<'a>,
    report: ExploreReport,
    estimator: KnuthEstimator,
    progress: Option<ProgressTracker>,
    stopwatch: Stopwatch,
    deadline_hit: bool,
}

/// Appends `explorer`'s deadline and chaos seed, when set.
fn push_bounds(explorer: &Explorer<'_>, fields: &mut Vec<(&'static str, Value<'_>)>) {
    let deadline = explorer.limits.deadline.map(|d| d.as_millis() as u64);
    fields.extend(deadline.map(|ms| ("deadline_ms", Value::U64(ms))));
    let seed = explorer.fault.map(|plan| plan.seed);
    fields.extend(seed.map(|seed| ("chaos_seed", Value::U64(seed))));
}

/// Emits an `explore` scope event on `explorer`'s sink.
fn emit(explorer: &Explorer<'_>, name: &'static str, fields: &[(&'static str, Value<'_>)]) {
    let scope = "explore";
    explorer.sink.emit(&Event {
        scope,
        name,
        fields,
    });
}

impl<'a> Ledger<'a> {
    /// Starts the clock and emits `explore`/`start`.
    fn start(explorer: &'a Explorer<'a>, mode: Mode) -> Ledger<'a> {
        if explorer.sink.enabled() {
            let mut fields = vec![
                ("program", Value::Str(explorer.program.name())),
                ("threads", Value::U64(explorer.program.n_threads() as u64)),
                ("max_schedules", Value::U64(explorer.limits.max_schedules)),
                ("sleep_sets", Value::Bool(mode.sleep)),
                ("dedup_states", Value::Bool(mode.dedup)),
                ("fuse", Value::Bool(mode.fuse)),
            ];
            fields.extend(mode.dpor.then_some(("dpor", Value::Bool(true))));
            push_bounds(explorer, &mut fields);
            emit(explorer, "start", &fields);
        }
        Ledger {
            explorer,
            report: ExploreReport::default(),
            estimator: KnuthEstimator::new(),
            progress: explorer.progress_every.map(ProgressTracker::new),
            stopwatch: Stopwatch::start(),
            deadline_hit: false,
        }
    }

    /// The loop-top stop check: the wall deadline first, then the
    /// schedule budget. `true` means the walk must stop.
    #[inline]
    fn stop(&mut self) -> bool {
        let limits = &self.explorer.limits;
        if (limits.deadline).is_some_and(|d| self.stopwatch.elapsed() >= d) {
            self.deadline_hit = true;
            self.report.truncated = true;
        } else if self.report.schedules_run >= limits.max_schedules {
            self.report.truncated = true;
        }
        self.report.truncated
    }

    /// Ends a walk. One that spent its whole schedule budget counts as
    /// truncated even when its stack drained exactly at the budget:
    /// eagerly popped frames must not make it look complete. Stopping
    /// at the first failure keeps precedence.
    fn spent(&mut self) {
        let (limits, report) = (&self.explorer.limits, &mut self.report);
        if report.schedules_run >= limits.max_schedules
            && !(limits.stop_on_first_failure && report.first_failure.is_some())
        {
            report.truncated = true;
        }
    }

    /// Classifies one terminal, `depth` frames deep on a path whose
    /// branching degrees multiply to `path_degree`, building its schedule
    /// only for a new witness. `true` when the run stops at it.
    #[inline]
    fn leaf(&mut self, outcome: &Outcome, leaf: &Executor, path_degree: f64, depth: u64) -> bool {
        self.estimator.record_leaf(path_degree);
        let report = &mut self.report;
        report.schedules_run += 1;
        report.steps_total += leaf.steps() as u64;
        report.counts.add(outcome);
        if outcome.is_failure() && report.first_failure.is_none() {
            report.first_failure = Some((leaf.schedule_taken(), outcome.clone()));
        } else if outcome.is_ok() && report.first_ok.is_none() {
            report.first_ok = Some(leaf.schedule_taken());
        }
        let explorer = self.explorer;
        if explorer.sink.enabled() && self.report.schedules_run.is_multiple_of(PROGRESS_EVERY) {
            emit(explorer, "progress", &self.tally());
        }
        self.progress_tick(depth);
        explorer.limits.stop_on_first_failure && self.report.first_failure.is_some()
    }

    /// The fields every progress event starts with.
    fn tally(&self) -> [(&'static str, Value<'a>); 4] {
        let r = &self.report;
        [
            ("program", Value::Str(self.explorer.program.name())),
            ("schedules", Value::U64(r.schedules_run)),
            ("steps", Value::U64(r.steps_total)),
            ("failures", Value::U64(r.counts.failures())),
        ]
    }

    /// Emits a periodic `explore`/`progress_est` event when progress
    /// tracking is on and the configured interval has elapsed. The wall
    /// clock is read at most once per [`PROGRESS_CHECK_EVERY`]
    /// schedules, and only the wall-clock-derived fields can differ
    /// between two runs of the same search.
    fn progress_tick(&mut self, frontier_depth: u64) {
        let report = &self.report;
        let gate = report.schedules_run.is_multiple_of(PROGRESS_CHECK_EVERY);
        let Some(tracker) = self.progress.as_mut().filter(|_| gate) else {
            return;
        };
        let elapsed = self.stopwatch.elapsed();
        if !tracker.due(elapsed) {
            return;
        }
        let rate = tracker.sample(report.schedules_run, elapsed);
        if !self.explorer.sink.enabled() {
            return;
        }
        let est_total = self.estimator.estimate();
        let secs = elapsed.as_secs_f64();
        let states_per_sec = if secs > 0.0 {
            report.steps_total as f64 / secs
        } else {
            0.0
        };
        let mut fields = self.tally().to_vec();
        fields.extend([
            ("frontier_depth", Value::U64(frontier_depth)),
            ("max_depth", Value::U64(report.stats.max_depth)),
            ("est_total", Value::F64(est_total)),
            ("fraction", Value::F64(self.estimator.fraction_done())),
            ("schedules_per_sec", Value::F64(rate)),
            ("states_per_sec", Value::F64(states_per_sec)),
        ]);
        let eta = eta_ms(est_total - report.schedules_run as f64, rate);
        fields.extend(eta.map(|ms| ("eta_ms", Value::U64(ms))));
        emit(self.explorer, "progress_est", &fields);
    }

    /// Derives the truncation reason, stamps the wall time and the
    /// tree-size estimate, and emits the final `explore`/`report`.
    fn finish(mut self) -> ExploreReport {
        let report = &mut self.report;
        report.est_total_schedules = self.estimator.estimate();
        report.truncation = derive_truncation(self.deadline_hit, report);
        report.stats.wall = self.stopwatch.elapsed();
        let (explorer, report) = (self.explorer, self.report);
        if !explorer.sink.enabled() {
            return report;
        }
        let name = explorer.program.name();
        let truncation = (report.truncation).map_or_else(|| "none".to_owned(), |t| t.to_string());
        let (c, s) = (&report.counts, &report.stats);
        let mut fields = vec![
            ("program", Value::Str(name)),
            ("schedules", Value::U64(report.schedules_run)),
            ("steps", Value::U64(report.steps_total)),
            ("ok", Value::U64(c.ok)),
            ("assert_failed", Value::U64(c.assert_failed)),
            ("deadlock", Value::U64(c.deadlock)),
            ("step_limit", Value::U64(c.step_limit)),
            ("tx_retry_limit", Value::U64(c.tx_retry_limit)),
            ("misuse", Value::U64(c.misuse)),
            ("branch_points", Value::U64(s.branch_points)),
            ("snapshots", Value::U64(s.snapshots)),
            ("max_depth", Value::U64(s.max_depth)),
            ("sleep_pruned", Value::U64(report.sleep_pruned)),
            ("dpor_pruned", Value::U64(report.dpor_pruned)),
            ("states_deduped", Value::U64(report.states_deduped)),
            ("preemption_limited", Value::U64(s.preemption_limited)),
            ("truncation", Value::Str(&truncation)),
            ("schedules_per_sec", Value::F64(report.schedules_per_sec())),
            ("states_per_sec", Value::F64(report.states_per_sec())),
            ("fused_steps", Value::U64(s.fused_steps)),
            ("snapshots_elided", Value::U64(s.snapshots_elided)),
            (
                "est_total_schedules",
                Value::F64(report.est_total_schedules),
            ),
            ("wall_us", Value::U64(s.wall.as_micros() as u64)),
        ];
        push_bounds(explorer, &mut fields);
        emit(explorer, "report", &fields);
        report
    }
}

/// A child pick: the thread, and whether it is the frame's *final
/// survivor* — every later sibling is pruned, so the frame is done once
/// this child leaves and the walk pops it before the edge runs.
type Pick = Option<(ThreadId, bool)>;

/// A search strategy: which children of a branch state run, and what
/// running an edge to one of them means.
pub(crate) trait Strategy {
    /// Takes `choice` on `exec`, in place: on entry it is at the state
    /// `head` describes (the frame's mark), and the edge runs
    /// it [`forward`], timed as [`Phase::Step`] on `profile`. A branch
    /// end's head carries the child's sleep set.
    fn edge(
        &mut self,
        profile: &PhaseProfiler,
        head: &mut Head,
        exec: &mut Executor,
        choice: ThreadId,
    ) -> Edge;

    /// Opens the frame of a branch state; `false` when it is redundant.
    fn open(&mut self, head: &mut Head, report: &mut ExploreReport) -> bool;

    /// Picks the next child of the top frame and books the ones it
    /// skips; `None` when the frame is exhausted, which closes it.
    fn select(&mut self, head: &mut Head, report: &mut ExploreReport) -> Pick;
}

/// The classic search: a cursor over every enabled child, minus the
/// children the sleep set or the preemption bound prunes.
#[derive(Debug)]
pub(crate) struct Classic {
    pub mode: Mode,
}

impl Classic {
    fn book(&self, report: &mut ExploreReport, prune: Prune) {
        match prune {
            Prune::Sleep => report.sleep_pruned += 1,
            Prune::Preemption => report.stats.preemption_limited += 1,
        }
    }
}

impl Strategy for Classic {
    #[inline]
    fn edge(
        &mut self,
        profile: &PhaseProfiler,
        head: &mut Head,
        exec: &mut Executor,
        choice: ThreadId,
    ) -> Edge {
        let mode = self.mode;
        let preemptions =
            head.preemptions + u32::from(mode.bound.is_some() && head.preempts(choice));
        // Sleep propagation: a sleeping sibling stays asleep in the
        // child iff its pending op commutes with the chosen one, and
        // later siblings must not redo this choice's equivalence class.
        let mut sleep = 0;
        if mode.sleep {
            let fp = exec.next_footprint(choice);
            sleep = retain(head.sleep, |s| commutes(&fp, exec.next_footprint(s)));
            head.sleep |= choice.bit();
        }
        let mut fused = 0;
        let mut end = profile.time(Phase::Step, || {
            forward(exec, choice, mode, &mut sleep, &mut fused)
        });
        if let End::Branch(child) = &mut end {
            (child.sleep, child.preemptions) = (sleep, preemptions);
            child.last = exec.last_scheduled();
        }
        Edge { fused, end }
    }

    fn open(&mut self, head: &mut Head, _report: &mut ExploreReport) -> bool {
        head.todo = head.enabled;
        let live = |&t: &ThreadId| head.prune(t, self.mode).is_none();
        head.last_live = threads_in(head.enabled).filter(live).last();
        true
    }

    #[inline]
    fn select(&mut self, head: &mut Head, report: &mut ExploreReport) -> Pick {
        while let Some(t) = threads_in(head.todo).next() {
            head.todo &= !t.bit();
            if let Some(prune) = head.prune(t, self.mode) {
                self.book(report, prune);
                continue;
            }
            let last = Some(t) == head.last_live;
            if last {
                // Book the pruned tail now, in sibling order.
                for s in threads_in(head.todo) {
                    let prune = head.prune(s, self.mode).expect("the tail is pruned");
                    self.book(report, prune);
                }
                head.todo = 0;
            }
            return Some((t, last));
        }
        None
    }
}

/// Source-set DPOR with sleep sets ([`crate::dpor`]): a frame's
/// children come from its backtrack set, which race detection grows
/// while the walk is below it, so no child is a final survivor. The
/// strategy keeps its own books: each edge commits its steps to the
/// race log, and its branch end carries the child's sleep set.
#[derive(Debug)]
pub(crate) struct DporSearch {
    mode: Mode,
    dpor: Dpor,
    /// The edge's forced and fused steps, reused across edges.
    forced: Vec<(ThreadId, Footprint)>,
    /// The top frame's sleepers other than the choice, with their
    /// footprints at the frame's state, reused across edges.
    sleepers: Vec<(ThreadId, Footprint)>,
}

impl DporSearch {
    pub fn new(mode: Mode, n_threads: usize) -> DporSearch {
        DporSearch {
            mode,
            dpor: Dpor::new(n_threads),
            forced: Vec::new(),
            sleepers: Vec::new(),
        }
    }
}

impl Strategy for DporSearch {
    /// Runs the edge and commits it to the race log in execution order;
    /// the races it closes grow backtrack sets of the frames below. The
    /// choice's and the sleepers' footprints are read from `exec` before
    /// it steps: it is the state the top frame opened on, and a sleeper
    /// forced along the edge would otherwise show a later op. Ops a
    /// terminal cut off (blocked in a deadlock, or preempted by an
    /// abort) still race with the executed path, in thread order:
    /// without them an op that always deadlocks first on the explored
    /// order would never grow a backtrack set. At an abort each of them
    /// also races the aborting step, so the ops behind it get their
    /// turn too.
    fn edge(
        &mut self,
        profile: &PhaseProfiler,
        _head: &mut Head,
        exec: &mut Executor,
        choice: ThreadId,
    ) -> Edge {
        let fp = |t| exec.next_footprint(t).expect("an enabled thread has an op");
        let choice_fp = fp(choice);
        let sleepers = threads_in(self.dpor.sleeping() & !choice.bit());
        self.sleepers.clear();
        self.sleepers.extend(sleepers.map(|s| (s, fp(s))));
        self.forced.clear();
        let mut fused = 0;
        let mut end = profile.time(Phase::Step, || {
            forward(exec, choice, self.mode, &mut self.forced, &mut fused)
        });
        if let End::Branch(head) = &mut end {
            head.sleep = child_sleep(&self.sleepers, &choice_fp, &self.forced, head.enabled);
        }
        self.dpor.commit_step(choice, choice_fp, true);
        for (t, fp) in self.forced.drain(..) {
            self.dpor.commit_step(t, fp, false);
        }
        if let End::Terminal = end {
            let abort = exec.outcome().is_some_and(Outcome::is_abort);
            for t in (0..exec.program().n_threads()).map(ThreadId::from_index) {
                if let Some(fp) = exec.next_footprint(t) {
                    self.dpor.pending_race(t, &fp, abort);
                }
            }
        }
        Edge { fused, end }
    }

    fn open(&mut self, head: &mut Head, report: &mut ExploreReport) -> bool {
        if head.enabled & !head.sleep == 0 {
            // Every enabled thread is asleep: the subtree is covered by
            // explored siblings.
            report.sleep_pruned += 1;
            return false;
        }
        self.dpor.push_frame(head.enabled, head.sleep);
        true
    }

    fn select(&mut self, _head: &mut Head, report: &mut ExploreReport) -> Pick {
        let (skipped, choice) = self.dpor.select();
        report.sleep_pruned += skipped;
        let Some(choice) = choice else {
            report.dpor_pruned += self.dpor.pop_frame();
            return None;
        };
        Some((choice, false))
    }
}

/// One frame of the walk: a branch state on the current path, marked
/// on the walk's one executor.
struct Frame {
    mark: Mark,
    head: Head,
    /// Branch depth (root = 1): a classic frame leaves the stack with its
    /// final survivor, so the stack can be shorter than the path.
    depth: u64,
    /// Product of the full branching degrees along the path, this
    /// frame's own included: the Knuth sample of every terminal below,
    /// so the estimate keeps estimating the full space.
    path_degree: f64,
}

impl Frame {
    /// Opens a frame on `exec`'s current state.
    fn open(exec: &mut Executor, head: Head, depth: u64, path_degree: f64) -> Frame {
        Frame {
            mark: exec.mark(),
            head,
            depth,
            path_degree,
        }
    }
}

/// The depth-first walk over the scheduling choices of `explorer`'s
/// program, with `strategy` and the reductions `mode` resolves to,
/// committing edges in preorder: every order-sensitive decision
/// (budgets, dedup verdicts, classification, witnesses, counters)
/// happens here. It runs only the child it picks, when it picks it, on
/// the search's one executor: it restores the top frame's mark, timed
/// as [`Phase::Snapshot`], unless the executor still sits there (a
/// frame's first child), and runs the edge in place. Every edge counts
/// one snapshot either way. A final survivor pops its frame before its
/// edge runs; the frames below keep their marks, which the restore
/// trail still reaches. Every terminal goes to `on_terminal` before it
/// is classified. Stall faults only bias samplers; the systematic
/// search strips them ([`crate::FaultPlan::without_stalls`]).
pub(crate) fn walk<S: Strategy>(
    explorer: &Explorer<'_>,
    mode: Mode,
    mut strategy: S,
    mut on_terminal: impl FnMut(&Executor, &Outcome),
) -> ExploreReport {
    let profile = &*explorer.profile;
    let mut exec = Executor::new(explorer.program);
    if let Some(plan) = explorer.fault {
        exec.set_fault_plan(plan.without_stalls());
    }
    let mut ledger = Ledger::start(explorer, mode);
    if let Some(outcome) = exec.outcome().cloned() {
        // No scheduling choice at all: the tree is a single leaf with
        // an empty degree product.
        on_terminal(&exec, &outcome);
        ledger.leaf(&outcome, &exec, 1.0, 0);
        return ledger.finish();
    }
    // State dedup: claims a branch state, `false` when an earlier
    // prefix owns it. Repairs the state's fingerprint, the only place a
    // search hashes state.
    let mut seen = FxHashSet::default();
    let mut claim = |exec: &mut Executor| {
        let key = profile.time(Phase::Hash, || exec.flush_state_key());
        profile.time(Phase::Dedup, || seen.insert(key))
    };
    let mut head = Head::of(&exec);
    let report = &mut ledger.report;
    let opened = strategy.open(&mut head, report);
    debug_assert!(opened, "the root is never redundant");
    if mode.dedup {
        claim(&mut exec);
    }
    report.stats.branch_points = 1;
    report.stats.max_depth = 1;
    let path_degree = f64::from(head.enabled.count_ones());
    let mut frames = vec![Frame::open(&mut exec, head, 1, path_degree)];
    // Whether the executor sits at the top frame's mark: only between
    // opening a frame and running its first child.
    let mut at_top = true;

    while let Some(top) = frames.last_mut() {
        if ledger.stop() {
            break;
        }
        let report = &mut ledger.report;
        let Some((choice, last)) = strategy.select(&mut top.head, report) else {
            frames.pop();
            at_top = false;
            continue;
        };
        let (depth, path_degree) = (top.depth, top.path_degree);
        if !at_top {
            profile.time(Phase::Snapshot, || exec.undo_to(&top.mark));
        }
        let edge = strategy.edge(profile, &mut top.head, &mut exec, choice);
        at_top = false;
        if last {
            frames.pop();
        }
        report.stats.snapshots += 1;
        report.stats.fused_steps += edge.fused;
        report.stats.snapshots_elided += u64::from(last);
        match edge.end {
            End::Terminal => {
                let outcome = exec.outcome().expect("a terminal edge ends the run");
                on_terminal(&exec, outcome);
                if ledger.leaf(outcome, &exec, path_degree, frames.len() as u64) {
                    break;
                }
            }
            End::Branch(mut head) => {
                let fresh = !mode.dedup || claim(&mut exec);
                report.states_deduped += u64::from(!fresh);
                if fresh && strategy.open(&mut head, report) {
                    report.stats.branch_points += 1;
                    report.stats.max_depth = report.stats.max_depth.max(depth + 1);
                    let path_degree = path_degree * f64::from(head.enabled.count_ones());
                    frames.push(Frame::open(&mut exec, head, depth + 1, path_degree));
                    at_top = true;
                }
            }
            End::Redundant => report.sleep_pruned += 1,
        }
    }
    ledger.spent();
    ledger.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits(dpor: bool, chaos_like: Option<u32>) -> ExploreLimits {
        ExploreLimits {
            dpor,
            dedup_states: true,
            sleep_sets: true,
            max_preemptions: chaos_like,
            ..ExploreLimits::default()
        }
    }

    /// `limits` with sleep sets as requested.
    fn limits_sleep(dpor: bool, sleep_sets: bool, bound: Option<u32>) -> ExploreLimits {
        ExploreLimits {
            sleep_sets,
            ..limits(dpor, bound)
        }
    }

    #[test]
    fn dpor_disables_dedup_and_survives_sleep() {
        for sleep_sets in [false, true] {
            let m = Mode::resolve(&limits_sleep(true, sleep_sets, None), false);
            assert!(m.dpor && m.sleep && !m.dedup, "sleep_sets={sleep_sets}");
        }
    }

    #[test]
    fn dpor_implies_sleep_sets_except_under_chaos_or_a_bound() {
        let m = Mode::resolve(&limits_sleep(false, false, None), false);
        assert!(!m.dpor && !m.sleep);
        let m = Mode::resolve(&limits_sleep(true, false, None), true);
        assert!(!m.dpor && !m.sleep);
        let m = Mode::resolve(&limits_sleep(true, false, Some(2)), false);
        assert!(!m.dpor && !m.sleep);
    }

    #[test]
    fn chaos_and_preemption_bounds_disable_dpor() {
        let m = Mode::resolve(&limits(true, None), true);
        assert!(!m.dpor && !m.sleep && m.dedup);
        let m = Mode::resolve(&limits(true, Some(2)), false);
        assert!(!m.dpor && m.sleep && m.dedup);
    }

    #[test]
    fn classic_mode_passes_limits_through() {
        let m = Mode::resolve(&limits(false, None), false);
        assert!(!m.dpor && m.sleep && m.dedup);
    }

    #[test]
    fn frames_and_edges_carry_no_executor() {
        // The walk keeps one executor; a frame or an edge that held one
        // would copy the state the trail restores.
        use std::mem::size_of;
        let exec = size_of::<Executor>();
        let (frame, edge) = (size_of::<Frame>(), size_of::<Edge>());
        assert!(frame < exec, "Frame is {frame} bytes, Executor {exec}");
        assert!(edge < exec, "Edge is {edge} bytes, Executor {exec}");
    }

    #[test]
    fn truncation_priority_is_stable() {
        use Truncation::*;
        let derive = |deadline_hit, truncated, step_limit, preemption_limited| {
            let mut report = ExploreReport {
                truncated,
                ..ExploreReport::default()
            };
            report.counts.step_limit = step_limit;
            report.stats.preemption_limited = preemption_limited;
            derive_truncation(deadline_hit, &report)
        };
        assert_eq!(derive(true, true, 1, 1), Some(WallDeadline));
        assert_eq!(derive(false, true, 1, 1), Some(ScheduleBudget));
        assert_eq!(derive(false, false, 1, 1), Some(StepBudget));
        assert_eq!(derive(false, false, 0, 1), Some(PreemptionBound));
        assert_eq!(derive(false, false, 0, 0), None);
    }
}
