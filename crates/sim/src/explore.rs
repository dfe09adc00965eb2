//! Exhaustive (optionally context-bounded) interleaving exploration.
//!
//! [`Explorer`] runs the crate's depth-first walk (module `frontier`) over
//! scheduling choices, snapshotting the [`Executor`] at branch points.
//! Along stretches where only one thread is enabled it advances without
//! cloning. This is the engine behind the study's "small-scope"
//! manifestation experiments: the finding that 92% of non-deadlock bugs
//! deterministically manifest once a specific order among at most four
//! memory accesses is enforced means exhaustive search at these tiny
//! scopes is tractable.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use lfm_obs::{NoopSink, PhaseProfiler, Sink};

use crate::exec::{Executor, RecordMode};
use crate::fault::FaultPlan;
use crate::frontier::{walk, Classic, DporSearch, Mode};
use crate::outcome::Outcome;
use crate::program::Program;
use crate::schedule::Schedule;
use crate::trace::Trace;

/// Resource bounds for an exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Maximum visible operations per execution before classifying it
    /// [`Outcome::StepLimit`].
    pub max_steps: usize,
    /// Maximum number of complete schedules to run; exploration reports
    /// `truncated = true` when the bound is hit.
    pub max_schedules: u64,
    /// CHESS-style preemption bound: maximum number of *preemptive*
    /// context switches (switching away from a still-enabled thread).
    /// `None` explores all interleavings.
    pub max_preemptions: Option<u32>,
    /// Stop at the first failing outcome instead of exhausting the space.
    pub stop_on_first_failure: bool,
    /// Deduplicate branch states by [`Executor::state_key`]: branches
    /// whose state was already expanded are skipped. Collapses the
    /// retry-loop blowup of transactional programs; slightly approximate
    /// with preemption bounds (a state is only expanded with the first
    /// preemption budget it was reached at).
    pub dedup_states: bool,
    /// Sleep-set partial-order reduction (Godefroid): skip sibling
    /// choices whose operations commute with everything explored since —
    /// every Mazurkiewicz trace class is still visited once, so outcome
    /// *kinds* and reachable final states are preserved while the
    /// schedule count drops sharply. Intended for unbounded exploration;
    /// combining with a preemption bound may prune interleavings the
    /// bound alone would have kept. Always on under `dpor`, whatever
    /// this field says. Silently disabled when a fault plan is
    /// installed: fault decisions are step-indexed, which breaks the
    /// commutativity argument the reduction relies on.
    pub sleep_sets: bool,
    /// Source-set dynamic partial-order reduction with sleep sets
    /// (Flanagan & Godefroid 2005; Abdulla et al. 2014): explore one
    /// schedule, detect races between dependent concurrent steps on
    /// the executed path — including the ops a deadlock or an abort cut
    /// off — and add only the schedules that reverse them, skipping
    /// backtrack candidates an explored sibling already covers. Visits
    /// at least one representative of every Mazurkiewicz trace class,
    /// so outcome kinds and reachable final states match full
    /// enumeration while the schedule count drops by the degree of
    /// independence in the program. Implies `sleep_sets`: source-DPOR
    /// is defined with them. Silently disabled, sleep sets included,
    /// when a fault plan is installed or a preemption bound is set —
    /// both break the equivalence-class argument — and silently
    /// disables `dedup_states`, which is unsound under DPOR (a state
    /// reached along a different prefix carries a different race log).
    pub dpor: bool,
    /// Invisible-step fusion (on by default): when a branch state's
    /// running thread has an *invisible* next op (one that touches no
    /// shared variable, no sync object, and cannot produce an
    /// outcome-relevant effect), execute it immediately instead of
    /// creating a branch point. Invisible ops are global both-movers,
    /// so every outcome reachable by delaying them is reached through
    /// an equivalent trace; sound under plain DFS, dedup, sleep sets,
    /// and DPOR. Silently disabled when a fault plan is installed:
    /// fault decisions are step-indexed, which breaks the commutation
    /// argument (the same contract sleep sets and DPOR have).
    pub fuse: bool,
    /// Wall-clock budget for the whole exploration; the search stops with
    /// [`Truncation::WallDeadline`] once it elapses. `None` (the default)
    /// runs unbounded.
    pub deadline: Option<Duration>,
}

impl Default for ExploreLimits {
    fn default() -> ExploreLimits {
        ExploreLimits {
            max_steps: 5_000,
            max_schedules: 250_000,
            max_preemptions: None,
            stop_on_first_failure: false,
            dedup_states: false,
            sleep_sets: false,
            dpor: false,
            fuse: true,
            deadline: None,
        }
    }
}

/// Histogram of terminal outcomes over an exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Executions that finished with every assertion holding.
    pub ok: u64,
    /// Executions that failed an assertion.
    pub assert_failed: u64,
    /// Executions that deadlocked.
    pub deadlock: u64,
    /// Executions cut off by the step budget.
    pub step_limit: u64,
    /// Executions cut off by the transaction retry budget.
    pub tx_retry_limit: u64,
    /// Executions that crashed on a synchronization misuse.
    pub misuse: u64,
}

impl OutcomeCounts {
    /// Total executions classified.
    pub fn total(&self) -> u64 {
        self.ok
            + self.assert_failed
            + self.deadlock
            + self.step_limit
            + self.tx_retry_limit
            + self.misuse
    }

    /// Executions that manifested a bug (assert / deadlock / misuse).
    pub fn failures(&self) -> u64 {
        self.assert_failed + self.deadlock + self.misuse
    }

    pub(crate) fn add(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::AssertFailed { .. } => self.assert_failed += 1,
            Outcome::Deadlock { .. } => self.deadlock += 1,
            Outcome::StepLimit => self.step_limit += 1,
            Outcome::TxRetryLimit { .. } => self.tx_retry_limit += 1,
            Outcome::Misuse { .. } => self.misuse += 1,
        }
    }
}

impl fmt::Display for OutcomeCounts {
    /// One-line histogram, e.g.
    /// `ok=2 assert=1 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ok={} assert={} deadlock={} step-limit={} tx-retry={} misuse={} total={}",
            self.ok,
            self.assert_failed,
            self.deadlock,
            self.step_limit,
            self.tx_retry_limit,
            self.misuse,
            self.total()
        )
    }
}

/// Why an exploration stopped short of the full interleaving space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truncation {
    /// `max_schedules` was reached; whole subtrees remain unexplored.
    ScheduleBudget,
    /// At least one execution was cut by `max_steps`, so its suffix
    /// interleavings were never classified.
    StepBudget,
    /// The preemption bound pruned still-enabled scheduling choices.
    PreemptionBound,
    /// The wall-clock deadline elapsed mid-search.
    WallDeadline,
}

impl fmt::Display for Truncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Truncation::ScheduleBudget => "schedule budget",
            Truncation::StepBudget => "step budget",
            Truncation::PreemptionBound => "preemption bound",
            Truncation::WallDeadline => "wall deadline",
        })
    }
}

/// Operational metrics of one exploration, alongside the semantic results
/// in [`ExploreReport`]. Deterministic except for `wall`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// States with more than one enabled thread that were expanded
    /// (pushed on the DFS stack).
    pub branch_points: u64,
    /// Child edges run from a branch state: one per explored choice,
    /// each from a restore point, the branch state's mark restored on
    /// the search's one executor before the edge runs.
    pub snapshots: u64,
    /// Deepest DFS stack observed.
    pub max_depth: u64,
    /// Enabled choices skipped because the preemption budget was
    /// exhausted.
    pub preemption_limited: u64,
    /// A size model summed over all restore points: for each one, the
    /// bytes a deep copy of the branch state would copy minus what a
    /// copy-on-write snapshot of it would copy
    /// ([`Executor::snapshot_bytes_saved`](crate::Executor::snapshot_bytes_saved)),
    /// the representation searches used before the undo trail. A pure
    /// function of the states restored, so it is identical across runs
    /// of the same search and comparable across versions.
    pub snapshot_bytes_saved: u64,
    /// Invisible steps fused into their parent edge instead of opening
    /// a branch point (see [`ExploreLimits::fuse`]). Always 0 with
    /// fusion off or under chaos.
    pub fused_steps: u64,
    /// Branch-point children that were their frame's *final survivor*
    /// (every remaining sibling provably pruned by the sleep set or
    /// the preemption bound), so the walk popped the frame before the
    /// child's edge ran: its mark is never restored again.
    pub snapshots_elided: u64,
    /// Wall-clock time of the whole exploration.
    pub wall: Duration,
}

/// Result of [`Explorer::run`].
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Outcome histogram.
    pub counts: OutcomeCounts,
    /// Number of complete schedules executed.
    pub schedules_run: u64,
    /// Total visible steps across all executions.
    pub steps_total: u64,
    /// `true` when the schedule budget (`max_schedules`) or the wall
    /// deadline cut the search short; `truncation` says which.
    pub truncated: bool,
    /// A witness for the first failure found, with its outcome.
    pub first_failure: Option<(Schedule, Outcome)>,
    /// A witness for the first clean execution found.
    pub first_ok: Option<Schedule>,
    /// Branches skipped by state deduplication.
    pub states_deduped: u64,
    /// Sibling choices skipped by the sleep-set reduction.
    pub sleep_pruned: u64,
    /// Branch children DPOR proved redundant without running them:
    /// enabled threads that never entered their branch point's
    /// backtrack set before it was exhausted. Always 0 outside DPOR
    /// mode.
    pub dpor_pruned: u64,
    /// Why the search was cut short, when it was: the schedule budget,
    /// the per-execution step budget, or the preemption bound. `None`
    /// means the explored space was exhausted.
    pub truncation: Option<Truncation>,
    /// Knuth-style estimate of the total number of schedules in the
    /// exploration tree (mean over enumerated leaves of the product of
    /// branching degrees along each root-to-leaf path). A pure function
    /// of the tree — identical across repeated and observation-on/off
    /// runs; exact when the sweep completed un-truncated without
    /// pruning. 0.0 when no schedule ran.
    pub est_total_schedules: f64,
    /// Operational metrics (branch points, snapshots, depth, wall time).
    pub stats: ExploreStats,
}

impl ExploreReport {
    /// `true` when at least one interleaving manifested a bug.
    pub fn found_failure(&self) -> bool {
        self.first_failure.is_some()
    }

    /// Completed schedules per second of wall time (0.0 when the
    /// exploration was too fast to time).
    pub fn schedules_per_sec(&self) -> f64 {
        let secs = self.stats.wall.as_secs_f64();
        if secs > 0.0 {
            self.schedules_run as f64 / secs
        } else {
            0.0
        }
    }

    /// Visible steps executed per second of wall time (0.0 when the
    /// exploration was too fast to time) — the explorer's throughput
    /// currency, independent of how long individual schedules are.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.stats.wall.as_secs_f64();
        if secs > 0.0 {
            self.steps_total as f64 / secs
        } else {
            0.0
        }
    }

    /// `true` when the space was exhausted with no failure — i.e. the
    /// program is correct within the explored bounds.
    pub fn proved_ok(&self) -> bool {
        !self.truncated && self.counts.failures() == 0 && self.counts.step_limit == 0
    }

    /// The first field in which `self` and `other` differ, or `None`
    /// when they are identical. Every field is compared except
    /// `stats.wall`, which a clock writes, not the search;
    /// `est_total_schedules` is compared bit for bit.
    pub fn first_difference(&self, other: &ExploreReport) -> Option<&'static str> {
        let (a, b, s, t) = (self, other, &self.stats, &other.stats);
        [
            ("counts", a.counts == b.counts),
            ("schedules_run", a.schedules_run == b.schedules_run),
            ("steps_total", a.steps_total == b.steps_total),
            ("truncated", a.truncated == b.truncated),
            ("first_failure", a.first_failure == b.first_failure),
            ("first_ok", a.first_ok == b.first_ok),
            ("states_deduped", a.states_deduped == b.states_deduped),
            ("sleep_pruned", a.sleep_pruned == b.sleep_pruned),
            ("dpor_pruned", a.dpor_pruned == b.dpor_pruned),
            ("truncation", a.truncation == b.truncation),
            (
                "est_total_schedules",
                a.est_total_schedules.to_bits() == b.est_total_schedules.to_bits(),
            ),
            ("stats.branch_points", s.branch_points == t.branch_points),
            ("stats.snapshots", s.snapshots == t.snapshots),
            ("stats.max_depth", s.max_depth == t.max_depth),
            (
                "stats.preemption_limited",
                s.preemption_limited == t.preemption_limited,
            ),
            (
                "stats.snapshot_bytes_saved",
                s.snapshot_bytes_saved == t.snapshot_bytes_saved,
            ),
            ("stats.fused_steps", s.fused_steps == t.fused_steps),
            (
                "stats.snapshots_elided",
                s.snapshots_elided == t.snapshots_elided,
            ),
        ]
        .into_iter()
        .find_map(|(field, same)| (!same).then_some(field))
    }
}

/// The terminal facts a reduced search owes full enumeration: one
/// `(outcome display form, final-state key)` pair per distinct terminal,
/// as [`Explorer::run_outcome_set`] collects them.
///
/// `Ok` and `Deadlock` terminals are keyed by [`Executor::state_key`]:
/// every interleaving of a Mazurkiewicz trace class ends in the same
/// state, so a reduction that visits one representative per class
/// (sleep sets, DPOR, invisible-step fusion) still reaches every such
/// final state. Every other outcome is keyed 0. An abort (assert
/// failure, misuse, retry limit) cuts its class mid-way: the machine
/// state at the cut depends on how far independent ops in other
/// threads got, which is exactly the order a reduction prunes, so only
/// the outcome itself is owed.
///
/// Two sets are comparable only when both searches exhausted their
/// space (`truncation` is `None`): a truncated or step-capped search
/// is not closed under trace equivalence.
pub type OutcomeSet = BTreeSet<(String, u64)>;

/// Depth-first interleaving explorer over a [`Program`]: the search's
/// configuration, whose runs drive the walk of module `frontier` with
/// the strategy its limits resolve to.
#[derive(Debug)]
pub struct Explorer<'p> {
    pub(crate) program: &'p Program,
    pub(crate) limits: ExploreLimits,
    pub(crate) sink: Arc<dyn Sink>,
    pub(crate) fault: Option<FaultPlan>,
    pub(crate) profile: Arc<PhaseProfiler>,
    pub(crate) progress_every: Option<Duration>,
}

impl<'p> Explorer<'p> {
    /// Creates an explorer with default limits and the no-op sink.
    pub fn new(program: &'p Program) -> Explorer<'p> {
        Explorer {
            program,
            limits: ExploreLimits::default(),
            sink: Arc::new(NoopSink),
            fault: None,
            profile: Arc::new(PhaseProfiler::disabled()),
            progress_every: None,
        }
    }

    /// Streams `explore` scope events (start, periodic progress, final
    /// report) to `sink`. Observation only: exploration *results* are
    /// identical whatever the sink (enforced by
    /// `crates/sim/tests/determinism.rs`).
    pub fn with_sink(mut self, sink: Arc<dyn Sink>) -> Explorer<'p> {
        self.sink = sink;
        self
    }

    /// Replaces the resource bounds.
    pub fn limits(mut self, limits: ExploreLimits) -> Explorer<'p> {
        self.limits = limits;
        self
    }

    /// Sets a CHESS-style preemption bound.
    pub fn preemption_bound(mut self, bound: u32) -> Explorer<'p> {
        self.limits.max_preemptions = Some(bound);
        self
    }

    /// Stops at the first failure.
    pub fn stop_on_first_failure(mut self) -> Explorer<'p> {
        self.limits.stop_on_first_failure = true;
        self
    }

    /// Enables state deduplication (see [`ExploreLimits::dedup_states`]).
    pub fn dedup_states(mut self) -> Explorer<'p> {
        self.limits.dedup_states = true;
        self
    }

    /// Enables the sleep-set partial-order reduction
    /// (see [`ExploreLimits::sleep_sets`]).
    pub fn sleep_sets(mut self) -> Explorer<'p> {
        self.limits.sleep_sets = true;
        self
    }

    /// Enables source-set dynamic partial-order reduction with sleep
    /// sets (see [`ExploreLimits::dpor`]).
    pub fn dpor(mut self) -> Explorer<'p> {
        self.limits.dpor = true;
        self
    }

    /// Sets a wall-clock deadline for the exploration
    /// (see [`ExploreLimits::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Explorer<'p> {
        self.limits.deadline = Some(deadline);
        self
    }

    /// Disables invisible-step fusion (see [`ExploreLimits::fuse`]):
    /// every state with ≥2 enabled threads becomes a branch point,
    /// as before fusion existed. The escape hatch behind `--no-fuse`
    /// and the baseline side of the `fuse_equivalence` differential
    /// suite.
    pub fn no_fuse(mut self) -> Explorer<'p> {
        self.limits.fuse = false;
        self
    }

    /// Attributes hot-path wall time to phases (snapshot, step, hash,
    /// dedup) on `profiler`. Write-only observation: the profiler is
    /// never read during the run, so reports stay bit-identical with
    /// profiling on, off, or sampling at any rate (the determinism
    /// suite pins this). Pass [`PhaseProfiler::sampling`] to enable.
    pub fn profile(mut self, profiler: Arc<PhaseProfiler>) -> Explorer<'p> {
        self.profile = profiler;
        self
    }

    /// Emits periodic `explore`/`progress_est` events (frontier depth,
    /// estimated fraction explored, throughput trend, ETA) roughly
    /// every `every` of wall time. The wall clock is consulted only on
    /// a schedule-counter gate, and everything time-dependent lives in
    /// the events — never in the report.
    pub fn progress_every(mut self, every: Duration) -> Explorer<'p> {
        self.progress_every = Some(every);
        self
    }

    /// Explores under a deterministic [`FaultPlan`]: spurious wakeups,
    /// forced try-lock failures, forced transaction aborts, and bounded
    /// stalls are injected into every execution. Identical plans yield
    /// bit-identical reports: fault decisions are pure
    /// per-(seed, step, thread) functions. Stall faults are stripped
    /// for the systematic search, and the sleep-set reduction is
    /// disabled (fault decisions are step-indexed, so sibling
    /// operations no longer commute).
    pub fn chaos(mut self, plan: FaultPlan) -> Explorer<'p> {
        self.fault = Some(plan);
        self
    }

    /// Runs the exploration.
    pub fn run(&self) -> ExploreReport {
        self.run_with_callback(|_, _| {})
    }

    /// Runs the exploration, invoking `on_terminal` with the executor and
    /// outcome of every terminal state (before it is discarded). The
    /// executor records no events: without a fault plan, [`trace_of`]
    /// its [`schedule_taken`](Executor::schedule_taken) with the same
    /// `max_steps` gives the terminal's recorded run.
    pub fn run_with_callback(&self, on_terminal: impl FnMut(&Executor, &Outcome)) -> ExploreReport {
        let mode = Mode::resolve(&self.limits, self.fault.is_some());
        if mode.dpor {
            let dpor = DporSearch::new(mode, self.program.n_threads());
            walk(self, mode, dpor, on_terminal)
        } else {
            walk(self, mode, Classic { mode }, on_terminal)
        }
    }

    /// Runs the exploration and collects the [`OutcomeSet`] of its
    /// terminals: the oracle every reduction is checked against.
    pub fn run_outcome_set(&self) -> (ExploreReport, OutcomeSet) {
        let mut set = OutcomeSet::new();
        let report = self.run_with_callback(|exec, outcome| {
            let key = match outcome {
                Outcome::Ok | Outcome::Deadlock { .. } => exec.state_key(),
                _ => 0,
            };
            set.insert((outcome.to_string(), key));
        });
        (report, set)
    }
}

/// Re-executes one schedule with full recording and returns its trace.
/// A search records nothing: the events of a terminal it reached are
/// the trace of its schedule, replayed with the search's `max_steps`.
pub fn trace_of(program: &Program, schedule: &Schedule, max_steps: usize) -> (Trace, Outcome) {
    let mut exec = Executor::with_record(program, RecordMode::Full);
    let outcome = exec.replay(schedule, max_steps);
    (exec.into_trace(), outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ids::VarId;
    use crate::program::ProgramBuilder;
    use crate::stmt::Stmt;

    /// `threads` threads each doing `rounds` racy read-increment-writes
    /// on one counter, plus `bystander` increments of an unrelated
    /// variable on a thread of its own (steps DPOR can prune).
    fn racy_counter(threads: usize, rounds: usize, bystander: usize) -> Program {
        let mut b = ProgramBuilder::new("racy-counter");
        let (x, y) = (b.var("x", 0), b.var("y", 0));
        let names = ["t0", "t1", "t2", "t3"];
        let increments = |v: VarId, n: usize| {
            (0..n)
                .flat_map(|_| {
                    [
                        Stmt::read(v, "tmp"),
                        Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                    ]
                })
                .collect::<Vec<_>>()
        };
        for name in &names[..threads] {
            b.thread(name, increments(x, rounds));
        }
        if bystander > 0 {
            b.thread("bystander", increments(y, bystander));
        }
        let all = (threads * rounds) as i64;
        b.final_assert(Expr::shared(x).eq(Expr::lit(all)), "no lost update");
        b.build().expect("valid program")
    }

    #[test]
    fn zero_schedule_budget_runs_nothing() {
        let program = racy_counter(2, 1, 0);
        let report = Explorer::new(&program)
            .limits(ExploreLimits {
                max_schedules: 0,
                ..ExploreLimits::default()
            })
            .run();
        assert!(report.truncated);
        assert_eq!(report.schedules_run, 0);
        assert_eq!(report.truncation, Some(Truncation::ScheduleBudget));
    }

    #[test]
    fn wall_deadline_stops_a_running_search_with_its_counts_booked() {
        // Far too large to exhaust in 5ms: the walk stops at a loop-top
        // check, and everything it booked before is in the report.
        let program = racy_counter(3, 6, 0);
        for dpor in [false, true] {
            let mut explorer = Explorer::new(&program).deadline(Duration::from_millis(5));
            if dpor {
                explorer = explorer.dpor();
            }
            let report = explorer.run();
            assert_eq!(
                report.truncation,
                Some(Truncation::WallDeadline),
                "dpor={dpor}"
            );
            assert_eq!(report.counts.total(), report.schedules_run, "dpor={dpor}");
        }
    }

    #[test]
    fn single_thread_program_runs_one_schedule() {
        let report = Explorer::new(&racy_counter(1, 1, 0)).run();
        assert_eq!(report.schedules_run, 1);
        assert!(report.proved_ok());
    }

    #[test]
    fn dpor_prunes_but_finds_both_outcomes() {
        let program = racy_counter(2, 1, 2);
        let full = Explorer::new(&program).run();
        let dpor = Explorer::new(&program).dpor().run();
        assert!(
            dpor.schedules_run * 2 <= full.schedules_run,
            "DPOR must prune at least 2x: {} vs {}",
            dpor.schedules_run,
            full.schedules_run
        );
        assert!(dpor.dpor_pruned > 0);
        // The outcome *kinds* survive the reduction.
        assert!(dpor.counts.ok > 0 && dpor.counts.assert_failed > 0);
        assert!(full.counts.ok > 0 && full.counts.assert_failed > 0);
        // Stopping at the first failure stops DPOR there too.
        let first = Explorer::new(&program).dpor().stop_on_first_failure().run();
        assert!(first.found_failure());
        assert!(first.schedules_run <= dpor.schedules_run);
        assert_eq!(first.counts.failures(), 1);
    }

    #[test]
    fn first_difference_names_the_field_and_ignores_wall() {
        let program = racy_counter(2, 1, 0);
        let a = Explorer::new(&program).run();
        let mut b = a.clone();
        b.stats.wall += Duration::from_secs(1);
        assert_eq!(a.first_difference(&b), None);
        b.stats.snapshots_elided += 1;
        assert_eq!(a.first_difference(&b), Some("stats.snapshots_elided"));
        b.schedules_run += 1;
        assert_eq!(a.first_difference(&b), Some("schedules_run"));
    }

    #[test]
    fn outcome_set_keys_each_distinct_ok_state() {
        let mut b = ProgramBuilder::new("last-writer");
        let x = b.var("x", 0);
        b.thread("t0", vec![Stmt::write(x, 1)]);
        b.thread("t1", vec![Stmt::write(x, 2)]);
        let program = b.build().expect("valid program");
        let (_, set) = Explorer::new(&program).run_outcome_set();
        // Two entries of one kind: the final states x = 1 and x = 2
        // were keyed apart.
        let kinds: Vec<&str> = set.iter().map(|(kind, _)| kind.as_str()).collect();
        assert_eq!(kinds, ["ok", "ok"], "{set:?}");
    }

    #[test]
    fn outcome_set_keys_an_abort_by_its_display_alone() {
        // t0's assert always fails; t1's write lands before or after
        // the cut, so the machine state at the abort varies.
        let mut b = ProgramBuilder::new("abort-anywhere");
        let (x, y) = (b.var("x", 0), b.var("y", 0));
        b.thread(
            "t0",
            vec![
                Stmt::read(x, "r"),
                Stmt::assert(Expr::local("r").eq(Expr::lit(1)), "r == 1"),
            ],
        );
        b.thread("t1", vec![Stmt::write(y, 1)]);
        let program = b.build().expect("valid program");
        let explorer = Explorer::new(&program);
        let mut cut_states = Vec::new();
        explorer.run_with_callback(|exec, _| cut_states.push(exec.state_key()));
        cut_states.sort_unstable();
        cut_states.dedup();
        assert!(cut_states.len() > 1, "the abort must cut different states");
        let (_, set) = explorer.run_outcome_set();
        let expected: OutcomeSet = [("assert failed in t0: r == 1".to_string(), 0)].into();
        assert_eq!(set, expected);
    }

    #[test]
    fn outcome_set_run_reports_what_run_reports() {
        let program = racy_counter(2, 1, 1);
        for dpor in [false, true] {
            let explorer = Explorer::new(&program).limits(ExploreLimits {
                dpor,
                ..ExploreLimits::default()
            });
            let (report, set) = explorer.run_outcome_set();
            assert_eq!(
                explorer.run().first_difference(&report),
                None,
                "dpor={dpor}"
            );
            assert!(!set.is_empty());
        }
    }

    fn sample_counts() -> OutcomeCounts {
        OutcomeCounts {
            ok: 5,
            assert_failed: 4,
            deadlock: 3,
            step_limit: 2,
            tx_retry_limit: 1,
            misuse: 6,
        }
    }

    #[test]
    fn total_is_consistent_with_every_field() {
        let c = sample_counts();
        assert_eq!(c.total(), 5 + 4 + 3 + 2 + 1 + 6);
        assert_eq!(c.failures(), 4 + 3 + 6);
        // `add` must keep the invariant for every outcome kind.
        let mut c = OutcomeCounts::default();
        for (i, outcome) in [
            Outcome::Ok,
            Outcome::StepLimit,
            Outcome::AssertFailed {
                thread: None,
                msg: "m",
            },
        ]
        .iter()
        .enumerate()
        {
            c.add(outcome);
            assert_eq!(c.total(), i as u64 + 1);
        }
    }

    #[test]
    fn display_is_a_one_line_histogram() {
        let text = sample_counts().to_string();
        assert_eq!(
            text,
            "ok=5 assert=4 deadlock=3 step-limit=2 tx-retry=1 misuse=6 total=21"
        );
        assert!(!text.contains('\n'));
    }

    #[test]
    fn display_total_matches_total_method() {
        let c = sample_counts();
        let rendered = c.to_string();
        let total: u64 = rendered
            .rsplit_once("total=")
            .and_then(|(_, t)| t.parse().ok())
            .expect("display ends with total=N");
        assert_eq!(total, c.total());
    }

    #[test]
    fn truncation_reasons_render() {
        assert_eq!(Truncation::ScheduleBudget.to_string(), "schedule budget");
        assert_eq!(Truncation::StepBudget.to_string(), "step budget");
        assert_eq!(Truncation::PreemptionBound.to_string(), "preemption bound");
        assert_eq!(Truncation::WallDeadline.to_string(), "wall deadline");
    }
}
