//! Probabilistic schedulers: seeded random walks and PCT.
//!
//! The study's manifestation findings motivate *testing implications*:
//! naive stress testing (random scheduling) rarely hits the narrow buggy
//! windows, while bounded systematic or priority-based (PCT) scheduling
//! finds them quickly. These schedulers make that comparison measurable.

use std::time::Duration;

use lfm_obs::Stopwatch;

use crate::exec::{Executor, RecordMode};
use crate::explore::OutcomeCounts;
use crate::fault::{FaultPlan, SplitMix64};
use crate::ids::ThreadId;
use crate::outcome::Outcome;
use crate::program::Program;
use crate::schedule::Schedule;
use crate::trace::Trace;

/// Report of a batch of randomized executions.
#[derive(Debug, Clone)]
pub struct RandomWalkReport {
    /// Outcome histogram over the trials.
    pub counts: OutcomeCounts,
    /// Number of trials run.
    pub trials: u64,
    /// Witness of the first failure, if any.
    pub first_failure: Option<(Schedule, Outcome)>,
    /// Wall-clock time of the batch.
    pub wall: Duration,
}

impl RandomWalkReport {
    /// Fraction of trials that manifested a bug.
    pub fn failure_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.counts.failures() as f64 / self.trials as f64
        }
    }
}

/// One trial: a fresh executor with `fault` installed, run through
/// [`Executor::run_with`] with `picker` choosing every step.
fn run_trial(
    program: &Program,
    record: RecordMode,
    fault: Option<FaultPlan>,
    max_steps: usize,
    picker: impl FnMut(&[ThreadId]) -> ThreadId,
) -> (Executor, Outcome) {
    let mut exec = Executor::with_record(program, record);
    if let Some(plan) = fault {
        exec.set_fault_plan(plan);
    }
    let outcome = exec.run_with(max_steps, picker);
    (exec, outcome)
}

/// Runs `trials` trials, one call of `trial` each, into a report.
fn batch(trials: u64, mut trial: impl FnMut() -> (Executor, Outcome)) -> RandomWalkReport {
    let stopwatch = Stopwatch::start();
    let mut counts = OutcomeCounts::default();
    let mut first_failure = None;
    for _ in 0..trials {
        let (exec, outcome) = trial();
        counts.add(&outcome);
        if outcome.is_failure() && first_failure.is_none() {
            first_failure = Some((exec.schedule_taken(), outcome));
        }
    }
    RandomWalkReport {
        counts,
        trials,
        first_failure,
        wall: stopwatch.elapsed(),
    }
}

/// Uniform random scheduling (naive stress testing).
#[derive(Debug, Clone)]
pub struct RandomWalker<'p> {
    program: &'p Program,
    seed: u64,
    max_steps: usize,
    fault: Option<FaultPlan>,
}

impl<'p> RandomWalker<'p> {
    /// Creates a walker with the given seed.
    pub fn new(program: &'p Program, seed: u64) -> RandomWalker<'p> {
        RandomWalker {
            program,
            seed,
            max_steps: 5_000,
            fault: None,
        }
    }

    /// Replaces the per-execution step budget.
    pub fn max_steps(mut self, max_steps: usize) -> RandomWalker<'p> {
        self.max_steps = max_steps;
        self
    }

    /// Injects a deterministic [`FaultPlan`] into every trial — ConTest
    /// style noise-making for the simulator.
    pub fn with_faults(mut self, plan: FaultPlan) -> RandomWalker<'p> {
        self.fault = Some(plan);
        self
    }

    /// One trial drawing a uniformly random enabled thread per step.
    fn trial(&self, record: RecordMode, rng: &mut SplitMix64) -> (Executor, Outcome) {
        run_trial(
            self.program,
            record,
            self.fault,
            self.max_steps,
            |enabled| enabled[rng.range(0..enabled.len())],
        )
    }

    /// Runs `trials` independent random-schedule executions.
    pub fn run_trials(&self, trials: u64) -> RandomWalkReport {
        let mut rng = SplitMix64::new(self.seed);
        batch(trials, || self.trial(RecordMode::Off, &mut rng))
    }

    /// Runs `trials` executions with full recording, returning each trace
    /// with its outcome — the input sampler for the dynamic detectors.
    /// The same seed draws the same schedules as [`RandomWalker::run_trials`].
    pub fn collect_traces(&self, trials: u64) -> Vec<(Trace, Outcome)> {
        let mut rng = SplitMix64::new(self.seed);
        (0..trials)
            .map(|_| {
                let (exec, outcome) = self.trial(RecordMode::Full, &mut rng);
                (exec.into_trace(), outcome)
            })
            .collect()
    }
}

/// PCT (probabilistic concurrency testing): random thread priorities with
/// `depth - 1` random priority-change points. Finds depth-`d` bugs with
/// probability ≥ 1/(n·k^(d-1)).
#[derive(Debug, Clone)]
pub struct PctScheduler<'p> {
    program: &'p Program,
    seed: u64,
    depth: u32,
    max_steps: usize,
    fault: Option<FaultPlan>,
}

impl<'p> PctScheduler<'p> {
    /// Creates a PCT scheduler targeting bugs of the given depth (the
    /// number of ordering constraints needed; the study's Finding says
    /// depth ≤ 4 covers 92% of non-deadlock bugs).
    pub fn new(program: &'p Program, seed: u64, depth: u32) -> PctScheduler<'p> {
        PctScheduler {
            program,
            seed,
            depth: depth.max(1),
            max_steps: 5_000,
            fault: None,
        }
    }

    /// Replaces the per-execution step budget.
    pub fn max_steps(mut self, max_steps: usize) -> PctScheduler<'p> {
        self.max_steps = max_steps;
        self
    }

    /// Injects a deterministic [`FaultPlan`] into every trial.
    pub fn with_faults(mut self, plan: FaultPlan) -> PctScheduler<'p> {
        self.fault = Some(plan);
        self
    }

    /// Runs `trials` PCT executions.
    pub fn run_trials(&self, trials: u64) -> RandomWalkReport {
        let n = self.program.n_threads();
        // Change points are sampled over the *expected* execution length
        // (PCT's `k`), approximated by the static visible-op count; using
        // `max_steps` would make change points almost never fire on short
        // kernels.
        let k_steps = self.program.static_visible_ops().max(2);
        let mut rng = SplitMix64::new(self.seed);
        batch(trials, || {
            // Random initial priorities: a random permutation, higher is
            // more urgent. Change points drop the running thread to the
            // lowest band.
            let mut priorities: Vec<i64> = (0..n as i64).map(|i| i + (self.depth as i64)).collect();
            for i in (1..n).rev() {
                let j = rng.range(0..=i);
                priorities.swap(i, j);
            }
            let mut change_points: Vec<usize> = (0..self.depth.saturating_sub(1))
                .map(|_| rng.range(0..k_steps))
                .collect();
            change_points.sort_unstable();
            let mut next_change = 0usize;
            let mut low_band = 0i64;
            // A fresh executor has taken as many steps as picks made.
            let mut steps = 0usize;
            run_trial(
                self.program,
                RecordMode::Off,
                self.fault,
                self.max_steps,
                |enabled| {
                    let choice = *enabled
                        .iter()
                        .max_by_key(|t| priorities[t.index()])
                        .expect("enabled set non-empty");
                    if next_change < change_points.len() && steps >= change_points[next_change] {
                        low_band -= 1;
                        priorities[choice.index()] = low_band;
                        next_change += 1;
                    }
                    steps += 1;
                    choice
                },
            )
        })
    }
}
