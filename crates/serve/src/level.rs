//! Running one exploration at one degrade level.
//!
//! The admission controller picks a [`DegradeLevel`]; this module runs
//! exactly that rung with the limits, confidence grading and PCT
//! sampling of the `BudgetedExplorer` ladder (`lfm_sim::budget`), so a
//! served report means the same thing a budgeted one does. Unlike the
//! ladder, a served check never climbs back up — the level was chosen
//! from queue pressure, and the point is bounded per-request work.

use std::time::Duration;

use lfm_sim::budget::pct_batches;
use lfm_sim::{Confidence, DegradeLevel, Explorer, FaultPlan, OutcomeCounts, Program, Truncation};

/// PCT trial cap when no deadline bounds the rung.
pub const PCT_DEFAULT_TRIALS: u64 = 512;

/// Exploration size caps shared by every rung of one server.
#[derive(Debug, Clone, Copy)]
pub struct LevelCaps {
    /// Per-execution step cap.
    pub max_steps: usize,
    /// Schedule cap per exploration.
    pub max_schedules: u64,
    /// Source-set DPOR, with its sleep sets, on the DFS rungs. The
    /// explorer resolves the unsound combinations itself: chaos
    /// requests and the preemption-bounded rung fall back to the
    /// classic search. Since DPOR implies sleep sets, the `SleepSet`
    /// rung runs the same search as `Exhaustive` under `dpor` and
    /// sheds no cost.
    pub dpor: bool,
}

impl Default for LevelCaps {
    fn default() -> LevelCaps {
        LevelCaps {
            max_steps: 4_000,
            max_schedules: 50_000,
            dpor: false,
        }
    }
}

/// The deterministic result of one rung run — everything the canonical
/// report renders, and nothing wall-clock-dependent.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Rung that produced the result.
    pub level: DegradeLevel,
    /// Coverage meaning of the result at this rung.
    pub confidence: Confidence,
    /// Outcome histogram.
    pub counts: OutcomeCounts,
    /// Schedules (or PCT trials) executed.
    pub schedules: u64,
    /// Why the run stopped early, if it did. `WallDeadline` here is the
    /// per-request deadline doing its job, not an error.
    pub truncation: Option<Truncation>,
    /// Display form of the first failing outcome, when one manifested.
    pub first_failure: Option<String>,
}

/// Runs `program` at exactly `level`.
///
/// `deadline` is the *remaining* per-request wall budget (measured by
/// the caller from admission time); expiry surfaces as
/// `Truncation::WallDeadline` in the outcome, reusing the explorer's
/// truncation contract rather than inventing a service-side timeout.
///
/// Chaos note: the sleep-set reduction is unsound under fault
/// injection (`Explorer::chaos` documents why), so with a `FaultPlan`
/// the explorer runs the sleep-set rung as plain dedup — same pruning
/// the budget ladder applies when it skips that rung.
pub fn check_at_level(
    program: &Program,
    level: DegradeLevel,
    caps: LevelCaps,
    chaos: Option<FaultPlan>,
    deadline: Option<Duration>,
) -> CheckOutcome {
    if level == DegradeLevel::PctSampling {
        return run_pct(program, caps, chaos, deadline);
    }
    let limits = level.limits(caps.max_steps, caps.max_schedules, caps.dpor, deadline);
    let mut explorer = Explorer::new(program).limits(limits);
    if let Some(plan) = chaos {
        explorer = explorer.chaos(plan);
    }
    let report = explorer.run();
    CheckOutcome {
        level,
        confidence: level.confidence(report.truncation),
        counts: report.counts,
        schedules: report.schedules_run,
        truncation: report.truncation,
        first_failure: report.first_failure.as_ref().map(|(_, o)| o.to_string()),
    }
}

/// The PCT rung ([`pct_batches`]) on this request's own clock: the
/// deadline is measured from the rung's start, and only a deadline that
/// stopped the sampling is reported as a truncation.
fn run_pct(
    program: &Program,
    caps: LevelCaps,
    chaos: Option<FaultPlan>,
    deadline: Option<Duration>,
) -> CheckOutcome {
    let stopwatch = lfm_obs::Stopwatch::start();
    let trial_cap = match deadline {
        Some(_) => caps.max_schedules,
        None => PCT_DEFAULT_TRIALS.min(caps.max_schedules),
    };
    let (pct, timed_out) = pct_batches(program, caps.max_steps, chaos, trial_cap, || {
        deadline.is_some_and(|d| stopwatch.elapsed() >= d)
    });
    CheckOutcome {
        level: DegradeLevel::PctSampling,
        confidence: Confidence::Sampled,
        counts: pct.counts,
        schedules: pct.trials,
        truncation: timed_out.then_some(Truncation::WallDeadline),
        first_failure: pct.first_failure.map(|(_, o)| o.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_kernels::registry;

    #[test]
    fn exhaustive_proves_a_fixed_kernel() {
        let kernel = registry::by_id("toctou_flag").expect("kernel exists");
        let fix = kernel.fixes[0];
        let program = kernel.build(lfm_kernels::Variant::Fixed(fix));
        let out = check_at_level(
            &program,
            DegradeLevel::Exhaustive,
            LevelCaps::default(),
            None,
            None,
        );
        assert_eq!(out.confidence, Confidence::Proved);
        assert_eq!(out.counts.failures(), 0);
        assert!(out.first_failure.is_none());
    }

    #[test]
    fn every_level_finds_the_toctou_bug() {
        let kernel = registry::by_id("toctou_flag").expect("kernel exists");
        let program = kernel.buggy();
        for level in [
            DegradeLevel::Exhaustive,
            DegradeLevel::SleepSet,
            DegradeLevel::PreemptionBounded,
            DegradeLevel::PctSampling,
        ] {
            let out = check_at_level(&program, level, LevelCaps::default(), None, None);
            assert_eq!(out.level, level);
            assert!(
                out.counts.failures() > 0,
                "{level} missed the bug: {}",
                out.counts
            );
            assert!(out.first_failure.is_some());
        }
    }

    #[test]
    fn outcome_is_deterministic_per_level() {
        let kernel = registry::by_id("abba").expect("kernel exists");
        let program = kernel.buggy();
        for level in [DegradeLevel::Exhaustive, DegradeLevel::PctSampling] {
            let a = check_at_level(&program, level, LevelCaps::default(), None, None);
            let b = check_at_level(&program, level, LevelCaps::default(), None, None);
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.schedules, b.schedules);
            assert_eq!(a.first_failure, b.first_failure);
        }
    }

    #[test]
    fn dpor_caps_preserve_verdicts_on_every_dfs_rung() {
        let kernel = registry::by_id("toctou_flag").expect("kernel exists");
        let caps = LevelCaps {
            dpor: true,
            ..LevelCaps::default()
        };
        for level in [
            DegradeLevel::Exhaustive,
            DegradeLevel::SleepSet,
            DegradeLevel::PreemptionBounded,
        ] {
            let buggy = check_at_level(&kernel.buggy(), level, caps, None, None);
            assert!(
                buggy.counts.failures() > 0,
                "{level} with DPOR missed the bug: {}",
                buggy.counts
            );
            let fix = kernel.fixes[0];
            let fixed = kernel.build(lfm_kernels::Variant::Fixed(fix));
            let ok = check_at_level(&fixed, level, caps, None, None);
            assert_eq!(ok.counts.failures(), 0, "{level} with DPOR false positive");
        }
    }

    #[test]
    fn tight_deadline_truncates_with_wall_deadline() {
        let kernel = registry::by_id("livelock_retry").expect("kernel exists");
        let program = kernel.buggy();
        let caps = LevelCaps {
            max_schedules: u64::MAX / 2,
            ..LevelCaps::default()
        };
        let out = check_at_level(
            &program,
            DegradeLevel::Exhaustive,
            caps,
            None,
            Some(Duration::ZERO),
        );
        // A spent deadline stops the walk at its loop-top check, before
        // the first edge, whatever the host's speed: the run is cut by
        // the wall deadline alone and downgraded to partial.
        assert_eq!(out.truncation, Some(Truncation::WallDeadline));
        assert_eq!(out.confidence, Confidence::Partial);
        assert_eq!(out.schedules, 0);
    }
}
