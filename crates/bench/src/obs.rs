//! E-obs: observability overhead on the exploration hot path.
//!
//! PR 6 instruments the explorer with phase-attributed profiling
//! ([`PhaseProfiler`]), online progress estimation (`progress_est`
//! events from a Knuth tree-size estimator), and an always-on flight
//! recorder in the CLI. All three are designed to be cheap enough to
//! leave on: profiling is sampling-gated, progress checks are amortized
//! over `PROGRESS_CHECK_EVERY` schedules, and the recorder is a bounded
//! ring. This experiment puts a number on "cheap enough" and re-states
//! the determinism contract: observation must never change the search.
//!
//! Measurement: on the two deepest kernels from an observation-off
//! sweep (deepest DFS stack — the hot path where per-choice overhead
//! compounds most), run the same exploration observation-off and
//! observation-on (profiler at the CLI's default sampling shift,
//! progress estimation at an aggressive 1ms cadence, events teed into a
//! flight recorder), interleaved best-of-N per mode. Reports are
//! checked field-for-field — including the bit pattern of the schedule
//! estimate — across every repetition.
//!
//! Like E-perf, the overhead percentage is a host property;
//! the report-equality column is the claim that must hold everywhere.
//! The target the table reports against is [`OBS_TARGET_PCT`].

use std::sync::Arc;
use std::time::Duration;

use lfm_kernels::registry;
use lfm_obs::{json, FlightRecorder, PhaseProfile, PhaseProfiler};
use lfm_sim::{ExploreLimits, Explorer};
use lfm_study::Table;

use crate::{push_fields, push_objects};

/// Schedule budget for the E-obs artifact run (same as E-perf's
/// `PERF_BUDGET`, so the two experiments describe the same workload).
pub const OBS_BUDGET: u64 = 2_000;

/// Overhead the instrumentation is budgeted for: observation-on runs
/// should cost at most this much states/sec throughput.
pub const OBS_TARGET_PCT: f64 = 10.0;

/// Timed repetitions per mode; each mode keeps its fastest wall (same
/// best-of-N rationale as E-perf: the minimum estimates what the code
/// costs, not what the host's scheduler did that millisecond).
const OBS_REPS: usize = 3;

/// Progress cadence for the observation-on runs: deliberately far more
/// aggressive than the CLI's default (250ms) so the measured overhead
/// upper-bounds what `--progress` costs in practice.
const OBS_PROGRESS_EVERY: Duration = Duration::from_millis(1);

/// One deep kernel's observation-off vs observation-on comparison.
#[derive(Debug, Clone)]
pub struct ObsRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// Deepest DFS stack observed (why this kernel was picked).
    pub max_depth: u64,
    /// Observation-off states per second (fastest of N).
    pub off_states_per_sec: f64,
    /// Observation-on states per second (fastest of N).
    pub on_states_per_sec: f64,
    /// Throughput lost to observation, percent (negative = noise made
    /// the instrumented run faster).
    pub overhead_pct: f64,
    /// The estimator's tree-size prediction (identical in both modes).
    pub est_total_schedules: f64,
    /// The profiler phase that attributed the most estimated time.
    pub top_phase: String,
    /// Estimated nanoseconds attributed across all phases.
    pub profiled_nanos: u64,
    /// Events the flight recorder captured during the on-runs.
    pub recorded_events: u64,
    /// Whether every off/on repetition pair matched field-for-field
    /// (including `est_total_schedules` bits). Must hold on every host.
    pub identical: bool,
}

impl ObsRow {
    /// `true` when the measured overhead met [`OBS_TARGET_PCT`].
    pub fn within_target(&self) -> bool {
        self.overhead_pct <= OBS_TARGET_PCT
    }
}

/// The full E-obs measurement.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Schedule budget each exploration was capped at.
    pub budget: u64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// The two deepest kernels, deepest first.
    pub rows: Vec<ObsRow>,
}

impl ObsReport {
    /// `true` when every observation-on run reproduced the
    /// observation-off report.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }
}

fn explore_limits(max_schedules: u64) -> ExploreLimits {
    ExploreLimits {
        max_schedules,
        dedup_states: true,
        ..ExploreLimits::default()
    }
}

/// Runs the E-obs measurement: an observation-off depth sweep to pick
/// the two deepest kernels, then the interleaved off/on comparison.
pub fn obs_measure(max_schedules: u64) -> ObsReport {
    let limits = explore_limits(max_schedules);

    // Depth sweep (observation off), ties broken by id so the pick is
    // deterministic — the same selection rule E-perf uses.
    let mut by_depth: Vec<(u64, &'static str)> = registry::all()
        .iter()
        .map(|kernel| {
            let report = Explorer::new(&kernel.buggy()).limits(limits.clone()).run();
            (report.stats.max_depth, kernel.id)
        })
        .collect();
    by_depth.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));

    let rows = by_depth
        .iter()
        .take(2)
        .map(|&(max_depth, id)| {
            let kernel = registry::by_id(id).expect("kernel came from the registry");
            let program = kernel.buggy();
            let recorder = Arc::new(FlightRecorder::new());
            let mut off_runs = Vec::new();
            let mut on_runs = Vec::new();
            let mut profiles = Vec::new();
            for _ in 0..OBS_REPS {
                off_runs.push(Explorer::new(&program).limits(limits.clone()).run());
                let profiler = Arc::new(PhaseProfiler::sampling(PhaseProfiler::DEFAULT_SHIFT));
                on_runs.push(
                    Explorer::new(&program)
                        .limits(limits.clone())
                        .with_sink(recorder.clone())
                        .profile(profiler.clone())
                        .progress_every(OBS_PROGRESS_EVERY)
                        .run(),
                );
                profiles.push(profiler.snapshot());
            }
            let fastest = |runs: &[lfm_sim::explore::ExploreReport]| {
                runs.iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.stats.wall)
                    .map(|(i, _)| i)
                    .expect("OBS_REPS > 0")
            };
            let identical = off_runs
                .iter()
                .zip(on_runs.iter())
                .all(|(off, on)| off.first_difference(on).is_none());
            let profile = profiles.swap_remove(fastest(&on_runs));
            let off = off_runs.swap_remove(fastest(&off_runs));
            let on = on_runs.swap_remove(fastest(&on_runs));
            let off_rate = off.states_per_sec();
            let on_rate = on.states_per_sec();
            ObsRow {
                kernel: id,
                max_depth,
                off_states_per_sec: off_rate,
                on_states_per_sec: on_rate,
                overhead_pct: 100.0 * (1.0 - on_rate / off_rate.max(f64::MIN_POSITIVE)),
                est_total_schedules: on.est_total_schedules,
                top_phase: top_phase(&profile),
                profiled_nanos: profile.est_grand_total_nanos(),
                recorded_events: recorder.recorded(),
                identical,
            }
        })
        .collect();

    ObsReport {
        budget: max_schedules,
        host_parallelism: crate::host_parallelism(),
        rows,
    }
}

/// The phase with the largest estimated attributed time, or `-` for an
/// empty profile.
fn top_phase(profile: &PhaseProfile) -> String {
    profile
        .phases()
        .iter()
        .max_by_key(|s| s.est_total_nanos())
        .filter(|s| s.est_total_nanos() > 0)
        .map(|s| s.phase.name().to_string())
        .unwrap_or_else(|| "-".to_string())
}

/// Renders the measurement as the E-obs table.
pub fn obs_table(max_schedules: u64) -> Table {
    let report = obs_measure(max_schedules);
    let mut t = Table::new(
        "E-obs",
        format!(
            "Observability overhead on the two deepest kernels (budget {}, host parallelism {})",
            report.budget, report.host_parallelism
        ),
        vec![
            "kernel",
            "depth",
            "off states/sec",
            "on states/sec",
            "overhead",
            "est schedules",
            "top phase",
            "report",
        ],
    );
    for r in &report.rows {
        t.row(vec![
            r.kernel.to_string(),
            r.max_depth.to_string(),
            format!("{:.0}", r.off_states_per_sec),
            format!("{:.0}", r.on_states_per_sec),
            format!(
                "{:.1}% ({})",
                r.overhead_pct,
                if r.within_target() {
                    "<=10% target"
                } else {
                    "OVER target"
                }
            ),
            format!("{:.0}", r.est_total_schedules),
            r.top_phase.clone(),
            if r.identical {
                "identical".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    t.note(
        "observation-on = phase profiler at the CLI's default sampling \
         shift + progress estimation every 1ms (40x the CLI cadence) + \
         events teed into a bounded flight recorder; best-of-3 per mode, \
         interleaved",
    );
    t.note(
        "overhead is a host property; the `report` column is the \
         determinism claim — with observation on, every ExploreReport \
         field (including the bit pattern of the schedule estimate) must \
         match the observation-off run on every host",
    );
    t
}

/// Serializes the measurement as a JSON fragment (embedded in the
/// `lfm-obs/v1` snapshot).
pub fn obs_json(report: &ObsReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    push_fields(
        &mut out,
        &[
            ("budget", report.budget.to_string()),
            ("host_parallelism", report.host_parallelism.to_string()),
            ("target_overhead_pct", json::number_f64(OBS_TARGET_PCT)),
            ("reports_identical", report.all_identical().to_string()),
        ],
    );
    out.push_str(",\"deepest\":");
    push_objects(&mut out, &report.rows, |r| {
        vec![
            ("kernel", json::quote(r.kernel)),
            ("max_depth", r.max_depth.to_string()),
            ("off_states_per_sec", json::number_f64(r.off_states_per_sec)),
            ("on_states_per_sec", json::number_f64(r.on_states_per_sec)),
            ("overhead_pct", json::number_f64(r.overhead_pct)),
            (
                "est_total_schedules",
                json::number_f64(r.est_total_schedules),
            ),
            ("top_phase", json::quote(&r.top_phase)),
            ("profiled_nanos", r.profiled_nanos.to_string()),
            ("recorded_events", r.recorded_events.to_string()),
            ("reports_identical", r.identical.to_string()),
        ]
    });
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Timing columns are host noise; the stable assertions are the
    // selection shape, the determinism flags, and that the profiler and
    // recorder actually observed the runs they claim to describe.
    #[test]
    fn deepest_two_are_measured_and_observation_changes_nothing() {
        let report = obs_measure(150);
        assert_eq!(report.rows.len(), 2);
        assert!(report.all_identical());
        assert_ne!(report.rows[0].kernel, report.rows[1].kernel);
        assert!(report.rows[0].max_depth >= report.rows[1].max_depth);
        for r in &report.rows {
            assert!(r.max_depth > 0, "{}: no depth", r.kernel);
            assert!(r.est_total_schedules > 0.0, "{}: no estimate", r.kernel);
            assert!(
                r.recorded_events > 0,
                "{}: flight recorder saw nothing",
                r.kernel
            );
        }
    }

    #[test]
    fn obs_table_has_expected_shape() {
        let t = obs_table(100);
        assert_eq!(t.id, "E-obs");
        assert_eq!(t.len(), 2);
        let rendered = t.to_string();
        assert!(rendered.contains("target"));
        assert!(!rendered.contains("DIVERGED"));
    }

    #[test]
    fn obs_json_is_balanced_and_tagged() {
        let report = obs_measure(100);
        let doc = obs_json(&report);
        assert!(doc.starts_with("{\"budget\":"));
        assert!(doc.contains("\"reports_identical\":true"));
        assert!(doc.contains("\"target_overhead_pct\":10"));
        let opens = doc.matches('{').count() + doc.matches('[').count();
        let closes = doc.matches('}').count() + doc.matches(']').count();
        assert_eq!(opens, closes);
    }
}
