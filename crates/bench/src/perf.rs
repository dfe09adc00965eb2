//! E-perf: exploration hot-path throughput (undo-trail restores +
//! incremental hashing).
//!
//! The serial explorer keeps one executor per search: it marks each
//! branch state and restores the mark from an undo trail before each
//! explored choice, and it probes the dedup set once per visited
//! state. The dedup key is an incrementally maintained fingerprint,
//! repaired only at the dedup claim, instead of a full rehash. The
//! deep-copy baseline the earlier copy-on-write snapshots were measured
//! against has been removed; the `deepest` rows of the committed
//! `BENCH_explore.json` keep its last comparison (1.98x on
//! `livelock_retry`, 1.53x on `lock_cycle_3`), and their `cow_*` field
//! names with it.
//!
//! Two measurements:
//!
//! 1. a **sweep** of every kernel's buggy variant (dedup on, schedule
//!    budget capped): states/second, wall time, the snapshot size
//!    model's bytes saved, and a peak-frontier-bytes estimate per
//!    kernel;
//! 2. a best-of-N **throughput** run on the two deepest kernels from
//!    the sweep (deepest DFS stack — the longest paths the trail
//!    restores along), the stable number the throughput gate compares.
//!
//! Throughput is a host property, so the numbers are recorded next to
//! `host_parallelism`.

use lfm_kernels::registry;
use lfm_obs::json::{self, Json};
use lfm_sim::{Executor, ExploreLimits, Explorer};
use lfm_study::Table;

use crate::{push_fields, push_objects};

/// Schedule budget used for the committed `BENCH_explore.json`
/// baseline and the CI regression check (kept in one place so the two
/// always measure the same workload).
pub const PERF_BUDGET: u64 = 2_000;

/// Schema identifier embedded in the `BENCH_explore.json` document.
pub const BENCH_EXPLORE_SCHEMA: &str = "lfm-bench-explore/v1";

/// The kernel the CI regression gate watches: the largest state space
/// in the registry, so its exploration always exhausts the budget and
/// every run does the same amount of work.
pub const PERF_GATE_KERNEL: &str = "livelock_retry";

/// Timed repetitions per deep kernel; the fastest wall is reported
/// (see `perf_measure`).
const SPEEDUP_REPS: usize = 3;

/// One kernel's sweep measurement under the optimized explorer.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// The kernel's bug family.
    pub family: String,
    /// Schedules the exploration ran.
    pub schedules: u64,
    /// Total visible steps (states visited) across all executions.
    pub steps: u64,
    /// Wall-clock time of the exploration, microseconds.
    pub wall_us: u64,
    /// States visited per second (`steps / wall`).
    pub states_per_sec: f64,
    /// Deepest DFS stack observed.
    pub max_depth: u64,
    /// The snapshot size model summed over restore points
    /// (`ExploreStats::snapshot_bytes_saved`).
    pub snapshot_bytes_saved: u64,
    /// Size model of a copy-on-write DFS frontier at the search's
    /// depth: `(max_depth + 1) * shallow snapshot size` of the root
    /// executor. An estimate — snapshots deeper in the tree carry
    /// slightly larger chunk-pointer tables — but a deterministic one.
    pub peak_frontier_bytes: u64,
}

/// One deep kernel's best-of-N throughput.
#[derive(Debug, Clone)]
pub struct PerfSpeedup {
    /// Kernel id.
    pub kernel: &'static str,
    /// Deepest DFS stack observed (why this kernel was picked).
    pub max_depth: u64,
    /// Fastest wall time, microseconds (named for the copy-on-write
    /// explorer that first recorded it; `BENCH_explore.json` keeps the
    /// name).
    pub cow_wall_us: u64,
    /// States per second of the fastest run.
    pub cow_states_per_sec: f64,
}

/// The full E-perf measurement.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Schedule budget each exploration was capped at.
    pub budget: u64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Per-kernel sweep, in registry order.
    pub rows: Vec<PerfRow>,
    /// Best-of-N throughput on the two deepest kernels.
    pub speedups: Vec<PerfSpeedup>,
}

impl PerfReport {
    /// The sweep row for `kernel`, if that kernel was measured.
    pub fn row(&self, kernel: &str) -> Option<&PerfRow> {
        self.rows.iter().find(|r| r.kernel == kernel)
    }
}

fn explore_limits(max_schedules: u64) -> ExploreLimits {
    ExploreLimits {
        max_schedules,
        dedup_states: true,
        ..ExploreLimits::default()
    }
}

/// Runs the full E-perf measurement: the per-kernel sweep, then the
/// best-of-N throughput of the two deepest kernels.
pub fn perf_measure(max_schedules: u64) -> PerfReport {
    let limits = explore_limits(max_schedules);

    let mut rows = Vec::new();
    for kernel in registry::all() {
        let program = kernel.buggy();
        let shallow = Executor::new(&program).snapshot_shallow_bytes();
        let report = Explorer::new(&program).limits(limits.clone()).run();
        let wall_us = report.stats.wall.as_micros() as u64;
        rows.push(PerfRow {
            kernel: kernel.id,
            family: kernel.family.to_string(),
            schedules: report.schedules_run,
            steps: report.steps_total,
            wall_us,
            states_per_sec: report.states_per_sec(),
            max_depth: report.stats.max_depth,
            snapshot_bytes_saved: report.stats.snapshot_bytes_saved,
            peak_frontier_bytes: (report.stats.max_depth + 1) * shallow,
        });
    }

    // The two deepest kernels (ties broken by id so the pick is
    // deterministic): deepest DFS stack means the longest paths, where
    // restoring a branch state weighs most.
    let mut by_depth: Vec<(u64, &'static str)> =
        rows.iter().map(|r| (r.max_depth, r.kernel)).collect();
    by_depth.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));

    let speedups = by_depth
        .iter()
        .take(2)
        .map(|&(max_depth, id)| {
            let kernel = registry::by_id(id).expect("kernel came from the registry");
            let program = kernel.buggy();
            // Best-of-N: the workload runs SPEEDUP_REPS times and the
            // fastest wall is kept. Single runs on a busy host swing by
            // 2x and more; the minimum is the standard way to estimate
            // what the code costs rather than what the scheduler did
            // that millisecond.
            let best = (0..SPEEDUP_REPS)
                .map(|_| Explorer::new(&program).limits(limits.clone()).run())
                .min_by_key(|r| r.stats.wall)
                .expect("SPEEDUP_REPS > 0");
            PerfSpeedup {
                kernel: id,
                max_depth,
                cow_wall_us: best.stats.wall.as_micros() as u64,
                cow_states_per_sec: best.states_per_sec(),
            }
        })
        .collect();

    PerfReport {
        budget: max_schedules,
        host_parallelism: crate::host_parallelism(),
        rows,
        speedups,
    }
}

/// Renders the measurement as the E-perf table: one sweep row per
/// kernel.
pub fn perf_table(max_schedules: u64) -> Table {
    let report = perf_measure(max_schedules);
    let mut t = Table::new(
        "E-perf",
        format!(
            "Exploration hot-path throughput ({} kernels, budget {}, host parallelism {})",
            report.rows.len(),
            report.budget,
            report.host_parallelism
        ),
        vec![
            "kernel",
            "family",
            "schedules",
            "states/sec",
            "depth",
            "bytes saved",
            "peak frontier",
        ],
    );
    for r in &report.rows {
        t.row(vec![
            r.kernel.to_string(),
            r.family.clone(),
            r.schedules.to_string(),
            format!("{:.0}", r.states_per_sec),
            r.max_depth.to_string(),
            r.snapshot_bytes_saved.to_string(),
            r.peak_frontier_bytes.to_string(),
        ]);
    }
    t.note(
        "states/sec = visible steps / wall; `peak frontier` is \
         (max_depth + 1) x the root executor's shallow snapshot size, a \
         deterministic size model of a copy-on-write DFS frontier",
    );
    t.note(
        "throughput is a host property (see BENCH_explore.json for the \
         committed reference run and, in its `deepest` rows, the last \
         comparison against the removed deep-copy baseline)",
    );
    t
}

/// Serializes the measurement as the `BENCH_explore.json` document
/// (`lfm-bench-explore/v1`). The `dpor` and `fuse` sections, E-dpor's
/// and E-fuse's views of `reductions`, are additive to the schema:
/// older documents simply lack them, and [`baseline_dpor_schedules`] /
/// [`baseline_fused_schedules`] return `None` on them. An outcome-match
/// field is written only where its outcome sets were compared: an
/// uncompared row claims no match.
pub fn perf_json(report: &PerfReport, reductions: &crate::reduction::ReductionReport) -> String {
    let mut out = String::with_capacity(4096);
    out.push('{');
    push_fields(
        &mut out,
        &[
            ("schema", json::quote(BENCH_EXPLORE_SCHEMA)),
            ("budget", report.budget.to_string()),
            ("host_parallelism", report.host_parallelism.to_string()),
        ],
    );
    out.push_str(",\"kernels\":");
    push_objects(&mut out, &report.rows, |r| {
        vec![
            ("kernel", json::quote(r.kernel)),
            ("family", json::quote(&r.family)),
            ("schedules", r.schedules.to_string()),
            ("steps", r.steps.to_string()),
            ("wall_us", r.wall_us.to_string()),
            ("states_per_sec", json::number_f64(r.states_per_sec)),
            ("max_depth", r.max_depth.to_string()),
            ("snapshot_bytes_saved", r.snapshot_bytes_saved.to_string()),
            ("peak_frontier_bytes", r.peak_frontier_bytes.to_string()),
        ]
    });
    out.push_str(",\"deepest\":");
    push_objects(&mut out, &report.speedups, |s| {
        vec![
            ("kernel", json::quote(s.kernel)),
            ("max_depth", s.max_depth.to_string()),
            ("cow_wall_us", s.cow_wall_us.to_string()),
            ("cow_states_per_sec", json::number_f64(s.cow_states_per_sec)),
        ]
    });
    out.push_str(",\"dpor\":{");
    push_fields(
        &mut out,
        &[
            ("budget", reductions.budget.to_string()),
            ("floor", json::number_f64(crate::reduction::DPOR_FLOOR)),
        ],
    );
    out.push_str(",\"rows\":");
    push_objects(&mut out, &reductions.rows, |r| {
        let mut fields = vec![
            ("kernel", json::quote(r.kernel)),
            ("family", json::quote(&r.family)),
            ("max_depth", r.max_depth.to_string()),
            ("full_schedules", r.fused.schedules.to_string()),
            ("full_complete", r.fused.complete.to_string()),
            ("dpor_schedules", r.dpor_fused.schedules.to_string()),
            ("dpor_complete", r.dpor_fused.complete.to_string()),
            ("reduction", json::number_f64(r.dpor_reduction())),
        ];
        comparison_fields(&mut fields, ["compared", "outcomes_match"], r.dpor_match);
        fields
    });
    out.push_str("},\"fuse\":{");
    push_fields(
        &mut out,
        &[
            ("budget", reductions.budget.to_string()),
            ("floor", json::number_f64(crate::reduction::FUSE_FLOOR)),
        ],
    );
    out.push_str(",\"rows\":");
    push_objects(&mut out, &reductions.rows, |r| {
        let mut fields = vec![
            ("kernel", json::quote(r.kernel)),
            ("family", json::quote(&r.family)),
            ("base_schedules", r.base.schedules.to_string()),
            ("base_complete", r.base.complete.to_string()),
            ("fused_schedules", r.fused.schedules.to_string()),
            ("fused_complete", r.fused.complete.to_string()),
            ("fused_steps", r.fused_steps.to_string()),
            ("reduction", json::number_f64(r.fuse_reduction())),
            ("dpor_schedules", r.dpor.schedules.to_string()),
            ("dpor_complete", r.dpor.complete.to_string()),
            ("dpor_fused_schedules", r.dpor_fused.schedules.to_string()),
            ("dpor_fused_complete", r.dpor_fused.complete.to_string()),
            (
                "composed_reduction",
                json::number_f64(r.composed_reduction()),
            ),
        ];
        comparison_fields(&mut fields, ["compared", "outcomes_match"], r.fuse_match);
        comparison_fields(
            &mut fields,
            ["dpor_compared", "dpor_outcomes_match"],
            r.dpor_fuse_match,
        );
        fields
    });
    out.push_str("}}");
    out
}

/// Appends the `compared` field (named by `keys[0]`), then the
/// `outcomes_match` field (`keys[1]`) when the comparison ran.
fn comparison_fields(
    fields: &mut Vec<(&'static str, String)>,
    keys: [&'static str; 2],
    comparison: Option<bool>,
) {
    fields.push((keys[0], comparison.is_some().to_string()));
    if let Some(matched) = comparison {
        fields.push((keys[1], matched.to_string()));
    }
}

/// The `field` of the row of the `path` array in a committed baseline
/// document whose `key` is `id`.
pub(crate) fn baseline_field<'a>(
    doc: &'a Json,
    path: &[&str],
    key: &str,
    id: &str,
    field: &str,
) -> Option<&'a Json> {
    let rows = path.iter().try_fold(doc, |v, name| v.get(name))?;
    rows.as_array()?
        .iter()
        .find(|row| row.get(key).and_then(Json::as_str) == Some(id))?
        .get(field)
}

/// Extracts the committed DPOR schedule count for `kernel` from a
/// `BENCH_explore.json` document. Schedule counts are deterministic,
/// so `--check-explore` can flag drift against the baseline exactly —
/// drift means the search semantics changed, which is fine only when
/// it is intentional (regenerate with `--bench-explore`). Returns
/// `None` for documents predating the `dpor` section.
pub fn baseline_dpor_schedules(doc: &str, kernel: &str) -> Option<u64> {
    let doc = Json::parse(doc).ok()?;
    baseline_field(&doc, &["dpor", "rows"], "kernel", kernel, "dpor_schedules")?.as_u64()
}

/// Extracts the committed fused schedule count for `kernel` from a
/// `BENCH_explore.json` document, for the same deterministic drift
/// check [`baseline_dpor_schedules`] gives DPOR. Returns `None` for
/// documents predating the `fuse` section.
pub fn baseline_fused_schedules(doc: &str, kernel: &str) -> Option<u64> {
    let doc = Json::parse(doc).ok()?;
    baseline_field(&doc, &["fuse", "rows"], "kernel", kernel, "fused_schedules")?.as_u64()
}

/// Extracts the gate throughput for `kernel` from a
/// `BENCH_explore.json` document: prefers the best-of-N
/// `"cow_states_per_sec"` from the `"deepest"` section (the stable
/// measurement) and falls back to the kernel's single-run sweep row.
/// Returns `None` when the document does not parse or the kernel or
/// field is missing.
pub fn baseline_states_per_sec(doc: &str, kernel: &str) -> Option<f64> {
    let doc = Json::parse(doc).ok()?;
    baseline_field(&doc, &["deepest"], "kernel", kernel, "cow_states_per_sec")
        .and_then(Json::as_f64)
        .or_else(|| {
            baseline_field(&doc, &["kernels"], "kernel", kernel, "states_per_sec")?.as_f64()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Timing columns vary with the host, so the stable assertions are
    // the sweep coverage and the deterministic accounting columns.
    #[test]
    fn sweep_covers_every_kernel() {
        let report = perf_measure(150);
        assert_eq!(report.rows.len(), registry::all().len());
        assert_eq!(report.speedups.len(), 2);
        for r in &report.rows {
            assert!(r.schedules > 0, "{}: no schedules", r.kernel);
            assert!(r.steps > 0, "{}: no steps", r.kernel);
            assert!(
                r.peak_frontier_bytes >= r.max_depth,
                "{}: frontier estimate below depth",
                r.kernel
            );
        }
        for s in &report.speedups {
            assert!(s.max_depth > 0);
        }
        // The two deepest kernels are distinct.
        assert_ne!(report.speedups[0].kernel, report.speedups[1].kernel);
    }

    #[test]
    fn deep_kernels_save_snapshot_bytes() {
        let report = perf_measure(150);
        // Every kernel that restores at all must report savings: in
        // the size model a deep copy always copies strictly more than a
        // copy-on-write snapshot.
        for s in &report.speedups {
            let row = report.row(s.kernel).expect("deep kernel was swept");
            assert!(
                row.snapshot_bytes_saved > 0,
                "{}: the size model saved nothing",
                s.kernel
            );
        }
    }

    #[test]
    fn perf_table_has_expected_shape() {
        let t = perf_table(100);
        assert_eq!(t.id, "E-perf");
        assert_eq!(t.len(), registry::all().len(), "one sweep row per kernel");
    }

    #[test]
    fn json_round_trips_the_gate_kernel() {
        let report = perf_measure(100);
        let reductions = crate::reduction::reduction_measure(500);
        let doc = perf_json(&report, &reductions);
        assert!(doc.starts_with("{\"schema\":\"lfm-bench-explore/v1\""));
        let opens = doc.matches('{').count() + doc.matches('[').count();
        let closes = doc.matches('}').count() + doc.matches(']').count();
        assert_eq!(opens, closes);
        let expected = report
            .speedups
            .iter()
            .find(|s| s.kernel == PERF_GATE_KERNEL)
            .map(|s| s.cow_states_per_sec)
            .or_else(|| report.row(PERF_GATE_KERNEL).map(|r| r.states_per_sec))
            .expect("gate kernel measured");
        let parsed = baseline_states_per_sec(&doc, PERF_GATE_KERNEL).expect("field extracted");
        // number_f64 formats with finite precision; match loosely.
        let rel = (parsed - expected).abs() / expected.max(1.0);
        assert!(rel < 0.01, "parsed {parsed} vs measured {expected}");
        assert_eq!(baseline_states_per_sec(&doc, "no_such_kernel"), None);
        assert_eq!(baseline_states_per_sec("{}", PERF_GATE_KERNEL), None);
        // The dpor section round-trips exactly (counts are integers).
        let gate = reductions
            .row(PERF_GATE_KERNEL)
            .expect("gate kernel measured");
        assert_eq!(
            baseline_dpor_schedules(&doc, PERF_GATE_KERNEL),
            Some(gate.dpor_fused.schedules)
        );
        assert_eq!(baseline_dpor_schedules(&doc, "no_such_kernel"), None);
        assert_eq!(baseline_dpor_schedules("{}", PERF_GATE_KERNEL), None);
        // The fuse section round-trips exactly too.
        assert_eq!(
            baseline_fused_schedules(&doc, PERF_GATE_KERNEL),
            Some(gate.fused.schedules)
        );
        assert_eq!(baseline_fused_schedules(&doc, "no_such_kernel"), None);
        assert_eq!(baseline_fused_schedules("{}", PERF_GATE_KERNEL), None);
        // The sweep extractor must not be confused by the dpor or fuse
        // rows that mention the same kernel ids further down the
        // document.
        assert!(baseline_states_per_sec(&doc, PERF_GATE_KERNEL).is_some());
        // Outcome matches are claimed only for compared rows.
        let rows = &reductions.rows;
        let plain = rows.iter().filter(|r| r.dpor_match.is_some()).count()
            + rows.iter().filter(|r| r.fuse_match.is_some()).count();
        let under_dpor = rows.iter().filter(|r| r.dpor_fuse_match.is_some()).count();
        assert!(
            plain < 2 * rows.len(),
            "a budget of 500 truncates some rows"
        );
        assert_eq!(doc.matches("\"outcomes_match\":true").count(), plain);
        assert_eq!(
            doc.matches("\"dpor_outcomes_match\":true").count(),
            under_dpor
        );
        assert!(!doc.contains("_match\":false"));
    }
}
