//! E-dpor and E-fuse: the schedule reductions of source-DPOR and of
//! invisible-step fusion, measured on one search matrix.
//!
//! Every kernel's buggy variant is explored four times, with fusion
//! off and on, each without and with source-set DPOR (which implies
//! its sleep sets). Dedup and plain sleep sets stay off and every
//! search has the same schedule budget, so within a pair the compared
//! reduction is the only difference. The two experiments read
//! different cells of the matrix:
//!
//! - **E-dpor** compares full enumeration with DPOR, both fused as in
//!   every default search; fusion lets full enumeration of
//!   `livelock_retry` complete inside the budget, so its outcome set is
//!   compared.
//! - **E-fuse** compares unfused with fused enumeration, plainly and
//!   under DPOR, because the interesting question for deep kernels is
//!   whether fusion's win *composes* with DPOR's rather than being the
//!   same schedules pruned twice. Kernels whose threads never run an
//!   invisible op fuse nothing and show an honest 1.00x.
//!
//! Each pair's outcome sets are compared with the `lfm-sim` oracle
//! ([`lfm_sim::OutcomeSet`]), and only when both searches exhausted
//! their space. Everything here is **deterministic**: schedule counts
//! are a property of the search, not the host, so both CI gates
//! ([`ReductionReport::dpor_gate_failures`],
//! [`ReductionReport::fuse_gate_failures`]) hold everywhere, including
//! single-core runners where the throughput gates are skipped.

use std::sync::OnceLock;

use lfm_kernels::registry;
use lfm_sim::{ExploreLimits, Explorer, OutcomeSet};
use lfm_study::Table;

/// Schedule budget of every search, for the committed
/// `BENCH_explore.json` `dpor` and `fuse` sections and the CI gates.
/// Large enough that DPOR finishes every kernel exhaustively; full
/// enumeration is allowed to truncate (a reduction factor is then a
/// lower bound).
pub const REDUCTION_BUDGET: u64 = 100_000;

/// Minimum DPOR schedule-reduction factor the two deepest kernels must
/// show. The deepest state spaces are where partial-order reduction
/// earns its keep; anything under 2x there means the race scan has
/// effectively degraded to full enumeration.
pub const DPOR_FLOOR: f64 = 2.0;

/// Minimum schedule-reduction factor fusion alone must show on the
/// gate kernels. Below this, fusion is not earning its complexity on
/// the state spaces it was built for.
pub const FUSE_FLOOR: f64 = 1.5;

/// The kernels the fusion floor applies to — the two deepest state
/// spaces, which are also the two with the most invisible ops
/// (`livelock_retry` yields in its back-off path; `toctou_flag`
/// re-checks a local-only assert in its retry loop).
pub const FUSE_GATE_KERNELS: [&str; 2] = ["livelock_retry", "toctou_flag"];

/// One search of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Search {
    /// Schedules run (at most the budget).
    pub schedules: u64,
    /// Whether the search exhausted its space: no truncation, no
    /// step-capped leaf.
    pub complete: bool,
}

impl Search {
    /// `self.schedules / reduced.schedules`, a lower bound on the true
    /// reduction when `self` did not complete.
    fn reduction_to(&self, reduced: &Search) -> f64 {
        self.schedules as f64 / reduced.schedules.max(1) as f64
    }
}

/// One kernel's four searches and the three outcome-set comparisons
/// between them. A comparison is `None` when one of its searches did
/// not complete, and `Some(matched)` otherwise.
#[derive(Debug, Clone)]
pub struct ReductionRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// The kernel's bug family.
    pub family: String,
    /// Full enumeration, fusion off.
    pub base: Search,
    /// Full enumeration, fusion on.
    pub fused: Search,
    /// DPOR, fusion off.
    pub dpor: Search,
    /// DPOR, fusion on.
    pub dpor_fused: Search,
    /// Invisible steps the fused full enumeration executed without
    /// branching.
    pub fused_steps: u64,
    /// Deepest DFS stack of the fused DPOR search; E-dpor gates the two
    /// deepest kernels.
    pub max_depth: u64,
    /// Fused vs unfused full enumeration.
    pub fuse_match: Option<bool>,
    /// Fused vs unfused DPOR.
    pub dpor_fuse_match: Option<bool>,
    /// Fused DPOR vs fused full enumeration.
    pub dpor_match: Option<bool>,
}

impl ReductionRow {
    /// E-dpor's factor: fused full enumeration over fused DPOR.
    pub fn dpor_reduction(&self) -> f64 {
        self.fused.reduction_to(&self.dpor_fused)
    }

    /// E-fuse's factor: unfused over fused full enumeration.
    pub fn fuse_reduction(&self) -> f64 {
        self.base.reduction_to(&self.fused)
    }

    /// What fusion still removes after DPOR has pruned commuting
    /// interleavings: unfused over fused DPOR.
    pub fn composed_reduction(&self) -> f64 {
        self.dpor.reduction_to(&self.dpor_fused)
    }
}

/// The measurement behind E-dpor and E-fuse.
#[derive(Debug, Clone)]
pub struct ReductionReport {
    /// Schedule budget every search was capped at.
    pub budget: u64,
    /// Per-kernel rows, in registry order.
    pub rows: Vec<ReductionRow>,
}

impl ReductionReport {
    /// The row for `kernel`, if that kernel was measured.
    pub fn row(&self, kernel: &str) -> Option<&ReductionRow> {
        self.rows.iter().find(|r| r.kernel == kernel)
    }

    /// The two deepest kernels (ties broken by id), the rows the DPOR
    /// floor applies to.
    pub fn deepest(&self) -> Vec<&ReductionRow> {
        let mut rows: Vec<&ReductionRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.max_depth.cmp(&a.max_depth).then(a.kernel.cmp(b.kernel)));
        rows.truncate(2);
        rows
    }

    /// The E-dpor gate, as human-readable failures (empty means pass):
    /// every compared DPOR outcome set must equal full enumeration's,
    /// at least one row must actually have been compared, and the two
    /// deepest kernels must complete under DPOR with at least
    /// [`DPOR_FLOOR`] reduction.
    pub fn dpor_gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for r in &self.rows {
            if r.dpor_match == Some(false) {
                failures.push(format!(
                    "{}: DPOR outcome set diverged from full enumeration",
                    r.kernel
                ));
            }
        }
        if !self.rows.iter().any(|r| r.dpor_match.is_some()) {
            failures.push("no kernel completed both searches; outcome oracle never ran".into());
        }
        for r in self.deepest() {
            if !r.dpor_fused.complete {
                failures.push(format!(
                    "{}: DPOR search truncated at budget {} — cannot bound the reduction",
                    r.kernel, self.budget
                ));
            } else if r.dpor_reduction() < DPOR_FLOOR {
                failures.push(format!(
                    "{}: reduction {:.2}x below the {DPOR_FLOOR:.1}x floor \
                     ({} full vs {} dpor schedules)",
                    r.kernel,
                    r.dpor_reduction(),
                    r.fused.schedules,
                    r.dpor_fused.schedules
                ));
            }
        }
        failures
    }

    /// The E-fuse gate, as human-readable failures (empty means pass):
    /// every compared outcome set — plain and DPOR — must agree, at
    /// least one row must actually have been compared, fusion must
    /// never *increase* a schedule count, and on the
    /// [`FUSE_GATE_KERNELS`] the fused search must complete with at
    /// least [`FUSE_FLOOR`] reduction and the DPOR composition must
    /// complete without giving any of DPOR's win back.
    pub fn fuse_gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for r in &self.rows {
            if r.fuse_match == Some(false) {
                failures.push(format!(
                    "{}: fused outcome set diverged from the unfused baseline",
                    r.kernel
                ));
            }
            if r.dpor_fuse_match == Some(false) {
                failures.push(format!(
                    "{}: fused DPOR outcome set diverged from unfused DPOR",
                    r.kernel
                ));
            }
            if r.fused.schedules > r.base.schedules {
                failures.push(format!(
                    "{}: fusion increased schedules ({} fused vs {} unfused)",
                    r.kernel, r.fused.schedules, r.base.schedules
                ));
            }
            if r.dpor_fused.schedules > r.dpor.schedules {
                failures.push(format!(
                    "{}: fusion increased DPOR schedules ({} fused vs {} unfused)",
                    r.kernel, r.dpor_fused.schedules, r.dpor.schedules
                ));
            }
        }
        if !self
            .rows
            .iter()
            .any(|r| r.fuse_match.is_some() || r.dpor_fuse_match.is_some())
        {
            failures.push("no kernel completed both searches; outcome oracle never ran".into());
        }
        for kernel in FUSE_GATE_KERNELS {
            let Some(r) = self.row(kernel) else {
                failures.push(format!("{kernel}: gate kernel missing from the registry"));
                continue;
            };
            if !r.fused.complete {
                failures.push(format!(
                    "{}: fused search truncated at budget {} — cannot bound the reduction",
                    r.kernel, self.budget
                ));
            } else if r.fuse_reduction() < FUSE_FLOOR {
                failures.push(format!(
                    "{}: reduction {:.2}x below the {FUSE_FLOOR:.1}x floor \
                     ({} unfused vs {} fused schedules)",
                    r.kernel,
                    r.fuse_reduction(),
                    r.base.schedules,
                    r.fused.schedules
                ));
            }
            if !r.dpor_fused.complete {
                failures.push(format!(
                    "{}: fused DPOR search truncated at budget {}",
                    r.kernel, self.budget
                ));
            } else if r.composed_reduction() < 1.0 {
                failures.push(format!(
                    "{}: fuse x dpor composition {:.2}x lost ground \
                     ({} dpor vs {} dpor+fuse schedules)",
                    r.kernel,
                    r.composed_reduction(),
                    r.dpor.schedules,
                    r.dpor_fused.schedules
                ));
            }
        }
        failures
    }
}

/// The four-search matrix at [`REDUCTION_BUDGET`], measured at most
/// once per process: E-dpor, E-fuse and the explore gates all read it,
/// and it is deterministic, so a second run could only repeat it.
pub fn reduction_report() -> &'static ReductionReport {
    static REPORT: OnceLock<ReductionReport> = OnceLock::new();
    REPORT.get_or_init(|| reduction_measure(REDUCTION_BUDGET))
}

/// Runs the four searches on every kernel's buggy variant at the given
/// schedule budget.
pub fn reduction_measure(budget: u64) -> ReductionReport {
    let mut rows = Vec::new();
    for kernel in registry::all() {
        let program = kernel.buggy();
        let explore = |dpor: bool, fuse: bool| {
            let (report, set) = Explorer::new(&program)
                .limits(ExploreLimits {
                    max_schedules: budget,
                    dedup_states: false,
                    sleep_sets: false,
                    dpor,
                    fuse,
                    ..ExploreLimits::default()
                })
                .run_outcome_set();
            let search = Search {
                schedules: report.schedules_run,
                complete: report.truncation.is_none(),
            };
            (search, set, report.stats)
        };
        let (base, base_set, _) = explore(false, false);
        let (fused, fused_set, fused_stats) = explore(false, true);
        let (dpor, dpor_set, _) = explore(true, false);
        let (dpor_fused, dpor_fused_set, dpor_fused_stats) = explore(true, true);
        let compare = |a: &Search, a_set: &OutcomeSet, b: &Search, b_set: &OutcomeSet| {
            (a.complete && b.complete).then(|| a_set == b_set)
        };
        rows.push(ReductionRow {
            kernel: kernel.id,
            family: kernel.family.to_string(),
            fused_steps: fused_stats.fused_steps,
            max_depth: dpor_fused_stats.max_depth,
            fuse_match: compare(&base, &base_set, &fused, &fused_set),
            dpor_fuse_match: compare(&dpor, &dpor_set, &dpor_fused, &dpor_fused_set),
            dpor_match: compare(&fused, &fused_set, &dpor_fused, &dpor_fused_set),
            base,
            fused,
            dpor,
            dpor_fused,
        });
    }
    ReductionReport { budget, rows }
}

/// `N`, or `N+` for a search truncated at the budget.
fn schedules_cell(s: &Search) -> String {
    if s.complete {
        s.schedules.to_string()
    } else {
        format!("{}+", s.schedules)
    }
}

/// A reduction factor, marked `>=` when its baseline truncated.
fn reduction_cell(baseline: &Search, factor: f64) -> String {
    format!("{}{factor:.2}x", if baseline.complete { "" } else { ">=" })
}

/// The `outcomes` column over some comparisons.
fn outcomes_cell(comparisons: &[Option<bool>]) -> String {
    if comparisons.iter().all(Option::is_none) {
        "(truncated)"
    } else if comparisons.iter().all(|c| *c != Some(false)) {
        "identical"
    } else {
        "DIVERGED"
    }
    .to_string()
}

/// `kernel`, marked ` *` on a CI gate row.
fn kernel_cell(kernel: &str, gated: bool) -> String {
    if gated {
        format!("{kernel} *")
    } else {
        kernel.to_string()
    }
}

/// Renders the E-dpor table.
pub fn dpor_table(report: &ReductionReport) -> Table {
    let deepest: Vec<&'static str> = report.deepest().iter().map(|r| r.kernel).collect();
    let mut t = Table::new(
        "E-dpor",
        format!(
            "Source-DPOR with sleep sets vs full enumeration ({} kernels, budget {})",
            report.rows.len(),
            report.budget
        ),
        vec![
            "kernel",
            "family",
            "depth",
            "full",
            "dpor",
            "reduction",
            "outcomes",
        ],
    );
    for r in &report.rows {
        t.row(vec![
            kernel_cell(r.kernel, deepest.contains(&r.kernel)),
            r.family.clone(),
            r.max_depth.to_string(),
            schedules_cell(&r.fused),
            r.dpor_fused.schedules.to_string(),
            reduction_cell(&r.fused, r.dpor_reduction()),
            outcomes_cell(&[r.dpor_match]),
        ]);
    }
    t.note(
        "full enumeration runs with dedup and sleep sets off, DPOR with the \
         sleep sets it implies, both with step fusion on; `N+` marks a search \
         truncated at the budget, making the reduction a lower bound; \
         `outcomes` compares {outcome kind, final state for ok/deadlock} sets \
         and only when both searches completed",
    );
    t.note(format!(
        "* CI gate rows (the two deepest kernels): DPOR must complete and \
         reduce schedules by at least {DPOR_FLOOR:.1}x; schedule counts are \
         deterministic, so unlike the throughput gates this holds on every \
         host"
    ));
    t
}

/// Renders the E-fuse table.
pub fn fuse_table(report: &ReductionReport) -> Table {
    let mut t = Table::new(
        "E-fuse",
        format!(
            "Invisible-step fusion vs unfused enumeration ({} kernels, budget {})",
            report.rows.len(),
            report.budget
        ),
        vec![
            "kernel",
            "family",
            "nofuse",
            "fuse",
            "reduction",
            "fused",
            "dpor",
            "dpor+fuse",
            "composed",
            "outcomes",
        ],
    );
    for r in &report.rows {
        t.row(vec![
            kernel_cell(r.kernel, FUSE_GATE_KERNELS.contains(&r.kernel)),
            r.family.clone(),
            schedules_cell(&r.base),
            r.fused.schedules.to_string(),
            reduction_cell(&r.base, r.fuse_reduction()),
            r.fused_steps.to_string(),
            schedules_cell(&r.dpor),
            r.dpor_fused.schedules.to_string(),
            reduction_cell(&r.dpor, r.composed_reduction()),
            outcomes_cell(&[r.fuse_match, r.dpor_fuse_match]),
        ]);
    }
    t.note(
        "all searches run with dedup off and sleep sets off except the ones \
         DPOR implies, so fusion is the only difference within a pair; `N+` \
         marks a search truncated at the budget, making the reduction a lower \
         bound; `fused` counts invisible steps executed without branching (0 \
         means the kernel has no invisible ops and its honest 1.00x); \
         `composed` is what fusion still removes after DPOR; `outcomes` \
         compares {outcome kind, final state for ok/deadlock} sets per pair \
         and only when both sides completed",
    );
    t.note(format!(
        "* CI gate rows: fusion alone must reduce schedules by at least \
         {FUSE_FLOOR:.1}x and the dpor+fuse composition must never lose \
         ground; schedule counts are deterministic, so the gate holds on \
         every host"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_hold_at_the_reference_budget() {
        let report = reduction_measure(REDUCTION_BUDGET);
        assert_eq!(report.rows.len(), registry::all().len());
        let failures = report.dpor_gate_failures();
        assert!(failures.is_empty(), "{failures:?}");
        let failures = report.fuse_gate_failures();
        assert!(failures.is_empty(), "{failures:?}");
        let deepest = report.deepest();
        assert_eq!(deepest.len(), 2);
        assert_ne!(deepest[0].kernel, deepest[1].kernel);
        for r in deepest {
            assert!(r.dpor_fused.complete, "{}: dpor truncated", r.kernel);
            assert!(
                r.dpor_reduction() >= DPOR_FLOOR,
                "{}: reduction {:.2}",
                r.kernel,
                r.dpor_reduction()
            );
        }
        for kernel in FUSE_GATE_KERNELS {
            let r = report.row(kernel).expect("gate kernel measured");
            assert!(r.fused.complete, "{kernel}: fused search truncated");
            assert!(
                r.fuse_reduction() >= FUSE_FLOOR,
                "{kernel}: reduction {:.2}",
                r.fuse_reduction()
            );
            assert!(r.fused_steps > 0, "{kernel}: nothing fused");
        }
        // The oracle must actually fire on most kernels: only the very
        // deepest state spaces may outgrow full enumeration's budget.
        let dpor_compared = report.rows.iter().filter(|r| r.dpor_match.is_some());
        let fuse_compared = report.rows.iter().filter(|r| r.fuse_match.is_some());
        for compared in [dpor_compared.count(), fuse_compared.count()] {
            assert!(compared * 2 > report.rows.len(), "only {compared} compared");
        }
        // And the DPOR pairs are cheap enough to always complete.
        assert!(report.rows.iter().all(|r| r.dpor_fuse_match.is_some()));
    }

    #[test]
    fn gate_failures_catch_divergence_and_regression() {
        let mut report = reduction_measure(1); // everything truncates
        for failures in [report.dpor_gate_failures(), report.fuse_gate_failures()] {
            assert!(
                failures.iter().any(|f| f.contains("oracle never ran")),
                "{failures:?}"
            );
        }
        // Complete searches at 1.00x on a row each gate floors.
        let flat = Search {
            schedules: 1,
            complete: true,
        };
        let deepest = report.deepest()[0].kernel;
        for r in &mut report.rows {
            if r.kernel == deepest {
                (r.fused, r.dpor_fused) = (flat, flat);
            }
            if r.kernel == FUSE_GATE_KERNELS[0] {
                (r.base, r.fused) = (flat, flat);
            }
        }
        report.rows[0].dpor_match = Some(false);
        report.rows[0].fuse_match = Some(false);
        report.rows[1].fused.schedules = report.rows[1].base.schedules + 1;
        let failures = report.dpor_gate_failures();
        for needle in ["DPOR outcome set diverged", "below the 2.0x floor"] {
            assert!(failures.iter().any(|f| f.contains(needle)), "{failures:?}");
        }
        let failures = report.fuse_gate_failures();
        for needle in [
            "fused outcome set diverged",
            "increased schedules",
            "below the 1.5x floor",
        ] {
            assert!(failures.iter().any(|f| f.contains(needle)), "{failures:?}");
        }
    }

    #[test]
    fn tables_have_expected_shape() {
        let report = reduction_measure(REDUCTION_BUDGET);
        for (t, id) in [
            (dpor_table(&report), "E-dpor"),
            (fuse_table(&report), "E-fuse"),
        ] {
            assert_eq!(t.id, id);
            assert_eq!(t.len(), registry::all().len());
            let rendered = t.to_string();
            assert!(rendered.contains(" *"), "{id}: gate rows are marked");
            assert!(rendered.contains("identical"), "{id}");
            assert!(!rendered.contains("DIVERGED"), "{id}");
        }
    }
}
