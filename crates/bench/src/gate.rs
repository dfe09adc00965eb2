//! The benchmark modes of `lfm tables`. Each runs instead of the table
//! regeneration, takes one file path, and returns its report lines with
//! a pass/fail [`Verdict`]:
//!
//! - `--json` writes an `lfm-obs/v1` metrics snapshot
//!   ([`crate::snapshot`]);
//! - `--bench-explore` writes the `lfm-bench-explore/v1` document (E-perf,
//!   E-dpor and E-fuse at their reference budgets); `--check-explore`
//!   reruns them against a committed one: the DPOR and fuse gates
//!   (outcome sets equal to full enumeration's and to unfused search's,
//!   no schedule count raised by fusion, the reduction floors on the
//!   gate kernels) are deterministic and hold on every host, the
//!   throughput floor only on multi-core hosts;
//! - `--bench-serve` writes the `lfm-bench-serve/v1` document (E-serve);
//!   `--check-serve` reruns it: zero wrong answers and clean drains on
//!   every host, the throughput and tracing-overhead floors on
//!   multi-core hosts.

use std::sync::Arc;

use lfm_obs::Sink;

use crate::perf::{
    baseline_states_per_sec, perf_json, perf_measure, PERF_BUDGET, PERF_GATE_KERNEL,
};
use crate::reduction::{reduction_report, ReductionReport, FUSE_GATE_KERNELS};
use crate::serve::{
    baseline_requests_per_sec, serve_json, serve_measure, trace_overhead_measure,
    SERVE_GATE_SCENARIO,
};

/// Fraction of the baseline's states/sec the gate kernel must still
/// reach: generous, so only a structural regression of the hot path
/// (not scheduler jitter) trips CI.
const CHECK_FLOOR: f64 = 0.70;

/// Fraction of the baseline's requests/sec the chaos-free load
/// scenario must still reach. Service throughput swings with the host
/// far more than the serial hot path (thread scheduling, loopback
/// latency), so the floor is very generous: only a structural
/// regression — an accidental serialization, an unbounded queue, a
/// cache that stopped hitting — trips it.
const SERVE_CHECK_FLOOR: f64 = 0.50;

/// Fraction of untraced requests/sec the fully-traced service must
/// keep (best-of-2 each, same host, same run). Tracing sells itself as
/// a strict observer; more than 10% throughput tax means it has grown
/// a lock, an allocation, or a syscall on the hot path.
const SERVE_TRACE_FLOOR: f64 = 0.90;

/// A mode of `lfm tables` that runs instead of the table regeneration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--json <path>`: write an `lfm-obs/v1` metrics snapshot.
    Snapshot,
    /// `--bench-explore <path>`: write the `lfm-bench-explore/v1` document.
    BenchExplore,
    /// `--check-explore <path>`: gate the explorer against that document.
    CheckExplore,
    /// `--bench-serve <path>`: write the `lfm-bench-serve/v1` document.
    BenchServe,
    /// `--check-serve <path>`: gate the service against that document.
    CheckServe,
}

impl Mode {
    /// Every mode, in the order `lfm help` lists them.
    pub const ALL: [Mode; 5] = [
        Mode::Snapshot,
        Mode::BenchExplore,
        Mode::CheckExplore,
        Mode::BenchServe,
        Mode::CheckServe,
    ];

    /// The flag that selects this mode.
    pub fn flag(self) -> &'static str {
        match self {
            Mode::Snapshot => "--json",
            Mode::BenchExplore => "--bench-explore",
            Mode::CheckExplore => "--check-explore",
            Mode::BenchServe => "--bench-serve",
            Mode::CheckServe => "--check-serve",
        }
    }

    /// The mode `flag` selects, if any.
    pub fn parse(flag: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|mode| mode.flag() == flag)
    }

    /// Runs the mode against the document at `path`. The snapshot
    /// streams its `explore`, `study` and `detect` events to `sink`.
    pub fn run(self, path: &str, sink: &Arc<dyn Sink>) -> Verdict {
        match self {
            Mode::Snapshot => snapshot(path, sink),
            Mode::BenchExplore => bench_explore(path),
            Mode::CheckExplore => check_explore(path),
            Mode::BenchServe => bench_serve(path),
            Mode::CheckServe => check_serve(path),
        }
    }
}

/// What a [`Mode`] reported, line by line, and whether it passed.
#[derive(Debug)]
pub struct Verdict {
    /// The report lines, in order.
    pub lines: Vec<String>,
    /// `false` when a gate failed or a document could not be read or
    /// written.
    pub pass: bool,
}

impl Verdict {
    fn new() -> Verdict {
        Verdict {
            lines: Vec::new(),
            pass: true,
        }
    }

    fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Ends the run with `line`, passed or not as it stands.
    fn end(mut self, line: String) -> Verdict {
        self.line(line);
        self
    }

    /// Ends the run failed, with `line` as the reason.
    fn fail(mut self, line: String) -> Verdict {
        self.pass = false;
        self.end(line)
    }
}

fn snapshot(path: &str, sink: &Arc<dyn Sink>) -> Verdict {
    match std::fs::write(path, crate::snapshot::obs_snapshot(sink)) {
        Ok(()) => Verdict::new().end(format!("metrics snapshot written to {path}")),
        Err(e) => Verdict::new().fail(format!("cannot write metrics snapshot to `{path}`: {e}")),
    }
}

/// The note for a measured schedule count against its count in a
/// committed `baseline` document; empty without a baseline.
fn drift_note(
    baseline: Option<&str>,
    section: &str,
    committed: impl FnOnce(&str) -> Option<u64>,
    measured: u64,
) -> String {
    let Some(doc) = baseline else {
        return String::new();
    };
    match committed(doc) {
        Some(expected) if expected != measured => format!(
            " (baseline ran {expected} — search semantics drifted; \
             regenerate with --bench-explore if intentional)"
        ),
        Some(_) => String::new(),
        None => format!(" (no {section} baseline committed)"),
    }
}

/// Reports the E-dpor gate rows and the E-fuse gate kernels, with drift
/// notes against `baseline` when one is given, then each gate's
/// failures; a failure fails `verdict`.
fn report_reductions(verdict: &mut Verdict, report: &ReductionReport, baseline: Option<&str>) {
    for r in report.deepest() {
        let drift = drift_note(
            baseline,
            "dpor",
            |doc| crate::perf::baseline_dpor_schedules(doc, r.kernel),
            r.dpor_fused.schedules,
        );
        verdict.line(format!(
            "{}: {} full vs {} dpor schedules, reduction {}{:.2}x{drift}",
            r.kernel,
            r.fused.schedules,
            r.dpor_fused.schedules,
            if r.fused.complete { "" } else { ">=" },
            r.dpor_reduction(),
        ));
    }
    let dpor_failures = report.dpor_gate_failures();
    for f in &dpor_failures {
        verdict.line(format!("dpor gate: {f}"));
    }
    for kernel in FUSE_GATE_KERNELS {
        let Some(r) = report.row(kernel) else {
            continue;
        };
        let drift = drift_note(
            baseline,
            "fuse",
            |doc| crate::perf::baseline_fused_schedules(doc, kernel),
            r.fused.schedules,
        );
        verdict.line(format!(
            "{}: {} unfused vs {} fused schedules, reduction {}{:.2}x, \
             dpor composition {:.2}x{drift}",
            r.kernel,
            r.base.schedules,
            r.fused.schedules,
            if r.base.complete { "" } else { ">=" },
            r.fuse_reduction(),
            r.composed_reduction(),
        ));
    }
    let fuse_failures = report.fuse_gate_failures();
    for f in &fuse_failures {
        verdict.line(format!("fuse gate: {f}"));
    }
    verdict.pass &= dpor_failures.is_empty() && fuse_failures.is_empty();
}

fn bench_explore(path: &str) -> Verdict {
    let report = perf_measure(PERF_BUDGET);
    let reductions = reduction_report();
    let mut verdict = Verdict::new();
    if let Err(e) = std::fs::write(path, perf_json(&report, reductions)) {
        return verdict.fail(format!("cannot write explore benchmark to `{path}`: {e}"));
    }
    for s in &report.speedups {
        verdict.line(format!(
            "{}: {:.0} states/sec (best of 3)",
            s.kernel, s.cow_states_per_sec
        ));
    }
    report_reductions(&mut verdict, reductions, None);
    verdict.end(format!("explore benchmark written to {path}"))
}

fn check_explore(path: &str) -> Verdict {
    let mut verdict = Verdict::new();
    let baseline = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => return verdict.fail(format!("cannot read explore baseline `{path}`: {e}")),
    };
    let kernel = PERF_GATE_KERNEL;
    let Some(expected) = baseline_states_per_sec(&baseline, kernel) else {
        return verdict.fail(format!(
            "baseline `{path}` has no states_per_sec for `{kernel}`"
        ));
    };
    // The reduction gates first: schedule counts and outcome sets are
    // deterministic, so unlike the throughput floor below they hold on
    // every host, single-core included. DPOR must match full
    // enumeration's outcome sets and clear its floor on the two deepest
    // kernels; fused outcome sets must equal unfused ones mode for
    // mode, fusion must never increase a schedule count, and the gate
    // kernels must clear the fusion-alone floor.
    report_reductions(&mut verdict, reduction_report(), Some(&baseline));
    if !verdict.pass {
        return verdict;
    }
    verdict.line("dpor and fuse gates passed".to_owned());
    if crate::host_parallelism() < 2 {
        return verdict.end(
            "single-core host: skipping the throughput gate (measured rates are noise here)"
                .to_owned(),
        );
    }
    let report = perf_measure(PERF_BUDGET);
    // Best-of-N throughput from the deep-kernel comparison when the
    // gate kernel is in it (it is, by construction — deepest space in
    // the registry); the single-run sweep row is the fallback.
    let measured = report
        .speedups
        .iter()
        .find(|s| s.kernel == kernel)
        .map(|s| s.cow_states_per_sec)
        .or_else(|| report.row(kernel).map(|r| r.states_per_sec))
        .unwrap_or(0.0);
    let floor = expected * CHECK_FLOOR;
    verdict.line(format!(
        "{kernel}: measured {measured:.0} states/sec, baseline {expected:.0}, floor {floor:.0}"
    ));
    if measured < floor {
        return verdict.fail(
            "serial explorer throughput regressed more than 30% — investigate the hot path"
                .to_owned(),
        );
    }
    verdict.end("throughput gate passed".to_owned())
}

fn bench_serve(path: &str) -> Verdict {
    let report = serve_measure();
    let mut verdict = Verdict::new();
    if let Err(e) = std::fs::write(path, serve_json(&report)) {
        return verdict.fail(format!("cannot write serve benchmark to `{path}`: {e}"));
    }
    for r in &report.rows {
        verdict.line(format!(
            "{}: {}/{} ok, {} wrong, hit rate {:.2}, shed rate {:.2}, \
             p50 {} us, p99 {} us, {:.0} req/sec, drain {}",
            r.scenario,
            r.ok,
            r.requests,
            r.wrong,
            r.hit_rate,
            r.shed_rate,
            r.p50_us,
            r.p99_us,
            r.requests_per_sec,
            if r.clean_drain { "clean" } else { "UNCLEAN" }
        ));
    }
    verdict.pass = report.all_correct();
    verdict.end(format!("serve benchmark written to {path}"))
}

fn check_serve(path: &str) -> Verdict {
    let mut verdict = Verdict::new();
    let baseline = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => return verdict.fail(format!("cannot read serve baseline `{path}`: {e}")),
    };
    let scenario = SERVE_GATE_SCENARIO;
    let Some(expected) = baseline_requests_per_sec(&baseline, scenario) else {
        return verdict.fail(format!(
            "baseline `{path}` has no requests_per_sec for `{scenario}`"
        ));
    };
    let report = serve_measure();
    // The correctness half of the gate holds on every host, single-core
    // included: no wrong answers, no unclean drains, under load and
    // under chaos.
    for r in &report.rows {
        verdict.line(format!(
            "{}: {}/{} ok, {} wrong, {:.0} req/sec, drain {}",
            r.scenario,
            r.ok,
            r.requests,
            r.wrong,
            r.requests_per_sec,
            if r.clean_drain { "clean" } else { "UNCLEAN" }
        ));
    }
    if !report.all_correct() {
        return verdict
            .fail("serve correctness gate failed: wrong answers or an unclean drain".to_owned());
    }
    if crate::host_parallelism() < 2 {
        return verdict.end(
            "single-core host: skipping the serve throughput gate (rates are noise here)"
                .to_owned(),
        );
    }
    let measured = report
        .row(scenario)
        .map(|r| r.requests_per_sec)
        .unwrap_or(0.0);
    let floor = expected * SERVE_CHECK_FLOOR;
    verdict.line(format!(
        "{scenario}: measured {measured:.0} req/sec, baseline {expected:.0}, floor {floor:.0}"
    ));
    if measured < floor {
        return verdict.fail(
            "serve throughput regressed more than 50% — investigate the service path".to_owned(),
        );
    }
    // The tracing-overhead half: full tracing (span capture, ring,
    // slow gate at 0 ms) must keep >= SERVE_TRACE_FLOOR of the
    // untraced requests/sec. Both sides are measured best-of-2 in this
    // run on this host, so the ratio cancels the host out.
    let (traced, untraced) = trace_overhead_measure();
    let ratio = if untraced > 0.0 {
        traced / untraced
    } else {
        0.0
    };
    verdict.line(format!(
        "tracing overhead: traced {traced:.0} req/sec vs untraced {untraced:.0} \
         ({ratio:.2}x, floor {SERVE_TRACE_FLOOR:.2}x)"
    ));
    if ratio < SERVE_TRACE_FLOOR {
        return verdict.fail(
            "full tracing taxes throughput more than 10% — the observer is no longer cheap"
                .to_owned(),
        );
    }
    verdict.end("serve gate passed".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_or_incomplete_baselines_fail_before_measuring() {
        let empty = std::env::temp_dir().join(format!("lfm-gate-{}.json", std::process::id()));
        std::fs::write(&empty, "{}").unwrap();
        let empty = empty.to_string_lossy().into_owned();
        let missing = "/nonexistent/lfm/BENCH.json";
        let check = |mode: Mode, path: &str| {
            let sink: Arc<dyn Sink> = Arc::new(lfm_obs::NoopSink);
            let verdict = mode.run(path, &sink);
            assert!(!verdict.pass, "{verdict:?}");
            assert_eq!(verdict.lines.len(), 1, "{verdict:?}");
            verdict.lines[0].clone()
        };
        assert!(check(Mode::CheckExplore, missing)
            .starts_with(&format!("cannot read explore baseline `{missing}`: ")));
        assert!(check(Mode::CheckServe, missing)
            .starts_with(&format!("cannot read serve baseline `{missing}`: ")));
        assert_eq!(
            check(Mode::CheckExplore, &empty),
            format!("baseline `{empty}` has no states_per_sec for `{PERF_GATE_KERNEL}`")
        );
        assert_eq!(
            check(Mode::CheckServe, &empty),
            format!("baseline `{empty}` has no requests_per_sec for `{SERVE_GATE_SCENARIO}`")
        );
        let _ = std::fs::remove_file(&empty);
    }
}
