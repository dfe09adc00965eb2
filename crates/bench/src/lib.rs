//! # lfm-bench — benchmark harness and table regenerator
//!
//! Two entry points:
//!
//! - [`Artifact`] regenerates every table (T1–T9), figure demo (F1–F5)
//!   and implication experiment (E-scope, E-detect, E-test, E-cov,
//!   E-tm, E-chaos, E-perf, E-dpor, E-fuse, E-wit, E-obs, E-serve) of
//!   the study, and [`Mode`] runs the benchmark documents and gates
//!   ([`gate`]); both are driven by `lfm tables` (`lfm tables <id>` for
//!   one artifact, `--markdown` for Markdown, `--json <path>` for an
//!   `lfm-obs/v1` metrics snapshot, see [`snapshot`]);
//! - the **bench mains** (`cargo bench -p lfm-bench`, timed with
//!   `std::time::Instant`) measure the substrates: exploration
//!   throughput per kernel family, detector throughput, TL2 STM vs.
//!   mutex scaling, and table generation.

#![warn(missing_docs)]

pub mod chaos;
pub mod gate;
pub mod obs;
pub mod perf;
pub mod reduction;
pub mod serve;
pub mod snapshot;

pub use gate::{Mode, Verdict};
pub use perf::BENCH_EXPLORE_SCHEMA;
pub use serve::{serve_json, ServeReport, ServeRow, BENCH_SERVE_SCHEMA, SERVE_SEED};

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use lfm_corpus::Corpus;
use lfm_obs::Sink;
use lfm_study::experiments::{
    coverage_growth_table, coverage_table, scheduler_table, scope_table, tm_table, witness_table,
};
use lfm_study::figures;
use lfm_study::Table;
use reduction::{dpor_table, fuse_table, reduction_report};

/// `std::thread::available_parallelism()` on this host (1 when unknown):
/// recorded next to every wall-clock measurement, and the throughput
/// gates skip below 2.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Appends `"key":value` pairs, comma-separated; each value is already
/// JSON.
pub(crate) fn push_fields(out: &mut String, fields: &[(&str, String)]) {
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{value}", lfm_obs::json::quote(key));
    }
}

/// Appends a JSON array holding one object per item, its fields from
/// `fields`.
pub(crate) fn push_objects<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    fields: impl Fn(T) -> Vec<(&'static str, String)>,
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_fields(out, &fields(item));
        out.push('}');
    }
    out.push(']');
}

/// Everything the harness can regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// One of the nine tables.
    Table(u8),
    /// One of the five figure demos.
    Figure(u8),
    /// E-scope.
    Scope,
    /// E-detect.
    Detect,
    /// E-test.
    SchedTest,
    /// E-cov.
    CoverageGrowth,
    /// E-tm.
    Tm,
    /// E-chaos.
    Chaos,
    /// E-perf.
    Perf,
    /// E-dpor.
    Dpor,
    /// E-fuse.
    Fuse,
    /// E-wit.
    Witness,
    /// E-obs.
    Obs,
    /// E-serve.
    Serve,
    /// The findings checker.
    Findings,
}

/// The artifacts a word selects, with that word: the findings (listed
/// first) and the experiments (listed after the tables and figures), in
/// presentation order.
const NAMED: [(&str, Artifact); 13] = [
    ("findings", Artifact::Findings),
    ("escope", Artifact::Scope),
    ("edetect", Artifact::Detect),
    ("etest", Artifact::SchedTest),
    ("ecov", Artifact::CoverageGrowth),
    ("etm", Artifact::Tm),
    ("echaos", Artifact::Chaos),
    ("eperf", Artifact::Perf),
    ("edpor", Artifact::Dpor),
    ("efuse", Artifact::Fuse),
    ("ewit", Artifact::Witness),
    ("eobs", Artifact::Obs),
    ("eserve", Artifact::Serve),
];

impl Artifact {
    /// Parses an artifact selector like `t3`, `f1`, `escope` (or
    /// `e-scope`), `findings`; case-insensitive.
    pub fn parse(s: &str) -> Option<Artifact> {
        let s = s.to_ascii_lowercase();
        let s = match s.strip_prefix("e-") {
            Some(rest) => format!("e{rest}"),
            None => s,
        };
        if let Some(&(_, artifact)) = NAMED.iter().find(|(id, _)| *id == s) {
            return Some(artifact);
        }
        let n: u8 = s.get(1..)?.parse().ok()?;
        match s.get(..1)? {
            "t" if (1..=9).contains(&n) => Some(Artifact::Table(n)),
            "f" if (1..=5).contains(&n) => Some(Artifact::Figure(n)),
            _ => None,
        }
    }

    /// All artifacts in presentation order.
    pub fn all() -> Vec<Artifact> {
        let (findings, experiments) = NAMED.split_at(1);
        let mut v = vec![findings[0].1];
        v.extend((1..=9).map(Artifact::Table));
        v.extend((1..=5).map(Artifact::Figure));
        v.extend(experiments.iter().map(|&(_, artifact)| artifact));
        v
    }

    /// Every artifact's [`id`](Artifact::id), in presentation order and
    /// comma-separated: the selector list usage errors print.
    pub fn selectors() -> String {
        let ids: Vec<String> = Artifact::all().iter().map(Artifact::id).collect();
        ids.join(", ")
    }

    /// The canonical selector for this artifact (the string [`parse`]
    /// accepts and the `LFM_INJECT_PANIC` hook matches against).
    ///
    /// [`parse`]: Artifact::parse
    pub fn id(&self) -> String {
        match self {
            Artifact::Table(n) => format!("t{n}"),
            Artifact::Figure(n) => format!("f{n}"),
            named => NAMED
                .iter()
                .find(|(_, artifact)| artifact == named)
                .map(|(id, _)| (*id).to_owned())
                .expect("every other artifact is in NAMED"),
        }
    }

    /// Renders the artifact (plain text or Markdown). A table T1–T9
    /// streams its `study`/`table` event to `sink`
    /// ([`lfm_study::build_table`]).
    pub fn render(&self, corpus: &Corpus, markdown: bool, sink: &dyn Sink) -> String {
        let table = |t: Table| {
            if markdown {
                t.to_markdown()
            } else {
                t.to_string()
            }
        };
        match self {
            // `parse` admits only T1-T9 and F1-F5.
            Artifact::Table(n) => table(lfm_study::build_table(usize::from(*n), corpus, sink).0),
            Artifact::Figure(n) => figures::FIGURES[usize::from(*n) - 1]().to_string(),
            Artifact::Scope => table(scope_table()),
            Artifact::Detect => table(coverage_table()),
            Artifact::SchedTest => table(scheduler_table(100)),
            Artifact::CoverageGrowth => table(coverage_growth_table()),
            Artifact::Tm => table(tm_table(corpus)),
            Artifact::Chaos => table(chaos::chaos_table(200)),
            Artifact::Perf => table(perf::perf_table(perf::PERF_BUDGET)),
            Artifact::Dpor => table(dpor_table(reduction_report())),
            Artifact::Fuse => table(fuse_table(reduction_report())),
            Artifact::Witness => table(witness_table()),
            Artifact::Obs => table(obs::obs_table(obs::OBS_BUDGET)),
            Artifact::Serve => table(serve::serve_table()),
            Artifact::Findings => {
                let mut out = String::from("Findings (paper vs measured)\n");
                for f in lfm_study::check_all(corpus) {
                    out.push_str(&format!("{f}\n"));
                }
                out
            }
        }
    }

    /// [`render`](Artifact::render) under `catch_unwind`: a panicking
    /// generator becomes `Err(payload)` so the caller can report the
    /// failure, keep regenerating the other artifacts, and exit
    /// degraded instead of aborting.
    ///
    /// Setting `LFM_INJECT_PANIC=<artifact-id>` forces a panic inside
    /// this artifact's render — the test hook proving the containment
    /// path end to end.
    pub fn render_isolated(
        &self,
        corpus: &Corpus,
        markdown: bool,
        sink: &dyn Sink,
    ) -> Result<String, String> {
        catch_unwind(AssertUnwindSafe(|| {
            if std::env::var("LFM_INJECT_PANIC").as_deref() == Ok(self.id().as_str()) {
                panic!("injected panic for artifact {}", self.id());
            }
            self.render(corpus, markdown, sink)
        }))
        .map_err(|payload| lfm_native::harness::panic_message(payload.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_obs::NoopSink;

    #[test]
    fn parse_selectors() {
        assert_eq!(Artifact::parse("t1"), Some(Artifact::Table(1)));
        assert_eq!(Artifact::parse("T9"), Some(Artifact::Table(9)));
        assert_eq!(Artifact::parse("f5"), Some(Artifact::Figure(5)));
        assert_eq!(Artifact::parse("escope"), Some(Artifact::Scope));
        assert_eq!(Artifact::parse("e-tm"), Some(Artifact::Tm));
        assert_eq!(Artifact::parse("etest"), Some(Artifact::SchedTest));
        assert_eq!(Artifact::parse("echaos"), Some(Artifact::Chaos));
        assert_eq!(Artifact::parse("e-chaos"), Some(Artifact::Chaos));
        assert_eq!(Artifact::parse("eperf"), Some(Artifact::Perf));
        assert_eq!(Artifact::parse("e-perf"), Some(Artifact::Perf));
        assert_eq!(Artifact::parse("edpor"), Some(Artifact::Dpor));
        assert_eq!(Artifact::parse("e-dpor"), Some(Artifact::Dpor));
        assert_eq!(Artifact::parse("efuse"), Some(Artifact::Fuse));
        assert_eq!(Artifact::parse("e-fuse"), Some(Artifact::Fuse));
        assert_eq!(Artifact::parse("ewit"), Some(Artifact::Witness));
        assert_eq!(Artifact::parse("e-wit"), Some(Artifact::Witness));
        assert_eq!(Artifact::parse("eobs"), Some(Artifact::Obs));
        assert_eq!(Artifact::parse("e-obs"), Some(Artifact::Obs));
        assert_eq!(Artifact::parse("eserve"), Some(Artifact::Serve));
        assert_eq!(Artifact::parse("e-serve"), Some(Artifact::Serve));
        assert_eq!(Artifact::parse("findings"), Some(Artifact::Findings));
        assert_eq!(Artifact::parse("t0"), None);
        assert_eq!(Artifact::parse("t10"), None);
        assert_eq!(Artifact::parse("x1"), None);
        assert_eq!(Artifact::parse(""), None);
        assert_eq!(Artifact::parse("e-t1"), None);
        assert_eq!(
            Artifact::parse("é1"),
            None,
            "a non-ASCII selector is no panic"
        );
    }

    #[test]
    fn all_lists_every_artifact() {
        let all = Artifact::all();
        assert_eq!(all.len(), 1 + 9 + 5 + 12);
    }

    #[test]
    fn every_artifact_id_round_trips_through_parse() {
        for artifact in Artifact::all() {
            assert_eq!(Artifact::parse(&artifact.id()), Some(artifact));
        }
    }

    #[test]
    fn render_isolated_succeeds_without_injection() {
        let corpus = Corpus::full();
        let out = Artifact::Table(2).render_isolated(&corpus, false, &NoopSink);
        assert!(out.expect("T2 renders").contains("T2:"));
    }

    // The LFM_INJECT_PANIC side of render_isolated is exercised end to
    // end by the CLI's degraded-exit integration test (environment
    // variables are process-global, so the unit suite leaves them be).

    #[test]
    fn render_table_both_formats() {
        let corpus = Corpus::full();
        let plain = Artifact::Table(2).render(&corpus, false, &NoopSink);
        assert!(plain.contains("T2:"));
        let md = Artifact::Table(2).render(&corpus, true, &NoopSink);
        assert!(md.contains("### T2"));
        assert!(md.contains("|---|"));
    }

    #[test]
    fn render_findings() {
        let corpus = Corpus::full();
        let s = Artifact::Findings.render(&corpus, false, &NoopSink);
        assert!(s.contains("F1-pattern"));
        assert!(!s.contains("MISMATCH"));
    }
}
