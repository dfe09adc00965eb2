//! End-to-end pipeline tests spanning all crates: corpus ↔ kernels link
//! integrity, tables ↔ findings consistency, figures, and the study's
//! deterministic artifacts as `lfm tables` renders them.

use learning_from_mistakes::corpus::{BugClass, Corpus};
use learning_from_mistakes::kernels::registry;
use learning_from_mistakes::study::{check_all, figures, tables};
use lfm_bench::Artifact;

#[test]
fn every_corpus_kernel_link_resolves() {
    let corpus = Corpus::full();
    for bug in corpus.iter() {
        if let Some(kernel_id) = &bug.kernel {
            assert!(
                registry::by_id(kernel_id).is_some(),
                "bug {} links to unknown kernel `{kernel_id}`",
                bug.id
            );
        }
    }
}

#[test]
fn every_kernel_source_bug_resolves() {
    let corpus = Corpus::full();
    for kernel in registry::all() {
        if let Some(source) = kernel.source_bug {
            assert!(
                corpus.get_str(source).is_some(),
                "kernel {} names unknown source bug `{source}`",
                kernel.id
            );
        }
    }
}

#[test]
fn kernel_class_matches_linked_bug_class() {
    // A deadlock kernel's source bug must be a deadlock bug, and vice
    // versa — the linkage is semantic, not decorative.
    let corpus = Corpus::full();
    for kernel in registry::all() {
        let Some(source) = kernel.source_bug else {
            continue;
        };
        let bug = corpus.get_str(source).expect("resolves");
        assert_eq!(
            kernel.is_deadlock(),
            bug.class() == BugClass::Deadlock,
            "kernel {} / bug {} class mismatch",
            kernel.id,
            bug.id
        );
    }
}

#[test]
fn a_good_share_of_bugs_have_executable_kernels() {
    let corpus = Corpus::full();
    let with_kernel = corpus.query().with_kernel(true).count();
    assert!(
        with_kernel >= 40,
        "only {with_kernel} bugs link to kernels; the corpus should be \
         substantially executable"
    );
}

#[test]
fn table_totals_agree_with_findings() {
    let corpus = Corpus::full();
    let findings = check_all(&corpus);
    assert!(findings.iter().all(|f| f.holds()));

    // T2's total row and the corpus size must agree.
    let t2 = tables::table2(&corpus);
    let last = t2.rows.last().expect("total row");
    assert_eq!(last[3], corpus.len().to_string());

    // T5's one-variable count is exactly finding F3's numerator.
    let f3 = findings.iter().find(|f| f.id == "F3-variables").unwrap();
    let t5 = tables::table5(&corpus);
    let total = t5.rows.last().unwrap();
    assert_eq!(total[1], f3.measured.0.to_string());
}

#[test]
fn all_nine_tables_are_non_empty_and_render() {
    let corpus = Corpus::full();
    for table in tables::all_tables(&corpus) {
        assert!(!table.is_empty(), "{} has no rows", table.id);
        let text = table.to_string();
        assert!(text.contains(&table.id));
        let md = table.to_markdown();
        assert!(md.starts_with("### "));
    }
}

#[test]
fn figures_match_their_kernels_expected_failure() {
    use learning_from_mistakes::kernels::ExpectedFailure;
    for figure in figures::all_figures() {
        let kernel = registry::by_id(figure.kernel_id).expect("kernel exists");
        let (_, outcome) = figure.witness.as_ref().expect("witness exists");
        match kernel.expected {
            ExpectedFailure::Deadlock => assert!(outcome.is_deadlock(), "{}", figure.id),
            ExpectedFailure::Assert => assert!(!outcome.is_deadlock(), "{}", figure.id),
        }
    }
}

#[test]
fn full_report_is_complete_and_clean() {
    // The findings, tables, figures and the corpus and kernel
    // experiments (everything before E-chaos, whose measurements are
    // wall-clock), through the panic-isolated path `lfm tables` takes.
    let corpus = Corpus::full();
    let report: String = Artifact::all()
        .into_iter()
        .take_while(|&artifact| artifact != Artifact::Chaos)
        .map(|artifact| {
            artifact
                .render_isolated(&corpus, false)
                .unwrap_or_else(|payload| panic!("{} failed: {payload}", artifact.id()))
        })
        .collect();
    // All nine tables...
    for n in 1..=9 {
        assert!(report.contains(&format!("T{n}:")), "missing table T{n}");
    }
    // ...all five figures...
    for n in 1..=5 {
        assert!(report.contains(&format!("F{n}:")), "missing figure F{n}");
    }
    // ...the experiments, and no reproduction mismatch.
    for e in ["E-scope", "E-detect", "E-test", "E-cov", "E-tm"] {
        assert!(report.contains(e), "missing {e}");
    }
    assert!(!report.contains("MISMATCH"));
}
