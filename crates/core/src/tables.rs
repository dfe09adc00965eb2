//! Generators for the study's nine tables (T1–T9), each computed from
//! the corpus (never hard-coded): the numbers printed here are *measured*
//! over the dataset, and the findings checker separately asserts they
//! match the paper.

use lfm_corpus::{
    all_apps, AccessCount, App, Corpus, DeadlockFix, NonDeadlockFix, ResourceCount, ThreadCount,
    TmApplicability, TmObstacle, VariableCount,
};

use crate::table::{with_pct, Table};

/// T1 — applications studied.
pub fn table1(_corpus: &Corpus) -> Table {
    let mut t = Table::new(
        "T1",
        "Applications studied",
        vec!["application", "description", "~MLoC", "bug database"],
    );
    for info in all_apps() {
        t.row(vec![
            info.app.to_string(),
            info.description.to_string(),
            format!("{:.2}", info.approx_mloc),
            info.bug_database.to_string(),
        ]);
    }
    t.note("sizes reconstructed to order of magnitude; see EXPERIMENTS.md");
    t
}

/// T2 — sampled bug counts per application and class.
pub fn table2(corpus: &Corpus) -> Table {
    let mut t = Table::new(
        "T2",
        "Concurrency bugs examined",
        vec!["application", "non-deadlock", "deadlock", "total"],
    );
    let mut nd_total = 0;
    let mut d_total = 0;
    for app in App::ALL {
        let nd = corpus
            .query()
            .app(app)
            .class(lfm_corpus::BugClass::NonDeadlock)
            .count();
        let d = corpus
            .query()
            .app(app)
            .class(lfm_corpus::BugClass::Deadlock)
            .count();
        nd_total += nd;
        d_total += d;
        t.row(vec![
            app.to_string(),
            nd.to_string(),
            d.to_string(),
            (nd + d).to_string(),
        ]);
    }
    t.row(vec![
        "Total".to_string(),
        nd_total.to_string(),
        d_total.to_string(),
        (nd_total + d_total).to_string(),
    ]);
    t
}

/// T3 — bug pattern distribution over non-deadlock bugs.
pub fn table3(corpus: &Corpus) -> Table {
    let mut t = Table::new(
        "T3",
        "Root-cause patterns of non-deadlock bugs",
        vec![
            "application",
            "atomicity",
            "order",
            "both",
            "other",
            "total",
        ],
    );
    let mut totals = [0usize; 5];
    for app in App::ALL {
        let nd: Vec<_> = corpus
            .query()
            .app(app)
            .class(lfm_corpus::BugClass::NonDeadlock)
            .collect();
        let a = nd
            .iter()
            .filter(|b| {
                let p = b.patterns().unwrap();
                p.atomicity && !p.order
            })
            .count();
        let o = nd
            .iter()
            .filter(|b| {
                let p = b.patterns().unwrap();
                p.order && !p.atomicity
            })
            .count();
        let both = nd
            .iter()
            .filter(|b| {
                let p = b.patterns().unwrap();
                p.atomicity && p.order
            })
            .count();
        let other = nd.iter().filter(|b| b.patterns().unwrap().other).count();
        totals[0] += a;
        totals[1] += o;
        totals[2] += both;
        totals[3] += other;
        totals[4] += nd.len();
        t.row(vec![
            app.to_string(),
            a.to_string(),
            o.to_string(),
            both.to_string(),
            other.to_string(),
            nd.len().to_string(),
        ]);
    }
    t.row(vec![
        "Total".to_string(),
        totals[0].to_string(),
        totals[1].to_string(),
        totals[2].to_string(),
        totals[3].to_string(),
        totals[4].to_string(),
    ]);
    let a_or_o = totals[0] + totals[1] + totals[2];
    t.note(format!(
        "{} of {} ({:.0}%) are atomicity or order violations (Finding 1)",
        a_or_o,
        totals[4],
        100.0 * a_or_o as f64 / totals[4] as f64
    ));
    t
}

/// T4 — threads involved in the manifestation.
pub fn table4(corpus: &Corpus) -> Table {
    let mut t = Table::new(
        "T4",
        "Threads involved in bug manifestation",
        vec!["class", "1 thread", "2 threads", "> 2 threads", "total"],
    );
    for (label, class) in [
        ("non-deadlock", lfm_corpus::BugClass::NonDeadlock),
        ("deadlock", lfm_corpus::BugClass::Deadlock),
    ] {
        let bugs: Vec<_> = corpus.query().class(class).collect();
        let count = |tc: ThreadCount| bugs.iter().filter(|b| b.threads == tc).count();
        t.row(vec![
            label.to_string(),
            count(ThreadCount::One).to_string(),
            count(ThreadCount::Two).to_string(),
            count(ThreadCount::MoreThanTwo).to_string(),
            bugs.len().to_string(),
        ]);
    }
    let le2 = corpus
        .iter()
        .filter(|b| b.threads != ThreadCount::MoreThanTwo)
        .count();
    t.note(format!(
        "{} — bugs involving at most 2 threads (Finding 2)",
        with_pct(le2, corpus.len())
    ));
    t
}

/// T5 — variables involved (non-deadlock bugs).
pub fn table5(corpus: &Corpus) -> Table {
    let mut t = Table::new(
        "T5",
        "Variables involved in non-deadlock bugs",
        vec!["application", "1 variable", "> 1 variable", "total"],
    );
    let mut one_total = 0;
    let mut multi_total = 0;
    for app in App::ALL {
        let nd: Vec<_> = corpus
            .query()
            .app(app)
            .class(lfm_corpus::BugClass::NonDeadlock)
            .collect();
        let one = nd
            .iter()
            .filter(|b| b.variables() == Some(VariableCount::One))
            .count();
        let multi = nd.len() - one;
        one_total += one;
        multi_total += multi;
        t.row(vec![
            app.to_string(),
            one.to_string(),
            multi.to_string(),
            nd.len().to_string(),
        ]);
    }
    let total = one_total + multi_total;
    t.row(vec![
        "Total".to_string(),
        one_total.to_string(),
        multi_total.to_string(),
        total.to_string(),
    ]);
    t.note(format!(
        "{} involve a single variable (Finding 3); the {} multi-variable \
         bugs escape single-variable detectors",
        with_pct(one_total, total),
        multi_total
    ));
    t
}

/// T6 — accesses involved (non-deadlock) and resources (deadlock).
pub fn table6(corpus: &Corpus) -> Table {
    let mut t = Table::new(
        "T6",
        "Manifestation scope: accesses (non-deadlock) / resources (deadlock)",
        vec!["class", "scope", "bugs"],
    );
    let nd: Vec<_> = corpus.non_deadlock();
    let le4 = nd
        .iter()
        .filter(|b| b.accesses() == Some(AccessCount::AtMostFour))
        .count();
    t.row(vec![
        "non-deadlock".to_string(),
        "<= 4 accesses".to_string(),
        with_pct(le4, nd.len()),
    ]);
    t.row(vec![
        "non-deadlock".to_string(),
        "> 4 accesses".to_string(),
        with_pct(nd.len() - le4, nd.len()),
    ]);
    let d: Vec<_> = corpus.deadlock();
    for (label, rc) in [
        ("1 resource", ResourceCount::One),
        ("2 resources", ResourceCount::Two),
        ("> 2 resources", ResourceCount::MoreThanTwo),
    ] {
        let n = d.iter().filter(|b| b.resources() == Some(rc)).count();
        t.row(vec![
            "deadlock".to_string(),
            label.to_string(),
            with_pct(n, d.len()),
        ]);
    }
    t.note(
        "Finding 4: ordering <= 4 accesses guarantees manifestation for 92% of non-deadlock bugs",
    );
    t.note("Finding 5: 97% of deadlocks involve at most 2 resources");
    t
}

/// T7 — non-deadlock fix strategies.
pub fn table7(corpus: &Corpus) -> Table {
    let mut t = Table::new(
        "T7",
        "Fix strategies of non-deadlock bugs",
        vec!["strategy", "bugs"],
    );
    let nd = corpus.non_deadlock();
    for (label, fix) in [
        ("condition check", NonDeadlockFix::ConditionCheck),
        ("code switch", NonDeadlockFix::CodeSwitch),
        ("design change", NonDeadlockFix::DesignChange),
        ("add/change lock", NonDeadlockFix::AddOrChangeLock),
        ("other", NonDeadlockFix::Other),
    ] {
        let n = nd
            .iter()
            .filter(|b| matches!(b.fix(), lfm_corpus::FixStrategy::NonDeadlock(f) if f == fix))
            .count();
        t.row(vec![label.to_string(), with_pct(n, nd.len())]);
    }
    t.note("Finding 6: adding/changing locks fixes only about a quarter of non-deadlock bugs");
    t
}

/// T8 — deadlock fix strategies.
pub fn table8(corpus: &Corpus) -> Table {
    let mut t = Table::new(
        "T8",
        "Fix strategies of deadlock bugs",
        vec!["strategy", "bugs"],
    );
    let d = corpus.deadlock();
    for (label, fix) in [
        ("give up resource", DeadlockFix::GiveUpResource),
        ("acquire in order", DeadlockFix::AcquireInOrder),
        ("split resource", DeadlockFix::SplitResource),
        ("other", DeadlockFix::Other),
    ] {
        let n = d
            .iter()
            .filter(|b| matches!(b.fix(), lfm_corpus::FixStrategy::Deadlock(f) if f == fix))
            .count();
        t.row(vec![label.to_string(), with_pct(n, d.len())]);
    }
    t.note(
        "Finding 7: most deadlocks are fixed by giving up a resource — a strategy \
         that can itself introduce non-deadlock bugs",
    );
    t
}

/// T9 — transactional-memory applicability.
pub fn table9(corpus: &Corpus) -> Table {
    let mut t = Table::new(
        "T9",
        "Transactional memory applicability",
        vec!["verdict", "bugs"],
    );
    let total = corpus.len();
    let helps = corpus
        .iter()
        .filter(|b| matches!(b.tm, TmApplicability::Helps))
        .count();
    let maybe = corpus
        .iter()
        .filter(|b| matches!(b.tm, TmApplicability::MaybeHelps))
        .count();
    t.row(vec!["TM helps".to_string(), with_pct(helps, total)]);
    t.row(vec!["TM may help".to_string(), with_pct(maybe, total)]);
    for (label, obstacle) in [
        ("cannot: I/O in region", TmObstacle::IoInRegion),
        ("cannot: region too long", TmObstacle::LongRegion),
        (
            "cannot: not atomicity intent",
            TmObstacle::NotAtomicityIntent,
        ),
    ] {
        let n = corpus
            .iter()
            .filter(|b| b.tm == TmApplicability::CannotHelp(obstacle))
            .count();
        t.row(vec![label.to_string(), with_pct(n, total)]);
    }
    t.note("Finding 8: TM can directly help ~40% of the studied bugs");
    t.note("see the E-tm experiment for the executable verdicts on the kernels");
    t
}

/// The nine table generators, T1 first.
pub const TABLES: [fn(&Corpus) -> Table; 9] = [
    table1, table2, table3, table4, table5, table6, table7, table8, table9,
];

/// All nine tables.
pub fn all_tables(corpus: &Corpus) -> Vec<Table> {
    TABLES.iter().map(|table| table(corpus)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::full()
    }

    #[test]
    fn table1_lists_four_apps() {
        let t = table1(&corpus());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn table2_totals() {
        let t = table2(&corpus());
        let last = t.rows.last().unwrap();
        assert_eq!(last, &vec!["Total", "74", "31", "105"]);
    }

    #[test]
    fn table3_matches_finding_one() {
        let t = table3(&corpus());
        let last = t.rows.last().unwrap();
        // pureA=48, pureO=21, both=3, other=2, total=74
        assert_eq!(last, &vec!["Total", "48", "21", "3", "2", "74"]);
        assert!(t.notes[0].contains("72 of 74 (97%)"));
    }

    #[test]
    fn table4_matches_finding_two() {
        let t = table4(&corpus());
        assert_eq!(t.rows[0], vec!["non-deadlock", "0", "71", "3", "74"]);
        assert_eq!(t.rows[1], vec!["deadlock", "7", "23", "1", "31"]);
        assert!(t.notes[0].contains("101 (96%)"));
    }

    #[test]
    fn table5_matches_finding_three() {
        let t = table5(&corpus());
        let last = t.rows.last().unwrap();
        assert_eq!(last, &vec!["Total", "49", "25", "74"]);
        assert!(t.notes[0].contains("49 (66%)"));
    }

    #[test]
    fn table6_scopes() {
        let t = table6(&corpus());
        assert!(t.rows[0][2].contains("68 (92%)"));
        assert!(t.rows[2][2].contains("7 (23%)")); // 1-resource deadlocks
        assert!(t.rows[3][2].contains("23 (74%)"));
    }

    #[test]
    fn table7_lock_fixes_are_the_minority() {
        let t = table7(&corpus());
        let lock_row = t
            .rows
            .iter()
            .find(|r| r[0] == "add/change lock")
            .expect("lock row");
        assert!(lock_row[1].contains("20 (27%)"));
    }

    #[test]
    fn table8_give_up_dominates() {
        let t = table8(&corpus());
        assert!(t.rows[0][1].contains("19 (61%)"));
    }

    #[test]
    fn table9_tm_split() {
        let t = table9(&corpus());
        assert!(t.rows[0][1].contains("42 (40%)"));
        assert!(t.rows[1][1].contains("37 (35%)"));
    }

    #[test]
    fn all_tables_returns_nine() {
        assert_eq!(all_tables(&corpus()).len(), 9);
    }
}
