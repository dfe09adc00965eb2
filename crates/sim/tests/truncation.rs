//! Every budget trips on a tiny witness program, is reported in the
//! [`ExploreReport`], and appears in the `explore`/`report` event fields.

use std::sync::Arc;
use std::time::Duration;

use lfm_obs::MemorySink;
use lfm_sim::{ExploreLimits, Explorer, Expr, Program, ProgramBuilder, Stmt, Truncation};

/// One thread spinning forever on a shared flag nobody sets: every
/// execution is cut by the step budget.
fn spinner() -> Program {
    let mut b = ProgramBuilder::new("spinner");
    let v = b.var("flag", 0);
    b.thread(
        "spin",
        vec![
            Stmt::read(v, "f"),
            Stmt::while_loop(Expr::local("f").eq(Expr::lit(0)), vec![Stmt::read(v, "f")]),
        ],
    );
    b.build().unwrap()
}

/// Two unsynchronized incrementers: several schedules, all terminating.
fn racy_counter() -> Program {
    let mut b = ProgramBuilder::new("racy");
    let v = b.var("counter", 0);
    for name in ["a", "b"] {
        b.thread(
            name,
            vec![
                Stmt::read(v, "tmp"),
                Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
            ],
        );
    }
    b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "no lost update");
    b.build().unwrap()
}

/// A transaction that retries unconditionally until the retry budget.
fn retry_forever() -> Program {
    let mut b = ProgramBuilder::new("retry-forever");
    let v = b.var("never", 0);
    b.thread(
        "t",
        vec![
            Stmt::TxBegin,
            Stmt::read(v, "n"),
            Stmt::if_then(Expr::local("n").eq(Expr::lit(0)), vec![Stmt::TxRetry]),
            Stmt::TxCommit,
        ],
    );
    b.build().unwrap()
}

fn report_event_field(sink: &MemorySink, key: &str) -> Option<String> {
    let reports = sink.events_named("explore", "report");
    assert_eq!(reports.len(), 1, "exactly one report event");
    reports[0].get(key).map(|v| match v.as_str() {
        Some(s) => s.to_owned(),
        None => format!("{v:?}"),
    })
}

#[test]
fn step_budget_trips_and_is_reported() {
    let sink = Arc::new(MemorySink::new());
    let p = spinner();
    let report = Explorer::new(&p)
        .with_sink(sink.clone())
        .limits(ExploreLimits {
            max_steps: 25,
            ..ExploreLimits::default()
        })
        .run();
    assert!(report.counts.step_limit > 0);
    assert_eq!(report.truncation, Some(Truncation::StepBudget));
    assert!(!report.proved_ok());
    assert_eq!(
        report_event_field(&sink, "truncation").as_deref(),
        Some("step budget")
    );
}

#[test]
fn schedule_budget_trips_and_is_reported() {
    for dpor in [false, true] {
        let sink = Arc::new(MemorySink::new());
        let p = racy_counter();
        let report = Explorer::new(&p)
            .with_sink(sink.clone())
            .limits(ExploreLimits {
                max_schedules: 2,
                dpor,
                ..ExploreLimits::default()
            })
            .run();
        assert!(report.truncated, "dpor={dpor}");
        assert_eq!(report.schedules_run, 2, "dpor={dpor}");
        assert_eq!(report.truncation, Some(Truncation::ScheduleBudget));
        assert_eq!(
            report_event_field(&sink, "truncation").as_deref(),
            Some("schedule budget")
        );
    }
}

#[test]
fn tx_retry_budget_trips_and_is_counted() {
    let sink = Arc::new(MemorySink::new());
    let p = retry_forever();
    let report = Explorer::new(&p).with_sink(sink.clone()).run();
    assert!(report.counts.tx_retry_limit > 0);
    let reports = sink.events_named("explore", "report");
    let counted = reports[0]
        .get("tx_retry_limit")
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(counted > 0, "tx_retry_limit surfaces in the report event");
}

#[test]
fn wall_deadline_trips_and_is_reported() {
    for dpor in [false, true] {
        let sink = Arc::new(MemorySink::new());
        let p = racy_counter();
        let report = Explorer::new(&p)
            .with_sink(sink.clone())
            .limits(ExploreLimits {
                deadline: Some(Duration::ZERO),
                dpor,
                ..ExploreLimits::default()
            })
            .run();
        assert!(report.truncated, "dpor={dpor}");
        assert_eq!(report.schedules_run, 0, "zero deadline runs no schedules");
        assert_eq!(report.truncation, Some(Truncation::WallDeadline));
        assert_eq!(
            report_event_field(&sink, "truncation").as_deref(),
            Some("wall deadline")
        );
        // The configured deadline is surfaced on both start and report.
        let starts = sink.events_named("explore", "start");
        assert!(starts[0].get("deadline_ms").is_some());
        assert!(sink.events_named("explore", "report")[0]
            .get("deadline_ms")
            .is_some());
    }
}

#[test]
fn wall_deadline_takes_precedence_over_schedule_budget() {
    for dpor in [false, true] {
        let p = racy_counter();
        let report = Explorer::new(&p)
            .limits(ExploreLimits {
                deadline: Some(Duration::ZERO),
                max_schedules: 1,
                dpor,
                ..ExploreLimits::default()
            })
            .run();
        assert_eq!(
            report.truncation,
            Some(Truncation::WallDeadline),
            "dpor={dpor}"
        );
    }
}

#[test]
fn generous_deadline_leaves_exploration_untruncated() {
    let p = racy_counter();
    let report = Explorer::new(&p)
        .limits(ExploreLimits {
            deadline: Some(Duration::from_secs(60)),
            ..ExploreLimits::default()
        })
        .run();
    assert!(!report.truncated);
    assert_eq!(report.truncation, None);
    assert!(report.counts.failures() > 0, "racy counter still explored");
}
