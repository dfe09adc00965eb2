//! A model of `lfm_obs::Ring::push_with` (`crates/obs/src/ring.rs`),
//! checked with the interleaving explorer: BUG-2026-006's reproducer.
//!
//! A push claims its sequence number with a fetch-add ticket on the
//! ring's head, then locks slot `seq % cap`, takes the record there and
//! stores its own. A writer that stalls between the ticket and the lock
//! while the others push a full lap stores its older record over a
//! newer one, so the ring loses the newest record for that slot. The
//! fixed push stores only when the slot is empty or holds an older
//! sequence number.
//!
//! ```text
//! int head = 0; int slot[cap] = {-1, ...}; mutex m[cap];
//! thread w() { seq = fetch_add(head, 1); i = seq % cap;
//!              lock(m[i]); held = slot[i];
//!              if (!newest_wins || held < seq) slot[i] = seq;
//!              unlock(m[i]); }
//! assert(slot[i] == newest ticket with ticket % cap == i), each i
//! ```
//!
//! Each slot holds the sequence number of its record (-1: empty). With
//! `cap + 1` writers the last lap wraps onto slot 0, which is where the
//! buggy push loses its record.

use std::collections::BTreeSet;

use learning_from_mistakes::sim::{
    ExploreLimits, Explorer, Expr, OutcomeSet, Program, ProgramBuilder, RmwOp, Stmt,
};

const WRITERS: [&str; 4] = ["w0", "w1", "w2", "w3"];
const SLOTS: [&str; 3] = ["slot0", "slot1", "slot2"];
const SLOT_ASSERTS: [&str; 3] = [
    "slot 0 holds its newest record",
    "slot 1 holds its newest record",
    "slot 2 holds its newest record",
];

/// `writers` threads each pushing once onto a ring of `cap` slots.
fn ring(cap: usize, writers: usize, newest_wins: bool) -> Program {
    let mut b = ProgramBuilder::new(if newest_wins {
        "ring_push/fixed"
    } else {
        "ring_push/buggy"
    });
    let head = b.var("head", 0);
    let slots: Vec<_> = (SLOTS[..cap].iter())
        .map(|&name| (b.var(name, -1), b.mutex()))
        .collect();
    let seq = || Expr::local("seq");
    for name in &WRITERS[..writers] {
        let mut body = vec![Stmt::Rmw {
            var: head,
            op: RmwOp::FetchAdd,
            operand: Expr::lit(1),
            into: Some("seq"),
        }];
        for (i, &(slot, m)) in slots.iter().enumerate() {
            let mut store = vec![Stmt::write(slot, seq())];
            if newest_wins {
                store = vec![Stmt::if_then(Expr::local("held").lt(seq()), store)];
            }
            let mut push = vec![Stmt::lock(m), Stmt::read(slot, "held")];
            push.extend(store);
            push.push(Stmt::unlock(m));
            let mine = (seq() % Expr::lit(cap as i64)).eq(Expr::lit(i as i64));
            body.push(Stmt::if_then(mine, push));
        }
        b.thread(name, body);
    }
    for (i, &(slot, _)) in slots.iter().enumerate() {
        let newest = (0..writers).rev().find(|w| w % cap == i);
        let newest = newest.map_or(-1, |w| w as i64);
        b.final_assert(Expr::shared(slot).eq(Expr::lit(newest)), SLOT_ASSERTS[i]);
    }
    b.build().expect("the ring model builds")
}

/// The five searches the model is checked under, each exhaustive.
fn modes() -> [(&'static str, ExploreLimits); 5] {
    let base = ExploreLimits::default();
    [
        ("full", base.clone()),
        (
            "sleep",
            ExploreLimits {
                sleep_sets: true,
                ..base.clone()
            },
        ),
        (
            "dedup",
            ExploreLimits {
                dedup_states: true,
                ..base.clone()
            },
        ),
        (
            "dedup+sleep",
            ExploreLimits {
                dedup_states: true,
                sleep_sets: true,
                ..base.clone()
            },
        ),
        ("dpor", ExploreLimits { dpor: true, ..base }),
    ]
}

/// The outcome set of every mode, checked complete and equal to full
/// enumeration's.
fn outcome_set(program: &Program) -> OutcomeSet {
    let mut oracle = None;
    for (name, limits) in modes() {
        let (report, set) = Explorer::new(program).limits(limits).run_outcome_set();
        assert_eq!(report.truncation, None, "{name} must exhaust the model");
        let oracle = oracle.get_or_insert_with(|| set.clone());
        assert_eq!(&set, oracle, "{name} outcome set differs from full");
    }
    oracle.expect("at least one mode ran")
}

#[test]
fn buggy_push_loses_the_newest_record() {
    let program = ring(2, 3, false);
    let set = outcome_set(&program);
    let kinds: BTreeSet<&str> = set.iter().map(|(kind, _)| kind.as_str()).collect();
    let lost = "final assert failed: slot 0 holds its newest record";
    assert_eq!(kinds, BTreeSet::from(["ok", lost]), "{set:?}");
    let report = Explorer::new(&program).dpor().run();
    assert!(report.found_failure(), "DPOR must find the lost record");
}

#[test]
fn newest_wins_push_keeps_every_newest_record() {
    for (cap, writers) in [(1, 2), (2, 3)] {
        let program = ring(cap, writers, true);
        let set = outcome_set(&program);
        assert!(
            set.iter().all(|(kind, _)| kind == "ok"),
            "cap {cap}, {writers} writers: {set:?}"
        );
    }
}

#[test]
fn wider_rings_pass_under_the_reductions() {
    // Full enumeration of 4 writers does not finish quickly; DPOR and
    // dedup+sleep do, and agree.
    let program = ring(3, 4, true);
    let searches = [
        Explorer::new(&program).dpor().run_outcome_set(),
        Explorer::new(&program)
            .dedup_states()
            .sleep_sets()
            .run_outcome_set(),
    ];
    for (report, set) in &searches {
        assert_eq!(report.truncation, None);
        assert!(set.iter().all(|(kind, _)| kind == "ok"), "{set:?}");
    }
    assert_eq!(searches[0].1, searches[1].1);
}
