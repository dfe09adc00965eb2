//! A model of lfm-serve's exploration gate, `Slots::take` and the
//! slot's drop (`crates/serve/src/server.rs`), checked with the
//! interleaving explorer.
//!
//! A check that may explore takes a ticket under the gate's mutex,
//! unless `cap` checks already wait, then waits on the condvar until
//! its ticket is next and a slot is free, takes the slot and
//! broadcasts. Dropping the slot frees it and broadcasts, under the
//! mutex too. The buggy shape checks the bound and takes the ticket in
//! two critical sections, BUG-2026-002's check-then-act: two arrivals
//! can both pass a bound that has room for one.
//!
//! ```text
//! int issued = 0, served = 0, free = slots, exploring = 0;
//! mutex m; cond cv;
//! thread r() { lock(m); i = issued; s = served;
//!              [buggy: unlock(m); if (i - s < cap) { lock(m); i = issued; s = served; ]
//!              if (i - s >= cap) { unlock(m); return; }       // refused
//!              issued = i + 1; t = i;
//!              assert(i + 1 - s <= cap);                      // at most cap wait
//!              while (served != t || free == 0) wait(cv, m);
//!              served = t + 1; free -= 1; broadcast(cv); unlock(m);
//!              e = exploring++; assert(e < slots); exploring--; // at most slots explore
//!              lock(m); free += 1; broadcast(cv); unlock(m); }
//! assert(free == slots && served == issued)
//! ```

use std::collections::BTreeSet;

use learning_from_mistakes::sim::{
    ExploreLimits, Explorer, Expr, OutcomeSet, Program, ProgramBuilder, RmwOp, Stmt,
};

const REQUESTERS: [&str; 3] = ["r0", "r1", "r2"];
const WAIT_BOUND: &str = "at most cap checks wait";
const SLOT_BOUND: &str = "at most slots explore";

/// `requesters` checks asking a gate of `slots` slots with room for
/// `cap` waiters. `one_section` is the fixed `take`.
fn gate(slots: i64, cap: i64, requesters: usize, one_section: bool) -> Program {
    let mut b = ProgramBuilder::new(if one_section {
        "slots_take/fixed"
    } else {
        "slots_take/buggy"
    });
    let issued = b.var("issued", 0);
    let served = b.var("served", 0);
    let free = b.var("free", slots);
    let exploring = b.var("exploring", 0);
    let m = b.mutex();
    let cv = b.cond();
    let local = Expr::local;
    let lit = Expr::lit;
    let read_counters = || vec![Stmt::read(issued, "i"), Stmt::read(served, "s")];
    for name in &REQUESTERS[..requesters] {
        // Ticket taken: wait for our turn and a free slot, take it.
        let mut admitted = vec![
            Stmt::write(issued, local("i") + lit(1)),
            Stmt::local("t", local("i")),
            Stmt::assert((local("i") + lit(1) - local("s")).le(lit(cap)), WAIT_BOUND),
            Stmt::read(free, "f"),
            Stmt::while_loop(
                local("s").ne(local("t")).or(local("f").eq(lit(0))),
                vec![
                    Stmt::Wait { cond: cv, mutex: m },
                    Stmt::read(served, "s"),
                    Stmt::read(free, "f"),
                ],
            ),
            Stmt::write(served, local("t") + lit(1)),
            Stmt::write(free, local("f") - lit(1)),
            Stmt::Broadcast(cv),
            Stmt::unlock(m),
            // The exploration.
            Stmt::Rmw {
                var: exploring,
                op: RmwOp::FetchAdd,
                operand: lit(1),
                into: Some("e"),
            },
            Stmt::assert(local("e").lt(lit(slots)), SLOT_BOUND),
            Stmt::fetch_sub(exploring, 1),
            // The slot's drop.
            Stmt::lock(m),
            Stmt::read(free, "f"),
            Stmt::write(free, local("f") + lit(1)),
            Stmt::Broadcast(cv),
            Stmt::unlock(m),
        ];
        let room = (local("i") - local("s")).lt(lit(cap));
        let mut body = vec![Stmt::lock(m)];
        body.extend(read_counters());
        if one_section {
            body.push(Stmt::if_else(room, admitted, vec![Stmt::unlock(m)]));
        } else {
            let mut retake = vec![Stmt::lock(m)];
            retake.extend(read_counters());
            retake.append(&mut admitted);
            body.push(Stmt::unlock(m));
            body.push(Stmt::if_then(room, retake));
        }
        b.thread(name, body);
    }
    b.final_assert(Expr::shared(free).eq(lit(slots)), "every slot is free");
    b.final_assert(
        Expr::shared(served).eq(Expr::shared(issued)),
        "every ticket was served",
    );
    b.build().expect("the gate model builds")
}

/// The searches the model is checked under, each exhaustive.
fn modes(full: bool) -> Vec<(&'static str, ExploreLimits)> {
    let base = ExploreLimits::default();
    let mut modes = vec![
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
        (
            "dpor",
            ExploreLimits {
                dpor: true,
                ..base.clone()
            },
        ),
    ];
    if full {
        modes.insert(0, ("full", base));
    }
    modes
}

/// The outcome set of every mode, checked complete and equal across
/// modes.
fn outcome_set(program: &Program, modes: Vec<(&'static str, ExploreLimits)>) -> OutcomeSet {
    let mut first = None;
    for (name, limits) in modes {
        let (report, set) = Explorer::new(program).limits(limits).run_outcome_set();
        assert_eq!(report.truncation, None, "{name} must exhaust the model");
        let first = first.get_or_insert_with(|| set.clone());
        assert_eq!(&set, first, "{name} outcome set differs");
    }
    first.expect("at least one mode ran")
}

#[test]
fn bound_checked_apart_from_the_ticket_overfills_the_wait_line() {
    let set = outcome_set(&gate(1, 1, 3, false), modes(true));
    let kinds: BTreeSet<&str> = set.iter().map(|(kind, _)| kind.as_str()).collect();
    let overfilled: Vec<String> = ["t0", "t1", "t2"]
        .iter()
        .map(|t| format!("assert failed in {t}: {WAIT_BOUND}"))
        .collect();
    let mut expected: BTreeSet<&str> = overfilled.iter().map(String::as_str).collect();
    expected.insert("ok");
    assert_eq!(kinds, expected, "{set:?}");
}

#[test]
fn ticket_gate_keeps_both_bounds() {
    // At 2 slots full enumeration passes 250 000 schedules; the four
    // reductions are checked against each other there.
    for (slots, cap, full) in [(1, 1, true), (1, 2, true), (2, 1, false)] {
        let set = outcome_set(&gate(slots, cap, 3, true), modes(full));
        assert!(
            set.iter().all(|(kind, _)| kind == "ok"),
            "{slots} slots, cap {cap}: {set:?}"
        );
    }
}
