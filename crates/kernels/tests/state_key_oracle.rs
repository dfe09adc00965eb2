//! The state key against the outcome-set oracle: every reduction that
//! relies on the key (sleep sets expect independent steps to commute to
//! equal keys; dedup merges equal keys) must reach exactly full
//! enumeration's [`lfm_sim::OutcomeSet`].
//!
//! BUG-2026-005's reproducer: `rwlock_upgrade/buggy` ends in a deadlock
//! whose two threads each hold a read lock. The two orders of their
//! read-acquires reach one state, so every mode must report it under
//! one key.

use lfm_kernels::registry;
use lfm_sim::{ExploreLimits, Explorer, OutcomeSet};

fn outcome_set(label: &str, limits: ExploreLimits) -> OutcomeSet {
    let program = registry::by_id("rwlock_upgrade")
        .expect("kernel exists")
        .buggy();
    let (report, set) = Explorer::new(&program).limits(limits).run_outcome_set();
    assert_eq!(report.truncation, None, "{label} must exhaust its space");
    set
}

#[test]
fn rwlock_upgrade_outcome_set_is_equal_in_every_mode() {
    let full = outcome_set("full enumeration", ExploreLimits::default());
    assert_eq!(full.len(), 1, "one deadlock state: {full:?}");
    let modes = [
        (
            "sleep sets",
            ExploreLimits {
                sleep_sets: true,
                ..ExploreLimits::default()
            },
        ),
        (
            "dedup",
            ExploreLimits {
                dedup_states: true,
                ..ExploreLimits::default()
            },
        ),
        (
            "dedup+sleep",
            ExploreLimits {
                dedup_states: true,
                sleep_sets: true,
                ..ExploreLimits::default()
            },
        ),
        (
            "dpor",
            ExploreLimits {
                dpor: true,
                ..ExploreLimits::default()
            },
        ),
    ];
    for (label, limits) in modes {
        assert_eq!(outcome_set(label, limits), full, "{label}");
    }
}
