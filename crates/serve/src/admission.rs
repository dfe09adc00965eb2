//! Queue-pressure admission control: the budget ladder as an overload
//! policy.
//!
//! The PR 2 degradation ladder trades coverage for latency when a
//! *deadline* is tight; here the same ladder trades coverage for
//! throughput when the *queue* is deep. An idle server explores
//! exhaustively; as checks line up for exploration slots, new misses
//! are admitted at progressively cheaper rungs; past the last threshold
//! they are shed outright with a retry hint. The line can therefore
//! never grow past its bound — overload degrades answers first and
//! availability last, instead of growing an unbounded backlog (the
//! failure shape the paper's corpus keeps finding under load).

use lfm_sim::DegradeLevel;

/// Default client backoff hint attached to shed responses, in
/// milliseconds.
pub const RETRY_AFTER_MS: u64 = 25;

/// What the controller decided for one incoming miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admit, exploring at the given rung.
    Accept(DegradeLevel),
    /// Refuse: the caller should answer `shed` with this retry hint.
    Shed {
        /// Backoff hint in milliseconds.
        retry_after_ms: u64,
    },
}

/// Maps queue depth to a degrade level (or a shed decision).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionLadder {
    /// Depths strictly below this run exhaustive.
    pub exhaustive_below: usize,
    /// Depths strictly below this run sleep-set.
    pub sleep_below: usize,
    /// Depths strictly below this run preemption-bounded.
    pub bounded_below: usize,
    /// Depths strictly below this run PCT; at or past it, shed.
    pub shed_at: usize,
}

impl AdmissionLadder {
    /// A ladder for at most `queue_cap` checks waiting for a slot: the
    /// four rungs split the depth range evenly, and shedding starts
    /// exactly when the line is full.
    pub fn for_queue(queue_cap: usize) -> AdmissionLadder {
        let cap = queue_cap.max(4);
        AdmissionLadder {
            exhaustive_below: cap / 4,
            sleep_below: cap / 2,
            bounded_below: cap * 3 / 4,
            shed_at: cap,
        }
    }

    /// Decides admission for a miss arriving at queue depth `depth`.
    pub fn admit(&self, depth: usize) -> Admission {
        if depth < self.exhaustive_below {
            Admission::Accept(DegradeLevel::Exhaustive)
        } else if depth < self.sleep_below {
            Admission::Accept(DegradeLevel::SleepSet)
        } else if depth < self.bounded_below {
            Admission::Accept(DegradeLevel::PreemptionBounded)
        } else if depth < self.shed_at {
            Admission::Accept(DegradeLevel::PctSampling)
        } else {
            Admission::Shed {
                retry_after_ms: RETRY_AFTER_MS,
            }
        }
    }
}

/// Histogram index of a degrade level (for per-level counters).
pub fn level_index(level: DegradeLevel) -> usize {
    match level {
        DegradeLevel::Exhaustive => 0,
        DegradeLevel::SleepSet => 1,
        DegradeLevel::PreemptionBounded => 2,
        DegradeLevel::PctSampling => 3,
    }
}

/// The four degrade levels in histogram order.
pub const LEVELS: [DegradeLevel; 4] = [
    DegradeLevel::Exhaustive,
    DegradeLevel::SleepSet,
    DegradeLevel::PreemptionBounded,
    DegradeLevel::PctSampling,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_degrades_monotonically_and_sheds_at_capacity() {
        let ladder = AdmissionLadder::for_queue(32);
        let mut last = 0usize;
        for depth in 0..64 {
            match ladder.admit(depth) {
                Admission::Accept(level) => {
                    assert!(depth < 32, "accepted past capacity at {depth}");
                    let idx = level_index(level);
                    assert!(idx >= last, "ladder climbed back up at {depth}");
                    last = idx;
                }
                Admission::Shed { retry_after_ms } => {
                    assert!(depth >= 32, "shed below capacity at {depth}");
                    assert!(retry_after_ms > 0);
                }
            }
        }
        assert_eq!(ladder.admit(0), Admission::Accept(DegradeLevel::Exhaustive));
        assert_eq!(
            ladder.admit(31),
            Admission::Accept(DegradeLevel::PctSampling)
        );
    }

    #[test]
    fn tiny_queues_still_have_all_rungs_reachable_or_shed() {
        let ladder = AdmissionLadder::for_queue(1);
        // Clamped to 4: depth 0 exhaustive, 1 sleep, 2 bounded, 3 pct.
        assert_eq!(ladder.admit(0), Admission::Accept(DegradeLevel::Exhaustive));
        assert!(matches!(ladder.admit(4), Admission::Shed { .. }));
    }
}
