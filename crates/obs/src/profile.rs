//! Phase-attributed profiling for the explorer hot path.
//!
//! [`PhaseProfiler`] answers "where did the wall time go" without
//! perturbing exploration results: the explorer tags each hot-path
//! region with a [`Phase`] (snapshot restores, interpreter stepping,
//! state hashing, dedup probes, the detector pass), and the profiler
//! attributes elapsed nanoseconds to that phase.
//!
//! # Sampling and determinism
//!
//! Reading a monotonic clock on *every* region entry would make the
//! profiler the hottest function in the trace it is trying to explain.
//! Instead the profiler is **sampling-gated**: every region entry
//! increments a relaxed atomic counter, and each phase's first
//! 2^`sample_shift` entries read the clock, then one entry in
//! 2^`sample_shift`. The first entries count as measured, and only the
//! later samples are scaled, by later entries per later sample. A phase
//! entered at most 2^`sample_shift` times is thus measured, not
//! estimated, and no phase's early entries, the cold ones, stand for
//! its later ones. The later estimate is unbiased when region durations
//! are independent of the sample index, which holds here because the
//! sampling counter is per-phase and the explorer's work per region
//! does not correlate with powers of two. Merged profiles add up their
//! parts' estimates.
//!
//! A sampled region's measured duration also holds the timer reads
//! that bracket it, which on a short region (a restore or a short edge
//! takes tens of nanoseconds) is most of it. A sampling profiler
//! therefore subtracts, saturating, what an empty region measures: the
//! median of a thousand empty regions, timed once per process.
//!
//! Crucially, the profiler is *write-only* from the explorer's point of
//! view: no branch of the exploration ever reads profiler state, so
//! reports stay bit-identical whether profiling is disabled, enabled,
//! or sampling at a different rate. The determinism suite pins this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A hot-path region the explorer attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Snapshot work: restoring a branch state before each child.
    Snapshot,
    /// Interpreter stepping (`Exec::step` and the run-forward loop).
    Step,
    /// Incremental state hashing (`state_key`).
    Hash,
    /// Seen-set probe/insert for state dedup.
    Dedup,
    /// Detector pass over recorded events.
    Detect,
    /// A multi-threaded expander committing other threads' work. Never
    /// recorded: every search runs on one thread. Kept only for the
    /// repository benchmark, which reports it; to be deleted with the
    /// next change to the benchmark.
    Commit,
    /// A worker taking work. Never recorded; kept like
    /// [`Phase::Commit`].
    Steal,
    /// A worker parked waiting for work. Never recorded; kept like
    /// [`Phase::Commit`].
    Idle,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const PHASES: usize = 8;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Snapshot,
        Phase::Step,
        Phase::Hash,
        Phase::Dedup,
        Phase::Detect,
        Phase::Commit,
        Phase::Steal,
        Phase::Idle,
    ];

    /// Stable lowercase name (used in events, metrics labels, tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Snapshot => "snapshot",
            Phase::Step => "step",
            Phase::Hash => "hash",
            Phase::Dedup => "dedup",
            Phase::Detect => "detect",
            Phase::Commit => "commit",
            Phase::Steal => "steal",
            Phase::Idle => "idle",
        }
    }
}

#[derive(Debug, Default)]
struct PhaseSlot {
    /// Region entries observed (every entry counts).
    entries: AtomicU64,
    /// Entries that actually read the clock.
    sampled: AtomicU64,
    /// Nanoseconds accumulated by sampled entries.
    nanos: AtomicU64,
    /// The part of `nanos` accumulated after the first 2^shift entries.
    later_nanos: AtomicU64,
}

impl PhaseSlot {
    /// Books one sampled region that measured `nanos`, of which
    /// `overhead` were the timer reads around it; returns what it
    /// booked.
    fn charge(&self, nanos: u64, overhead: u64) -> u64 {
        let net = nanos.saturating_sub(overhead);
        self.sampled.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(net, Ordering::Relaxed);
        net
    }

    /// [`PhaseSlot::charge`] for an entry after the phase's first
    /// 2^shift.
    fn charge_later(&self, nanos: u64, overhead: u64) {
        let net = self.charge(nanos, overhead);
        self.later_nanos.fetch_add(net, Ordering::Relaxed);
    }
}

/// Nanoseconds an empty sampled region measures: the median of a
/// thousand, timed on first use and kept for the process.
fn timer_overhead_nanos() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut empty: Vec<u64> = (0..1001)
            .map(|_| {
                let start = Instant::now();
                start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
            })
            .collect();
        empty.sort_unstable();
        empty[empty.len() / 2]
    })
}

/// Sampling profiler attributing wall time to explorer [`Phase`]s.
///
/// Construct with [`PhaseProfiler::disabled`] (every call is a single
/// branch) or [`PhaseProfiler::sampling`]. Thread-safe: every counter
/// is a relaxed atomic, so one profiler can be shared across threads.
#[derive(Debug)]
pub struct PhaseProfiler {
    enabled: bool,
    /// Sample the first 2^shift entries, then when
    /// `entries % 2^shift == 0`.
    mask: u64,
    /// Nanoseconds subtracted from each sample: what an empty region
    /// measures.
    overhead: u64,
    slots: [PhaseSlot; PHASES],
}

impl PhaseProfiler {
    /// A profiler that records nothing; `enter` is one branch.
    pub fn disabled() -> PhaseProfiler {
        PhaseProfiler {
            enabled: false,
            mask: 0,
            overhead: 0,
            slots: Default::default(),
        }
    }

    /// A profiler timing each phase's first `2^sample_shift` region
    /// entries, then one in `2^sample_shift`.
    ///
    /// `sample_shift = 0` times every entry (useful in tests);
    /// [`PhaseProfiler::DEFAULT_SHIFT`] (6, i.e. the first 64, then
    /// every 64th) keeps overhead low on hot kernels. Shifts above 63
    /// are clamped. The first sampling profiler of a process times the
    /// empty region every sample is corrected by (see the module docs).
    pub fn sampling(sample_shift: u32) -> PhaseProfiler {
        let shift = sample_shift.min(63);
        PhaseProfiler {
            enabled: true,
            mask: (1u64 << shift) - 1,
            overhead: timer_overhead_nanos(),
            slots: Default::default(),
        }
    }

    /// Default sampling shift: each phase's first 64 region entries read
    /// the clock, then every 64th.
    pub const DEFAULT_SHIFT: u32 = 6;

    /// `true` when this profiler records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The sampling shift this profiler was built with (0 when
    /// disabled).
    pub fn sample_shift(&self) -> u32 {
        self.mask.trailing_ones()
    }

    /// Enters `phase`; drop the guard to close the region.
    ///
    /// Returns `None` (no clock read) when disabled or when this entry
    /// is not sampled.
    #[inline]
    pub fn enter(&self, phase: Phase) -> Option<PhaseGuard<'_>> {
        if !self.enabled {
            return None;
        }
        let slot = &self.slots[phase as usize];
        let n = slot.entries.fetch_add(1, Ordering::Relaxed);
        if n > self.mask && n & self.mask != 0 {
            return None;
        }
        Some(PhaseGuard {
            slot,
            overhead: self.overhead,
            first: n <= self.mask,
            start: Instant::now(),
        })
    }

    /// Times `f` under `phase` and returns its result.
    #[inline]
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let guard = self.enter(phase);
        let out = f();
        drop(guard);
        out
    }

    /// Immutable snapshot of every phase's counters.
    pub fn snapshot(&self) -> PhaseProfile {
        PhaseProfile {
            phases: Phase::ALL.map(|p| {
                let slot = &self.slots[p as usize];
                let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
                let (entries, sampled, nanos) =
                    (load(&slot.entries), load(&slot.sampled), load(&slot.nanos));
                // The first 2^shift entries were all timed: they count as
                // measured, and only the later samples are scaled.
                let first = entries.min(self.mask.saturating_add(1));
                let later_nanos = load(&slot.later_nanos);
                let later = PhaseStat::new(
                    p,
                    entries - first,
                    sampled.saturating_sub(first),
                    later_nanos,
                );
                PhaseStat {
                    entries,
                    sampled,
                    nanos,
                    est: nanos.saturating_sub(later_nanos).saturating_add(later.est),
                    ..later
                }
            }),
        }
    }
}

/// RAII guard closing a sampled phase region.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    slot: &'a PhaseSlot,
    overhead: u64,
    /// One of the phase's first 2^shift entries.
    first: bool,
    start: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let d = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if self.first {
            self.slot.charge(d, self.overhead);
        } else {
            self.slot.charge_later(d, self.overhead);
        }
    }
}

/// One phase's sampled counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Region entries observed.
    pub entries: u64,
    /// Entries that read the clock.
    pub sampled: u64,
    /// Nanoseconds accumulated by sampled entries, net of the timer
    /// reads around each.
    pub nanos: u64,
    /// See [`PhaseStat::est_total_nanos`].
    est: u64,
}

impl PhaseStat {
    /// Counters for `phase` whose samples each stand for as many
    /// entries, estimated as `nanos * entries / sampled`.
    fn new(phase: Phase, entries: u64, sampled: u64, nanos: u64) -> PhaseStat {
        let est = if sampled == 0 {
            0
        } else {
            // `as` saturates at `u64::MAX`.
            ((nanos as f64) * (entries as f64) / (sampled as f64)) as u64
        };
        PhaseStat {
            phase,
            entries,
            sampled,
            nanos,
            est,
        }
    }

    /// Estimated total nanoseconds: for one profiler, what the first
    /// 2^shift entries measured plus the later samples' nanoseconds
    /// scaled by later entries per later sample; for a merged profile,
    /// the sum of the parts' estimates (see [`PhaseProfile::merge`]).
    pub fn est_total_nanos(&self) -> u64 {
        self.est
    }
}

/// Snapshot of a [`PhaseProfiler`] — one [`PhaseStat`] per phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    phases: [PhaseStat; PHASES],
}

impl PhaseProfile {
    /// An all-zero profile (identity for [`merge`](PhaseProfile::merge)).
    pub fn empty() -> PhaseProfile {
        PhaseProfile {
            phases: Phase::ALL.map(|phase| PhaseStat::new(phase, 0, 0, 0)),
        }
    }

    /// Stats per phase, in [`Phase::ALL`] order.
    pub fn phases(&self) -> &[PhaseStat] {
        &self.phases
    }

    /// The stat for one phase.
    pub fn get(&self, phase: Phase) -> PhaseStat {
        self.phases[phase as usize]
    }

    /// Accumulates `other` into `self` (e.g. across runs). The counts
    /// add up, and so do the estimates: each part stays scaled by its
    /// own sampling ratio. Scaling the summed counts instead would
    /// weigh a part by the whole's entries per sample, so a short run
    /// whose one sample is its cold first entry would count for more
    /// than its share.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            mine.entries += theirs.entries;
            mine.sampled += theirs.sampled;
            mine.nanos += theirs.nanos;
            mine.est = mine.est.saturating_add(theirs.est);
        }
    }

    /// Sum of estimated totals across phases, in nanoseconds.
    pub fn est_grand_total_nanos(&self) -> u64 {
        self.phases
            .iter()
            .map(PhaseStat::est_total_nanos)
            .fold(0u64, u64::saturating_add)
    }

    /// `true` when no phase observed any entries.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|s| s.entries == 0)
    }

    /// Renders the profile as rows for a stats table: phase name,
    /// entries, sampled, estimated total, and share of the grand total.
    pub fn rows(&self) -> Vec<(String, String)> {
        let grand = self.est_grand_total_nanos();
        self.phases
            .iter()
            .filter(|s| s.entries > 0)
            .map(|s| {
                let est = s.est_total_nanos();
                let share = if grand > 0 {
                    100.0 * est as f64 / grand as f64
                } else {
                    0.0
                };
                (
                    format!("phase {}", s.phase.name()),
                    format!(
                        "{} ({share:.1}%, {} entries, {} sampled)",
                        crate::span::fmt_duration(std::time::Duration::from_nanos(est)),
                        s.entries,
                        s.sampled,
                    ),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = PhaseProfiler::disabled();
        assert!(!p.is_enabled());
        for _ in 0..100 {
            let g = p.enter(Phase::Step);
            assert!(g.is_none());
        }
        p.time(Phase::Hash, || ());
        let snap = p.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.est_grand_total_nanos(), 0);
        assert!(snap.rows().is_empty());
    }

    #[test]
    fn sampling_shift_zero_times_every_entry() {
        let p = PhaseProfiler::sampling(0);
        assert!(p.is_enabled());
        for _ in 0..10 {
            p.time(Phase::Snapshot, || std::hint::black_box(1 + 1));
        }
        let s = p.snapshot().get(Phase::Snapshot);
        assert_eq!(s.entries, 10);
        assert_eq!(s.sampled, 10);
        // est_total scales nanos by entries/sampled == 1.
        assert_eq!(s.est_total_nanos(), s.nanos);
    }

    #[test]
    fn sampling_gates_clock_reads() {
        let p = PhaseProfiler::sampling(2); // the first 4, then every 4th
        for _ in 0..16 {
            p.time(Phase::Dedup, || ());
        }
        let s = p.snapshot().get(Phase::Dedup);
        assert_eq!(s.entries, 16);
        assert_eq!(s.sampled, 7);
    }

    #[test]
    fn first_entries_count_as_measured_and_only_later_samples_scale() {
        // Shift 2: entries 0-3 are timed, then one in 4 (entries 4, 8).
        let p = PhaseProfiler::sampling(2);
        let slot = &p.slots[Phase::Step as usize];
        slot.entries.store(12, Ordering::Relaxed);
        for _ in 0..4 {
            slot.charge(100, 0);
        }
        slot.charge_later(10, 0);
        slot.charge_later(10, 0);
        let s = p.snapshot().get(Phase::Step);
        assert_eq!((s.entries, s.sampled, s.nanos), (12, 6, 420));
        // 4 x 100 ns measured, and 2 x 10 ns standing for the other 8
        // entries. Scaling all six samples would read 840 ns.
        assert_eq!(s.est_total_nanos(), 480);
    }

    #[test]
    fn a_phase_entered_at_most_two_to_the_shift_times_is_timed_every_time() {
        let p = PhaseProfiler::sampling(3);
        for entries in 1..=8 {
            p.time(Phase::Hash, || ());
            let s = p.snapshot().get(Phase::Hash);
            assert_eq!((s.entries, s.sampled), (entries, entries));
            assert_eq!(s.est_total_nanos(), s.nanos, "measured, not scaled");
        }
        // Entry 9 (index 8) is the next one in 8; entry 10 is not sampled.
        p.time(Phase::Hash, || ());
        p.time(Phase::Hash, || ());
        let s = p.snapshot().get(Phase::Hash);
        assert_eq!((s.entries, s.sampled), (10, 9));
    }

    #[test]
    fn samples_are_charged_net_of_the_timer_overhead() {
        let slot = PhaseSlot::default();
        slot.charge(100, 63);
        slot.charge(40, 63); // shorter than the overhead: saturates at 0
        slot.charge(63, 0);
        assert_eq!(slot.sampled.load(Ordering::Relaxed), 3);
        assert_eq!(slot.nanos.load(Ordering::Relaxed), 37 + 63);
        // Every sampling profiler of a process subtracts the same
        // calibrated overhead; a disabled one never samples.
        let (a, b) = (PhaseProfiler::sampling(0), PhaseProfiler::sampling(3));
        assert_eq!(a.overhead, b.overhead);
        assert_eq!(PhaseProfiler::disabled().overhead, 0);
    }

    #[test]
    fn est_total_scales_by_sampling_ratio() {
        let s = PhaseStat::new(Phase::Step, 64, 4, 1_000);
        assert_eq!(s.est_total_nanos(), 16_000);
        let zero = PhaseStat::new(Phase::Step, 64, 0, 0);
        assert_eq!(zero.est_total_nanos(), 0);
    }

    #[test]
    fn merge_sums_each_parts_own_estimate() {
        // A part sampled once on its only entry, and one sampled once
        // in 64: 100 + 64 * 10 ns. Scaling the summed counts would read
        // 110 * 65 / 2 = 3 575 ns.
        let part = |entries, sampled, nanos| {
            let mut p = PhaseProfile::empty();
            p.phases[Phase::Step as usize] = PhaseStat::new(Phase::Step, entries, sampled, nanos);
            p
        };
        let mut merged = PhaseProfile::empty();
        merged.merge(&part(1, 1, 100));
        merged.merge(&part(64, 1, 10));
        let step = merged.get(Phase::Step);
        assert_eq!((step.entries, step.sampled, step.nanos), (65, 2, 110));
        assert_eq!(step.est_total_nanos(), 740);
        assert_eq!(merged.est_grand_total_nanos(), 740);
    }

    #[test]
    fn merge_accumulates_across_profiles() {
        let a = PhaseProfiler::sampling(0);
        let b = PhaseProfiler::sampling(0);
        a.time(Phase::Commit, || ());
        b.time(Phase::Commit, || ());
        b.time(Phase::Idle, || ());
        let mut merged = PhaseProfile::empty();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged.get(Phase::Commit).entries, 2);
        assert_eq!(merged.get(Phase::Idle).entries, 1);
        let rows = merged.rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0.contains("commit"));
    }

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASES);
    }

    #[test]
    fn extreme_shift_is_clamped() {
        let p = PhaseProfiler::sampling(200);
        p.time(Phase::Steal, || ());
        // First entry (index 0) is always sampled.
        assert_eq!(p.snapshot().get(Phase::Steal).sampled, 1);
    }
}
