//! Heap allocations per explorer snapshot: a host-independent guard on
//! the model checker's hot path.
//!
//! Wall-clock gates skip on hosts unlike the one that recorded their
//! baseline; an allocation count does not depend on the host. A counting
//! global allocator tallies every allocation (and reallocation) made by
//! the calling thread, so tests running in parallel never mix their
//! counts, and each search below must stay within its budget of
//! allocations per `stats.snapshots` (one snapshot per explored edge).
//!
//! A search keeps one executor and restores a marked state before each
//! child, so a snapshot (one restore point) allocates almost nothing.
//! What a restore may still allocate: a transaction's sets copied into
//! the undo trail with the thread state that carries them, and the
//! trail's own growth, whose capacity stays once the walk has been as
//! deep as any path before. DPOR adds only the growth of its race log,
//! whose entries and flat clock buffer keep their capacity when the log
//! is cut back, so a deeper path than any before it reallocates them.
//! The rest of each figure is the search's fixed set-up (the executor,
//! the seen set, the frame stack). What a snapshot must not allocate:
//! an executor clone, a thread state without a transaction copied into
//! the trail (its locals sit inline up to four slots, its held locks up
//! to three), vector clocks while not recording, a vector clock per
//! DPOR race scan (the scan works in two scratch clocks reused across
//! scans, and a committed step appends its clock to the flat buffer), a
//! heap footprint for any op but a wide commit, the fingerprint's dirty
//! list, DPOR's forced-step and sleeper buffers (reused across edges),
//! and any thread set: the enabled set, a branch head, a sleep set, a
//! DPOR frame's sets and a race's initials are `u64` masks.
//!
//! Building a program is guarded the same way: the programs of one
//! perfbench `kernels` round, whose build time is its `setup_s`, must
//! not allocate more than they did before programs were lowered.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lfm_kernels::{registry, Variant};
use lfm_sim::{ExploreLimits, ExploreReport, Explorer, Expr, Program, ProgramBuilder, Stmt};

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's; counting touches only
// a thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs one search and returns its report with the allocations it made
/// per snapshot.
fn allocations_per_snapshot(explorer: Explorer<'_>) -> (ExploreReport, f64) {
    let before = ALLOCATIONS.with(Cell::get);
    let report = explorer.run();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(report.stats.snapshots > 1000, "too small to measure");
    let per = allocations as f64 / report.stats.snapshots as f64;
    (report, per)
}

/// Limits of the perfbench `kernels` checks (fusion on, the default).
fn limits() -> ExploreLimits {
    ExploreLimits {
        max_steps: 2_000,
        max_schedules: 500_000,
        ..ExploreLimits::default()
    }
}

fn buggy(id: &str) -> Program {
    registry::by_id(id).expect("kernel exists").buggy()
}

/// Asserts a complete search stayed within `budget` allocations per
/// snapshot.
fn assert_within(what: &str, explorer: Explorer<'_>, budget: f64) {
    let (report, per) = allocations_per_snapshot(explorer);
    let measured = format!(
        "{what}: {per:.2} allocations per snapshot ({} snapshots), budget {budget}",
        report.stats.snapshots
    );
    eprintln!("{measured}");
    assert!(!report.truncated, "{what}: the search must complete");
    assert!(per <= budget, "{measured}");
}

#[test]
fn full_enumeration_of_livelock_retry() {
    let program = buggy("livelock_retry");
    let explorer = Explorer::new(&program).limits(limits());
    assert_within("livelock_retry/buggy full", explorer, 0.01);
}

#[test]
fn full_enumeration_of_toctou_flag() {
    let program = buggy("toctou_flag");
    let explorer = Explorer::new(&program).limits(limits());
    assert_within("toctou_flag/buggy full", explorer, 0.01);
}

#[test]
fn dedup_and_sleep_sets_on_a_lost_update() {
    // Three threads each add to a counter twice through a local; every
    // interleaving of the six read-write pairs is a distinct schedule.
    let mut b = ProgramBuilder::new("lost-update-3");
    let counter = b.var("counter", 0);
    for name in ["t0", "t1", "t2"] {
        let add = || {
            [
                Stmt::read(counter, "tmp"),
                Stmt::write(counter, Expr::local("tmp") + Expr::lit(1)),
            ]
        };
        b.thread(name, add().into_iter().chain(add()).collect());
    }
    b.final_assert(Expr::shared(counter).eq(Expr::lit(6)), "no update is lost");
    let program = b.build().expect("valid program");
    let limits = ExploreLimits {
        dedup_states: true,
        sleep_sets: true,
        ..limits()
    };
    let explorer = Explorer::new(&program).limits(limits);
    assert_within("lost-update-3 dedup+sleep", explorer, 0.01);
}

/// Three threads and two mutexes: thread `t` increments `c[k]` under
/// `m[k]` for `k` in `(t % 2, 1 - t % 2)`, each increment followed by an
/// unguarded read of the other counter. Most states have a thread
/// holding a lock, so most undo records carry a held-lock list.
fn lock_holders() -> Program {
    let mut b = ProgramBuilder::new("lock-holders-3");
    let c = [b.var("c0", 0), b.var("c1", 0)];
    let m = [b.mutex(), b.mutex()];
    for (t, name) in ["t0", "t1", "t2"].into_iter().enumerate() {
        let mut body = Vec::new();
        for k in [t % 2, 1 - t % 2] {
            body.extend([
                Stmt::lock(m[k]),
                Stmt::read(c[k], "tmp"),
                Stmt::write(c[k], Expr::local("tmp") + Expr::lit(1)),
                Stmt::unlock(m[k]),
                Stmt::read(c[1 - k], "other"),
            ]);
        }
        b.thread(name, body);
    }
    b.build().expect("valid program")
}

#[test]
fn dedup_on_lock_holders() {
    let program = lock_holders();
    let limits = ExploreLimits {
        dedup_states: true,
        ..limits()
    };
    let explorer = Explorer::new(&program).limits(limits);
    assert_within("lock-holders-3 dedup", explorer, 0.01);
}

#[test]
fn dedup_and_sleep_sets_on_lock_holders() {
    let program = lock_holders();
    let limits = ExploreLimits {
        dedup_states: true,
        sleep_sets: true,
        ..limits()
    };
    let explorer = Explorer::new(&program).limits(limits);
    assert_within("lock-holders-3 dedup+sleep", explorer, 0.01);
}

#[test]
fn dpor_on_livelock_retry() {
    let program = buggy("livelock_retry");
    let limits = ExploreLimits {
        dpor: true,
        ..limits()
    };
    let explorer = Explorer::new(&program).limits(limits);
    assert_within("livelock_retry/buggy DPOR", explorer, 0.03);
}

#[test]
fn building_a_kernels_round() {
    // The programs one perfbench `kernels` round builds: each buggy
    // variant twice (full enumeration and DPOR), each fixed variant
    // once. Counted with the registry already built.
    let kernels = registry::all();
    let before = ALLOCATIONS.with(Cell::get);
    let mut programs = Vec::new();
    for kernel in &kernels {
        programs.extend([kernel.buggy(), kernel.buggy()]);
        for &fix in kernel.fixes {
            programs.push(kernel.build(Variant::Fixed(fix)));
        }
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    eprintln!(
        "a kernels round's {} programs: {allocations} allocations",
        programs.len()
    );
    assert_eq!(programs.len(), 122);
    assert!(allocations <= 3_672, "{allocations} allocations");
}
