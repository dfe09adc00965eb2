//! Every variant's recorded vector clocks, pinned as literals.
//!
//! The dynamic detectors (the happens-before race detector among them)
//! and witness files read the clocks of recorded runs, so a clock that
//! moves can change a detector's verdict or a witness's bytes. For each
//! of the 93 kernel variants this pins one fold over the events of 65
//! recorded runs: the sequential run, and a random walker's traces for
//! eight seeds, each seed plain and under that seed's fault plan. The
//! faulted walks reach every happens-before edge: spurious wake-ups,
//! failed try-locks, spawns, joins, semaphores and rwlocks. Each event
//! contributes its sequence number, its thread and every component of
//! its clock, not the `Debug` text of its kind. A change to how clocks
//! are computed must leave every literal as it is; a failure names
//! every variant whose clocks moved and prints its new line.

use lfm_kernels::{registry, Variant};
use lfm_sim::{Executor, FaultPlan, Program, RandomWalker, RecordMode, ThreadId, Trace};

/// Step budget of every run.
const MAX_STEPS: usize = 2_000;

/// Walker seeds, each run plain and faulted.
const SEEDS: u64 = 8;

/// Traces the walker collects per seed and plan.
const TRIALS: u64 = 4;

/// `(variant, fold of its recorded clocks)`.
#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("counter_rmw/buggy", 0x447295f9a4456205),
    ("counter_rmw/lock", 0x6581cfa9e54d5ee1),
    ("counter_rmw/atomic", 0xcf39aa5f66a98205),
    ("counter_rmw/transaction", 0x755df9d37dbec7a0),
    ("check_then_act_null/buggy", 0xd0c2a6e81855af03),
    ("check_then_act_null/condcheck", 0xfe9caaa3662aae82),
    ("check_then_act_null/lock", 0x40ac9afe5ee5e86c),
    ("check_then_act_null/transaction", 0xd3bb9c6e00c43c48),
    ("double_check_init/buggy", 0x9a078dd10e802005),
    ("double_check_init/lock", 0x1abbde99421174c3),
    ("double_check_init/atomic", 0x5a91c7565d436982),
    ("double_check_init/transaction", 0xdaa126f177fe21df),
    ("log_buffer_apache/buggy", 0xd4c0e0d1f2f44665),
    ("log_buffer_apache/lock", 0x52a27aa8abf77145),
    ("log_buffer_apache/transaction", 0x0f29b704651ad548),
    ("stat_counter/buggy", 0x78b8793c4f8c8a24),
    ("stat_counter/atomic", 0xf948ad49a7fc7703),
    ("stat_counter/lock", 0x76491e9eb6404d4c),
    ("stat_counter/transaction", 0xcf593be54e5edcdf),
    ("bank_withdraw/buggy", 0x9a078dd10e802005),
    ("bank_withdraw/lock", 0x1abbde99421174c3),
    ("bank_withdraw/atomic", 0x9a078dd10e802005),
    ("bank_withdraw/transaction", 0xdaa126f177fe21df),
    ("read_frag_write/buggy", 0xaf530c5d8b740200),
    ("read_frag_write/lock", 0x9f4a4e4ad176ee23),
    ("toctou_flag/buggy", 0xa88dd09192037520),
    ("toctou_flag/atomic", 0x54ccfc79faed8b0d),
    ("toctou_flag/lock", 0xc56ae1707a791902),
    ("toctou_flag/transaction", 0x4849565fb73a08f7),
    ("intermediate_state/buggy", 0x8a25b86f0dcc2ba1),
    ("intermediate_state/codeswitch", 0x59bb5ed9f8eeba66),
    ("intermediate_state/lock", 0xf68b034cfde812a8),
    ("intermediate_state/transaction", 0x76cf7c01d1ed5b62),
    ("use_before_init_mozilla/buggy", 0x8c1a113f40475126),
    ("use_before_init_mozilla/addsync", 0xa5fc88ba6ef571a6),
    ("use_before_init_mozilla/transaction", 0xe107f73c2b1ccf6e),
    ("publish_before_init/buggy", 0x75f5d0b70c50ad02),
    ("publish_before_init/codeswitch", 0xa474aba6774e1442),
    ("publish_before_init/transaction", 0x66d052dee4ce3315),
    ("missed_signal/buggy", 0x38e938aa61d0f20c),
    ("missed_signal/condcheck", 0x70d23a32180632e6),
    ("consume_before_produce/buggy", 0x75f5d0b70c50ad02),
    ("consume_before_produce/codeswitch", 0xa474aba6774e1442),
    ("consume_before_produce/lock", 0x0a0eabf3569258e1),
    ("consume_before_produce/transaction", 0x66d052dee4ce3315),
    ("shutdown_order/buggy", 0xf4674963eb83deaf),
    ("shutdown_order/design", 0x36f6f5e64e44c4a7),
    ("join_less_exit/buggy", 0x33c9b05c6eeae0e5),
    ("join_less_exit/codeswitch", 0xa5fc88ba6ef571a6),
    ("join_less_exit/transaction", 0xe107f73c2b1ccf6e),
    ("cache_pair_invariant/buggy", 0x3e48b3121fe59e60),
    ("cache_pair_invariant/lock", 0x2e35d48256617280),
    ("cache_pair_invariant/transaction", 0x46596d193b8421ce),
    ("len_data_desync/buggy", 0xd4c0e0d1f2f44665),
    ("len_data_desync/lock", 0x52a27aa8abf77145),
    ("len_data_desync/transaction", 0x04cade869aa4f16a),
    ("state_data_pair/buggy", 0x76e2480d00dd1224),
    ("state_data_pair/design", 0x5d9341fb4d961c8b),
    ("state_data_pair/lock", 0xf68b034cfde812a8),
    ("state_data_pair/transaction", 0xc346daceec7c64f4),
    ("aba_problem/buggy", 0xacc83f502fbda7a4),
    ("aba_problem/design", 0x78459a78dc107dea),
    ("aba_problem/lock", 0x2dbdba6c9d155753),
    ("aba_problem/transaction", 0x90d62ada918746b9),
    ("double_counter_invariant/buggy", 0x900bed3b338e1e24),
    ("double_counter_invariant/lock", 0x5391e1689e64b5e1),
    ("double_counter_invariant/transaction", 0x46596d193b8421ce),
    ("abba/buggy", 0xf651cb5402e93964),
    ("abba/acquireinorder", 0x52a27aa8abf77145),
    ("abba/giveup", 0xd6af1e3f0252f567),
    ("abba/transaction", 0x755df9d37dbec7a0),
    ("self_relock/buggy", 0x93ee7b458fb716a5),
    ("self_relock/giveup", 0xd6b4c42e94f58226),
    ("self_relock/transaction", 0xf8868293b9a0d4a3),
    ("lock_cycle_3/buggy", 0x15d15b09096390d7),
    ("lock_cycle_3/acquireinorder", 0x9cd0ee1dafe0ea93),
    ("lock_cycle_3/transaction", 0x26ed966ffb4fd4a8),
    ("wait_holding_lock/buggy", 0xaa02da844eebd6e5),
    ("wait_holding_lock/giveup", 0x1fc3ff44cc4018e5),
    ("rwlock_upgrade/buggy", 0xf8db484448389785),
    ("rwlock_upgrade/acquireinorder", 0x5cf7c155bb2d6665),
    ("rwlock_upgrade/transaction", 0x755df9d37dbec7a0),
    ("join_under_lock/buggy", 0xea383ed1fb2de065),
    ("join_under_lock/giveup", 0x45268dc346e3b3a5),
    ("bounded_buffer/buggy", 0x7879aef2abbcf845),
    ("bounded_buffer/split", 0x8ff705c34b9ebd3a),
    ("bounded_buffer/codeswitch", 0x5f01c42edef1faac),
    ("semaphore_cycle/buggy", 0xf651cb5402e93964),
    ("semaphore_cycle/split", 0xd4c0e0d1f2f44665),
    ("semaphore_cycle/acquireinorder", 0x52a27aa8abf77145),
    ("semaphore_cycle/transaction", 0x755df9d37dbec7a0),
    ("livelock_retry/buggy", 0x4cc6e68b27e5cbe5),
    ("livelock_retry/lock", 0x5cf7c155bb2d6665),
];

/// Every variant: each kernel's buggy program, then its fixes in
/// declaration order.
fn variants() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for kernel in registry::all() {
        out.push((format!("{}/buggy", kernel.id), kernel.buggy()));
        for &fix in kernel.fixes {
            let label = format!("{}/{fix:?}", kernel.id).to_lowercase();
            out.push((label, kernel.build(Variant::Fixed(fix))));
        }
    }
    out
}

/// FNV-1a over `value`'s bytes, continuing from `hash`.
fn fnv(hash: u64, value: u64) -> u64 {
    value.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds every event of `trace` into `hash`.
fn fold_trace(mut hash: u64, trace: &Trace) -> u64 {
    for event in &trace.events {
        hash = fnv(hash, event.seq as u64);
        hash = fnv(hash, event.thread.index() as u64);
        for i in 0..event.clock.len() {
            hash = fnv(hash, event.clock.get(ThreadId::from_index(i)).into());
        }
    }
    hash
}

/// The fold of `program`'s recorded runs, in a fixed order.
fn clocks(program: &Program) -> u64 {
    let mut sequential = Executor::with_record(program, RecordMode::Full);
    sequential.run_sequential(MAX_STEPS);
    let mut fold = fold_trace(0xcbf2_9ce4_8422_2325, &sequential.into_trace());
    for seed in 0..SEEDS {
        let walker = RandomWalker::new(program, seed).max_steps(MAX_STEPS);
        let faulted = walker.clone().with_faults(FaultPlan::new(seed));
        for walker in [walker, faulted] {
            for (trace, _) in walker.collect_traces(TRIALS) {
                fold = fold_trace(fold, &trace);
            }
        }
    }
    fold
}

#[test]
fn every_variants_clocks_are_pinned() {
    let variants = variants();
    assert_eq!(variants.len(), 93, "29 buggy and 64 fixed variants");
    let mut moved = Vec::new();
    for (label, program) in &variants {
        let fold = clocks(program);
        match PINS.iter().find(|pin| pin.0 == label) {
            Some(&pin) if pin == (label.as_str(), fold) => {}
            _ => moved.push(format!("    (\"{label}\", {fold:#018x}),")),
        }
    }
    assert!(
        moved.is_empty(),
        "{} variants' clocks moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(PINS.len(), variants.len(), "one pin per variant");
}
