//! Every search's report on every variant, pinned as one literal each.
//!
//! The differential suites compare outcome sets, and CI pins the work
//! counters only as sums over a perfbench round, so a refactor of a
//! search could move one variant's counts (its schedules, prunes,
//! snapshots or witnesses) without failing anything. For each of the
//! 93 kernel variants this pins a fold over ten searches: full
//! enumeration, sleep sets, dedup, dedup with sleep sets and DPOR, each
//! fused and unfused. Each search contributes the `Debug` text of its
//! report, with `stats.wall` zeroed, and of its outcome set; the report
//! prints every field [`lfm_sim::ExploreReport::first_difference`]
//! compares. A change that only restructures a search must leave every
//! literal as it is; a failure names every variant whose searches moved
//! and prints its new line.

use std::time::Duration;

use lfm_kernels::{registry, Variant};
use lfm_sim::{ExploreLimits, Explorer, Program};

/// Schedule cap of every search: full enumeration of the deepest
/// kernels truncates here, and a truncated report is pinned like any
/// other.
const MAX_SCHEDULES: u64 = 40_000;

/// `(variant, fold of its ten searches)`.
#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("counter_rmw/buggy", 0x91d1026036d62d7d),
    ("counter_rmw/lock", 0xc96ffb6cbab68a59),
    ("counter_rmw/atomic", 0x41dee2c3fc865bbd),
    ("counter_rmw/transaction", 0xa0449c5b024ce945),
    ("check_then_act_null/buggy", 0xca6ab2bcd6826bf0),
    ("check_then_act_null/condcheck", 0x8c65b1f45407bf1f),
    ("check_then_act_null/lock", 0x204af8d1d5d1eee7),
    ("check_then_act_null/transaction", 0x498c7a9f98e6a7f9),
    ("double_check_init/buggy", 0x9ee5520857ee2817),
    ("double_check_init/lock", 0x720ae8d80c142db5),
    ("double_check_init/atomic", 0xa7f60951119ab25d),
    ("double_check_init/transaction", 0x2d50d5bc267f764f),
    ("log_buffer_apache/buggy", 0xd958775487dab2b1),
    ("log_buffer_apache/lock", 0x27022eb7726fc817),
    ("log_buffer_apache/transaction", 0x885c6370bef549bd),
    ("stat_counter/buggy", 0x4eb9faa302fa2a57),
    ("stat_counter/atomic", 0x55d98b3b03be98b5),
    ("stat_counter/lock", 0x3302f5723a1d8455),
    ("stat_counter/transaction", 0xcbfdf8c312f419ff),
    ("bank_withdraw/buggy", 0x79110c9eee4c5c21),
    ("bank_withdraw/lock", 0x770009d45e4484d9),
    ("bank_withdraw/atomic", 0xa4e5bdcd3b4932f5),
    ("bank_withdraw/transaction", 0xbbfb40d53d59ed05),
    ("read_frag_write/buggy", 0x89d8e4f42f2ec75f),
    ("read_frag_write/lock", 0x37318c8fbb7c4645),
    ("toctou_flag/buggy", 0x4188bf93ffa0c8af),
    ("toctou_flag/atomic", 0x78dad6db08cabf58),
    ("toctou_flag/lock", 0x365cf1b3d3d1baf5),
    ("toctou_flag/transaction", 0xf403bdead5f6a521),
    ("intermediate_state/buggy", 0xf526e3a99fc77115),
    ("intermediate_state/codeswitch", 0xaefc9517e6181649),
    ("intermediate_state/lock", 0x8f20741abac3cec7),
    ("intermediate_state/transaction", 0xbf4e19b042a30d91),
    ("use_before_init_mozilla/buggy", 0x5e47c68d2d4668a1),
    ("use_before_init_mozilla/addsync", 0x477f9a934a26e46d),
    ("use_before_init_mozilla/transaction", 0x2e6539c272d7d37d),
    ("publish_before_init/buggy", 0xef457b0abac0e755),
    ("publish_before_init/codeswitch", 0xabdf077f09d18c6d),
    ("publish_before_init/transaction", 0xbe67a7d467fadcf9),
    ("missed_signal/buggy", 0x0778cb11f48a0805),
    ("missed_signal/condcheck", 0xb364ee5044efe27d),
    ("consume_before_produce/buggy", 0xa5e55b59c4e8a225),
    ("consume_before_produce/codeswitch", 0x4e1d9e695fd8d01d),
    ("consume_before_produce/lock", 0xa9de5901d281d355),
    ("consume_before_produce/transaction", 0xe035a63fc23c6ed1),
    ("shutdown_order/buggy", 0x9f58dd55b4c18c49),
    ("shutdown_order/design", 0xac6e2f449a085d9e),
    ("join_less_exit/buggy", 0x02dcc8835ce21617),
    ("join_less_exit/codeswitch", 0x3d01152bea93154b),
    ("join_less_exit/transaction", 0x2737b4509ee8b31b),
    ("cache_pair_invariant/buggy", 0x1ae13a1663170bf9),
    ("cache_pair_invariant/lock", 0x3770855d1beb531f),
    ("cache_pair_invariant/transaction", 0x392e8a25b32aceb7),
    ("len_data_desync/buggy", 0x2225e92d2e7073dd),
    ("len_data_desync/lock", 0x668560763dff5455),
    ("len_data_desync/transaction", 0xaffab243edb1f86b),
    ("state_data_pair/buggy", 0x65a8d9942b8b8a91),
    ("state_data_pair/design", 0x6d0250d550ec8d15),
    ("state_data_pair/lock", 0x0cba90c558c6410b),
    ("state_data_pair/transaction", 0xf9756d85aa98e197),
    ("aba_problem/buggy", 0x91796ed28048a04f),
    ("aba_problem/design", 0xa13f3964190bc9f7),
    ("aba_problem/lock", 0x5ee9804af6190823),
    ("aba_problem/transaction", 0xbef397c3f92c68dd),
    ("double_counter_invariant/buggy", 0x55f64c9c7df42455),
    ("double_counter_invariant/lock", 0x4e1c149e1d71f4ad),
    ("double_counter_invariant/transaction", 0x4c7eb24ed4e7dba5),
    ("abba/buggy", 0x54ba135cce96c2c7),
    ("abba/acquireinorder", 0x1d65844a225c6cd9),
    ("abba/giveup", 0x90553e1ba955cc4a),
    ("abba/transaction", 0xb9244e084ba05205),
    ("self_relock/buggy", 0x3949101fa91b6733),
    ("self_relock/giveup", 0xc6c1c55b953896a3),
    ("self_relock/transaction", 0x3be231550c6b2a2d),
    ("lock_cycle_3/buggy", 0x0986bc70ba8b2315),
    ("lock_cycle_3/acquireinorder", 0x66eda838b15a529b),
    ("lock_cycle_3/transaction", 0xa31c6503d63d3d1d),
    ("wait_holding_lock/buggy", 0x077450f81f65cb15),
    ("wait_holding_lock/giveup", 0x0cf8e1d5fef415c7),
    ("rwlock_upgrade/buggy", 0x9e288b019192071d),
    ("rwlock_upgrade/acquireinorder", 0xc679315f4da97385),
    ("rwlock_upgrade/transaction", 0xa380394ac0d680e7),
    ("join_under_lock/buggy", 0x852eeefa9a2227e5),
    ("join_under_lock/giveup", 0x0a2328c6f694fb01),
    ("bounded_buffer/buggy", 0xccce2ae38819bb3d),
    ("bounded_buffer/split", 0x63da933673636d5d),
    ("bounded_buffer/codeswitch", 0x9b9cf7d6d56308c5),
    ("semaphore_cycle/buggy", 0x9e755df9d2c1482f),
    ("semaphore_cycle/split", 0x1355c45697212685),
    ("semaphore_cycle/acquireinorder", 0x9d2194acbc00c61d),
    ("semaphore_cycle/transaction", 0x74569a502082cb65),
    ("livelock_retry/buggy", 0x274c243c763e4fad),
    ("livelock_retry/lock", 0x0fbbb7c303193cd5),
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

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fold of `program`'s ten searches, in a fixed order.
fn searches(program: &Program) -> u64 {
    // `(dedup_states, sleep_sets, dpor)`: full enumeration, sleep sets,
    // dedup, dedup with sleep sets, DPOR.
    let searches = [
        (false, false, false),
        (false, true, false),
        (true, false, false),
        (true, true, false),
        (false, false, true),
    ];
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for fuse in [true, false] {
        for (dedup_states, sleep_sets, dpor) in searches {
            let limits = ExploreLimits {
                max_schedules: MAX_SCHEDULES,
                dedup_states,
                sleep_sets,
                dpor,
                fuse,
                ..ExploreLimits::default()
            };
            let (mut report, set) = Explorer::new(program).limits(limits).run_outcome_set();
            report.stats.wall = Duration::ZERO;
            fold = fnv(fold, format!("{report:?}\n{set:?}\n").as_bytes());
        }
    }
    fold
}

#[test]
fn every_variants_searches_are_pinned() {
    let variants = variants();
    assert_eq!(variants.len(), 93, "29 buggy and 64 fixed variants");
    let mut moved = Vec::new();
    for (label, program) in &variants {
        let fold = searches(program);
        match PINS.iter().find(|pin| pin.0 == label) {
            Some(&pin) if pin == (label.as_str(), fold) => {}
            _ => moved.push(format!("    (\"{label}\", {fold:#018x}),")),
        }
    }
    assert!(
        moved.is_empty(),
        "{} variants' searches moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(PINS.len(), variants.len(), "one pin per variant");
}
