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
    ("counter_rmw/buggy", 0xafe550c1777e9a25),
    ("counter_rmw/lock", 0x44ea80ef24b299fb),
    ("counter_rmw/atomic", 0xc3c6eca8db014d8d),
    ("counter_rmw/transaction", 0xf082e06ec61dff83),
    ("check_then_act_null/buggy", 0x988b6d3ac6689ac4),
    ("check_then_act_null/condcheck", 0x4b938db10a4ea93c),
    ("check_then_act_null/lock", 0x27710b2937875ab5),
    ("check_then_act_null/transaction", 0x0dea50e806d93cbe),
    ("double_check_init/buggy", 0xb3fea5b3b97f76bd),
    ("double_check_init/lock", 0x5040d85ad9c49e47),
    ("double_check_init/atomic", 0x1d79b2e2aa5446a3),
    ("double_check_init/transaction", 0xe206850894a50721),
    ("log_buffer_apache/buggy", 0xadb11fb084983e43),
    ("log_buffer_apache/lock", 0x9c810ecc87f94805),
    ("log_buffer_apache/transaction", 0x5bf9d0a2da1955eb),
    ("stat_counter/buggy", 0x35bc67193650dbb5),
    ("stat_counter/atomic", 0xf56ce9c086dcb85d),
    ("stat_counter/lock", 0x3e80206710736f6f),
    ("stat_counter/transaction", 0x714d3524edb0ff0d),
    ("bank_withdraw/buggy", 0xe13bd2625f773f1d),
    ("bank_withdraw/lock", 0x99305bd20f771fd5),
    ("bank_withdraw/atomic", 0x89b607a3ba8cdbf5),
    ("bank_withdraw/transaction", 0x38b1756c64e73357),
    ("read_frag_write/buggy", 0xbf534c62e8cc33cc),
    ("read_frag_write/lock", 0xf3dc58b3ff2beacb),
    ("toctou_flag/buggy", 0x77da206052a8f101),
    ("toctou_flag/atomic", 0xdea69319711d1a3b),
    ("toctou_flag/lock", 0xb819a2dbd237f06f),
    ("toctou_flag/transaction", 0x5aefe4c262bf8bad),
    ("intermediate_state/buggy", 0x8cef08e6c2784196),
    ("intermediate_state/codeswitch", 0x64902ac77405c9cd),
    ("intermediate_state/lock", 0xa49c6430215503ba),
    ("intermediate_state/transaction", 0x30045052fe8dac57),
    ("use_before_init_mozilla/buggy", 0x6a7f9f1e07df08c5),
    ("use_before_init_mozilla/addsync", 0x3254a98e783943fd),
    ("use_before_init_mozilla/transaction", 0x6d3016421e4f975d),
    ("publish_before_init/buggy", 0xe70890f37edee8cb),
    ("publish_before_init/codeswitch", 0xddacff5b63e1b07d),
    ("publish_before_init/transaction", 0xc1fa3d35c9f71f51),
    ("missed_signal/buggy", 0x53a59439bcd4ca41),
    ("missed_signal/condcheck", 0xf8d8fb8dfc383151),
    ("consume_before_produce/buggy", 0xb9f3fcf1f2e0d571),
    ("consume_before_produce/codeswitch", 0xf8abbd684408d285),
    ("consume_before_produce/lock", 0xbeedfc8047607925),
    ("consume_before_produce/transaction", 0x803cd311f7f62385),
    ("shutdown_order/buggy", 0x2d18b43807c16665),
    ("shutdown_order/design", 0x2ceffd2dc71dcc32),
    ("join_less_exit/buggy", 0x585a6375b82487cd),
    ("join_less_exit/codeswitch", 0xe51d0677cff95c89),
    ("join_less_exit/transaction", 0x973d0226ed099825),
    ("cache_pair_invariant/buggy", 0x65704fe026627548),
    ("cache_pair_invariant/lock", 0x9ee5a9ea0563c1fd),
    ("cache_pair_invariant/transaction", 0x176e66fa966289c8),
    ("len_data_desync/buggy", 0x5baad37841afd1d9),
    ("len_data_desync/lock", 0xfeada6247007e145),
    ("len_data_desync/transaction", 0x6d1ba9099d6d0a65),
    ("state_data_pair/buggy", 0x2fc6cabcf21bf34d),
    ("state_data_pair/design", 0x5a747f853326a15a),
    ("state_data_pair/lock", 0x0348cd9e816b55c6),
    ("state_data_pair/transaction", 0x455a9a5b22a92eee),
    ("aba_problem/buggy", 0x4b4b4578bd4082fe),
    ("aba_problem/design", 0xff9b7bc34600e1d5),
    ("aba_problem/lock", 0x66d1dadf9d6641e1),
    ("aba_problem/transaction", 0xda9ab664988b1f86),
    ("double_counter_invariant/buggy", 0x58bc11c9d1bc4df8),
    ("double_counter_invariant/lock", 0xf73d349e1c1ad385),
    ("double_counter_invariant/transaction", 0xa39045233c5e836e),
    ("abba/buggy", 0x15500bbbcf4662b5),
    ("abba/acquireinorder", 0xb816710bbd12a605),
    ("abba/giveup", 0xa7bb25ef9e681b4c),
    ("abba/transaction", 0x79fb414cd5884651),
    ("self_relock/buggy", 0x30d92e1820705f43),
    ("self_relock/giveup", 0xf9e4c1a6d40962e3),
    ("self_relock/transaction", 0x981d859254e5ddf1),
    ("lock_cycle_3/buggy", 0x866b689293c51095),
    ("lock_cycle_3/acquireinorder", 0x79117ffb43acb201),
    ("lock_cycle_3/transaction", 0x7c43230bea64c171),
    ("wait_holding_lock/buggy", 0x13572f0e7223ec13),
    ("wait_holding_lock/giveup", 0x6c2c35687f3cac71),
    ("rwlock_upgrade/buggy", 0x5baf10e2a4bef02d),
    ("rwlock_upgrade/acquireinorder", 0xd8ab2ece7dcf8997),
    ("rwlock_upgrade/transaction", 0x29e92799fb7abd55),
    ("join_under_lock/buggy", 0x6fd8cfd6b986459b),
    ("join_under_lock/giveup", 0x235050ad7089ab83),
    ("bounded_buffer/buggy", 0xb87aa0793b674345),
    ("bounded_buffer/split", 0x06872303ae25ee75),
    ("bounded_buffer/codeswitch", 0x15ca0db46523dec9),
    ("semaphore_cycle/buggy", 0x64e7baee56d208a5),
    ("semaphore_cycle/split", 0x60e65aaeb82305ff),
    ("semaphore_cycle/acquireinorder", 0xe396f2bd51518cc9),
    ("semaphore_cycle/transaction", 0x28d7708783c52fd9),
    ("livelock_retry/buggy", 0x717907047355bf06),
    ("livelock_retry/lock", 0x1189b586543795a5),
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
