//! Every variant's state keys, pinned as literals.
//!
//! Dedup merges states by [`Executor::state_key`], so a key that moves
//! can change which states a search merges, and so its verdicts. For
//! each of the 93 kernel variants this pins three figures: the initial
//! key, the key after [`Executor::run_sequential`], and an
//! order-sensitive fold of the keys after every step of that run. A
//! change to how the executor stores or hashes its state must leave all
//! three exactly as they are; a failure names every variant whose keys
//! moved and prints its new line.

use lfm_kernels::{registry, Variant};
use lfm_sim::{Executor, Program};

/// Step budget of the sequential run.
const MAX_STEPS: usize = 2_000;

/// `(variant, initial key, key after the sequential run, fold of the
/// keys after every step of it)`.
#[rustfmt::skip]
const PINS: &[(&str, u64, u64, u64)] = &[
    ("counter_rmw/buggy", 0xabeb430854140d56, 0xa812375b3eda93ef, 0x7526fc763283e0da),
    ("counter_rmw/lock", 0xabeb430854140d56, 0xbce378a72fbf85cc, 0x121ea36dcf306207),
    ("counter_rmw/atomic", 0xabeb430854140d56, 0x0a2c21e427e91dd0, 0x69d32ba0c65d1b4f),
    ("counter_rmw/transaction", 0xabeb430854140d56, 0xbce378a72fbf85cc, 0x4c2b60deaf1df131),
    ("check_then_act_null/buggy", 0x698bb4ccbcaac61f, 0xc668f523ebe33d5a, 0xefb33a1e8b4efb92),
    ("check_then_act_null/condcheck", 0x698bb4ccbcaac61f, 0xd83d39da99bdf14e, 0xb18aca714be060c5),
    ("check_then_act_null/lock", 0x698bb4ccbcaac61f, 0x834d7a4543b1f76b, 0xca75160c37053729),
    ("check_then_act_null/transaction", 0x698bb4ccbcaac61f, 0x6b616fa082d4cf58, 0x79ce6e3ab035cfdf),
    ("double_check_init/buggy", 0x90b826c75bb5bde5, 0xa9e261d80a0521fd, 0x2f7c12845cd5fe7b),
    ("double_check_init/lock", 0x90b826c75bb5bde5, 0x7fc64408fa371889, 0xb1102d4826048104),
    ("double_check_init/atomic", 0x90b826c75bb5bde5, 0x28bf7d457a83c014, 0x215eeaf292b1d1b7),
    ("double_check_init/transaction", 0x90b826c75bb5bde5, 0xe20fe9ca36df765b, 0x84b9ff2c02496c97),
    ("log_buffer_apache/buggy", 0xabeb430854140d56, 0x8a3ecb74c5fe1844, 0xa1984d30bc76083d),
    ("log_buffer_apache/lock", 0xabeb430854140d56, 0x2728cf72c07388d1, 0x78b15145ecfc9cd0),
    ("log_buffer_apache/transaction", 0xabeb430854140d56, 0x2728cf72c07388d1, 0xf7b49ac0de7487c8),
    ("stat_counter/buggy", 0xc0bde732c7cd76ff, 0x4741d3f21cb47828, 0x116466727ccad234),
    ("stat_counter/atomic", 0xc0bde732c7cd76ff, 0x3af6634a6b1fe271, 0x6fb21bb69b5255d5),
    ("stat_counter/lock", 0xc0bde732c7cd76ff, 0x54a05dccd0196c87, 0xcd3a5e0998f49454),
    ("stat_counter/transaction", 0xc0bde732c7cd76ff, 0x7b1fbd9884328656, 0x995bd217456287d9),
    ("bank_withdraw/buggy", 0x6c645773a5e86ca5, 0x3e8d547e7de77462, 0x0c6d89a5b43ef2ec),
    ("bank_withdraw/lock", 0x6c645773a5e86ca5, 0x6b351a67161d5c95, 0xb13342e5e8af72a7),
    ("bank_withdraw/atomic", 0xb79bd23a7cffc4fd, 0xd3de5105a1388533, 0x4a7885d37ecf5b2c),
    ("bank_withdraw/transaction", 0x6c645773a5e86ca5, 0xb65000ad5b870f27, 0xe7ad2d8c7e924654),
    ("read_frag_write/buggy", 0xabeb430854140d56, 0x11d3347acba0296f, 0x534a8cbf3417c385),
    ("read_frag_write/lock", 0xabeb430854140d56, 0xcca2893b0b1f2ae8, 0x6deca0149a7fea67),
    ("toctou_flag/buggy", 0x90b826c75bb5bde5, 0x33d25079d29f6de3, 0x6f2e6bef46bc6899),
    ("toctou_flag/atomic", 0x90b826c75bb5bde5, 0x9647380849e7d6db, 0x52b2875ae8c9509e),
    ("toctou_flag/lock", 0x90b826c75bb5bde5, 0xb94d6537344e8981, 0x4a76db5ca474f5eb),
    ("toctou_flag/transaction", 0x90b826c75bb5bde5, 0xb94d6537344e8981, 0x1fb5e8fbe40fd920),
    ("intermediate_state/buggy", 0xabeb430854140d56, 0x9d0c2e8288cc5060, 0x21255739ca7d9c0f),
    ("intermediate_state/codeswitch", 0xabeb430854140d56, 0xe767fb798e00ef26, 0x23f813ea8af0b1cb),
    ("intermediate_state/lock", 0xabeb430854140d56, 0x2a8bbbb4c960f2bb, 0x5fce972c8c8977aa),
    ("intermediate_state/transaction", 0xabeb430854140d56, 0xc206718bb6c3ef05, 0xa3898c7ec95cca69),
    ("use_before_init_mozilla/buggy", 0x0e5ac15cdde63af1, 0xbdd46be439a4a2a8, 0x9497f3742d06545d),
    ("use_before_init_mozilla/addsync", 0x0e5ac15cdde63af1, 0x5b65bc535ec73845, 0xcf34b8c2ae2df3b8),
    ("use_before_init_mozilla/transaction", 0x0e5ac15cdde63af1, 0x4365c374abf1aff7, 0x1a984e2da4415dd0),
    ("publish_before_init/buggy", 0xa8b9934939fa34d7, 0x6e2f9dbde824f07c, 0x830249dd2058624d),
    ("publish_before_init/codeswitch", 0xa8b9934939fa34d7, 0x6e2f9dbde824f07c, 0xeb6417b496d05473),
    ("publish_before_init/transaction", 0xa8b9934939fa34d7, 0xf234db0df24122dd, 0xd75ed013ef1f8d28),
    ("missed_signal/buggy", 0x30a95d650dee7dd9, 0x2a5bceb4dd03c9ac, 0x5be9cbaa78f2e16e),
    ("missed_signal/condcheck", 0x30a95d650dee7dd9, 0x60072d31988072c8, 0xbe15b2e779af2045),
    ("consume_before_produce/buggy", 0x90b826c75bb5bde5, 0x17ce93bcc788fbb6, 0xd929be0748ae379e),
    ("consume_before_produce/codeswitch", 0x90b826c75bb5bde5, 0x17ce93bcc788fbb6, 0x368c32946f00cc5a),
    ("consume_before_produce/lock", 0x90b826c75bb5bde5, 0x23f5c983b5efd0d1, 0x718d317d2018fab2),
    ("consume_before_produce/transaction", 0x90b826c75bb5bde5, 0x23f5c983b5efd0d1, 0xcaec189cdfa0a60d),
    ("shutdown_order/buggy", 0xdfdcdeeb5a06be45, 0xe075099d5b693381, 0xd2e3daa37b1c0744),
    ("shutdown_order/design", 0xdfdcdeeb5a06be45, 0xec0c7de764d232e7, 0x9a2209ba5647f225),
    ("join_less_exit/buggy", 0x0e5ac15cdde63af1, 0xa09900d83f766d9f, 0x12b70c6aabfd9b37),
    ("join_less_exit/codeswitch", 0x0e5ac15cdde63af1, 0xa09900d83f766d9f, 0x5add9908f260b115),
    ("join_less_exit/transaction", 0x0e5ac15cdde63af1, 0xb8df4398021b3ced, 0x53bd007d2fdddf76),
    ("cache_pair_invariant/buggy", 0x90b826c75bb5bde5, 0x04bbe8bda5692ca4, 0x9448b0f42dfa8d1d),
    ("cache_pair_invariant/lock", 0x90b826c75bb5bde5, 0x19aca829fca8a08f, 0xa4384246dd81c097),
    ("cache_pair_invariant/transaction", 0x90b826c75bb5bde5, 0x19aca829fca8a08f, 0x80a63a0f9b129995),
    ("len_data_desync/buggy", 0x90b826c75bb5bde5, 0xf0051b0df1f13f5c, 0x2cd2cf3005319ba5),
    ("len_data_desync/lock", 0x90b826c75bb5bde5, 0x0ede2f62550ddb6a, 0x230465010cd8f22c),
    ("len_data_desync/transaction", 0x90b826c75bb5bde5, 0x0ede2f62550ddb6a, 0xc3fa9659946a17b3),
    ("state_data_pair/buggy", 0x5a997ffa952fb928, 0xf3fc10bdf6f4f307, 0x3bf99cd1237b4215),
    ("state_data_pair/design", 0x5a997ffa952fb928, 0x53c0d19eec7bc8cd, 0xef97e46b0ac89b18),
    ("state_data_pair/lock", 0x5a997ffa952fb928, 0xbb95020653ae8a01, 0x22838a337b986f6a),
    ("state_data_pair/transaction", 0x5a997ffa952fb928, 0xbb95020653ae8a01, 0x4ceb5ffb64f81d12),
    ("aba_problem/buggy", 0xd7e0a782e9d2b0d8, 0x9587d8ed506f3c94, 0x34a305004d4fb71c),
    ("aba_problem/design", 0xd7e0a782e9d2b0d8, 0x584efddf1b9f622f, 0x093a90e4efddcba7),
    ("aba_problem/lock", 0xd7e0a782e9d2b0d8, 0xe16e547bae479e4d, 0x12689a74a68dddd1),
    ("aba_problem/transaction", 0xd7e0a782e9d2b0d8, 0xe16e547bae479e4d, 0xd97dbcdb9fe2d21a),
    ("double_counter_invariant/buggy", 0x90b826c75bb5bde5, 0xa971329c9607314b, 0xe80e4253e447d90e),
    ("double_counter_invariant/lock", 0x90b826c75bb5bde5, 0x170f6910513b61dd, 0x2a17552eac0a9dcc),
    ("double_counter_invariant/transaction", 0x90b826c75bb5bde5, 0x85e4cb8e3829d91b, 0x6916c276bee27f27),
    ("abba/buggy", 0x3a97a3df5ace2a5b, 0xfab00193938dc41d, 0xfc3f6cd5eb973baf),
    ("abba/acquireinorder", 0x3a97a3df5ace2a5b, 0xfab00193938dc41d, 0xef485f5399cc1fbb),
    ("abba/giveup", 0x1054d5aaccc58f3b, 0x4dcd1b4b17f009fc, 0xd6bf9725348e8772),
    ("abba/transaction", 0x3a97a3df5ace2a5b, 0xb657b893bbb998dd, 0x4da779397d011ffc),
    ("self_relock/buggy", 0x5d4d19759ecaeb7c, 0xd57fdcd6b5e38bff, 0xabacef4a8c11ea6e),
    ("self_relock/giveup", 0x5d4d19759ecaeb7c, 0x9a01a091de85f678, 0x31f5a3b13da3c429),
    ("self_relock/transaction", 0x5d4d19759ecaeb7c, 0xbc07d81336983478, 0xdf22feda8ebcd197),
    ("lock_cycle_3/buggy", 0x1259064b4aeb4e6d, 0x527c4f577e2a365b, 0xa9bda5d29886ff7a),
    ("lock_cycle_3/acquireinorder", 0x1259064b4aeb4e6d, 0x527c4f577e2a365b, 0x59dfd77fb22e4516),
    ("lock_cycle_3/transaction", 0x1259064b4aeb4e6d, 0x165d567ff53421ee, 0xc68e14da5367077f),
    ("wait_holding_lock/buggy", 0xd7132d5c7bffccd6, 0x5f21e8ff50d6ac55, 0xd7ddbb4adb8fbb50),
    ("wait_holding_lock/giveup", 0xd7132d5c7bffccd6, 0x25cdab686a774090, 0xa65e594b950cf0f2),
    ("rwlock_upgrade/buggy", 0x56c3991e9af86ee4, 0xc13624d453deabf0, 0x88b7e9b974ec2f2e),
    ("rwlock_upgrade/acquireinorder", 0x56c3991e9af86ee4, 0xf418dedf170829b8, 0x6c7fe6ada0c8dac0),
    ("rwlock_upgrade/transaction", 0x56c3991e9af86ee4, 0xda0382527b8fdc62, 0x1434193c3a933af0),
    ("join_under_lock/buggy", 0xabeb430854140d56, 0x9b5532f8ad224a59, 0xa99facbd5511d9fd),
    ("join_under_lock/giveup", 0xabeb430854140d56, 0x9b5532f8ad224a59, 0x34791ef1f4c0257b),
    ("bounded_buffer/buggy", 0x253a50d2730ea0ca, 0x6c5264ef5afceb4d, 0xe3d3f3d27f878152),
    ("bounded_buffer/split", 0x253a50d2730ea0ca, 0x6c5264ef5afceb4d, 0x778c23429227fc7a),
    ("bounded_buffer/codeswitch", 0x253a50d2730ea0ca, 0x6c5264ef5afceb4d, 0xe3d3f3d27f878152),
    ("semaphore_cycle/buggy", 0x6a95e9d9b3f9de44, 0xaab24b957aba3002, 0xda23227ae05f408f),
    ("semaphore_cycle/split", 0x6a95e9d9b3f9de44, 0xc84eae183e099918, 0x984cb683881bb262),
    ("semaphore_cycle/acquireinorder", 0x6a95e9d9b3f9de44, 0xaab24b957aba3002, 0xcba39b674e59dc61),
    ("semaphore_cycle/transaction", 0x6a95e9d9b3f9de44, 0xe655f295528e6cc2, 0xf9f2039e9d8cfc30),
    ("livelock_retry/buggy", 0x2f376202303c6a6c, 0x9939c29badd05062, 0x47ae0b04edbc0a17),
    ("livelock_retry/lock", 0xd04e8be6e84a2a72, 0xc047560be103c9a5, 0x64d4c336fd1e7291),
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

/// The three pinned figures of one program.
fn keys(program: &Program) -> (u64, u64, u64) {
    let initial = Executor::new(program).state_key();
    let mut sequential = Executor::new(program);
    sequential.run_sequential(MAX_STEPS);
    // The same run, one step at a time: the lowest-id enabled thread
    // until the run ends or the budget is spent.
    let mut exec = Executor::new(program);
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    while !exec.is_done() && exec.steps() < MAX_STEPS {
        let thread = exec.enabled()[0];
        exec.step(thread).expect("an enabled thread steps");
        fold = (fold ^ exec.state_key()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(
        exec.state_key(),
        sequential.state_key(),
        "one run, two ways"
    );
    (initial, sequential.state_key(), fold)
}

#[test]
fn every_variants_state_keys_are_pinned() {
    let variants = variants();
    assert_eq!(variants.len(), 93, "29 buggy and 64 fixed variants");
    let mut moved = Vec::new();
    for (label, program) in &variants {
        let (initial, last, fold) = keys(program);
        let line = format!("    (\"{label}\", {initial:#018x}, {last:#018x}, {fold:#018x}),");
        match PINS.iter().find(|pin| pin.0 == label) {
            Some(&pin) if pin == (label.as_str(), initial, last, fold) => {}
            _ => moved.push(line),
        }
    }
    assert!(
        moved.is_empty(),
        "{} variants' state keys moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(PINS.len(), variants.len(), "one pin per variant");
}
