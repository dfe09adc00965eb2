//! Pins the outputs of the seeded samplers and of the experiments that
//! read recorded runs: E-test's two samplers on every buggy kernel, the
//! PCT rung's batches, and the rendered E-cov and E-detect tables. Each
//! expected value was computed by the code before recorded runs were
//! taken by replay, so a change to how a sampler steps or how a run's
//! events are recorded must leave these bytes alone.

use learning_from_mistakes::kernels::registry;
use learning_from_mistakes::sim::budget::pct_batches;
use learning_from_mistakes::sim::random::PctScheduler;
use learning_from_mistakes::sim::{RandomWalkReport, RandomWalker};
use learning_from_mistakes::study::experiments;

/// One line per batch: its outcome histogram, then the first failing
/// schedule and its outcome.
fn line(kernel: &str, sampler: &str, report: &RandomWalkReport) -> String {
    let first = match &report.first_failure {
        Some((schedule, outcome)) => format!("[{schedule}] {outcome}"),
        None => "none".to_string(),
    };
    format!("{kernel} {sampler}: {} | {first}\n", report.counts)
}

/// The first line of an expected block is the one after the opening
/// quote, so the blocks below read as the text they pin.
fn block(expected: &str) -> &str {
    expected
        .strip_prefix('\n')
        .expect("blocks open on a new line")
}

#[test]
fn etest_samplers_are_pinned_on_every_buggy_kernel() {
    let mut got = String::new();
    for kernel in registry::all() {
        let program = kernel.buggy();
        let random = RandomWalker::new(&program, 0xC0FFEE).run_trials(100);
        let pct = PctScheduler::new(&program, 0xC0FFEE, 3).run_trials(100);
        got += &line(kernel.id, "random", &random);
        got += &line(kernel.id, "pct", &pct);
    }
    assert_eq!(got, block(SAMPLERS));
}

#[test]
fn pct_batches_are_pinned() {
    let mut got = String::new();
    for id in ["aba_problem", "livelock_retry"] {
        let program = registry::by_id(id).expect("kernel exists").buggy();
        let (report, timed_out) = pct_batches(&program, 5_000, None, 64, || false);
        got += &format!("{timed_out} {} ", report.trials);
        got += &line(id, "pct_batches", &report);
    }
    assert_eq!(got, block(BATCHES));
}

#[test]
fn ecov_table_is_pinned() {
    assert_eq!(
        experiments::coverage_growth_table().to_string(),
        block(ECOV)
    );
}

#[test]
fn edetect_table_is_pinned() {
    assert_eq!(experiments::coverage_table().to_string(), block(EDETECT));
}

const SAMPLERS: &str = r"
counter_rmw random: ok=51 assert=49 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0] final assert failed: both increments retained
counter_rmw pct: ok=59 assert=41 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0] final assert failed: both increments retained
check_then_act_null random: ok=67 assert=33 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t0 t0] assert failed in t0: dereferenced freed pointer
check_then_act_null pct: ok=75 assert=25 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t0 t0] assert failed in t0: dereferenced freed pointer
double_check_init random: ok=44 assert=56 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t0 t1] final assert failed: resource initialized exactly once
double_check_init pct: ok=86 assert=14 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t0 t1] final assert failed: resource initialized exactly once
log_buffer_apache random: ok=18 assert=82 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t0 t1] final assert failed: no log record overwritten
log_buffer_apache pct: ok=48 assert=52 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t0 t1 t1 t0 t1] final assert failed: no log record overwritten
stat_counter random: ok=44 assert=56 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0] final assert failed: object freed exactly once when refcount hits zero
stat_counter pct: ok=86 assert=14 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0] final assert failed: object freed exactly once when refcount hits zero
bank_withdraw random: ok=44 assert=56 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t0 t1] final assert failed: no overdraft and money conserved
bank_withdraw pct: ok=86 assert=14 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t0 t1] final assert failed: no overdraft and money conserved
read_frag_write random: ok=64 assert=36 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t0 t0 t0] assert failed in t0: entry appended within one log generation
read_frag_write pct: ok=66 assert=34 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t0 t1 t0 t0] assert failed in t0: entry appended within one log generation
toctou_flag random: ok=72 assert=28 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t0 t1 t1 t1 t1 t0 t1 t0 t0] assert failed in t0: region is exclusive
toctou_flag pct: ok=100 assert=0 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | none
intermediate_state random: ok=64 assert=36 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1] assert failed in t1: never sees scratch value
intermediate_state pct: ok=75 assert=25 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1] assert failed in t1: never sees scratch value
use_before_init_mozilla random: ok=53 assert=47 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t1 t1] assert failed in t1: mThread initialized before use
use_before_init_mozilla pct: ok=53 assert=47 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t1 t0 t1] assert failed in t1: mThread initialized before use
publish_before_init random: ok=87 assert=13 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t1] assert failed in t1: published data is initialized
publish_before_init pct: ok=95 assert=5 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t1] assert failed in t1: published data is initialized
missed_signal random: ok=37 assert=0 deadlock=63 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t0] deadlock [t0 blocked on wait c0]
missed_signal pct: ok=28 assert=0 deadlock=72 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t0] deadlock [t0 blocked on wait c0]
consume_before_produce random: ok=87 assert=13 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t1] assert failed in t1: consumed a fully produced item
consume_before_produce pct: ok=95 assert=5 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t1] assert failed in t1: consumed a fully produced item
shutdown_order random: ok=86 assert=14 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t1 t0 t1 t1 t0 t0] assert failed in t0: resource alive while in use
shutdown_order pct: ok=87 assert=13 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t1 t0 t1 t1 t0 t0] assert failed in t0: resource alive while in use
join_less_exit random: ok=74 assert=26 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t1] assert failed in t1: result stored before completion
join_less_exit pct: ok=72 assert=28 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t1] assert failed in t1: result stored before completion
cache_pair_invariant random: ok=91 assert=9 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t0 t1 t1 t0 t1] assert failed in t1: count matches entries
cache_pair_invariant pct: ok=72 assert=28 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t0 t0 t1 t1 t1] assert failed in t1: count matches entries
len_data_desync random: ok=18 assert=82 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t0 t1] final assert failed: len counts both pushes and tail is the second element
len_data_desync pct: ok=48 assert=52 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t0 t1 t1 t0 t1] final assert failed: len counts both pushes and tail is the second element
state_data_pair random: ok=57 assert=43 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t0 t1] assert failed in t1: reader never sees scratch data
state_data_pair pct: ok=83 assert=17 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t1] assert failed in t1: reader never sees scratch data
aba_problem random: ok=93 assert=7 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t0 t1 t1 t1 t1 t0 t1 t0] assert failed in t0: new top is a live node (no ABA)
aba_problem pct: ok=98 assert=2 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t0 t1 t1 t1 t1 t1 t1 t1 t1 t0 t0 t0] assert failed in t0: new top is a live node (no ABA)
double_counter_invariant random: ok=74 assert=26 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t0 t1] assert failed in t1: every request is handled
double_counter_invariant pct: ok=88 assert=12 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t1] assert failed in t1: every request is handled
abba random: ok=49 assert=0 deadlock=51 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1] deadlock [t0 blocked on lock m1, t1 blocked on lock m0]
abba pct: ok=79 assert=0 deadlock=21 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1] deadlock [t0 blocked on lock m1, t1 blocked on lock m0]
self_relock random: ok=0 assert=0 deadlock=100 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0] deadlock [t0 blocked on lock m0]
self_relock pct: ok=0 assert=0 deadlock=100 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0] deadlock [t0 blocked on lock m0]
lock_cycle_3 random: ok=64 assert=0 deadlock=36 step-limit=0 tx-retry=0 misuse=0 total=100 | [t2 t1 t0] deadlock [t0 blocked on lock m1, t1 blocked on lock m2, t2 blocked on lock m0]
lock_cycle_3 pct: ok=94 assert=0 deadlock=6 step-limit=0 tx-retry=0 misuse=0 total=100 | [t2 t1 t0] deadlock [t0 blocked on lock m1, t1 blocked on lock m2, t2 blocked on lock m0]
wait_holding_lock random: ok=52 assert=0 deadlock=48 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0] deadlock [t0 blocked on acquire s0, t1 blocked on lock m0]
wait_holding_lock pct: ok=47 assert=0 deadlock=53 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0] deadlock [t0 blocked on acquire s0, t1 blocked on lock m0]
rwlock_upgrade random: ok=0 assert=0 deadlock=100 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1] deadlock [t0 blocked on wrlock rw0, t1 blocked on wrlock rw0]
rwlock_upgrade pct: ok=0 assert=0 deadlock=100 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1] deadlock [t0 blocked on wrlock rw0, t1 blocked on wrlock rw0]
join_under_lock random: ok=50 assert=0 deadlock=50 step-limit=0 tx-retry=0 misuse=0 total=100 | [t1] deadlock [t0 blocked on lock m0, t1 blocked on join t0]
join_under_lock pct: ok=53 assert=0 deadlock=47 step-limit=0 tx-retry=0 misuse=0 total=100 | [t1] deadlock [t0 blocked on lock m0, t1 blocked on join t0]
bounded_buffer random: ok=87 assert=0 deadlock=13 step-limit=0 tx-retry=0 misuse=0 total=100 | [t2 t2 t2 t3 t3 t3 t0 t0 t0 t0 t0 t1 t1 t1 t2 t2 t2 t2 t2 t3 t3 t3] deadlock [t1 blocked on wait c0, t3 blocked on wait c0]
bounded_buffer pct: ok=96 assert=0 deadlock=4 step-limit=0 tx-retry=0 misuse=0 total=100 | [t2 t2 t2 t3 t3 t3 t1 t1 t1 t1 t1 t0 t0 t0 t2 t2 t2 t2 t2 t3 t3 t3] deadlock [t0 blocked on wait c0, t3 blocked on wait c0]
semaphore_cycle random: ok=49 assert=0 deadlock=51 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1] deadlock [t0 blocked on acquire s1, t1 blocked on acquire s0]
semaphore_cycle pct: ok=79 assert=0 deadlock=21 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1] deadlock [t0 blocked on acquire s1, t1 blocked on acquire s0]
livelock_retry random: ok=97 assert=3 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t1 t0 t0 t1 t0 t0 t0 t0 t0 t1 t1 t1 t1 t1 t0 t0 t0 t0 t0 t0] assert failed in t0: thread eventually makes progress
livelock_retry pct: ok=80 assert=20 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=100 | [t0 t1 t1 t1 t1 t1 t1 t1 t1 t1 t1 t1 t0 t0 t0 t0 t1 t1] assert failed in t1: thread eventually makes progress
";

const BATCHES: &str = r"
false 64 aba_problem pct_batches: ok=61 assert=3 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=64 | [t0 t0 t1 t1 t1 t1 t1 t1 t1 t0 t0 t0] assert failed in t0: new top is a live node (no ABA)
false 64 livelock_retry pct_batches: ok=59 assert=5 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=64 | [t0 t0 t1 t1 t1 t1 t1 t1 t1 t1 t1 t1 t1 t1 t0 t0 t0 t1] assert failed in t1: thread eventually makes progress
";

const ECOV: &str = r"
E-cov: Access-pair coverage growth under random testing (vs exhaustive universe)
+--------------------------+----------+-----------+------------+---------------+
| kernel                   | universe | @5 trials | @25 trials | bug found @25 |
+--------------------------+----------+-----------+------------+---------------+
| counter_rmw              | 6        | 5         | 6          | yes           |
| check_then_act_null      | 2        | 2         | 2          | yes           |
| double_check_init        | 8        | 7         | 8          | yes           |
| log_buffer_apache        | 6        | 4         | 6          | yes           |
| stat_counter             | 6        | 4         | 6          | yes           |
| bank_withdraw            | 8        | 7         | 8          | yes           |
| read_frag_write          | 2        | 2         | 2          | yes           |
| toctou_flag              | 12       | 11        | 12         | yes           |
| intermediate_state       | 2        | 2         | 2          | yes           |
| use_before_init_mozilla  | 2        | 2         | 2          | yes           |
| publish_before_init      | 4        | 3         | 4          | yes           |
| missed_signal            | 0        | 0         | 0          | yes           |
| consume_before_produce   | 4        | 3         | 4          | yes           |
| shutdown_order           | 4        | 3         | 4          | yes           |
| join_less_exit           | 2        | 2         | 2          | yes           |
| cache_pair_invariant     | 4        | 2         | 4          | yes           |
| len_data_desync          | 8        | 6         | 8          | yes           |
| state_data_pair          | 4        | 4         | 4          | yes           |
| aba_problem              | 10       | 9         | 10         | yes           |
| double_counter_invariant | 4        | 4         | 4          | yes           |
| abba                     | 2        | 2         | 2          | yes           |
| self_relock              | 0        | 0         | 0          | yes           |
| lock_cycle_3             | 6        | 3         | 3          | yes           |
| wait_holding_lock        | 0        | 0         | 0          | yes           |
| rwlock_upgrade           | 0        | 0         | 0          | yes           |
| join_under_lock          | 0        | 0         | 0          | yes           |
| bounded_buffer           | 12       | 8         | 11         | NO            |
| semaphore_cycle          | 2        | 2         | 2          | yes           |
+--------------------------+----------+-----------+------------+---------------+
  note: 21/23 memory-access kernels saturate their pair universe within 25 random trials — yet E-test shows random testing still misses manifestations at small budgets: covering pairs is not the same as forcing the buggy conjunction
  note: 5 kernels (pure-synchronization deadlocks and lost wakeups) have an EMPTY pair universe: access-pair coverage cannot even express their bugs
";

const EDETECT: &str = r"
E-detect: Detector coverage per kernel (x = flagged)
+--------------------------+-----------------------------+---------+---------+------+-------+------+------------+
| kernel                   | family                      | HB race | lockset | AVIO | order | MUVI | lock-order |
+--------------------------+-----------------------------+---------+---------+------+-------+------+------------+
| counter_rmw              | atomicity (single-variable) | x       | x       | x    | .     | .    | .          |
| check_then_act_null      | atomicity (single-variable) | x       | x       | x    | .     | .    | .          |
| double_check_init        | atomicity (single-variable) | x       | x       | x    | .     | x    | .          |
| log_buffer_apache        | atomicity (single-variable) | x       | x       | x    | .     | .    | .          |
| stat_counter             | atomicity (single-variable) | x       | x       | x    | .     | .    | .          |
| bank_withdraw            | atomicity (single-variable) | x       | x       | x    | .     | x    | .          |
| read_frag_write          | atomicity (single-variable) | .       | .       | x    | .     | .    | .          |
| toctou_flag              | atomicity (single-variable) | x       | x       | .    | .     | x    | .          |
| intermediate_state       | atomicity (single-variable) | x       | x       | x    | .     | .    | .          |
| use_before_init_mozilla  | order violation             | x       | x       | .    | x     | .    | .          |
| publish_before_init      | order violation             | x       | x       | .    | x     | x    | .          |
| missed_signal            | order violation             | .       | .       | .    | .     | .    | .          |
| consume_before_produce   | order violation             | x       | x       | .    | x     | x    | .          |
| shutdown_order           | order violation             | x       | x       | .    | .     | x    | .          |
| join_less_exit           | order violation             | x       | x       | .    | x     | .    | .          |
| cache_pair_invariant     | multi-variable              | x       | x       | .    | .     | x    | .          |
| len_data_desync          | multi-variable              | x       | x       | x    | .     | x    | .          |
| state_data_pair          | multi-variable              | x       | x       | x    | .     | x    | .          |
| aba_problem              | multi-variable              | x       | x       | .    | .     | x    | .          |
| double_counter_invariant | multi-variable              | .       | .       | .    | .     | x    | .          |
| abba                     | deadlock                    | .       | .       | .    | .     | .    | x          |
| self_relock              | deadlock                    | .       | .       | .    | .     | .    | .          |
| lock_cycle_3             | deadlock                    | .       | .       | .    | .     | .    | x          |
| wait_holding_lock        | deadlock                    | .       | .       | .    | .     | .    | .          |
| rwlock_upgrade           | deadlock                    | .       | .       | .    | .     | .    | .          |
| join_under_lock          | deadlock                    | .       | .       | .    | .     | .    | .          |
| bounded_buffer           | deadlock                    | .       | .       | .    | .     | .    | .          |
| semaphore_cycle          | deadlock                    | .       | .       | .    | .     | .    | .          |
| livelock_retry           | other (non-deadlock)        | x       | x       | .    | .     | x    | .          |
+--------------------------+-----------------------------+---------+---------+------+-------+------+------------+
  note: non-deadlock kernels: 20 (95%) flagged by at least one detector; 3 escape the race detector — no single detector family covers the study's bug spectrum
";
