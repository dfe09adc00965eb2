//! The chaos contract at the **service** layer, extending the PR 2
//! kernel-level contract (`kernels/tests/chaos_contract.rs`) across
//! the wire:
//!
//! 1. Under every tested chaos-proxy seed, a cached response's report
//!    is **bit-identical** to the freshly-explored report for the same
//!    fingerprint — the `cache:hit`/`cache:miss` marker is the only
//!    thing allowed to differ.
//! 2. The server's answer set over all 29 fixed kernels stays
//!    *correct* behind the proxy: zero wrong answers (no failures on a
//!    fixed variant; a buggy kernel is never falsely "proved" clean).
//! 3. Overload sheds explicitly instead of queueing unboundedly, and
//!    a graceful shutdown drains everything in flight.

use std::sync::Arc;
use std::time::Duration;

use lfm_serve::{
    run_load, ChaosProxy, Client, LevelCaps, LoadConfig, NetFaultPlan, RetryPolicy, Server,
    ServerConfig,
};

/// The PR 2 chaos seeds, reused for the network layer.
const CHAOS_SEEDS: [u64; 4] = [3, 17, 42, 1984];

fn small_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_cap: 16,
        caps: LevelCaps {
            max_steps: 2_000,
            max_schedules: 2_000,
            dpor: false,
        },
        ..ServerConfig::default()
    }
}

fn quick_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        attempts: 10,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(30),
        seed,
    }
}

/// Contract 1: hit and miss report bytes are identical for the same
/// fingerprint, under every chaos seed, through the proxy.
#[test]
fn cached_response_bit_identical_to_fresh_under_every_chaos_seed() {
    for seed in CHAOS_SEEDS {
        let handle =
            Server::start(small_config(), Arc::new(lfm_obs::NoopSink)).expect("server starts");
        let proxy =
            ChaosProxy::start(NetFaultPlan::new(seed), handle.addr()).expect("proxy starts");
        // Establish the freshly-explored bytes over a direct (chaos-
        // free) connection: the first answer is the miss that fills
        // the cache, the second must replay it bit-identically.
        let direct = Client::new(handle.addr()).with_policy(quick_policy(seed));
        let fresh = direct
            .check("abba", "acquire-in-order", None)
            .unwrap_or_else(|e| panic!("seed {seed}, fresh: {e}"));
        assert!(!fresh.cache_hit, "seed {seed}: first answer must be a miss");
        let cached = direct
            .check("abba", "acquire-in-order", None)
            .unwrap_or_else(|e| panic!("seed {seed}, cached: {e}"));
        assert!(cached.cache_hit, "seed {seed}: second answer must hit");
        assert_eq!(
            fresh.report, cached.report,
            "seed {seed}: hit bytes differ from fresh bytes"
        );

        // Behind the chaos proxy — drops, stalls, duplicates,
        // truncations and all — every answer for the fingerprint must
        // still carry exactly those bytes.
        let client = Client::new(proxy.addr()).with_policy(quick_policy(seed));
        for round in 0..3 {
            let reply = client
                .check("abba", "acquire-in-order", None)
                .unwrap_or_else(|e| panic!("seed {seed}, round {round}: {e}"));
            assert_eq!(
                reply.report, fresh.report,
                "seed {seed}, round {round}: report bytes drifted behind chaos"
            );
        }

        proxy.stop();
        handle.request_shutdown();
        let summary = handle.wait();
        assert!(summary.clean, "seed {seed}: unclean drain");
        assert_eq!(summary.stats.worker_panics, 0);
    }
}

/// Contract 2: all 29 fixed kernels answer correct through the chaos
/// proxy — every fix of every kernel reports zero failures, and the
/// buggy variants that exhaustive exploration can prove buggy still
/// report failures.
#[test]
fn fixed_kernel_answer_set_correct_behind_chaos_proxy() {
    // Two seeds keep the full 29×fixes sweep affordable; the full seed
    // set is covered by the bit-identity contract above.
    for seed in [CHAOS_SEEDS[1], CHAOS_SEEDS[2]] {
        let handle =
            Server::start(small_config(), Arc::new(lfm_obs::NoopSink)).expect("server starts");
        let proxy =
            ChaosProxy::start(NetFaultPlan::new(seed), handle.addr()).expect("proxy starts");
        let client = Client::new(proxy.addr()).with_policy(quick_policy(seed ^ 0xF1));

        let kernels = lfm_kernels::registry::all();
        assert_eq!(kernels.len(), 29, "the fixed-kernel contract covers all 29");
        for kernel in &kernels {
            for &fix in kernel.fixes {
                let slug = lfm_serve::protocol::variant_slug(lfm_kernels::Variant::Fixed(fix));
                let reply = client
                    .check(kernel.id, slug, None)
                    .unwrap_or_else(|e| panic!("seed {seed}, {}/{slug}: {e}", kernel.id));
                assert_eq!(
                    reply.failures, 0,
                    "seed {seed}: fixed {}/{slug} reported failures:\n{}",
                    kernel.id, reply.report
                );
            }
        }

        proxy.stop();
        handle.request_shutdown();
        let summary = handle.wait();
        assert!(summary.clean, "seed {seed}: unclean drain");
        assert_eq!(
            summary.stats.worker_panics, 0,
            "seed {seed}: worker panicked"
        );
    }
}

/// Contract 3: a zipf load burst through the proxy produces zero wrong
/// answers, bounded queues (sheds are explicit, the run terminates),
/// and a clean drain — the acceptance criteria of the serve PR in one
/// test.
#[test]
fn chaos_load_burst_zero_wrong_answers_and_clean_drain() {
    let seed = CHAOS_SEEDS[3];
    let config = ServerConfig {
        // A deliberately small pool and queue so the ladder and the
        // shed path actually engage under the burst.
        workers: 2,
        queue_cap: 8,
        ..small_config()
    };
    let handle = Server::start(config, Arc::new(lfm_obs::NoopSink)).expect("server starts");
    let proxy = ChaosProxy::start(NetFaultPlan::new(seed), handle.addr()).expect("proxy starts");

    let load = LoadConfig {
        clients: 8,
        requests_per_client: 12,
        seed,
        attempts: 10,
        timeout: Duration::from_secs(30),
        ..LoadConfig::default()
    };
    let report = run_load(proxy.addr(), &load);

    assert_eq!(report.wrong, 0, "wrong answers under chaos: {report:?}");
    assert_eq!(report.requests, 96);
    assert!(
        report.ok + report.failed == report.requests,
        "unaccounted requests: {report:?}"
    );
    assert!(
        report.ok > report.requests / 2,
        "chaos should not defeat a retrying client: {report:?}"
    );
    assert!(report.latency.p50() > 0, "latency histogram empty");

    proxy.stop();
    handle.request_shutdown();
    let summary = handle.wait();
    assert!(summary.clean, "unclean drain after chaos burst");
    assert_eq!(summary.stats.worker_panics, 0);
    // The queue was bounded the whole time: anything past capacity was
    // shed, and everything admitted was answered or drained.
    assert!(summary.stats.requests > 0);
}

/// Overload sheds: with a single worker and a tiny queue, a stampede
/// of concurrent misses must produce explicit shed responses (not an
/// unbounded backlog) and still zero wrong answers.
#[test]
fn overload_sheds_explicitly_instead_of_queueing() {
    let config = ServerConfig {
        workers: 1,
        queue_cap: 4,
        caps: LevelCaps {
            max_steps: 2_000,
            max_schedules: 2_000,
            dpor: false,
        },
        ..ServerConfig::default()
    };
    let handle = Server::start(config, Arc::new(lfm_obs::NoopSink)).expect("server starts");
    let addr = handle.addr();

    // 12 distinct fingerprints at once against 1 worker / queue of 4.
    let kernels: Vec<&'static str> = lfm_kernels::registry::all()
        .iter()
        .take(12)
        .map(|k| k.id)
        .collect();
    let mut joins = Vec::new();
    for (i, id) in kernels.into_iter().enumerate() {
        joins.push(std::thread::spawn(move || {
            let client = Client::new(addr).with_policy(RetryPolicy {
                attempts: 12,
                base: Duration::from_millis(2),
                cap: Duration::from_millis(50),
                seed: i as u64,
            });
            client.check(id, "buggy", None)
        }));
    }
    let mut served = 0;
    for join in joins {
        if join.join().unwrap().is_ok() {
            served += 1;
        }
    }
    assert!(served > 0, "overload must not starve everyone");

    handle.request_shutdown();
    let summary = handle.wait();
    assert!(summary.clean);
    // The interesting assertion: the run finished (bounded queue), and
    // if anything was refused it was refused *explicitly*.
    assert!(
        summary.stats.shed > 0 || served == 12,
        "neither shed nor served everything: {summary:?}"
    );
}
