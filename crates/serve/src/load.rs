//! The closed-loop load generator behind `lfm bench-serve`.
//!
//! N client threads issue requests back-to-back (closed loop: each
//! waits for its answer before the next request) over a zipf mix of
//! the kernel×variant universe — a few hot fingerprints dominate, a
//! long tail stays fresh, which is what exercises both the cache and
//! the admission ladder at once. Everything is seeded: the mix, the
//! per-client retry jitter, and (when enabled) the chaos proxy, so a
//! load run is a reproducible experiment, not weather.
//!
//! Correctness is tallied *while* measuring: a fixed variant reporting
//! failures, or a buggy kernel "proved" clean, is a **wrong answer** —
//! the one thing no amount of shedding, degrading, or chaos excuses.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use lfm_obs::{Histogram, HistogramSnapshot, Stopwatch};
use lfm_sim::splitmix64;

use crate::client::{Client, ClientError, RetryPolicy};
use crate::protocol::variant_slug;

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Seed for the mix and the retry jitter.
    pub seed: u64,
    /// Zipf skew (higher = hotter head). 0 would be uniform.
    pub zipf_s: f64,
    /// Per-request deadline passed to the server.
    pub deadline_ms: Option<u64>,
    /// Per-attempt client I/O timeout.
    pub timeout: Duration,
    /// Retry attempts per request.
    pub attempts: u32,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 16,
            requests_per_client: 25,
            seed: 42,
            zipf_s: 1.1,
            deadline_ms: None,
            timeout: Duration::from_secs(30),
            attempts: 8,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests issued (clients × requests_per_client).
    pub requests: u64,
    /// Requests that got an `ok` answer (possibly after retries).
    pub ok: u64,
    /// Requests that exhausted their retries.
    pub failed: u64,
    /// Requests whose answer was **wrong** (see module docs). Must be
    /// zero, always, under any chaos.
    pub wrong: u64,
    /// `ok` answers served from the cache.
    pub hits: u64,
    /// Shed responses absorbed across all attempts.
    pub sheds: u64,
    /// Transport failures absorbed across all attempts.
    pub transport_errors: u64,
    /// Total attempts across all requests.
    pub attempts: u64,
    /// Retries across all requests (attempts beyond each request's
    /// first try, exhausted requests included).
    pub retries_total: u64,
    /// The worst single request's retry count.
    pub max_retries: u64,
    /// Per-request latency (microseconds), retries included — the
    /// user-visible number.
    pub latency: HistogramSnapshot,
    /// Wall time of the whole run.
    pub wall: Duration,
}

impl LoadReport {
    /// Cache hit rate over `ok` answers.
    pub fn hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.hits as f64 / self.ok as f64
        }
    }

    /// Fraction of attempts answered with a shed.
    pub fn shed_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.sheds as f64 / self.attempts as f64
        }
    }

    /// Completed requests per wall second.
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }
}

/// One entry of the request universe.
#[derive(Debug, Clone)]
struct Target {
    kernel: &'static str,
    variant: &'static str,
    /// `true` when the variant is the buggy one (failures expected
    /// *when coverage suffices*).
    buggy: bool,
}

/// The kernel×variant universe in registry order: every kernel's buggy
/// variant and every implemented fix.
fn universe() -> Vec<Target> {
    let mut targets = Vec::new();
    for kernel in lfm_kernels::registry::all() {
        targets.push(Target {
            kernel: kernel.id,
            variant: "buggy",
            buggy: true,
        });
        for &fix in kernel.fixes {
            targets.push(Target {
                kernel: kernel.id,
                variant: variant_slug(lfm_kernels::Variant::Fixed(fix)),
                buggy: false,
            });
        }
    }
    targets
}

/// Cumulative zipf weights over `n` ranks with skew `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(n);
    for rank in 0..n {
        acc += 1.0 / ((rank + 1) as f64).powf(s);
        cdf.push(acc);
    }
    for w in &mut cdf {
        *w /= acc;
    }
    cdf
}

/// Draws a rank from the zipf CDF with a unit uniform from splitmix64.
fn draw(cdf: &[f64], state: u64) -> usize {
    let unit = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    cdf.partition_point(|&w| w < unit).min(cdf.len() - 1)
}

/// Is this answer wrong? A fixed variant must never report failures at
/// any level (a false alarm is always wrong). A buggy kernel must not
/// be "proved" clean — sampled or partial coverage missing a bug is
/// honest, a proof that misses it is a lie.
fn is_wrong(buggy: bool, failures: u64, confidence: &str) -> bool {
    if !buggy {
        failures > 0
    } else {
        failures == 0 && confidence == "proved"
    }
}

/// Runs the closed loop against `addr` and tallies.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    let targets = Arc::new(universe());
    let cdf = Arc::new(zipf_cdf(targets.len(), config.zipf_s));
    let latency = Arc::new(Histogram::new());
    let stopwatch = Stopwatch::start();
    let mut joins = Vec::new();
    for client_index in 0..config.clients {
        let targets = Arc::clone(&targets);
        let cdf = Arc::clone(&cdf);
        let latency = Arc::clone(&latency);
        let config = config.clone();
        joins.push(std::thread::spawn(move || {
            let policy = RetryPolicy {
                attempts: config.attempts,
                base: Duration::from_millis(2),
                cap: Duration::from_millis(100),
                seed: splitmix64(config.seed ^ ((client_index as u64) << 32) ^ 0xC1),
            };
            let client = Client::new(addr)
                .with_policy(policy)
                .with_timeout(config.timeout)
                // Every bench request carries a deterministic trace
                // context end to end (client → proxy → server).
                .with_trace(splitmix64(
                    config.seed ^ ((client_index as u64) << 16) ^ 0x7ACE,
                ));
            let mut tally = Tally::default();
            for request_index in 0..config.requests_per_client {
                let state = config.seed
                    ^ ((client_index as u64) << 40)
                    ^ ((request_index as u64) << 8)
                    ^ 0x10AD;
                let target = &targets[draw(&cdf, state)];
                let request_watch = Stopwatch::start();
                match client.check(target.kernel, target.variant, config.deadline_ms) {
                    Ok(reply) => {
                        latency.record(request_watch.elapsed().as_micros() as u64);
                        tally.ok += 1;
                        tally.attempts += u64::from(reply.attempts);
                        tally.note_retries(u64::from(reply.retries()));
                        tally.sheds += u64::from(reply.sheds);
                        tally.transport_errors += u64::from(reply.transport_errors);
                        if reply.cache_hit {
                            tally.hits += 1;
                        }
                        if is_wrong(target.buggy, reply.failures, &reply.confidence) {
                            tally.wrong += 1;
                        }
                    }
                    Err(ClientError::Fatal(_)) => {
                        // A semantic error under pure load is a wrong
                        // answer too: the universe only names kernels
                        // and fixes that exist.
                        tally.failed += 1;
                        tally.wrong += 1;
                    }
                    Err(ClientError::Exhausted { attempts, .. }) => {
                        tally.failed += 1;
                        tally.attempts += u64::from(attempts);
                        tally.note_retries(u64::from(attempts.saturating_sub(1)));
                    }
                }
            }
            tally
        }));
    }
    let mut total = Tally::default();
    for join in joins {
        if let Ok(tally) = join.join() {
            total.merge(&tally);
        }
    }
    LoadReport {
        requests: (config.clients * config.requests_per_client) as u64,
        ok: total.ok,
        failed: total.failed,
        wrong: total.wrong,
        hits: total.hits,
        sheds: total.sheds,
        transport_errors: total.transport_errors,
        attempts: total.attempts,
        retries_total: total.retries_total,
        max_retries: total.max_retries,
        latency: latency.snapshot(),
        wall: stopwatch.elapsed(),
    }
}

#[derive(Debug, Default)]
struct Tally {
    ok: u64,
    failed: u64,
    wrong: u64,
    hits: u64,
    sheds: u64,
    transport_errors: u64,
    attempts: u64,
    retries_total: u64,
    max_retries: u64,
}

impl Tally {
    fn note_retries(&mut self, retries: u64) {
        self.retries_total += retries;
        self.max_retries = self.max_retries.max(retries);
    }

    fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.hits += other.hits;
        self.sheds += other.sheds;
        self.transport_errors += other.transport_errors;
        self.attempts += other.attempts;
        self.retries_total += other.retries_total;
        self.max_retries = self.max_retries.max(other.max_retries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_covers_all_kernels_and_fixes() {
        let targets = universe();
        let kernels = lfm_kernels::registry::all();
        let buggy = targets.iter().filter(|t| t.buggy).count();
        assert_eq!(buggy, kernels.len(), "one buggy entry per kernel");
        let fixes: usize = kernels.iter().map(|k| k.fixes.len()).sum();
        assert_eq!(targets.len(), kernels.len() + fixes);
    }

    #[test]
    fn zipf_draws_are_deterministic_and_skewed() {
        let cdf = zipf_cdf(90, 1.1);
        let a: Vec<usize> = (0..500).map(|i| draw(&cdf, 42 ^ i)).collect();
        let b: Vec<usize> = (0..500).map(|i| draw(&cdf, 42 ^ i)).collect();
        assert_eq!(a, b, "same seed, same mix");
        let head = a.iter().filter(|&&rank| rank < 9).count();
        assert!(
            head > a.len() / 4,
            "zipf head too cold: {head}/{} in top 10%",
            a.len()
        );
        assert!(a.iter().any(|&rank| rank >= 30), "no tail at all");
    }

    #[test]
    fn wrongness_is_level_aware() {
        // Fixed variant with any failures: wrong at every confidence.
        assert!(is_wrong(false, 1, "proved"));
        assert!(is_wrong(false, 1, "sampled"));
        assert!(!is_wrong(false, 0, "sampled"));
        // Buggy kernel: only a false *proof* is wrong.
        assert!(is_wrong(true, 0, "proved"));
        assert!(!is_wrong(true, 0, "sampled"));
        assert!(!is_wrong(true, 0, "partial"));
        assert!(!is_wrong(true, 3, "proved"));
    }
}
