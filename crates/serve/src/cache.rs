//! Fingerprint-keyed, single-flight report cache.
//!
//! Keys are `lfm-trace/v1` program fingerprints (mixed with the
//! sim-chaos seed when fault injection is on — the same program under
//! a different fault plan is a different result). Values are the
//! canonical report bytes rendered once by the handler that explored
//! the miss; a hit hands those bytes back verbatim, which is the whole
//! determinism argument — a hit cannot differ from the exploration
//! that filled it because it *is* that exploration's bytes.
//!
//! Single-flight: concurrent misses for one key coalesce. The first
//! claims the slot and explores; the rest block (bounded) on the
//! condvar and wake to the filled value. A claimer that fails —
//! exploration panic, shed after claim, uncacheable result —
//! *abandons* the slot so a waiter can reclaim instead of waiting
//! forever.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lfm_obs::Counter;

/// What a cache probe produced.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// The canonical report bytes, ready to send.
    Hit(Arc<str>),
    /// This caller claimed the slot and must explore, then either
    /// [`ReportCache::fill`] or [`ReportCache::abandon`] the key.
    Claimed,
    /// Another caller holds the claim and did not finish within the
    /// wait bound; treat as overload (shed).
    Busy,
}

#[derive(Debug, Clone)]
enum Slot {
    Pending,
    Ready(Arc<str>),
}

/// The cache. All waiting is bounded; all counters are monotonic.
#[derive(Debug, Default)]
pub struct ReportCache {
    slots: Mutex<HashMap<u64, Slot>>,
    changed: Condvar,
    /// Probes answered from a filled slot (immediately or after a
    /// coalesced wait).
    pub hits: Counter,
    /// Probes that claimed the slot (led an exploration).
    pub misses: Counter,
    /// Probes that waited on another caller's in-flight exploration.
    pub coalesced: Counter,
    /// Probes that gave up waiting (surfaced as shed).
    pub busy: Counter,
}

impl ReportCache {
    /// An empty cache.
    pub fn new() -> ReportCache {
        ReportCache::default()
    }

    /// Number of filled entries.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap()
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// `true` when no entry is filled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probes `key`, claiming it on a cold miss. Waits at most `wait`
    /// for another caller's in-flight fill.
    pub fn lookup_or_claim(&self, key: u64, wait: Duration) -> Lookup {
        self.lookup_or_claim_observed(key, wait).0
    }

    /// Like [`ReportCache::lookup_or_claim`], also reporting whether
    /// the probe waited on another caller's in-flight fill — the serve
    /// tracer uses the flag to attribute the probe's duration to the
    /// coalesce-wait stage instead of the plain lookup.
    pub fn lookup_or_claim_observed(&self, key: u64, wait: Duration) -> (Lookup, bool) {
        let deadline = Instant::now() + wait;
        let mut slots = self.slots.lock().unwrap();
        let mut waited = false;
        loop {
            match slots.get(&key) {
                None => {
                    slots.insert(key, Slot::Pending);
                    self.misses.inc();
                    return (Lookup::Claimed, waited);
                }
                Some(Slot::Ready(body)) => {
                    let body = Arc::clone(body);
                    self.hits.inc();
                    return (Lookup::Hit(body), waited);
                }
                Some(Slot::Pending) => {
                    if !waited {
                        waited = true;
                        self.coalesced.inc();
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        self.busy.inc();
                        return (Lookup::Busy, waited);
                    }
                    let (guard, _timeout) =
                        self.changed.wait_timeout(slots, deadline - now).unwrap();
                    slots = guard;
                }
            }
        }
    }

    /// Fills a claimed `key` with the canonical bytes and wakes all
    /// coalesced waiters. Returns the shared value.
    pub fn fill(&self, key: u64, body: String) -> Arc<str> {
        let body: Arc<str> = Arc::from(body);
        let mut slots = self.slots.lock().unwrap();
        slots.insert(key, Slot::Ready(Arc::clone(&body)));
        self.changed.notify_all();
        body
    }

    /// Releases a claimed `key` without filling it (the exploration
    /// panicked, was shed, or produced an uncacheable result). Wakes
    /// waiters so one of them can reclaim. Filled entries are never
    /// evicted by this.
    pub fn abandon(&self, key: u64) {
        let mut slots = self.slots.lock().unwrap();
        if matches!(slots.get(&key), Some(Slot::Pending)) {
            slots.remove(&key);
        }
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn miss_fill_hit() {
        let cache = ReportCache::new();
        assert!(matches!(cache.lookup_or_claim(7, WAIT), Lookup::Claimed));
        cache.fill(7, "{\"x\":1}".to_owned());
        match cache.lookup_or_claim(7, WAIT) {
            Lookup::Hit(body) => assert_eq!(&*body, "{\"x\":1}"),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(cache.hits.get(), 1);
        assert_eq!(cache.misses.get(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_probes_single_flight() {
        let cache = Arc::new(ReportCache::new());
        assert!(matches!(cache.lookup_or_claim(3, WAIT), Lookup::Claimed));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            joins.push(thread::spawn(move || cache.lookup_or_claim(3, WAIT)));
        }
        // Give the waiters time to park, then fill.
        thread::sleep(Duration::from_millis(30));
        cache.fill(3, "body".to_owned());
        for join in joins {
            match join.join().unwrap() {
                Lookup::Hit(body) => assert_eq!(&*body, "body"),
                other => panic!("waiter got {other:?}"),
            }
        }
        assert_eq!(cache.misses.get(), 1, "only one exploration led");
        assert_eq!(cache.hits.get(), 4);
        assert!(cache.coalesced.get() >= 1);
    }

    #[test]
    fn abandon_lets_a_waiter_reclaim() {
        let cache = Arc::new(ReportCache::new());
        assert!(matches!(cache.lookup_or_claim(9, WAIT), Lookup::Claimed));
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.lookup_or_claim(9, WAIT))
        };
        thread::sleep(Duration::from_millis(30));
        cache.abandon(9);
        match waiter.join().unwrap() {
            Lookup::Claimed => {}
            other => panic!("waiter got {other:?}"),
        }
        assert_eq!(cache.misses.get(), 2);
    }

    #[test]
    fn bounded_wait_reports_busy() {
        let cache = ReportCache::new();
        assert!(matches!(cache.lookup_or_claim(1, WAIT), Lookup::Claimed));
        let verdict = cache.lookup_or_claim(1, Duration::from_millis(20));
        assert!(matches!(verdict, Lookup::Busy), "got {verdict:?}");
        assert_eq!(cache.busy.get(), 1);
    }

    #[test]
    fn observed_flag_distinguishes_coalesced_probes() {
        let cache = Arc::new(ReportCache::new());
        let (lookup, waited) = cache.lookup_or_claim_observed(11, WAIT);
        assert!(matches!(lookup, Lookup::Claimed));
        assert!(!waited, "cold claim never waits");
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.lookup_or_claim_observed(11, WAIT))
        };
        thread::sleep(Duration::from_millis(30));
        cache.fill(11, "body".to_owned());
        let (lookup, waited) = waiter.join().unwrap();
        assert!(matches!(lookup, Lookup::Hit(_)));
        assert!(waited, "probe parked on the pending fill");
        let (_, waited) = cache.lookup_or_claim_observed(11, WAIT);
        assert!(!waited, "warm hit answers immediately");
    }

    #[test]
    fn abandon_never_evicts_a_filled_entry() {
        let cache = ReportCache::new();
        assert!(matches!(cache.lookup_or_claim(5, WAIT), Lookup::Claimed));
        cache.fill(5, "kept".to_owned());
        cache.abandon(5);
        assert!(matches!(cache.lookup_or_claim(5, WAIT), Lookup::Hit(_)));
    }
}
