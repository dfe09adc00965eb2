//! The TCP server: accept loop, connection handlers, drain choreography.
//!
//! Thread model: one accept thread and one detached handler thread per
//! connection (capped by `max_conns`). A handler serves its
//! connection's requests one after another until the client closes it,
//! it idles past the read timeout, or the drain ends it; a
//! [`Client`](crate::Client) keeps its connection, so one handler
//! serves many requests. A handler that leads a cache miss explores it
//! on its own thread, once the exploration gate grants it a slot: at
//! most `workers` checks explore at once, at most `queue_cap` more wait
//! for a slot and get one in arrival order, and the number waiting is
//! the admission ladder's depth. No check is handed to another thread,
//! so the handler that claims a key always fills or abandons it.
//!
//! Graceful shutdown (`shutdown` op on the wire, or
//! [`ServerHandle::request_shutdown`] — the SIGTERM equivalent): stop
//! accepting and shut the read side of every open connection. A
//! handler idle between requests then reads EOF and exits at once; one
//! mid-request still finishes its check, writes its reply, then exits.
//! The drain waits for the handlers and flushes the sink.
//! [`ServerHandle::wait`] blocks through all of it and reports a
//! [`DrainSummary`].
//!
//! Response writing reuses the `JsonlSink` accounting discipline: a
//! client that disconnects mid-response is a counted, logged
//! `write_errors` increment — never a panic (the exploration already
//! filled the cache; only the handler's final write fails).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lfm_obs::json::{self, Json};
use lfm_obs::{Counter, Event, Histogram, HistogramSnapshot, Registry, Sink, Value};
use lfm_sim::{fingerprint, splitmix64, DegradeLevel, FaultPlan, Program, Truncation};

use crate::admission::{level_index, Admission, AdmissionLadder, LEVELS};
use crate::cache::{Lookup, ReportCache};
use crate::level::{check_at_level, CheckOutcome, LevelCaps};
use crate::protocol::{
    self, parse_request, render_bye, render_error, render_ok, render_pong, render_shed, Request,
    TraceContext, STATS_SCHEMA,
};
use crate::trace::{push_span, SpanRec, Stage, Tracer, STAGES};

/// How long a coalesced probe waits on another request's in-flight
/// exploration when the request carries no deadline.
const COALESCE_WAIT: Duration = Duration::from_secs(10);
/// How long the drain waits for open connections before giving up and
/// reporting an unclean drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Checks that explore at once: the exploration slots, each its
    /// own trace track (`lfm-serve worker-N` for slot N).
    pub workers: usize,
    /// Checks that may wait for an exploration slot; a check arriving
    /// past it is shed as `queue-full`. Also the shed threshold of the
    /// admission ladder.
    pub queue_cap: usize,
    /// Maximum simultaneously open connections; excess connections get
    /// an immediate shed response. A client holds its connection
    /// between requests, so this bounds the connected clients, idle
    /// ones included.
    pub max_conns: usize,
    /// Exploration size caps per rung.
    pub caps: LevelCaps,
    /// Seeded sim-level fault plan injected into every exploration
    /// (the `--chaos` flag), part of the cache key.
    pub chaos: Option<u64>,
    /// Default per-request wall deadline when the request carries none.
    pub default_deadline: Option<Duration>,
    /// Per-connection read timeout (idle connections are closed).
    pub read_timeout: Duration,
    /// Capture every request's stage timeline into the trace ring.
    pub trace: bool,
    /// Always capture requests at or above this total latency, even
    /// when `trace` is off (the slow-request flight recorder).
    pub trace_slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).clamp(1, 4))
                .unwrap_or(1),
            queue_cap: 32,
            max_conns: 256,
            caps: LevelCaps::default(),
            chaos: None,
            default_deadline: None,
            read_timeout: Duration::from_secs(30),
            trace: false,
            trace_slow_ms: None,
        }
    }
}

/// Monotonic service counters, rendered into OpenMetrics on demand.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Request lines parsed (any op).
    pub requests: Counter,
    /// `check` requests.
    pub checks: Counter,
    /// Requests refused with a `shed` response (admission, queue-full,
    /// busy, draining, or connection cap).
    pub shed: Counter,
    /// `error` responses (bad request, unknown kernel, exploration
    /// panic).
    pub errors: Counter,
    /// Response lines that failed to write (client gone mid-response).
    /// The `JsonlSink::write_errors` discipline at the service edge.
    pub write_errors: Counter,
    /// Explorations that panicked and were contained.
    pub worker_panics: Counter,
    /// Results served but not cached (deadline-truncated).
    pub uncacheable: Counter,
    /// Explorations run, one per admitted miss granted a slot.
    pub jobs_executed: Counter,
    /// Connections accepted.
    pub conns_opened: Counter,
    /// Connections refused at the cap.
    pub conns_rejected: Counter,
    /// Admissions per degrade level (histogram order:
    /// exhaustive, sleep-set, preemption-bounded, pct-sampling).
    pub degrade: [Counter; 4],
    /// Per-check service latency in microseconds (cache hits and
    /// completed misses).
    pub latency_us: Histogram,
    /// Stage-attributed durations in microseconds, indexed by
    /// [`Stage::index`] (pipeline order, see [`STAGES`]).
    pub stages: [Histogram; 9],
    /// Completed-miss latency per admitted degrade level (histogram
    /// order: exhaustive, sleep-set, preemption-bounded, pct-sampling).
    pub latency_by_level: [Histogram; 4],
}

impl ServeStats {
    /// Fresh zeroed stats.
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// Renders every family into `registry` (the `--metrics` surface).
    pub fn fill_registry(&self, registry: &mut Registry, cache: &ReportCache) {
        registry.counter(
            "lfm_serve_requests_total",
            "Request lines parsed",
            self.requests.get(),
        );
        registry.counter(
            "lfm_serve_checks_total",
            "check requests",
            self.checks.get(),
        );
        registry.counter(
            "lfm_serve_cache_hits_total",
            "Checks answered from the fingerprint cache",
            cache.hits.get(),
        );
        registry.counter(
            "lfm_serve_cache_misses_total",
            "Checks that led a fresh exploration",
            cache.misses.get(),
        );
        registry.counter(
            "lfm_serve_coalesced_total",
            "Checks that waited on another request's exploration",
            cache.coalesced.get(),
        );
        registry.counter(
            "lfm_serve_shed_total",
            "Requests refused under load",
            self.shed.get(),
        );
        registry.counter(
            "lfm_serve_errors_total",
            "error responses",
            self.errors.get(),
        );
        registry.counter(
            "lfm_serve_write_errors_total",
            "Responses lost to client disconnects",
            self.write_errors.get(),
        );
        registry.counter(
            "lfm_serve_worker_panics_total",
            "Contained exploration panics",
            self.worker_panics.get(),
        );
        registry.counter(
            "lfm_serve_uncacheable_total",
            "Deadline-truncated results served but not cached",
            self.uncacheable.get(),
        );
        registry.counter(
            "lfm_serve_jobs_total",
            "Explorations run in an exploration slot",
            self.jobs_executed.get(),
        );
        registry.counter(
            "lfm_serve_connections_total",
            "Connections accepted",
            self.conns_opened.get(),
        );
        registry.counter(
            "lfm_serve_connections_rejected_total",
            "Connections refused at the cap",
            self.conns_rejected.get(),
        );
        for (i, level) in LEVELS.iter().enumerate() {
            registry.counter_with(
                "lfm_serve_degrade_total",
                "Admissions per degrade level",
                &[("level", &level.to_string())],
                self.degrade[i].get(),
            );
        }
        registry.gauge(
            "lfm_serve_cache_entries",
            "Filled fingerprint-cache entries",
            cache.len() as f64,
        );
        // Histogram families are exported unconditionally — a scrape
        // must see them exist from startup, not only after the first
        // check populates them.
        registry.histogram(
            "lfm_serve_latency_us",
            "Per-check service latency (microseconds)",
            &self.latency_us.snapshot(),
        );
        for stage in STAGES {
            registry.histogram_with(
                "lfm_serve_stage_us",
                "Stage-attributed request time (microseconds)",
                &[("stage", stage.name())],
                &self.stages[stage.index()].snapshot(),
            );
        }
        for (i, level) in LEVELS.iter().enumerate() {
            registry.histogram_with(
                "lfm_serve_latency_by_level_us",
                "Completed-miss latency per admitted degrade level (microseconds)",
                &[("level", &level.to_string())],
                &self.latency_by_level[i].snapshot(),
            );
        }
    }

    /// Degrade counters as a plain array.
    pub fn degrade_histogram(&self) -> [u64; 4] {
        [
            self.degrade[0].get(),
            self.degrade[1].get(),
            self.degrade[2].get(),
            self.degrade[3].get(),
        ]
    }
}

/// A count/p50/p99 triple for one histogram in the stats reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantileRow {
    /// Values recorded.
    pub count: u64,
    /// Median, microseconds (0 when empty).
    pub p50_us: u64,
    /// 99th percentile, microseconds (0 when empty).
    pub p99_us: u64,
}

impl QuantileRow {
    fn of(snap: &HistogramSnapshot) -> QuantileRow {
        QuantileRow {
            count: snap.count,
            p50_us: snap.p50(),
            p99_us: snap.p99(),
        }
    }

    fn render_fields(&self) -> String {
        format!(
            "\"count\":{},\"p50_us\":{},\"p99_us\":{}",
            self.count, self.p50_us, self.p99_us
        )
    }

    fn parse(doc: &Json) -> QuantileRow {
        let field = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        QuantileRow {
            count: field("count"),
            p50_us: field("p50_us"),
            p99_us: field("p99_us"),
        }
    }
}

/// The rolling service snapshot answered to a `stats` wire request
/// (`lfm-serve-stats/v1`): counters, rates, queue/connection gauges,
/// and p50/p99 per stage and per degrade level. Quantiles come from
/// the lifetime histograms — cheap, lock-free, and monotone, which is
/// what a polling `lfm top` wants.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// `check` requests currently inside the handler.
    pub in_flight: u64,
    /// Checks waiting for an exploration slot right now.
    pub queue_depth: u64,
    /// Most checks that may wait for a slot.
    pub queue_cap: u64,
    /// Open connections.
    pub conns: u64,
    /// Request lines parsed (any op).
    pub requests: u64,
    /// `check` requests.
    pub checks: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (explorations led).
    pub misses: u64,
    /// Probes that waited on another request's exploration.
    pub coalesced: u64,
    /// Shed responses.
    pub shed: u64,
    /// Error responses.
    pub errors: u64,
    /// Responses lost to client disconnects.
    pub write_errors: u64,
    /// Contained exploration panics.
    pub worker_panics: u64,
    /// Filled cache entries.
    pub cache_entries: u64,
    /// `hits / checks` (0 when no checks yet).
    pub hit_rate: f64,
    /// `shed / requests` (0 when no requests yet).
    pub shed_rate: f64,
    /// Admissions per degrade level.
    pub degrade: [u64; 4],
    /// End-to-end check latency.
    pub latency: QuantileRow,
    /// Per-stage durations, `(stage name, row)` in pipeline order.
    pub stages: Vec<(String, QuantileRow)>,
    /// Per-level completed-miss latency, `(level name, row)`.
    pub levels: Vec<(String, QuantileRow)>,
}

impl StatsSnapshot {
    /// Renders the one-line wire reply.
    pub fn render(&self) -> String {
        let mut line = format!(
            concat!(
                "{{\"schema\":{},\"status\":\"stats\",\"uptime_ms\":{},",
                "\"in_flight\":{},\"queue_depth\":{},\"queue_cap\":{},\"conns\":{},",
                "\"requests\":{},\"checks\":{},\"hits\":{},\"misses\":{},\"coalesced\":{},",
                "\"shed\":{},\"errors\":{},\"write_errors\":{},\"worker_panics\":{},",
                "\"cache_entries\":{},\"hit_rate\":{},\"shed_rate\":{},",
                "\"degrade\":[{},{},{},{}]"
            ),
            json::quote(STATS_SCHEMA),
            self.uptime_ms,
            self.in_flight,
            self.queue_depth,
            self.queue_cap,
            self.conns,
            self.requests,
            self.checks,
            self.hits,
            self.misses,
            self.coalesced,
            self.shed,
            self.errors,
            self.write_errors,
            self.worker_panics,
            self.cache_entries,
            json::number_f64(self.hit_rate),
            json::number_f64(self.shed_rate),
            self.degrade[0],
            self.degrade[1],
            self.degrade[2],
            self.degrade[3],
        );
        line.push_str(&format!(
            ",\"latency\":{{{}}}",
            self.latency.render_fields()
        ));
        line.push_str(",\"stages\":[");
        for (i, (stage, row)) in self.stages.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{{\"stage\":{},{}}}",
                json::quote(stage),
                row.render_fields()
            ));
        }
        line.push_str("],\"levels\":[");
        for (i, (level, row)) in self.levels.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{{\"level\":{},{}}}",
                json::quote(level),
                row.render_fields()
            ));
        }
        line.push_str("]}");
        line
    }

    /// Parses a wire reply line.
    ///
    /// # Errors
    ///
    /// Rejects non-JSON lines, foreign schema tags, and non-`stats`
    /// statuses with a description.
    pub fn parse(line: &str) -> Result<StatsSnapshot, String> {
        let doc = Json::parse(line).map_err(|e| format!("stats reply: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(STATS_SCHEMA) => {}
            other => return Err(format!("stats reply: schema {other:?}")),
        }
        match doc.get("status").and_then(Json::as_str) {
            Some("stats") => {}
            other => return Err(format!("stats reply: status {other:?}")),
        }
        let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        let rate = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let mut degrade = [0u64; 4];
        if let Some(values) = doc.get("degrade").and_then(Json::as_array) {
            for (slot, value) in degrade.iter_mut().zip(values) {
                *slot = value.as_u64().unwrap_or(0);
            }
        }
        let rows = |key: &str, tag: &str| -> Vec<(String, QuantileRow)> {
            doc.get(key)
                .and_then(Json::as_array)
                .map(|entries| {
                    entries
                        .iter()
                        .map(|entry| {
                            (
                                entry
                                    .get(tag)
                                    .and_then(Json::as_str)
                                    .unwrap_or("")
                                    .to_owned(),
                                QuantileRow::parse(entry),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        Ok(StatsSnapshot {
            uptime_ms: num("uptime_ms"),
            in_flight: num("in_flight"),
            queue_depth: num("queue_depth"),
            queue_cap: num("queue_cap"),
            conns: num("conns"),
            requests: num("requests"),
            checks: num("checks"),
            hits: num("hits"),
            misses: num("misses"),
            coalesced: num("coalesced"),
            shed: num("shed"),
            errors: num("errors"),
            write_errors: num("write_errors"),
            worker_panics: num("worker_panics"),
            cache_entries: num("cache_entries"),
            hit_rate: rate("hit_rate"),
            shed_rate: rate("shed_rate"),
            degrade,
            latency: doc
                .get("latency")
                .map(QuantileRow::parse)
                .unwrap_or_default(),
            stages: rows("stages", "stage"),
            levels: rows("levels", "level"),
        })
    }
}

/// What the drain observed, returned by [`ServerHandle::wait`].
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// The service counters once the drain finished.
    pub stats: StatsSnapshot,
    /// `true` when every connection closed within the drain timeout,
    /// each after finishing the check it was in.
    pub clean: bool,
}

struct Shared {
    config: ServerConfig,
    ladder: AdmissionLadder,
    slots: Slots,
    cache: Arc<ReportCache>,
    stats: Arc<ServeStats>,
    sink: Arc<dyn Sink>,
    chaos: Option<FaultPlan>,
    addr: SocketAddr,
    /// Request tracer; its epoch doubles as the server start time.
    tracer: Arc<Tracer>,
    /// `check` requests currently inside a handler.
    in_flight: AtomicU64,
    /// Request sequence numbers (trace `tid`s).
    req_seq: AtomicU64,
    /// Accept loop exit + new-check refusal flag.
    shutting_down: AtomicBool,
    /// Set once a shutdown was *requested* (op or handle), waking
    /// [`ServerHandle::wait`].
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Open connections, for the drain: their count is the table's
    /// length, and `request_shutdown` ends each one's reads.
    conns: Mutex<Vec<Arc<TcpStream>>>,
    conns_cv: Condvar,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("addr", &self.addr).finish()
    }
}

impl Shared {
    /// Assembles the `stats` reply from the live counters.
    fn stats_snapshot(&self) -> StatsSnapshot {
        let stats = &self.stats;
        let cache = &self.cache;
        let checks = stats.checks.get();
        let requests = stats.requests.get();
        let hits = cache.hits.get();
        let shed = stats.shed.get();
        StatsSnapshot {
            uptime_ms: self.tracer.epoch().elapsed().as_millis() as u64,
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth: self.slots.waiting() as u64,
            queue_cap: self.slots.cap as u64,
            conns: self.conns.lock().unwrap().len() as u64,
            requests,
            checks,
            hits,
            misses: cache.misses.get(),
            coalesced: cache.coalesced.get(),
            shed,
            errors: stats.errors.get(),
            write_errors: stats.write_errors.get(),
            worker_panics: stats.worker_panics.get(),
            cache_entries: cache.len() as u64,
            hit_rate: if checks == 0 {
                0.0
            } else {
                hits as f64 / checks as f64
            },
            shed_rate: if requests == 0 {
                0.0
            } else {
                shed as f64 / requests as f64
            },
            degrade: stats.degrade_histogram(),
            latency: QuantileRow::of(&stats.latency_us.snapshot()),
            stages: STAGES
                .iter()
                .map(|stage| {
                    (
                        stage.name().to_owned(),
                        QuantileRow::of(&stats.stages[stage.index()].snapshot()),
                    )
                })
                .collect(),
            levels: LEVELS
                .iter()
                .enumerate()
                .map(|(i, level)| {
                    (
                        level.to_string(),
                        QuantileRow::of(&stats.latency_by_level[i].snapshot()),
                    )
                })
                .collect(),
        }
    }

    fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        {
            let mut requested = self.shutdown_requested.lock().unwrap();
            *requested = true;
        }
        self.shutdown_cv.notify_all();
        // End every open connection's reads: a handler idle between
        // requests sees EOF now, instead of at its read timeout.
        for conn in self.conns.lock().unwrap().iter() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Adds `conn` to the open-connection table unless it is full.
    fn register(&self, conn: &Arc<TcpStream>) -> bool {
        let mut conns = self.conns.lock().unwrap();
        if conns.len() >= self.config.max_conns {
            return false;
        }
        conns.push(Arc::clone(conn));
        true
    }

    /// Removes `conn` from the open-connection table and wakes the
    /// drain.
    fn deregister(&self, conn: &Arc<TcpStream>) {
        let mut conns = self.conns.lock().unwrap();
        if let Some(i) = conns.iter().position(|c| Arc::ptr_eq(c, conn)) {
            conns.swap_remove(i);
        }
        self.conns_cv.notify_all();
    }
}

/// The running server (see [`Server::start`]).
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

/// Constructor namespace for the server.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds, spawns the accept loop, returns immediately.
    pub fn start(config: ServerConfig, sink: Arc<dyn Sink>) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            ladder: AdmissionLadder::for_queue(config.queue_cap),
            slots: Slots::new(config.workers, config.queue_cap),
            cache: Arc::new(ReportCache::new()),
            stats: Arc::new(ServeStats::new()),
            chaos: config.chaos.map(FaultPlan::new),
            tracer: Arc::new(Tracer::new(
                config.trace,
                config.trace_slow_ms,
                Arc::clone(&sink),
            )),
            config,
            sink,
            addr,
            in_flight: AtomicU64::new(0),
            req_seq: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            conns_cv: Condvar::new(),
        });
        if shared.sink.enabled() {
            shared.sink.emit(&Event {
                scope: "serve",
                name: "start",
                fields: &[
                    ("addr", Value::Str(&addr.to_string())),
                    ("workers", Value::U64(shared.config.workers as u64)),
                    ("queue_cap", Value::U64(shared.config.queue_cap as u64)),
                ],
            });
        }
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("lfm-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(ServerHandle { shared, accept })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// The report cache (for metrics and tests).
    pub fn cache(&self) -> Arc<ReportCache> {
        Arc::clone(&self.shared.cache)
    }

    /// The request tracer (for `--trace` dumps after the drain).
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// The stats reply a wire `stats` request would get right now.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Renders the full metrics exposition for this server.
    pub fn metrics(&self) -> Registry {
        let mut registry = Registry::new();
        self.shared
            .stats
            .fill_registry(&mut registry, &self.shared.cache);
        registry
    }

    /// Triggers a graceful shutdown (the in-process SIGTERM
    /// equivalent; the wire equivalent is the `shutdown` op).
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until a shutdown is requested, then drains: joins the
    /// accept loop, waits for open connections (each finishes the
    /// check it is in), flushes the sink.
    pub fn wait(self) -> DrainSummary {
        {
            let mut requested = self.shared.shutdown_requested.lock().unwrap();
            while !*requested {
                requested = self.shared.shutdown_cv.wait(requested).unwrap();
            }
        }
        let _ = self.accept.join();
        // Open connections finish their in-flight request (idle ones
        // already read EOF); the drain timeout bounds us.
        let mut clean = true;
        {
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            let mut conns = self.shared.conns.lock().unwrap();
            while !conns.is_empty() {
                let now = Instant::now();
                if now >= deadline {
                    clean = false;
                    break;
                }
                let (guard, _) = self
                    .shared
                    .conns_cv
                    .wait_timeout(conns, deadline - now)
                    .unwrap();
                conns = guard;
            }
        }
        let summary = DrainSummary {
            stats: self.shared.stats_snapshot(),
            clean,
        };
        if self.shared.sink.enabled() {
            let stats = &summary.stats;
            self.shared.sink.emit(&Event {
                scope: "serve",
                name: "drain",
                fields: &[
                    ("requests", Value::U64(stats.requests)),
                    ("hits", Value::U64(stats.hits)),
                    ("misses", Value::U64(stats.misses)),
                    ("shed", Value::U64(stats.shed)),
                    ("write_errors", Value::U64(stats.write_errors)),
                    ("clean", Value::Bool(summary.clean)),
                ],
            });
        }
        self.shared.sink.flush();
        summary
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (e.g. fd exhaustion): back
                // off instead of spinning.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client); either way we
            // are done accepting.
            return;
        }
        let stream = Arc::new(stream);
        if !shared.register(&stream) {
            shared.stats.conns_rejected.inc();
            shared.stats.shed.inc();
            write_line(
                &mut &*stream,
                render_shed("connections", crate::admission::RETRY_AFTER_MS, None),
                &shared.stats,
                &shared.sink,
            );
            continue;
        }
        // A shutdown that ran between the check above and the
        // registration did not see this connection, so it must not be
        // served: the check-then-act gap closes here.
        if shared.shutting_down.load(Ordering::SeqCst) {
            shared.deregister(&stream);
            return;
        }
        shared.stats.conns_opened.inc();
        let conn_shared = Arc::clone(shared);
        let conn = Arc::clone(&stream);
        let spawned = std::thread::Builder::new()
            .name("lfm-serve-conn".to_owned())
            .spawn(move || {
                handle_conn(&conn, &conn_shared);
                conn_shared.deregister(&conn);
            });
        if spawned.is_err() {
            // Thread exhaustion: shed implicitly by dropping the
            // connection.
            shared.deregister(&stream);
        }
    }
}

/// Per-connection fingerprints by kernel id, then variant slug: a
/// target this connection already built answers a cache hit without
/// building its program again.
type Fingerprints = HashMap<String, HashMap<String, u64>>;

fn handle_conn(stream: &TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut fingerprints = Fingerprints::new();
    // One timeline buffer per connection, cleared for each request, so
    // a traced request records its spans without allocating.
    let mut spans: Vec<SpanRec> = Vec::new();
    loop {
        // The request's clock starts at its first byte: the wait before
        // it is the client's think time on a kept connection, not
        // service time.
        match reader.fill_buf() {
            // EOF (the client closed, or the drain ended reads), read
            // timeout, or reset.
            Ok([]) | Err(_) => return,
            Ok(_) => {}
        }
        let read_start = Instant::now();
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if !line.ends_with('\n') {
            // EOF cut the frame short: half a request is never
            // answered, like half a response is never trusted.
            return;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // One request timeline: the handler's spans live on track 0,
        // its exploration's on the slot's track.
        let tracer = &shared.tracer;
        spans.clear();
        push_span(
            &shared.stats,
            tracer,
            &mut spans,
            Stage::Accept,
            0,
            read_start,
            Instant::now(),
        );
        let (response, close_after, trace) = respond(line, shared, &mut fingerprints, &mut spans);
        let write_start = Instant::now();
        let wrote = write_line(reader.get_mut(), response, &shared.stats, &shared.sink);
        push_span(
            &shared.stats,
            tracer,
            &mut spans,
            Stage::ReplyWrite,
            0,
            write_start,
            Instant::now(),
        );
        // The capture decision sees the final end-to-end total, which
        // is what makes "slow requests are always captured" exact.
        if tracer.should_capture(read_start.elapsed()) {
            let seq = shared.req_seq.fetch_add(1, Ordering::Relaxed);
            tracer.record(trace, seq, &spans);
        }
        if !wrote || close_after {
            return;
        }
    }
}

/// Produces the response line for one request line, plus whether the
/// connection should close afterwards and the request's trace context
/// (already echoed into the response; returned for span capture).
fn respond(
    line: &str,
    shared: &Arc<Shared>,
    fingerprints: &mut Fingerprints,
    spans: &mut Vec<SpanRec>,
) -> (String, bool, Option<TraceContext>) {
    shared.stats.requests.inc();
    let parse_start = Instant::now();
    let parsed = parse_request(line);
    push_span(
        &shared.stats,
        &shared.tracer,
        spans,
        Stage::Parse,
        0,
        parse_start,
        Instant::now(),
    );
    match parsed {
        Err(reason) => {
            shared.stats.errors.inc();
            (render_error(&reason, None), false, None)
        }
        Ok(Request::Ping) => (render_pong(), false, None),
        Ok(Request::Stats) => (shared.stats_snapshot().render(), false, None),
        Ok(Request::Shutdown) => {
            shared.request_shutdown();
            (render_bye(), true, None)
        }
        Ok(Request::Check {
            kernel,
            variant,
            deadline_ms,
            trace,
        }) => (
            handle_check(
                &kernel,
                &variant,
                deadline_ms,
                trace,
                shared,
                fingerprints,
                spans,
            ),
            false,
            trace,
        ),
    }
}

/// The cache key: program fingerprint mixed with the chaos seed (the
/// same program under a different fault plan is a different result).
fn cache_key(fp: u64, chaos: Option<FaultPlan>) -> u64 {
    match chaos {
        None => fp,
        Some(plan) => splitmix64(fp ^ splitmix64(plan.seed ^ 0xC4A0_5EED)),
    }
}

/// Decrements the in-flight gauge on scope exit, early returns and
/// all — the gauge must never drift.
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Builds the program a `check` names, or says why it cannot.
fn build_target(kernel_id: &str, variant_slug: &str) -> Result<Program, String> {
    let kernel = lfm_kernels::registry::by_id(kernel_id)
        .ok_or_else(|| format!("unknown kernel {kernel_id:?}"))?;
    let variant = protocol::parse_variant(variant_slug)
        .ok_or_else(|| format!("unknown variant {variant_slug:?}"))?;
    kernel
        .try_build(variant)
        .ok_or_else(|| format!("kernel {kernel_id:?} does not implement fix {variant_slug:?}"))
}

fn handle_check(
    kernel_id: &str,
    variant_slug: &str,
    deadline_ms: Option<u64>,
    trace: Option<TraceContext>,
    shared: &Arc<Shared>,
    fingerprints: &mut Fingerprints,
    spans: &mut Vec<SpanRec>,
) -> String {
    shared.stats.checks.inc();
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    let _in_flight = InFlightGuard(&shared.in_flight);
    let started = Instant::now();
    let known = fingerprints
        .get(kernel_id)
        .and_then(|variants| variants.get(variant_slug))
        .copied();
    let mut program = None;
    let fp = match known {
        Some(fp) => fp,
        None => match build_target(kernel_id, variant_slug) {
            Ok(built) => {
                let fp = fingerprint(&built);
                fingerprints
                    .entry(kernel_id.to_owned())
                    .or_default()
                    .insert(variant_slug.to_owned(), fp);
                program = Some(built);
                fp
            }
            Err(reason) => {
                shared.stats.errors.inc();
                return render_error(&reason, trace);
            }
        },
    };
    if shared.shutting_down.load(Ordering::SeqCst) {
        shared.stats.shed.inc();
        return render_shed("draining", crate::admission::RETRY_AFTER_MS, trace);
    }
    let key = cache_key(fp, shared.chaos);
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(shared.config.default_deadline);
    let wait = deadline.unwrap_or(COALESCE_WAIT);
    let probe_start = Instant::now();
    let (lookup, waited) = shared.cache.lookup_or_claim_observed(key, wait);
    push_span(
        &shared.stats,
        &shared.tracer,
        spans,
        // A probe that parked on another caller's in-flight fill is a
        // coalesce wait, not a lookup — the distinction is exactly
        // what the timeline exists to show.
        if waited {
            Stage::CoalesceWait
        } else {
            Stage::CacheLookup
        },
        0,
        probe_start,
        Instant::now(),
    );
    match lookup {
        Lookup::Hit(body) => {
            record_latency(shared, started);
            render_ok(true, trace, &body)
        }
        Lookup::Busy => {
            shared.stats.shed.inc();
            render_shed("busy", crate::admission::RETRY_AFTER_MS, trace)
        }
        Lookup::Claimed => {
            let admit_start = Instant::now();
            let verdict = shared.ladder.admit(shared.slots.waiting());
            push_span(
                &shared.stats,
                &shared.tracer,
                spans,
                Stage::Admission,
                0,
                admit_start,
                Instant::now(),
            );
            match verdict {
                Admission::Shed { retry_after_ms } => {
                    shared.cache.abandon(key);
                    shared.stats.shed.inc();
                    emit_shed(shared, kernel_id, "admission");
                    render_shed("admission", retry_after_ms, trace)
                }
                Admission::Accept(level) => {
                    shared.stats.degrade[level_index(level)].inc();
                    // Only a target this connection had not built yet
                    // arrives with its program.
                    let program = program.unwrap_or_else(|| {
                        build_target(kernel_id, variant_slug)
                            .expect("a target that built once builds again")
                    });
                    let accepted_at = Instant::now();
                    let Some(slot) = shared.slots.take() else {
                        shared.cache.abandon(key);
                        shared.stats.shed.inc();
                        emit_shed(shared, kernel_id, "queue-full");
                        return render_shed("queue-full", crate::admission::RETRY_AFTER_MS, trace);
                    };
                    let miss = Miss {
                        key,
                        kernel: kernel_id,
                        variant: variant_slug,
                        fingerprint: fp,
                        level,
                        accepted_at,
                    };
                    let explored = explore(shared, slot, &miss, spans, || {
                        // The wait for a slot counts against the
                        // request's wall budget: a deadline is a
                        // promise to the client, not to us.
                        let remaining = deadline.map(|d| d.saturating_sub(accepted_at.elapsed()));
                        let (caps, chaos) = (shared.config.caps, shared.chaos);
                        check_at_level(&program, level, caps, chaos, remaining)
                    });
                    match explored {
                        Ok(body) => {
                            let us = record_latency(shared, started);
                            shared.stats.latency_by_level[level_index(level)].record(us);
                            render_ok(false, trace, &body)
                        }
                        Err(reason) => {
                            shared.stats.errors.inc();
                            render_error(&reason, trace)
                        }
                    }
                }
            }
        }
    }
}

/// The exploration gate: at most `slots` admitted checks explore at
/// once and at most `cap` more wait for a slot. A waiter holds a
/// ticket, and slots go to tickets in the order they were issued (the
/// wait line is FIFO; without tickets a new arrival could take the
/// slot a woken waiter was owed). A slot's index is its check's trace
/// track, `1 + index`.
#[derive(Debug)]
struct Slots {
    state: Mutex<SlotState>,
    /// Broadcast, under the lock, after every grant and every release.
    changed: Condvar,
    /// Most checks that may wait for a slot.
    cap: usize,
}

#[derive(Debug)]
struct SlotState {
    /// Tickets issued.
    issued: u64,
    /// Tickets granted a slot: `issued - served` checks wait.
    served: u64,
    /// Free slot indices; the last freed is granted first.
    free: Vec<usize>,
}

impl Slots {
    fn new(slots: usize, cap: usize) -> Slots {
        Slots {
            state: Mutex::new(SlotState {
                issued: 0,
                served: 0,
                free: (0..slots.max(1)).rev().collect(),
            }),
            changed: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Checks waiting for a slot right now: the admission ladder's
    /// depth and the stats reply's `queue_depth`. Racy by nature;
    /// [`Slots::take`] re-checks the bound.
    fn waiting(&self) -> usize {
        let state = self.state.lock().expect("slot gate poisoned");
        (state.issued - state.served) as usize
    }

    /// Takes a slot, waiting behind every earlier ticket, or returns
    /// `None` at once when `cap` checks already wait.
    fn take(&self) -> Option<Slot<'_>> {
        let mut state = self.state.lock().expect("slot gate poisoned");
        // The bound is checked and the ticket taken in one critical
        // section: in two, arrivals could all pass the check before any
        // took its ticket (`tests/slots_model.rs`).
        if state.issued - state.served >= self.cap as u64 {
            return None;
        }
        let ticket = state.issued;
        state.issued += 1;
        while state.served != ticket || state.free.is_empty() {
            state = self.changed.wait(state).expect("slot gate poisoned");
        }
        state.served += 1;
        let index = state.free.pop().expect("a free slot was just seen");
        // The next ticket may find a slot free too, and its holder may
        // have been woken before this grant and gone back to sleep.
        self.changed.notify_all();
        Some(Slot { slots: self, index })
    }
}

/// A granted exploration slot; dropping it frees the slot.
#[derive(Debug)]
struct Slot<'a> {
    slots: &'a Slots,
    index: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // A poisoned gate already fails every `take`; a drop must not
        // panic.
        if let Ok(mut state) = self.slots.state.lock() {
            state.free.push(self.index);
            self.slots.changed.notify_all();
        }
    }
}

/// An admitted miss: its cache key, what its report names, its rung,
/// and when admission accepted it (the slot wait runs from there).
struct Miss<'a> {
    key: u64,
    kernel: &'a str,
    variant: &'a str,
    fingerprint: u64,
    level: DegradeLevel,
    accepted_at: Instant,
}

/// Explores an admitted miss in `slot`, which frees on return: `run`
/// explores, and its report fills the miss's cache claim. A panic in
/// `run` is contained: it is counted and logged, the claim is abandoned
/// so a waiter can reclaim the key, and the check answers an error.
/// Records `queue_wait` (admission to slot), `worker_claim` and
/// `explore` on the slot's trace track.
fn explore(
    shared: &Shared,
    slot: Slot<'_>,
    miss: &Miss<'_>,
    spans: &mut Vec<SpanRec>,
    run: impl FnOnce() -> CheckOutcome,
) -> Result<Arc<str>, String> {
    let (stats, tracer, sink) = (&shared.stats, &shared.tracer, &shared.sink);
    stats.jobs_executed.inc();
    let pid = 1 + slot.index as u64;
    let claimed = Instant::now();
    push_span(
        stats,
        tracer,
        spans,
        Stage::QueueWait,
        pid,
        miss.accepted_at,
        claimed,
    );
    let explore_start = Instant::now();
    push_span(
        stats,
        tracer,
        spans,
        Stage::WorkerClaim,
        pid,
        claimed,
        explore_start,
    );
    let outcome = catch_unwind(AssertUnwindSafe(run));
    push_span(
        stats,
        tracer,
        spans,
        Stage::Explore,
        pid,
        explore_start,
        Instant::now(),
    );
    match outcome {
        Ok(out) => {
            let body = protocol::render_report(miss.kernel, miss.variant, miss.fingerprint, &out);
            if sink.enabled() {
                sink.emit(&Event {
                    scope: "serve",
                    name: "job",
                    fields: &[
                        ("kernel", Value::Str(miss.kernel)),
                        ("variant", Value::Str(miss.variant)),
                        ("level", Value::U64(level_index(miss.level) as u64)),
                        ("schedules", Value::U64(out.schedules)),
                        ("failures", Value::U64(out.counts.failures())),
                    ],
                });
            }
            // A deadline-truncated report reflects this request's wall
            // budget, not the program — caching it would serve one
            // caller's truncation to everyone forever. Reply with it,
            // but release the claim unfilled.
            if out.truncation == Some(Truncation::WallDeadline) {
                stats.uncacheable.inc();
                shared.cache.abandon(miss.key);
                Ok(Arc::from(body))
            } else {
                Ok(shared.cache.fill(miss.key, body))
            }
        }
        Err(payload) => {
            stats.worker_panics.inc();
            shared.cache.abandon(miss.key);
            let reason = panic_text(payload.as_ref());
            if sink.enabled() {
                sink.emit(&Event {
                    scope: "serve",
                    name: "worker_panic",
                    fields: &[
                        ("kernel", Value::Str(miss.kernel)),
                        ("variant", Value::Str(miss.variant)),
                        ("reason", Value::Str(&reason)),
                    ],
                });
            }
            Err(format!("exploration panicked: {reason}"))
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn record_latency(shared: &Arc<Shared>, started: Instant) -> u64 {
    let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    shared.stats.latency_us.record(us);
    us
}

fn emit_shed(shared: &Arc<Shared>, kernel: &str, reason: &str) {
    if shared.sink.enabled() {
        shared.sink.emit(&Event {
            scope: "serve",
            name: "shed",
            fields: &[
                ("kernel", Value::Str(kernel)),
                ("reason", Value::Str(reason)),
            ],
        });
    }
}

/// Writes one response line and its newline in one write. A failure
/// (client disconnected mid-response) is counted in `write_errors` and
/// logged — never a panic. Returns `false` when the connection is dead.
fn write_line(
    stream: &mut impl Write,
    mut line: String,
    stats: &ServeStats,
    sink: &Arc<dyn Sink>,
) -> bool {
    line.push('\n');
    let outcome = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush());
    match outcome {
        Ok(()) => true,
        Err(err) => {
            stats.write_errors.inc();
            if sink.enabled() {
                sink.emit(&Event {
                    scope: "serve",
                    name: "write_error",
                    fields: &[("reason", Value::Str(&err.to_string()))],
                });
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RetryPolicy};
    use crate::level::LevelCaps;
    use lfm_obs::MemorySink;

    fn test_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            caps: LevelCaps {
                max_steps: 2_000,
                max_schedules: 4_000,
                dpor: false,
            },
            ..ServerConfig::default()
        }
    }

    fn start() -> ServerHandle {
        Server::start(test_config(), Arc::new(lfm_obs::NoopSink)).expect("server starts")
    }

    #[test]
    fn check_miss_then_hit_are_byte_identical() {
        let handle = start();
        let client = Client::new(handle.addr());
        let first = client
            .check("toctou_flag", "buggy", None)
            .expect("first check");
        assert!(!first.cache_hit);
        let second = client
            .check("toctou_flag", "buggy", None)
            .expect("second check");
        assert!(second.cache_hit);
        assert_eq!(
            first.report, second.report,
            "hit must replay the fill bytes"
        );
        assert!(first.failures > 0, "buggy kernel manifests");
        handle.request_shutdown();
        let summary = handle.wait();
        assert!(summary.clean);
        assert_eq!(summary.stats.misses, 1);
        assert_eq!(summary.stats.hits, 1);
    }

    #[test]
    fn semantic_errors_are_not_retried() {
        let handle = start();
        let client = Client::new(handle.addr());
        let err = client.check("no_such_kernel", "buggy", None).unwrap_err();
        match err {
            crate::client::ClientError::Fatal(reason) => {
                assert!(reason.contains("unknown kernel"), "{reason}")
            }
            other => panic!("expected fatal, got {other:?}"),
        }
        let err = client.check("toctou_flag", "warp-drive", None).unwrap_err();
        assert!(matches!(err, crate::client::ClientError::Fatal(_)));
        handle.request_shutdown();
        assert!(handle.wait().clean);
    }

    #[test]
    fn ping_and_wire_shutdown_drain_cleanly() {
        let handle = start();
        let client = Client::new(handle.addr());
        assert!(client.ping());
        client.shutdown().expect("shutdown acked");
        let summary = handle.wait();
        assert!(summary.clean);
    }

    #[test]
    fn mid_response_disconnect_is_counted_never_fatal() {
        let handle = start();
        // A rude client: send a check, close without reading. The
        // server's response write fails; the error must be counted and
        // the server must keep serving.
        {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            let line = protocol::render_request(&Request::Check {
                kernel: "toctou_flag".to_owned(),
                variant: "buggy".to_owned(),
                deadline_ms: None,
                trace: None,
            });
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            drop(stream);
        }
        // The server is still healthy for well-behaved clients.
        let client = Client::new(handle.addr());
        let reply = client
            .check("toctou_flag", "buggy", None)
            .expect("still serving");
        assert!(reply.failures > 0);
        handle.request_shutdown();
        let summary = handle.wait();
        assert_eq!(summary.stats.worker_panics, 0);
        // The rude client's write may have failed (counted) or raced
        // the close successfully; either way nothing panicked and the
        // drain is clean.
        assert!(summary.clean);
    }

    #[test]
    fn dead_connection_write_is_counted_not_fatal() {
        // Deterministic version of the disconnect story: a stream
        // whose write half is shut down fails the very first write,
        // and write_line must absorb it into `write_errors` — no
        // panic, no wedge, just accounting (the JsonlSink discipline).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        let (_peer, _) = listener.accept().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let stats = ServeStats::new();
        let sink: Arc<dyn Sink> = Arc::new(lfm_obs::MemorySink::new());
        assert!(!write_line(
            &mut stream,
            "{\"x\":1}".to_owned(),
            &stats,
            &sink
        ));
        assert_eq!(stats.write_errors.get(), 1);
    }

    #[test]
    fn unterminated_request_frame_is_never_answered() {
        // A frame cut short by EOF is half a request: it gets no reply
        // and is not counted, as the client never trusts half a
        // response.
        let handle = start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let ping = protocol::render_request(&Request::Ping);
        stream.write_all(ping.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        std::io::Read::read_to_string(&mut stream, &mut reply).unwrap();
        assert_eq!(reply, "", "an unterminated frame was answered");
        assert_eq!(handle.stats().requests.get(), 0);
        handle.request_shutdown();
        assert!(handle.wait().clean);
    }

    #[test]
    fn draining_server_sheds_new_checks() {
        let handle = start();
        handle.request_shutdown();
        // The accept loop is closed now, but a connection opened
        // before the drain barrier may still sneak a request in; what
        // matters is that no *new* connection is served.
        let client = Client::new(handle.addr()).with_policy(RetryPolicy {
            attempts: 2,
            ..RetryPolicy::default()
        });
        let outcome = client.check("toctou_flag", "buggy", None);
        assert!(
            outcome.is_err(),
            "draining server must not serve: {outcome:?}"
        );
        assert!(handle.wait().clean);
    }

    #[test]
    fn metrics_exposition_is_valid_and_named() {
        let handle = start();
        let client = Client::new(handle.addr());
        client.check("toctou_flag", "buggy", None).expect("check");
        client.check("toctou_flag", "buggy", None).expect("hit");
        let text = handle.metrics().render();
        lfm_obs::check_exposition(&text).expect("valid exposition");
        assert!(text.contains("lfm_serve_requests_total"), "{text}");
        assert!(text.contains("lfm_serve_cache_hits_total"), "{text}");
        assert!(text.contains("lfm_serve_degrade_total"), "{text}");
        assert!(text.contains("lfm_serve_stage_us"), "{text}");
        assert!(text.contains("stage=\"queue_wait\""), "{text}");
        assert!(text.contains("lfm_serve_latency_by_level_us"), "{text}");
        handle.request_shutdown();
        assert!(handle.wait().clean);
    }

    #[test]
    fn histogram_families_exist_before_the_first_check() {
        // A scrape right after startup must already see every
        // histogram family, or dashboards start with holes.
        let handle = start();
        let text = handle.metrics().render();
        lfm_obs::check_exposition(&text).expect("valid exposition");
        assert!(text.contains("lfm_serve_latency_us"), "{text}");
        assert!(text.contains("lfm_serve_stage_us"), "{text}");
        assert!(text.contains("lfm_serve_latency_by_level_us"), "{text}");
        handle.request_shutdown();
        assert!(handle.wait().clean);
    }

    #[test]
    fn stats_snapshot_round_trips_and_counts_requests() {
        let handle = start();
        let client = Client::new(handle.addr());
        client.check("toctou_flag", "buggy", None).expect("miss");
        client.check("toctou_flag", "buggy", None).expect("hit");
        let snapshot = client.stats().expect("stats reply");
        assert_eq!(snapshot.checks, 2);
        assert_eq!(snapshot.hits, 1);
        assert_eq!(snapshot.misses, 1);
        assert!((snapshot.hit_rate - 0.5).abs() < 1e-9, "{snapshot:?}");
        assert_eq!(snapshot.queue_cap, ServerConfig::default().queue_cap as u64);
        assert_eq!(snapshot.stages.len(), STAGES.len());
        assert_eq!(snapshot.levels.len(), LEVELS.len());
        let explore = snapshot
            .stages
            .iter()
            .find(|(name, _)| name == "explore")
            .expect("explore stage row");
        assert!(explore.1.count >= 1, "{snapshot:?}");
        // The wire line round-trips exactly through render/parse.
        let line = snapshot.render();
        assert_eq!(StatsSnapshot::parse(&line).expect("parses"), snapshot);
        // Stage and level rows are objects that name their row.
        assert!(
            line.contains("\"stages\":[{\"stage\":\"accept\",\"count\":"),
            "{line}"
        );
        assert!(
            line.contains("\"levels\":[{\"level\":\"exhaustive\",\"count\":"),
            "{line}"
        );
        handle.request_shutdown();
        assert!(handle.wait().clean);
    }

    #[test]
    fn tracing_captures_timelines_and_slow_gate_filters() {
        let mut config = test_config();
        config.trace = true;
        let handle = Server::start(config, Arc::new(lfm_obs::NoopSink)).expect("server starts");
        let client = Client::new(handle.addr());
        client.check("toctou_flag", "buggy", None).expect("check");
        let tracer = handle.tracer();
        // The handler records a timeline after it writes the reply, so
        // the reply can arrive first: wait for the capture.
        let deadline = Instant::now() + Duration::from_secs(10);
        while tracer.captured() < STAGES.len() as u64 - 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            tracer.captured() >= STAGES.len() as u64 - 1,
            "a full miss covers most stages, got {}",
            tracer.captured()
        );
        // An absurd slow threshold with tracing off captures nothing.
        let mut config = test_config();
        config.trace_slow_ms = Some(3_600_000);
        let quiet = Server::start(config, Arc::new(lfm_obs::NoopSink)).expect("server starts");
        let client = Client::new(quiet.addr());
        client.check("toctou_flag", "buggy", None).expect("check");
        assert_eq!(quiet.tracer().captured(), 0, "fast requests not captured");
        handle.request_shutdown();
        assert!(handle.wait().clean);
        quiet.request_shutdown();
        assert!(quiet.wait().clean);
    }

    /// Waits until `slots` has `n` checks waiting.
    fn await_waiting(slots: &Slots, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while slots.waiting() < n {
            assert!(Instant::now() < deadline, "{n} waiters never queued");
            std::thread::yield_now();
        }
    }

    #[test]
    fn slots_admit_cap_waiters_and_refuse_the_next() {
        let slots = Slots::new(1, 2);
        let held = slots.take().expect("a free slot");
        assert_eq!(slots.waiting(), 0);
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| slots.take().map(|slot| slot.index)))
                .collect();
            await_waiting(&slots, 2);
            // A refused take returns at once; an admitted one would
            // wait for `held`.
            let third = scope.spawn(|| slots.take().map(|slot| slot.index));
            let deadline = Instant::now() + Duration::from_secs(10);
            while !third.is_finished() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            drop(held);
            assert_eq!(third.join().unwrap(), None, "a third waiter is refused");
            for waiter in waiters {
                assert_eq!(waiter.join().unwrap(), Some(0));
            }
        });
        assert_eq!(slots.waiting(), 0);
    }

    #[test]
    fn slots_go_to_waiters_in_arrival_order() {
        let slots = Slots::new(1, 3);
        let granted = Mutex::new(Vec::new());
        let held = slots.take().expect("a free slot");
        std::thread::scope(|scope| {
            for arrival in 0..2 {
                let (slots, granted) = (&slots, &granted);
                scope.spawn(move || {
                    let _slot = slots.take().expect("room to wait");
                    granted.lock().unwrap().push(arrival);
                });
                // The next waiter arrives only once this one holds its
                // ticket.
                await_waiting(slots, arrival + 1);
            }
            // A new arrival finds the slot just freed, before either
            // woken waiter runs, and still queues behind both.
            drop(held);
            let _slot = slots.take().expect("room to wait");
            granted.lock().unwrap().push(2);
        });
        assert_eq!(granted.into_inner().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn a_freed_slot_index_is_granted_again() {
        let slots = Slots::new(2, 1);
        let first = slots.take().expect("slot 0");
        let second = slots.take().expect("slot 1");
        assert_eq!((first.index, second.index), (0, 1));
        drop(first);
        let third = slots.take().expect("slot 0 again");
        assert_eq!(third.index, 0, "tracks stay within 1..=workers");
        drop((second, third));
        assert_eq!(slots.state.lock().unwrap().free.len(), 2);
    }

    /// An admitted miss of `toctou_flag/buggy` under `key`, with its
    /// cache claim already taken, as a handler holds it.
    fn claimed_miss(shared: &Shared, key: u64) -> (Miss<'static>, Program) {
        assert!(matches!(
            shared.cache.lookup_or_claim(key, Duration::from_secs(1)),
            Lookup::Claimed
        ));
        let program = build_target("toctou_flag", "buggy").expect("kernel exists");
        let miss = Miss {
            key,
            kernel: "toctou_flag",
            variant: "buggy",
            fingerprint: fingerprint(&program),
            level: DegradeLevel::Exhaustive,
            accepted_at: Instant::now(),
        };
        (miss, program)
    }

    #[test]
    fn explore_fills_the_claim_on_the_slot_track() {
        let mut config = test_config();
        config.trace = true;
        let handle = Server::start(config, Arc::new(lfm_obs::NoopSink)).expect("server starts");
        let shared = &handle.shared;
        let (miss, program) = claimed_miss(shared, 77);
        let mut spans = Vec::new();
        let slot = shared.slots.take().expect("a free slot");
        let caps = shared.config.caps;
        let body = explore(shared, slot, &miss, &mut spans, || {
            check_at_level(&program, miss.level, caps, None, None)
        })
        .expect("no panic");
        let stages: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::QueueWait, Stage::WorkerClaim, Stage::Explore]
        );
        assert!(spans.iter().all(|s| s.pid >= 1), "slot track");
        assert!(shared.stats.stages[Stage::Explore.index()].count() >= 1);
        assert!(body.contains("\"kernel\":\"toctou_flag\""), "{body}");
        assert!(body.contains("\"failures\":"), "{body}");
        // The same bytes are now cached.
        match shared.cache.lookup_or_claim(77, Duration::from_secs(1)) {
            Lookup::Hit(cached) => assert_eq!(&*cached, &*body),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(shared.stats.jobs_executed.get(), 1);
        assert_eq!(shared.stats.worker_panics.get(), 0);
        handle.request_shutdown();
        assert!(handle.wait().clean);
    }

    #[test]
    fn a_panicking_exploration_is_contained_and_frees_its_slot() {
        let sink = Arc::new(MemorySink::new());
        let config = ServerConfig {
            workers: 1,
            queue_cap: 1,
            ..test_config()
        };
        let handle = Server::start(config, Arc::clone(&sink) as Arc<dyn Sink>).expect("starts");
        let shared = &handle.shared;
        let (miss, _) = claimed_miss(shared, 78);
        let slot = shared.slots.take().expect("a free slot");
        let outcome = explore(shared, slot, &miss, &mut Vec::new(), || panic!("boom"));
        assert_eq!(outcome, Err("exploration panicked: boom".to_owned()));
        assert_eq!(shared.stats.worker_panics.get(), 1);
        assert_eq!(sink.events_named("serve", "worker_panic").len(), 1);
        assert_eq!(
            shared.slots.state.lock().unwrap().free,
            vec![0],
            "slot freed"
        );
        assert!(
            matches!(
                shared.cache.lookup_or_claim(78, Duration::from_secs(1)),
                Lookup::Claimed
            ),
            "the key is claimable again"
        );
        handle.request_shutdown();
        assert!(handle.wait().clean);
    }
}
