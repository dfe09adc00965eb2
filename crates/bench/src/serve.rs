//! E-serve: the model-checking service under a gated load harness.
//!
//! Two closed-loop load scenarios against an in-process [`lfm_serve`]
//! server, both fully seeded:
//!
//! 1. **no-chaos** — clients talk straight to the server; this is the
//!    throughput reference committed as `BENCH_serve.json` and gated by
//!    `--check-serve`;
//! 2. **chaos** — the same load behind a seeded [`ChaosProxy`]
//!    (drops, stalls, duplicates, truncations, mid-frame resets); the
//!    gate here is not speed but the robustness contract: **zero wrong
//!    answers**, explicit sheds instead of unbounded queues, and a
//!    clean drain.
//!
//! Like E-perf, the latency/throughput columns are host
//! properties recorded next to `host_parallelism`; the correctness
//! columns (`wrong`, `clean`) are the part that must hold everywhere.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use lfm_obs::json::{self, Json};
use lfm_obs::{NoopSink, Registry, Sink};
use lfm_serve::{
    ChaosProxy, DrainSummary, LevelCaps, LoadConfig, LoadReport, NetFaultPlan, Server, ServerConfig,
};
use lfm_study::Table;

use crate::{push_fields, push_objects};

/// Schema identifier embedded in the `BENCH_serve.json` document.
pub const BENCH_SERVE_SCHEMA: &str = "lfm-bench-serve/v1";

/// Load seed shared by the mix, the retry jitter, and the chaos proxy.
pub const SERVE_SEED: u64 = 42;

/// Client threads per scenario.
const SERVE_CLIENTS: usize = 8;

/// Requests each client issues.
const SERVE_REQUESTS_PER_CLIENT: usize = 15;

/// The scenario name whose throughput the CI gate watches: the
/// chaos-free run, where requests/sec measures the service rather than
/// the injected faults.
pub const SERVE_GATE_SCENARIO: &str = "no-chaos";

/// The chaos-free run with every tracing knob on (`trace` plus a
/// zero-threshold slow gate): the numerator of the tracing-overhead
/// gate. Tracing claims to be a strict observer; this row is where the
/// claim is priced.
pub const SERVE_TRACE_SCENARIO: &str = "traced";

/// One load scenario's measurement.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Scenario name (see [`scenario_name`]).
    pub scenario: String,
    /// Requests issued.
    pub requests: u64,
    /// Requests answered `ok` (possibly after retries).
    pub ok: u64,
    /// Requests that exhausted their retries.
    pub failed: u64,
    /// Wrong answers (must be 0 — see `lfm_serve::load`).
    pub wrong: u64,
    /// Cache hit rate over `ok` answers.
    pub hit_rate: f64,
    /// Fraction of attempts answered with a shed.
    pub shed_rate: f64,
    /// p50 request latency, microseconds (retries included).
    pub p50_us: u64,
    /// p99 request latency, microseconds (retries included).
    pub p99_us: u64,
    /// Completed requests per wall second.
    pub requests_per_sec: f64,
    /// Client-side retries across all requests (attempts beyond each
    /// request's first try).
    pub retries_total: u64,
    /// The worst single request's retry count.
    pub max_retries: u64,
    /// Server-side admissions per degrade level (exhaustive,
    /// sleep-set, preemption-bounded, pct-sampling): explorations the
    /// server admitted, so cache hits are not counted. The clients'
    /// own per-level tally of answers is [`LoadReport::degrade`].
    pub degrade: [u64; 4],
    /// Network faults the chaos proxy injected (0 without a proxy).
    pub faults_injected: u64,
    /// Whether the server drained cleanly at shutdown.
    pub clean_drain: bool,
}

impl ServeRow {
    /// The row for one load run against a server that admitted
    /// `degrade` explorations per level.
    pub fn new(
        scenario: String,
        load: &LoadReport,
        degrade: [u64; 4],
        faults_injected: u64,
        clean_drain: bool,
    ) -> ServeRow {
        ServeRow {
            scenario,
            requests: load.requests,
            ok: load.ok,
            failed: load.failed,
            wrong: load.wrong,
            hit_rate: load.hit_rate(),
            shed_rate: load.shed_rate(),
            p50_us: load.latency.p50(),
            p99_us: load.latency.p99(),
            requests_per_sec: load.requests_per_sec(),
            retries_total: load.retries_total,
            max_retries: load.max_retries,
            degrade,
            faults_injected,
            clean_drain,
        }
    }
}

/// The full E-serve measurement.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Load seed every scenario shares.
    pub seed: u64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Scenario rows: no-chaos first, then chaos.
    pub rows: Vec<ServeRow>,
}

impl ServeReport {
    /// The row for `scenario`, if measured.
    pub fn row(&self, scenario: &str) -> Option<&ServeRow> {
        self.rows.iter().find(|r| r.scenario == scenario)
    }

    /// `true` when every scenario upheld the robustness contract:
    /// zero wrong answers and a clean drain.
    pub fn all_correct(&self) -> bool {
        self.rows.iter().all(|r| r.wrong == 0 && r.clean_drain)
    }
}

/// A scenario's name: `chaos-<seed>` behind a chaos proxy, otherwise
/// [`SERVE_TRACE_SCENARIO`] for a traced server and
/// [`SERVE_GATE_SCENARIO`] for an untraced one.
pub fn scenario_name(chaos_net: Option<u64>, traced: bool) -> String {
    match (chaos_net, traced) {
        (Some(chaos_seed), _) => format!("chaos-{chaos_seed}"),
        (None, true) => SERVE_TRACE_SCENARIO.to_owned(),
        (None, false) => SERVE_GATE_SCENARIO.to_owned(),
    }
}

/// One in-process load scenario: a server, an optional seeded chaos
/// proxy in front of it, and a closed load loop through both. E-serve
/// and `lfm bench-serve` (without `--addr`) both run through
/// [`Scenario::run`].
#[derive(Debug)]
pub struct Scenario {
    /// The server to start.
    pub server: ServerConfig,
    /// The load to drive through it.
    pub load: LoadConfig,
    /// Seed of a [`ChaosProxy`] between the clients and the server.
    pub chaos_net: Option<u64>,
}

/// What [`Scenario::run`] measured.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The measurement, `degrade` read from the drained server.
    pub row: ServeRow,
    /// The clients' own tally.
    pub load: LoadReport,
    /// The address the clients dialed (the proxy's under chaos).
    pub target: SocketAddr,
    /// The server's drain summary.
    pub drain: DrainSummary,
    /// The server's metrics exposition after the drain.
    pub metrics: Registry,
}

impl Scenario {
    /// Starts the server (events to `sink`), drives the load through
    /// the optional proxy, drains the server and builds the row. Errors
    /// name the part that failed to start.
    pub fn run(self, sink: Arc<dyn Sink>) -> Result<ScenarioRun, String> {
        let scenario = scenario_name(self.chaos_net, self.server.trace);
        let handle = Server::start(self.server, sink)
            .map_err(|e| format!("cannot start in-process server: {e}"))?;
        let (load, faults_injected, target) =
            drive_load(handle.addr(), self.chaos_net, &self.load)?;
        let (stats, cache) = (handle.stats(), handle.cache());
        handle.request_shutdown();
        let drain = handle.wait();
        let mut metrics = Registry::new();
        stats.fill_registry(&mut metrics, &cache);
        Ok(ScenarioRun {
            row: ServeRow::new(scenario, &load, drain.degrade, faults_injected, drain.clean),
            load,
            target,
            drain,
            metrics,
        })
    }
}

/// Drives `load` at `server`, through a seeded [`ChaosProxy`] when
/// `chaos_net` is set: the clients' report, the faults the proxy
/// injected, and the address the clients dialed.
pub fn drive_load(
    server: SocketAddr,
    chaos_net: Option<u64>,
    load: &LoadConfig,
) -> Result<(LoadReport, u64, SocketAddr), String> {
    let proxy = match chaos_net {
        Some(seed) => Some(
            ChaosProxy::start(NetFaultPlan::new(seed), server)
                .map_err(|e| format!("cannot start chaos proxy: {e}"))?,
        ),
        None => None,
    };
    let target = proxy.as_ref().map_or(server, |p| p.addr());
    let report = lfm_serve::run_load(target, load);
    let faults_injected = proxy.map_or(0, |proxy| {
        let stats = proxy.stats();
        proxy.stop();
        stats.total_injected()
    });
    Ok((report, faults_injected, target))
}

/// The E-serve scenario: a bench-sized server (fully traced when
/// `traced`) — small pool, small queue, small exploration caps, enough
/// to engage the cache, the ladder, and the shed path without turning
/// the measurement into an exploration benchmark — under the E-serve
/// load at `seed`.
fn bench_scenario(chaos_net: Option<u64>, seed: u64, traced: bool) -> Scenario {
    Scenario {
        server: ServerConfig {
            workers: 2,
            queue_cap: 16,
            caps: LevelCaps {
                max_steps: 2_000,
                max_schedules: 2_000,
                dpor: false,
            },
            trace: traced,
            trace_slow_ms: if traced { Some(0) } else { None },
            ..ServerConfig::default()
        },
        load: LoadConfig {
            clients: SERVE_CLIENTS,
            requests_per_client: SERVE_REQUESTS_PER_CLIENT,
            seed,
            attempts: 10,
            timeout: Duration::from_secs(30),
            ..LoadConfig::default()
        },
        chaos_net,
    }
}

/// Runs one E-serve scenario to its row.
fn measure(chaos_net: Option<u64>, seed: u64, traced: bool) -> ServeRow {
    match bench_scenario(chaos_net, seed, traced).run(Arc::new(NoopSink)) {
        Ok(run) => run.row,
        Err(e) => panic!("E-serve scenario failed to start: {e}"),
    }
}

/// Runs the full E-serve measurement: the chaos-free reference, the
/// same load with full tracing on, then the chaos scenario at the
/// shared seed.
pub fn serve_measure() -> ServeReport {
    ServeReport {
        seed: SERVE_SEED,
        host_parallelism: crate::host_parallelism(),
        rows: [(None, false), (None, true), (Some(SERVE_SEED), false)]
            .into_iter()
            .map(|(chaos_net, traced)| measure(chaos_net, SERVE_SEED, traced))
            .collect(),
    }
}

/// Best-of-2 chaos-free requests/sec with full tracing on vs off —
/// the inputs of the `--check-serve` tracing-overhead gate. Best-of
/// rather than mean because the gate hunts a structural cost (a lock
/// on the hot path, an allocation per span), not scheduler weather.
pub fn trace_overhead_measure() -> (f64, f64) {
    let best = |traced: bool| -> f64 {
        (0..2)
            .map(|_| measure(None, SERVE_SEED, traced).requests_per_sec)
            .fold(0.0, f64::max)
    };
    // Interleaving would be fairer under thermal drift, but the runs
    // are short; keep the order deterministic and obvious.
    let traced = best(true);
    let untraced = best(false);
    (traced, untraced)
}

/// Renders the measurement as the E-serve table.
pub fn serve_table() -> Table {
    let report = serve_measure();
    let mut t = Table::new(
        "E-serve",
        format!(
            "Model-checking service under load (seed {}, {} clients x {} requests, \
             host parallelism {})",
            report.seed, SERVE_CLIENTS, SERVE_REQUESTS_PER_CLIENT, report.host_parallelism
        ),
        vec![
            "scenario",
            "ok/requests",
            "wrong",
            "hit rate",
            "shed rate",
            "p50 us",
            "p99 us",
            "req/sec",
            "retries",
            "faults",
            "drain",
        ],
    );
    for r in &report.rows {
        t.row(vec![
            r.scenario.clone(),
            format!("{}/{}", r.ok, r.requests),
            r.wrong.to_string(),
            format!("{:.2}", r.hit_rate),
            format!("{:.2}", r.shed_rate),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            format!("{:.0}", r.requests_per_sec),
            format!("{} (max {})", r.retries_total, r.max_retries),
            r.faults_injected.to_string(),
            if r.clean_drain { "clean" } else { "UNCLEAN" }.to_string(),
        ]);
    }
    t.note(
        "closed-loop zipf load against an in-process lfm-serve server; the \
         chaos row rides a seeded fault-injecting proxy (drops, stalls, \
         duplicates, truncations, mid-frame resets); `wrong` counts fixed \
         variants reporting failures or buggy kernels falsely proved clean \
         and must be 0 in both rows",
    );
    t.note(
        "latency and req/sec are host properties (see BENCH_serve.json for \
         the committed reference run); wrong=0 and a clean drain are the \
         correctness claim and must hold everywhere",
    );
    t
}

/// Serializes the measurement as the `BENCH_serve.json` document
/// (`lfm-bench-serve/v1`).
pub fn serve_json(report: &ServeReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    push_fields(
        &mut out,
        &[
            ("schema", json::quote(BENCH_SERVE_SCHEMA)),
            ("seed", report.seed.to_string()),
            ("clients", SERVE_CLIENTS.to_string()),
            ("requests_per_client", SERVE_REQUESTS_PER_CLIENT.to_string()),
            ("host_parallelism", report.host_parallelism.to_string()),
        ],
    );
    out.push_str(",\"scenarios\":");
    push_objects(&mut out, &report.rows, |r| {
        let [exhaustive, sleep, bounded, pct] = r.degrade;
        vec![
            ("scenario", json::quote(&r.scenario)),
            ("requests", r.requests.to_string()),
            ("ok", r.ok.to_string()),
            ("failed", r.failed.to_string()),
            ("wrong", r.wrong.to_string()),
            ("hit_rate", json::number_f64(r.hit_rate)),
            ("shed_rate", json::number_f64(r.shed_rate)),
            ("p50_us", r.p50_us.to_string()),
            ("p99_us", r.p99_us.to_string()),
            ("requests_per_sec", json::number_f64(r.requests_per_sec)),
            ("retries_total", r.retries_total.to_string()),
            ("max_retries", r.max_retries.to_string()),
            ("degrade", format!("[{exhaustive},{sleep},{bounded},{pct}]")),
            ("faults_injected", r.faults_injected.to_string()),
            ("clean_drain", r.clean_drain.to_string()),
        ]
    });
    out.push('}');
    out
}

/// Extracts the gate throughput for `scenario` from a
/// `BENCH_serve.json` document. Returns `None` when the document does
/// not parse or the scenario or field is missing.
pub fn baseline_requests_per_sec(doc: &str, scenario: &str) -> Option<f64> {
    let doc = Json::parse(doc).ok()?;
    let field = crate::perf::baseline_field(
        &doc,
        &["scenarios"],
        "scenario",
        scenario,
        "requests_per_sec",
    );
    field?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full three-scenario measurement runs in the E-serve artifact
    // and the CI gate; the unit tests here keep to the cheap,
    // deterministic pieces plus single-scenario smokes.

    #[test]
    fn single_scenario_upholds_the_contract() {
        let run = bench_scenario(None, 7, false)
            .run(Arc::new(NoopSink))
            .expect("scenario runs");
        let row = &run.row;
        assert_eq!(row.scenario, SERVE_GATE_SCENARIO);
        assert_eq!(
            row.requests,
            (SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT) as u64
        );
        assert_eq!(row.wrong, 0, "wrong answers without chaos: {row:?}");
        assert!(row.clean_drain, "unclean drain: {row:?}");
        assert_eq!(row.ok + row.failed, row.requests);
        assert!(row.ok > 0);
        assert_eq!(row.faults_injected, 0);
        assert!(
            row.retries_total >= row.max_retries,
            "worst request outran the total: {row:?}"
        );
        // `degrade` is the server's admissions, one per exploration it
        // admitted: cache hits are not in it, unlike the clients' tally.
        assert_eq!(row.degrade, run.drain.degrade);
        let admitted: u64 = row.degrade.iter().sum();
        assert!(admitted > 0 && admitted <= run.drain.misses, "{run:?}");
        assert_eq!(run.load.degrade.iter().sum::<u64>(), row.ok, "{run:?}");
    }

    #[test]
    fn traced_scenario_is_named_and_upholds_the_contract() {
        let row = measure(None, 7, true);
        assert_eq!(row.scenario, SERVE_TRACE_SCENARIO);
        assert_eq!(row.wrong, 0, "tracing produced wrong answers: {row:?}");
        assert!(row.clean_drain, "unclean drain under tracing: {row:?}");
        assert!(row.ok > 0);
    }

    /// A plausible row; tests override the fields they check.
    fn row(scenario: &str, requests_per_sec: f64) -> ServeRow {
        ServeRow {
            scenario: scenario.to_owned(),
            requests: 120,
            ok: 118,
            failed: 2,
            wrong: 0,
            hit_rate: 0.61,
            shed_rate: 0.05,
            p50_us: 900,
            p99_us: 42_000,
            requests_per_sec,
            retries_total: 3,
            max_retries: 2,
            degrade: [30, 0, 5, 2],
            faults_injected: 0,
            clean_drain: true,
        }
    }

    #[test]
    fn json_round_trips_the_gate_scenario() {
        let report = ServeReport {
            seed: SERVE_SEED,
            host_parallelism: 4,
            rows: vec![
                row(SERVE_GATE_SCENARIO, 812.5),
                ServeRow {
                    max_retries: 6,
                    faults_injected: 77,
                    ..row("chaos-42", 410.0)
                },
            ],
        };
        let doc = serve_json(&report);
        assert!(doc.starts_with("{\"schema\":\"lfm-bench-serve/v1\""));
        assert!(doc.contains("\"retries_total\":3"), "{doc}");
        assert!(doc.contains("\"max_retries\":6"), "{doc}");
        let opens = doc.matches('{').count() + doc.matches('[').count();
        let closes = doc.matches('}').count() + doc.matches(']').count();
        assert_eq!(opens, closes);
        let parsed = baseline_requests_per_sec(&doc, SERVE_GATE_SCENARIO).expect("field extracted");
        assert!((parsed - 812.5).abs() < 0.01, "parsed {parsed}");
        let chaos = baseline_requests_per_sec(&doc, "chaos-42").expect("chaos row extracted");
        assert!((chaos - 410.0).abs() < 0.01, "parsed {chaos}");
        assert_eq!(baseline_requests_per_sec(&doc, "no-such-scenario"), None);
        assert_eq!(baseline_requests_per_sec("{}", SERVE_GATE_SCENARIO), None);
    }

    #[test]
    fn all_correct_rejects_wrong_answers_and_unclean_drains() {
        let mut report = ServeReport {
            seed: 1,
            host_parallelism: 1,
            rows: vec![row("x", 1.0)],
        };
        assert!(report.all_correct());
        report.rows[0].wrong = 1;
        assert!(!report.all_correct());
        report.rows[0].wrong = 0;
        report.rows[0].clean_drain = false;
        assert!(!report.all_correct());
    }
}
