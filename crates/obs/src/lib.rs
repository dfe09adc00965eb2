//! # lfm-obs — dependency-free observability primitives
//!
//! The instrumentation layer for the *Learning from Mistakes* reproduction.
//! The exploration sweeps behind the study's headline numbers run up to
//! 250k schedules per kernel; making those sweeps (and the detector and
//! STM substrates) measurably faster requires first being able to measure
//! them. This crate provides the building blocks, std-only like the
//! rest of the workspace:
//!
//! - [`Counter`] — a relaxed atomic event counter;
//! - [`Histogram`] — a lock-free power-of-two value histogram with
//!   count / sum / min / max and percentile estimates;
//! - [`Stopwatch`] — a one-shot monotonic wall-clock timer;
//! - [`Sink`] — a pluggable structured-event consumer with three
//!   implementations: [`NoopSink`] (default; instrumented code must be
//!   bit-identical in results to uninstrumented code under it),
//!   [`MemorySink`] (each event's JSON object, for tests and
//!   `--stats`), and [`JsonlSink`] (structured JSONL run logs for
//!   `--log-jsonl`);
//! - [`ChromeTrace`] — a typed builder for Chrome trace-event JSON
//!   (Perfetto), behind the witness export and serve's `--trace` dump;
//! - [`StatsTable`] — aligned key/value rendering for `--stats` output;
//! - [`json`] — hand-rolled JSON writing plus the minimal [`json::Json`]
//!   reader used to load witness artifacts back;
//! - [`PhaseProfiler`] — sampling-gated phase-attributed profiling of
//!   the explorer hot path ("where did the wall time go");
//! - [`Ring`] — a bounded slot-locked ring of recent typed records;
//! - [`FlightRecorder`] — a [`Ring`] of recent events' JSONL lines,
//!   dumped as an `lfm-obs/v1` black box on panic or degraded exit;
//! - [`KnuthEstimator`] / [`ProgressTracker`] — online tree-size and
//!   throughput estimation behind `lfm explore --progress`;
//! - [`Registry`] — OpenMetrics/Prometheus text exposition for
//!   `--metrics <path>` (validated by [`check_exposition`]);
//! - [`TeeSink`] — broadcast one event stream to several sinks.
//!
//! # Determinism contract
//!
//! Instrumentation must never influence the instrumented computation:
//! sinks only *observe* [`Event`]s, and every counter/histogram/span is
//! write-only from the hot path. `lfm-sim` enforces this with a test that
//! exploration results are identical with and without a recording sink.
//!
//! # Example
//!
//! ```rust
//! use lfm_obs::{Counter, Event, MemorySink, Sink, Stopwatch, Value};
//!
//! let schedules = Counter::new();
//! let sw = Stopwatch::start();
//! for _ in 0..100 {
//!     schedules.inc();
//! }
//! let sink = MemorySink::new();
//! sink.emit(&Event {
//!     scope: "explore",
//!     name: "report",
//!     fields: &[
//!         ("schedules", Value::U64(schedules.get())),
//!         ("wall_us", Value::U64(sw.elapsed().as_micros() as u64)),
//!     ],
//! });
//! assert_eq!(sink.len(), 1);
//! assert_eq!(schedules.get(), 100);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod counter;
mod histogram;
pub mod json;
mod openmetrics;
mod profile;
mod progress;
mod ring;
mod sink;
mod span;
mod stats;

pub use chrome::ChromeTrace;
pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use openmetrics::{check_exposition, MetricKind, Registry};
pub use profile::{Phase, PhaseGuard, PhaseProfile, PhaseProfiler, PhaseStat, PHASES};
pub use progress::{
    eta_ms, render_progress_line, KnuthEstimator, ProgressLineSink, ProgressTracker,
};
pub use ring::{FlightRecorder, Ring, DEFAULT_CAPACITY, FLIGHT_SCHEMA};
pub use sink::{Event, JsonlSink, MemorySink, NoopSink, Sink, TeeSink, Value};
pub use span::{fmt_duration, Stopwatch};
pub use stats::StatsTable;
