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
//! - [`Sink`] — a pluggable structured-event consumer with four
//!   implementations: [`NoopSink`] (default; instrumented code must be
//!   bit-identical in results to uninstrumented code under it),
//!   [`MemorySink`] (in-memory snapshot for tests and `--stats`),
//!   [`JsonlSink`] (structured JSONL run logs for `--log-jsonl`), and
//!   [`ChromeTraceSink`] (Chrome trace-event JSON for Perfetto);
//! - [`StatsTable`] — aligned key/value rendering for `--stats` output;
//! - [`json`] — hand-rolled JSON writing plus the minimal [`json::Json`]
//!   reader used to load witness artifacts back;
//! - [`PhaseProfiler`] — sampling-gated phase-attributed profiling of
//!   the explorer hot path ("where did the wall time go");
//! - [`FlightRecorder`] — a bounded ring of recent events dumped as an
//!   `lfm-obs/v1` JSONL black box on panic or degraded exit;
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

pub use chrome::ChromeTraceSink;
pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use openmetrics::{check_exposition, MetricKind, Registry};
pub use profile::{Phase, PhaseGuard, PhaseProfile, PhaseProfiler, PhaseStat, PHASES};
pub use progress::{
    eta_ms, render_progress_line, KnuthEstimator, ProgressLineSink, ProgressTracker,
};
pub use ring::{FlightRecorder, DEFAULT_CAPACITY, FLIGHT_SCHEMA};
pub use sink::{
    Event, JsonlSink, MemorySink, NoopSink, OwnedEvent, OwnedValue, Sink, TeeSink, Value,
};
pub use span::{fmt_duration, Stopwatch};
pub use stats::StatsTable;
