//! # lfm-serve
//!
//! A fault-tolerant, fingerprint-keyed model-checking **service**: the
//! "millions of users" face of the reproduction. A long-running,
//! std-only JSONL-over-TCP server accepts kernel-checking requests,
//! dedups them by the lfm-trace/v1 program fingerprint, returns cached
//! reports on hit, and explores each miss on its connection's own
//! thread under a bounded gate of exploration slots — degrading down
//! the budget ladder (exhaustive → sleep-set → preemption-bounded →
//! PCT) as checks wait for a slot, instead of queueing unboundedly.
//!
//! The paper's core lesson is that concurrency failures manifest under
//! load and rare timings; a service built on that corpus has no excuse
//! to fail the same way. Robustness is therefore the headline:
//!
//! - **Admission control** ([`admission`]): the number of checks
//!   waiting for an exploration slot picks the rung; past the last rung
//!   the request is *shed* with an explicit retry-after response, never
//!   queued unboundedly.
//! - **Per-request wall deadlines** reusing the `WallDeadline`
//!   truncation contract — a slow exploration is truncated and labeled,
//!   not hung.
//! - **Single-flight caching** ([`cache`]): concurrent requests for one
//!   fingerprint coalesce onto one exploration; hits are byte-identical
//!   to the fill that populated them, by construction.
//! - **Chaos proxy** ([`chaos`]): seeded deterministic network faults
//!   (drops, stalls, truncations, duplicates, mid-frame resets) in the
//!   style of `sim/fault.rs`, for testing the client/server loop under
//!   the message-level failure modes of the actor-bugs literature.
//! - **Retrying client** ([`client`]): capped, seeded decorrelated-
//!   jitter backoff; retries transport failures and sheds, never
//!   semantic errors.
//! - **Load harness** ([`load`]): a closed-loop zipf-mixed generator
//!   reporting p50/p99 latency, hit rate, shed rate and retries (the
//!   degrade-level histogram is the server's, in its `stats` reply).
//!
//! Everything is std-only: hand-rolled framing (one JSON object per
//! line), `TcpListener`/`TcpStream`, threads and condvars.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod level;
pub mod load;
pub mod protocol;
pub mod server;
pub mod trace;

pub use admission::{Admission, AdmissionLadder};
pub use cache::{Lookup, ReportCache};
pub use chaos::{ChaosProxy, NetFault, NetFaultPlan, ProxyHandle, ProxyStats};
pub use client::{decorrelated_jitter, CheckReply, Client, ClientError, RetryPolicy};
pub use level::{check_at_level, CheckOutcome, LevelCaps};
pub use load::{run_load, LoadConfig, LoadReport};
pub use protocol::{
    parse_request, report_raw, Request, Response, TraceContext, SERVE_SCHEMA, STATS_SCHEMA,
};
pub use server::{
    DrainSummary, QuantileRow, ServeStats, Server, ServerConfig, ServerHandle, StatsSnapshot,
};
pub use trace::{SpanRec, Stage, Tracer, STAGES, TRACE_DUMP_SCHEMA};
