//! Request-scoped tracing: stage timelines for recent requests.
//!
//! Every request handled by the server is attributed, stage by stage,
//! to the pipeline it flowed through (frame read, parse, cache probe,
//! admission, slot wait, slot setup, exploration, reply write). Stage
//! durations always feed the `lfm_serve_stage_us` histograms; the full
//! per-request *timeline* is additionally captured — as typed span
//! records in a bounded [`Ring`], and as `lfm-obs/v1` `serve`/`span`
//! events when the session sink is enabled — when tracing is enabled or
//! the request is slower than the `--trace-slow-ms` threshold (slow
//! requests are always captured, even with tracing otherwise off).
//! With a disabled session sink, capturing a timeline allocates
//! nothing.
//!
//! Tracing is a **strict observer**: nothing here touches the bytes of
//! a reply. The trace context echoed in replies is a pure function of
//! the request (see `protocol::TraceContext`), so replies are
//! byte-identical with tracing on or off — the contract tests assert
//! exactly that.
//!
//! The ring tail converts to a Perfetto-loadable Chrome trace via
//! [`Tracer::dump_chrome`]: one `pid` per track (0 = connection
//! handlers, `1 + N` = exploration slot `N`, labelled `worker-N`), one
//! `tid` per request sequence number, one `"X"` complete event per
//! stage span.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfm_obs::{ChromeTrace, Event, Ring, Sink, Value};

use crate::protocol::TraceContext;

/// Schema tag spliced into the Chrome trace dump document.
pub const TRACE_DUMP_SCHEMA: &str = "lfm-serve-trace/v1";

/// Spans (not requests) the trace ring retains; at nine stages per
/// request this keeps the last ~220 request timelines.
const TRACE_RING_CAPACITY: usize = 2048;

/// The pipeline stages a request's wall time is attributed to, in
/// pipeline order. [`Stage::index`] is the `ServeStats::stages` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading the request frame, from the request's first byte to its
    /// newline. The idle wait before that byte is the client's, so it
    /// is not counted.
    Accept,
    /// Parsing and validating the frame.
    Parse,
    /// Cache probe that answered without waiting (hit or fresh claim).
    CacheLookup,
    /// Cache probe that waited on another caller's in-flight fill.
    CoalesceWait,
    /// Admission-ladder verdict.
    Admission,
    /// Between admission and the check's exploration slot being
    /// granted.
    QueueWait,
    /// Setup between the slot grant and exploration start.
    WorkerClaim,
    /// The exploration itself.
    Explore,
    /// Writing the reply frame.
    ReplyWrite,
}

/// Every stage, in pipeline order.
pub const STAGES: [Stage; 9] = [
    Stage::Accept,
    Stage::Parse,
    Stage::CacheLookup,
    Stage::CoalesceWait,
    Stage::Admission,
    Stage::QueueWait,
    Stage::WorkerClaim,
    Stage::Explore,
    Stage::ReplyWrite,
];

impl Stage {
    /// Stable label used in events, metrics and the stats reply.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Parse => "parse",
            Stage::CacheLookup => "cache_lookup",
            Stage::CoalesceWait => "coalesce_wait",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::WorkerClaim => "worker_claim",
            Stage::Explore => "explore",
            Stage::ReplyWrite => "reply_write",
        }
    }

    /// The stage's slot in [`STAGES`] and `ServeStats::stages`.
    pub fn index(self) -> usize {
        match self {
            Stage::Accept => 0,
            Stage::Parse => 1,
            Stage::CacheLookup => 2,
            Stage::CoalesceWait => 3,
            Stage::Admission => 4,
            Stage::QueueWait => 5,
            Stage::WorkerClaim => 6,
            Stage::Explore => 7,
            Stage::ReplyWrite => 8,
        }
    }
}

/// One recorded stage span. Timestamps are microsecond offsets from
/// the tracer epoch (server start), so spans recorded on every track
/// line up on one timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Which stage this span covers.
    pub stage: Stage,
    /// Trace track: 0 = connection handlers, `1 + N` = exploration
    /// slot `N`.
    pub pid: u64,
    /// Start offset from the tracer epoch, microseconds.
    pub ts_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

/// Attributes `from..to` to `stage`: always into the stage histogram,
/// and into `spans` (for possible timeline capture) only when the
/// tracer is active — inactive tracing costs two `Instant` reads and
/// one histogram record per stage, nothing else.
pub fn push_span(
    stats: &crate::server::ServeStats,
    tracer: &Tracer,
    spans: &mut Vec<SpanRec>,
    stage: Stage,
    pid: u64,
    from: Instant,
    to: Instant,
) {
    let dur_us = to.saturating_duration_since(from).as_micros() as u64;
    stats.stages[stage.index()].record(dur_us);
    if tracer.active() {
        spans.push(SpanRec {
            stage,
            pid,
            ts_us: tracer.offset_us(from),
            dur_us,
        });
    }
}

/// One captured span: the stage record and the request it belongs to.
#[derive(Debug, Clone, Copy)]
struct TraceRecord {
    /// Request sequence number (the Chrome `tid`).
    seq: u64,
    /// The client's trace context, when the request carried one.
    trace: Option<TraceContext>,
    span: SpanRec,
}

/// `v` as 16 lowercase hex digits, written into `buf`.
fn hex16(v: u64, buf: &mut [u8; 16]) -> &str {
    for (i, digit) in buf.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[((v >> (60 - 4 * i)) & 0xf) as usize];
    }
    std::str::from_utf8(buf).expect("hex digits are ASCII")
}

/// Captures recent request timelines without ever touching replies.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    slow: Option<Duration>,
    epoch: Instant,
    ring: Ring<TraceRecord>,
    sink: Arc<dyn Sink>,
}

impl Tracer {
    /// A tracer. `enabled` captures every request; `slow_ms` captures
    /// requests at or above the threshold even when `enabled` is off.
    pub fn new(enabled: bool, slow_ms: Option<u64>, sink: Arc<dyn Sink>) -> Tracer {
        Tracer {
            enabled,
            slow: slow_ms.map(Duration::from_millis),
            epoch: Instant::now(),
            ring: Ring::with_capacity(TRACE_RING_CAPACITY),
            sink,
        }
    }

    /// `true` when some request could be captured — span collection
    /// can be skipped entirely otherwise.
    pub fn active(&self) -> bool {
        self.enabled || self.slow.is_some()
    }

    /// Keep this request's timeline? Slow requests are always kept
    /// once a threshold is set, even with tracing otherwise off.
    pub fn should_capture(&self, total: Duration) -> bool {
        self.enabled || self.slow.is_some_and(|t| total >= t)
    }

    /// The timeline origin (server start).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Microseconds from the tracer epoch to `at`.
    pub fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Spans captured so far (lifetime, not ring occupancy).
    pub fn captured(&self) -> u64 {
        self.ring.recorded()
    }

    /// Records one request's timeline: one record per stage into the
    /// trace ring and, when the session sink is enabled, one
    /// `serve`/`span` event per stage into it. The event names the
    /// request sequence number `req`: a flight-recorder dump splices its
    /// own ring position in front of every event as `seq`.
    pub fn record(&self, trace: Option<TraceContext>, seq: u64, spans: &[SpanRec]) {
        for &span in spans {
            self.ring.push(TraceRecord { seq, trace, span });
        }
        if !self.sink.enabled() {
            return;
        }
        let (mut trace_hex, mut span_hex) = ([0; 16], [0; 16]);
        let (trace_id, span_id, n_fields) = match trace {
            Some(t) => (
                hex16(t.trace_id, &mut trace_hex),
                hex16(t.span_id, &mut span_hex),
                7,
            ),
            None => ("", "", 5),
        };
        for span in spans {
            let fields = [
                ("req", Value::U64(seq)),
                ("pid", Value::U64(span.pid)),
                ("stage", Value::Str(span.stage.name())),
                ("ts_us", Value::U64(span.ts_us)),
                ("dur_us", Value::U64(span.dur_us)),
                ("trace_id", Value::Str(trace_id)),
                ("span_id", Value::Str(span_id)),
            ];
            self.sink.emit(&Event {
                scope: "serve",
                name: "span",
                fields: &fields[..n_fields],
            });
        }
    }

    /// Converts the ring tail to a Chrome trace-event document tagged
    /// [`TRACE_DUMP_SCHEMA`] and writes it to `path`. Returns the
    /// number of spans dumped. Perfetto ignores the extra top-level
    /// `schema` key.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn dump_chrome(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let tail = self.ring.tail();
        let mut trace = ChromeTrace::new();
        // One process_name metadata record per track, so Perfetto
        // shows "worker-N" (exploration slot N) instead of bare pids.
        let mut pids: Vec<u64> = tail.iter().map(|(_, r)| r.span.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        for pid in pids {
            let label = if pid == 0 {
                "lfm-serve conn".to_owned()
            } else {
                format!("lfm-serve worker-{}", pid - 1)
            };
            trace.process_name(pid, &label);
        }
        let mut hex = [0; 16];
        for (_, record) in &tail {
            let span = record.span;
            let trace_id = record.trace.map(|t| hex16(t.trace_id, &mut hex));
            let args: &[(&str, &str)] = match &trace_id {
                Some(id) => &[("trace_id", id)],
                None => &[],
            };
            trace.complete(
                span.stage.name(),
                span.pid,
                record.seq,
                span.ts_us,
                span.dur_us,
                args,
            );
        }
        let rendered = trace.render();
        // Splice the schema tag in as the first top-level key; the
        // rest of the document is untouched ChromeTrace output.
        let doc = format!("{{\"schema\":\"{TRACE_DUMP_SCHEMA}\",{}", &rendered[1..]);
        std::fs::write(path, doc)?;
        Ok(tail.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_obs::json::Json;
    use lfm_obs::{FlightRecorder, MemorySink, NoopSink, TeeSink};

    fn spans() -> Vec<SpanRec> {
        vec![
            SpanRec {
                stage: Stage::Accept,
                pid: 0,
                ts_us: 10,
                dur_us: 5,
            },
            SpanRec {
                stage: Stage::Explore,
                pid: 2,
                ts_us: 20,
                dur_us: 400,
            },
        ]
    }

    #[test]
    fn stage_indices_match_pipeline_order() {
        for (index, stage) in STAGES.iter().enumerate() {
            assert_eq!(stage.index(), index, "{stage:?}");
        }
        let names: std::collections::HashSet<_> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), STAGES.len(), "stage names are distinct");
    }

    #[test]
    fn slow_threshold_always_captures_even_when_disabled() {
        let tracer = Tracer::new(false, Some(50), Arc::new(NoopSink));
        assert!(tracer.active());
        assert!(!tracer.should_capture(Duration::from_millis(10)));
        assert!(tracer.should_capture(Duration::from_millis(50)));
        let off = Tracer::new(false, None, Arc::new(NoopSink));
        assert!(!off.active());
        assert!(!off.should_capture(Duration::from_secs(3600)));
        let on = Tracer::new(true, None, Arc::new(NoopSink));
        assert!(on.should_capture(Duration::ZERO));
    }

    #[test]
    fn record_tees_span_events_to_the_session_sink() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(true, None, Arc::clone(&sink) as Arc<dyn Sink>);
        let trace = crate::protocol::TraceContext::mint(42, 7);
        tracer.record(Some(trace), 3, &spans());
        assert_eq!(tracer.captured(), 2);
        let events = sink.events_named("serve", "span");
        assert_eq!(events.len(), 2);
        let first = &events[0];
        assert_eq!(first.get("stage").and_then(Json::as_str), Some("accept"));
        assert_eq!(first.get("req").and_then(Json::as_u64), Some(3));
        assert_eq!(
            first.get("trace_id").and_then(Json::as_str),
            Some(format!("{:016x}", trace.trace_id).as_str())
        );
    }

    #[test]
    fn flight_dump_of_a_traced_request_repeats_no_key() {
        // The CLI tees every session event into its flight recorder.
        let flight = Arc::new(FlightRecorder::with_capacity(16));
        let sinks: Vec<Arc<dyn Sink>> = vec![Arc::new(NoopSink), Arc::clone(&flight) as _];
        let tracer = Tracer::new(true, None, Arc::new(TeeSink::new(sinks)));
        let trace = crate::protocol::TraceContext::mint(42, 7);
        tracer.record(Some(trace), 3, &spans());
        let mut dump = Vec::new();
        flight.dump_jsonl(&mut dump).unwrap();
        let dump = String::from_utf8(dump).unwrap();
        assert_eq!(dump.lines().count(), 3, "a header and two spans: {dump}");
        for line in dump.lines() {
            let Ok(Json::Obj(members)) = Json::parse(line) else {
                panic!("not a JSON object: {line}");
            };
            let mut keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
            keys.sort_unstable();
            let all = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), all, "a key repeats in {line}");
        }
    }

    #[test]
    fn dump_chrome_writes_a_tagged_perfetto_document() {
        let tracer = Tracer::new(true, None, Arc::new(NoopSink));
        tracer.record(Some(crate::protocol::TraceContext::mint(1, 1)), 1, &spans());
        tracer.record(None, 2, &spans()[..1]);
        let dir = std::env::temp_dir().join(format!("lfm-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        let dumped = tracer.dump_chrome(&path).unwrap();
        assert_eq!(dumped, 3);
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).expect("dump parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(TRACE_DUMP_SCHEMA)
        );
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // 2 tracks (pid 0 and pid 2) => 2 metadata records + 3 spans.
        assert_eq!(events.len(), 5);
        let explore = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("explore"))
            .expect("explore span present");
        assert_eq!(explore.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(explore.get("pid").and_then(Json::as_u64), Some(2));
        assert_eq!(explore.get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(explore.get("dur").and_then(Json::as_u64), Some(400));
        let meta = events
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("lfm-serve worker-1")
            })
            .expect("worker track named");
        assert_eq!(meta.get("pid").and_then(Json::as_u64), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }
}
