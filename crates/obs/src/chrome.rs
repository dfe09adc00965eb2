//! Chrome trace-event JSON output: a [`ChromeTrace`] builder for the
//! Trace Event Format understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev).
//!
//! Producers call one typed method per record, with the ids the format
//! wants:
//!
//! - `pid` / `tid` — process and thread ids (one pid per kernel, one tid
//!   per simulated thread; the serve tracer uses one pid per worker and
//!   one tid per request);
//! - `ts` — timestamp in microseconds (the witness exporter uses the
//!   event sequence number: one visible op = 1µs);
//! - `dur` — span duration in microseconds (complete events only);
//! - `args` — string key/value pairs shown in the viewer's detail pane.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::json;

/// When a record happens: the part of a trace event that depends on
/// its phase (`ph`).
#[derive(Debug, Clone, Copy)]
enum Timing {
    /// `"M"`: metadata, no timestamp.
    Metadata,
    /// `"i"`: an instant at `ts`, scoped to its thread.
    Instant { ts: u64 },
    /// `"X"`: a complete span from `ts` lasting `dur`.
    Complete { ts: u64, dur: u64 },
}

/// A Chrome trace-event document under construction.
///
/// Records keep their call order; [`render`](ChromeTrace::render) wraps
/// them in `{"traceEvents":[...]}`, one record per line.
#[derive(Debug, Default, Clone)]
pub struct ChromeTrace {
    records: Vec<String>,
}

impl ChromeTrace {
    /// Creates an empty document.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no record has been added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Names the track `pid` (a `process_name` metadata record).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.push("process_name", Timing::Metadata, pid, 0, &[("name", name)]);
    }

    /// Names thread `tid` of track `pid` (a `thread_name` metadata
    /// record).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.push("thread_name", Timing::Metadata, pid, tid, &[("name", name)]);
    }

    /// An instant event named `name` at `ts` on thread `tid` of `pid`.
    pub fn instant(&mut self, name: &str, pid: u64, tid: u64, ts: u64, args: &[(&str, &str)]) {
        self.push(name, Timing::Instant { ts }, pid, tid, args);
    }

    /// A complete event: a span named `name` from `ts` lasting `dur`
    /// on thread `tid` of `pid`.
    pub fn complete(
        &mut self,
        name: &str,
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        args: &[(&str, &str)],
    ) {
        self.push(name, Timing::Complete { ts, dur }, pid, tid, args);
    }

    fn push(&mut self, name: &str, timing: Timing, pid: u64, tid: u64, args: &[(&str, &str)]) {
        let ph = match timing {
            Timing::Metadata => 'M',
            Timing::Instant { .. } => 'i',
            Timing::Complete { .. } => 'X',
        };
        let mut record = String::with_capacity(96);
        record.push_str("{\"name\":\"");
        json::escape_into(&mut record, name);
        let _ = write!(record, "\",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid}");
        match timing {
            Timing::Metadata => {}
            // Instant events carry a timestamp and a scope ("t" = thread).
            Timing::Instant { ts } => {
                let _ = write!(record, ",\"ts\":{ts},\"s\":\"t\"");
            }
            // Complete events carry the span's start and duration at the
            // top level — viewers ignore durations hidden in args.
            Timing::Complete { ts, dur } => {
                let _ = write!(record, ",\"ts\":{ts},\"dur\":{dur}");
            }
        }
        record.push_str(",\"args\":{");
        for (i, (key, value)) in args.iter().enumerate() {
            if i > 0 {
                record.push(',');
            }
            record.push('"');
            json::escape_into(&mut record, key);
            record.push_str("\":\"");
            json::escape_into(&mut record, value);
            record.push('"');
        }
        record.push_str("}}");
        self.records.push(record);
    }

    /// Renders the records as one Chrome trace-event JSON document
    /// (`{"traceEvents":[...]}`), loadable in Perfetto.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&self.records.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Writes the rendered document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn only_event(trace: &ChromeTrace) -> Json {
        let doc = Json::parse(&trace.render()).expect("rendered trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 1);
        events[0].clone()
    }

    #[test]
    fn instant_events_carry_thread_scope_and_args() {
        let mut trace = ChromeTrace::new();
        trace.instant("counter = 1", 3, 1, 7, &[("op", "write")]);
        assert_eq!(trace.len(), 1);
        let e = only_event(&trace);
        assert_eq!(e.get("name").and_then(Json::as_str), Some("counter = 1"));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(3));
        assert_eq!(e.get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(e.get("ts").and_then(Json::as_u64), Some(7));
        let args = e.get("args").unwrap();
        assert_eq!(args.get("op").and_then(Json::as_str), Some("write"));
    }

    #[test]
    fn complete_events_carry_ts_and_dur_at_top_level() {
        let mut trace = ChromeTrace::new();
        trace.complete(
            "explore",
            2,
            9,
            1_500,
            250,
            &[("trace_id", "00000000000000ff")],
        );
        let e = only_event(&trace);
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(Json::as_u64), Some(1_500));
        assert_eq!(e.get("dur").and_then(Json::as_u64), Some(250));
        // No instant-scope marker on spans.
        assert!(e.get("s").is_none());
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_str),
            Some("00000000000000ff")
        );
    }

    #[test]
    fn metadata_events_skip_timestamps() {
        let mut trace = ChromeTrace::new();
        trace.process_name(1, "abba");
        let e = only_event(&trace);
        // The record keeps its metadata name; the display name moves into
        // args.name, where the trace viewers look for it.
        assert_eq!(e.get("name").and_then(Json::as_str), Some("process_name"));
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("abba")
        );
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("M"));
        assert!(e.get("ts").is_none());
        assert!(e.get("s").is_none());
    }

    #[test]
    fn escapes_quotes_and_backslashes_in_names() {
        let mut trace = ChromeTrace::new();
        trace.instant(
            "say \"hi\" via C:\\path",
            0,
            0,
            1,
            &[("detail", "arg with \"quotes\"")],
        );
        let e = only_event(&trace);
        // The round-tripped strings match the originals exactly.
        assert_eq!(
            e.get("name").and_then(Json::as_str),
            Some("say \"hi\" via C:\\path")
        );
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("detail"))
                .and_then(Json::as_str),
            Some("arg with \"quotes\"")
        );
    }

    #[test]
    fn escapes_control_chars_in_thread_and_kernel_names() {
        let mut trace = ChromeTrace::new();
        // A hostile kernel/thread name: newline, tab, NUL, bell.
        let hostile = "thread\n\tname\u{0}\u{7}";
        trace.thread_name(1, 2, hostile);
        let rendered = trace.render();
        // Raw control characters never reach the document; they are
        // escaped (\n, \t, \u0000, \u0007).
        assert!(!rendered
            .chars()
            .any(|c| c.is_control() && c != '\n' && c != '\r'));
        assert!(rendered.contains("\\u0000"), "{rendered}");
        let e = only_event(&trace);
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some(hostile)
        );
    }

    #[test]
    fn escapes_hostile_event_names() {
        let mut trace = ChromeTrace::new();
        trace.instant("op \"x\"\\\n", 0, 0, 0, &[]);
        let e = only_event(&trace);
        assert_eq!(e.get("name").and_then(Json::as_str), Some("op \"x\"\\\n"));
    }

    #[test]
    fn render_is_valid_json_even_when_empty() {
        let trace = ChromeTrace::new();
        assert!(trace.is_empty());
        let doc = Json::parse(&trace.render()).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }
}
