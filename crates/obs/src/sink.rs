//! Pluggable structured-event sinks.

use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::counter::Counter;
use crate::json::{self, Json};

/// A field value carried by an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed string.
    Str(&'a str),
}

impl Value<'_> {
    /// Renders the value as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the value as JSON to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => out.push_str(&json::number_f64(*v)),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => {
                out.push('"');
                json::escape_into(out, s);
                out.push('"');
            }
        }
    }
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

/// One structured observation: `scope` names the subsystem (`explore`,
/// `detect`, `stm`, `cli`, …), `name` the event within it, and `fields`
/// carry the payload.
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// Subsystem that produced the event.
    pub scope: &'a str,
    /// Event name within the scope.
    pub name: &'a str,
    /// Ordered payload fields.
    pub fields: &'a [(&'a str, Value<'a>)],
}

impl Event<'_> {
    /// Renders the event as one JSON object (the JSONL line, no newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 16);
        self.write_json(&mut out);
        out
    }

    /// Appends the event to `out` as one JSON object (the JSONL line,
    /// no newline), escaping straight into the buffer.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"scope\":\"");
        json::escape_into(out, self.scope);
        out.push_str("\",\"event\":\"");
        json::escape_into(out, self.name);
        out.push('"');
        for (key, value) in self.fields {
            out.push_str(",\"");
            json::escape_into(out, key);
            out.push_str("\":");
            value.write_json(out);
        }
        out.push('}');
    }
}

/// A consumer of structured events.
///
/// Implementations must be cheap and must never panic into the
/// instrumented computation; hot paths may consult [`Sink::enabled`] to
/// skip event assembly entirely.
pub trait Sink: Send + Sync + fmt::Debug {
    /// Consumes one event.
    fn emit(&self, event: &Event<'_>);

    /// `false` when emitted events are discarded (lets callers skip
    /// building them).
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output.
    fn flush(&self) {}

    /// Number of events this sink failed to persist (dropped writes).
    ///
    /// Sinks must never panic into the computation they observe, so IO
    /// errors are absorbed at [`Sink::emit`] — but silently absorbed is
    /// not silently forgotten: callers check this at the end of a run
    /// and degrade their exit status when observations were lost.
    fn lost_events(&self) -> u64 {
        0
    }
}

/// The default sink: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn emit(&self, _event: &Event<'_>) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// An in-memory snapshot sink for tests and interactive stats.
///
/// Each event is kept as the [`Json`] object its JSONL line parses to,
/// so readers look fields up with [`Json::get`] like in any other
/// document: `"scope"` and `"event"` first, then the payload fields in
/// order.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Json>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the captured events.
    pub fn events(&self) -> Vec<Json> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Copies out the captured events with the given scope and name.
    pub fn events_named(&self, scope: &str, name: &str) -> Vec<Json> {
        let is = |event: &Json, key: &str, want: &str| {
            event.get(key).and_then(Json::as_str) == Some(want)
        };
        self.events()
            .into_iter()
            .filter(|e| is(e, "scope", scope) && is(e, "event", name))
            .collect()
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &Event<'_>) {
        let parsed = Json::parse(&event.to_json()).expect("an event renders as one JSON object");
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(parsed);
    }
}

/// A sink writing one JSON object per event (JSONL) to any writer.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<W>,
    write_errors: Counter,
}

impl<W: Write + Send> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            out: Mutex::new(writer),
            write_errors: Counter::new(),
        }
    }

    /// Number of emit/flush calls whose IO failed (events lost).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.get()
    }
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL log file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink<BufWriter<File>>> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }

    /// Flushes buffered lines and fsyncs the file to stable storage.
    ///
    /// The lost-events exit contract counts *every* way the log can
    /// silently lose data, so a failing final flush or a failing
    /// `fsync` both land in [`write_errors`](JsonlSink::write_errors)
    /// — the same counter the CLI consults before choosing its exit
    /// status.
    pub fn sync(&self) {
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        if out.flush().is_err() {
            self.write_errors.inc();
        }
        if out.get_ref().sync_all().is_err() {
            self.write_errors.inc();
        }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn emit(&self, event: &Event<'_>) {
        let mut line = event.to_json();
        line.push('\n');
        // A full disk mid-log must not abort the run it is observing —
        // but a dropped event is counted so the run can report the loss.
        let result = self
            .out
            .lock()
            .expect("jsonl sink poisoned")
            .write_all(line.as_bytes());
        if result.is_err() {
            self.write_errors.inc();
        }
    }

    fn flush(&self) {
        if self
            .out
            .lock()
            .expect("jsonl sink poisoned")
            .flush()
            .is_err()
        {
            self.write_errors.inc();
        }
    }

    fn lost_events(&self) -> u64 {
        self.write_errors.get()
    }
}

/// Broadcasts every event to a list of sinks.
///
/// `enabled` is the OR of the children (event assembly is skipped only
/// when *no* child wants events); `flush` flushes all; `lost_events`
/// sums the children. The CLI uses this to tee the user's log sink
/// with the always-on [`FlightRecorder`](crate::FlightRecorder).
#[derive(Debug, Default)]
pub struct TeeSink {
    sinks: Vec<std::sync::Arc<dyn Sink>>,
}

impl TeeSink {
    /// A tee over `sinks` (empty behaves like [`NoopSink`]).
    pub fn new(sinks: Vec<std::sync::Arc<dyn Sink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl Sink for TeeSink {
    fn emit(&self, event: &Event<'_>) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }

    fn lost_events(&self) -> u64 {
        self.sinks.iter().map(|s| s.lost_events()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>(fields: &'a [(&'a str, Value<'a>)]) -> Event<'a> {
        Event {
            scope: "test",
            name: "sample",
            fields,
        }
    }

    #[test]
    fn event_renders_flat_json() {
        let fields = [
            ("schedules", Value::U64(12)),
            ("rate", Value::F64(1.5)),
            ("truncated", Value::Bool(false)),
            ("note", Value::Str("a \"quoted\" note")),
        ];
        let json = sample(&fields).to_json();
        assert_eq!(
            json,
            "{\"scope\":\"test\",\"event\":\"sample\",\"schedules\":12,\
             \"rate\":1.5,\"truncated\":false,\"note\":\"a \\\"quoted\\\" note\"}"
        );
    }

    #[test]
    fn noop_sink_is_disabled() {
        let sink = NoopSink;
        assert!(!sink.enabled());
        sink.emit(&sample(&[]));
    }

    #[test]
    fn memory_sink_captures_owned_events() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.emit(&sample(&[("n", Value::U64(3)), ("s", Value::Str("x"))]));
        assert_eq!(sink.len(), 1);
        let events = sink.events_named("test", "sample");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(events[0].get("s").and_then(Json::as_str), Some("x"));
        assert!(events[0].get("missing").is_none());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(&sample(&[("a", Value::I64(-1))]));
        sink.emit(&sample(&[("b", Value::Str("line\nbreak"))]));
        let bytes = sink.out.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"scope\":\"test\",\"event\":\"sample\",\"a\":-1}"
        );
        // The embedded newline is escaped, keeping one event per line.
        assert!(lines[1].contains("line\\nbreak"));
    }

    /// A writer that fails every operation, like a full disk.
    struct FullDisk;

    impl Write for FullDisk {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
        }
    }

    #[test]
    fn jsonl_sink_counts_lost_events_instead_of_panicking() {
        let sink = JsonlSink::new(FullDisk);
        assert_eq!(sink.lost_events(), 0);
        sink.emit(&sample(&[]));
        sink.emit(&sample(&[]));
        assert_eq!(sink.write_errors(), 2);
        Sink::flush(&sink);
        assert_eq!(sink.lost_events(), 3);
    }

    #[test]
    fn healthy_sinks_lose_nothing() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(&sample(&[]));
        Sink::flush(&sink);
        assert_eq!(sink.lost_events(), 0);
        // The trait default reports zero for sinks that cannot lose.
        assert_eq!(Sink::lost_events(&MemorySink::new()), 0);
        assert_eq!(Sink::lost_events(&NoopSink), 0);
    }

    #[test]
    fn sync_counts_flush_and_fsync_failures() {
        let dir = std::env::temp_dir().join("lfm-obs-sync-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sync-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&sample(&[("n", Value::U64(1))]));
        sink.sync();
        // A healthy file flushes and fsyncs without loss, and the line
        // is durable on disk afterwards.
        assert_eq!(sink.lost_events(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"event\":\"sample\""));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sync_on_full_device_counts_losses() {
        // /dev/full accepts opens but fails writes; flushing buffered
        // bytes through it must land in the lost-events counter rather
        // than panic.
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let sink = JsonlSink::new(BufWriter::new(file));
        sink.emit(&sample(&[("n", Value::U64(1))]));
        sink.sync();
        assert!(sink.lost_events() >= 1);
    }

    #[test]
    fn tee_broadcasts_and_aggregates() {
        use std::sync::Arc;
        let memory = Arc::new(MemorySink::new());
        let failing = Arc::new(JsonlSink::new(FullDisk));
        let tee = TeeSink::new(vec![
            memory.clone() as Arc<dyn Sink>,
            failing.clone() as Arc<dyn Sink>,
        ]);
        assert!(tee.enabled());
        tee.emit(&sample(&[("n", Value::U64(7))]));
        tee.flush();
        assert_eq!(memory.len(), 1);
        // One failed write + one failed flush, summed through the tee.
        assert_eq!(tee.lost_events(), 2);
    }

    #[test]
    fn tee_of_disabled_sinks_is_disabled() {
        let tee = TeeSink::new(vec![std::sync::Arc::new(NoopSink)]);
        assert!(!tee.enabled());
        assert_eq!(tee.lost_events(), 0);
        let empty = TeeSink::default();
        assert!(!empty.enabled());
        empty.emit(&sample(&[]));
        empty.flush();
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u64), Value::U64(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::Str("s"));
        assert_eq!(Value::from(0.5f64).to_json(), "0.5");
    }
}
