//! Bounded rings of recent records, and the flight recorder built on one.
//!
//! Post-mortem debugging of the explorer works from *partial evidence*:
//! when a run panics, trips its wall deadline, or exits degraded, the
//! final report says what happened but not what led up to it. The
//! [`FlightRecorder`] is the black box — it retains the last N events
//! (choice points, progress ticks, budget transitions, fault
//! injections) and dumps them as an `lfm-obs/v1` JSONL tail on any
//! non-clean exit.
//!
//! Its storage is a [`Ring`], which other recorders of recent history
//! (the serve tracer's span ring) use for typed records. The ring is
//! lock-free-enough for the hot path: writers claim a slot with one
//! relaxed `fetch_add` on the head counter and then lock only *their*
//! slot, so concurrent writers (CLI scopes, server threads) contend
//! only when they wrap onto the same slot — vanishingly rare with a
//! capacity in the hundreds. Under the slot lock the newest sequence
//! number wins, so once every writer is done the ring holds exactly the
//! last `capacity` records.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::sink::{Event, Sink};

/// Schema identifier stamped on flight-recorder dumps.
pub const FLIGHT_SCHEMA: &str = "lfm-obs/v1";

/// Default number of events retained.
pub const DEFAULT_CAPACITY: usize = 256;

/// One ring slot: empty, or a record and its sequence number.
type Slot<T> = Mutex<Option<(u64, T)>>;

/// A bounded, slot-locked ring of the most recent `T`s, each tagged
/// with its sequence number (the count of records pushed before it).
///
/// All slots exist from construction, so a push allocates nothing of
/// its own.
#[derive(Debug)]
pub struct Ring<T> {
    /// Total records ever pushed (the next sequence number).
    head: AtomicU64,
    slots: Box<[Slot<T>]>,
}

impl<T> Ring<T> {
    /// A ring retaining the last `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Maximum number of records retained.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records pushed over the ring's lifetime.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records that fell off the ring (pushed minus retained).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Pushes `value`, overwriting the oldest record once full.
    pub fn push(&self, value: T) {
        self.push_with(|_| value);
    }

    /// Claims the next slot and stores `fill(evicted)` in it, where
    /// `evicted` is the record the slot held, so a record that owns a
    /// buffer can be rewritten in place instead of reallocated.
    ///
    /// The newest record wins its slot. A writer that stalls between its
    /// claim and its store while others push a full lap finds a newer
    /// record there; it keeps that record, drops its own (one of
    /// [`Ring::dropped`]) and does not call `fill`. Storing regardless
    /// would lose the newest record for the slot (BUG-2026-006).
    pub fn push_with(&self, fill: impl FnOnce(Option<T>) -> T) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        let mut slot = self.slots[idx].lock().expect("ring slot poisoned");
        if slot.as_ref().is_some_and(|(held, _)| *held > seq) {
            return;
        }
        let evicted = slot.take().map(|(_, value)| value);
        *slot = Some((seq, fill(evicted)));
    }

    /// The retained records, oldest first, each with its sequence number.
    pub fn tail(&self) -> Vec<(u64, T)>
    where
        T: Clone,
    {
        let mut out: Vec<(u64, T)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("ring slot poisoned").clone())
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out
    }
}

/// A bounded ring of the most recent events, each kept as its JSONL
/// line.
///
/// Implements [`Sink`], so it can be teed alongside the user's sink
/// (see [`TeeSink`](crate::TeeSink)) and observe everything the run
/// emits without changing what the run does. An event is rendered once,
/// into the buffer of the line it evicts, so once the ring has wrapped
/// recording allocates only when a line outgrows its slot's buffer.
#[derive(Debug)]
pub struct FlightRecorder {
    lines: Ring<String>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder retaining the last [`DEFAULT_CAPACITY`] events.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder retaining the last `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            lines: Ring::with_capacity(capacity),
        }
    }

    /// Maximum number of events retained.
    pub fn capacity(&self) -> usize {
        self.lines.capacity()
    }

    /// Total events observed over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.lines.recorded()
    }

    /// Events that fell off the ring (observed minus retained).
    pub fn dropped(&self) -> u64 {
        self.lines.dropped()
    }

    /// The retained events as JSON lines, oldest first, each with its
    /// sequence number.
    pub fn tail(&self) -> Vec<(u64, String)> {
        self.lines.tail()
    }

    /// Writes the dump: one `lfm-obs/v1` header object, then the
    /// retained events as JSONL, oldest first, each prefixed with its
    /// sequence number.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn dump_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        let tail = self.tail();
        writeln!(
            w,
            "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"kind\":\"flight-recorder\",\
             \"capacity\":{},\"recorded\":{},\"dropped\":{},\"retained\":{}}}",
            self.capacity(),
            self.recorded(),
            self.dropped(),
            tail.len(),
        )?;
        for (seq, line) in tail {
            // Splice the sequence number in as the first key of the
            // event object: {"seq":N,"scope":...}.
            writeln!(w, "{{\"seq\":{seq},{}", &line[1..])?;
        }
        Ok(())
    }

    /// Writes the dump to a file at `path` (truncating).
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn dump_to_path(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        self.dump_jsonl(&mut file)
    }
}

impl Sink for FlightRecorder {
    fn emit(&self, event: &Event<'_>) {
        self.lines.push_with(|evicted| {
            let mut line = evicted.unwrap_or_default();
            line.clear();
            event.write_json(&mut line);
            line
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::sink::Value;

    fn emit(rec: &FlightRecorder, n: u64) {
        rec.emit(&Event {
            scope: "test",
            name: "tick",
            fields: &[("n", Value::U64(n))],
        });
    }

    #[test]
    fn retains_last_n_in_order() {
        let rec = FlightRecorder::with_capacity(4);
        for n in 0..10 {
            emit(&rec, n);
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        let tail = rec.tail();
        assert_eq!(tail.len(), 4);
        let ns: Vec<u64> = tail
            .iter()
            .map(|(_, line)| {
                Json::parse(line)
                    .unwrap()
                    .get("n")
                    .and_then(Json::as_u64)
                    .unwrap()
            })
            .collect();
        assert_eq!(ns, vec![6, 7, 8, 9]);
        // Sequence numbers are strictly increasing.
        let seqs: Vec<u64> = tail.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_fill_keeps_everything() {
        let rec = FlightRecorder::with_capacity(8);
        for n in 0..3 {
            emit(&rec, n);
        }
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.tail().len(), 3);
    }

    #[test]
    fn dump_is_parseable_jsonl_with_header() {
        let rec = FlightRecorder::with_capacity(2);
        for n in 0..5 {
            emit(&rec, n);
        }
        let mut buf = Vec::new();
        rec.dump_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Header + at most `capacity` events.
        assert_eq!(lines.len(), 3);
        let header = Json::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some(FLIGHT_SCHEMA)
        );
        assert_eq!(
            header.get("kind").and_then(Json::as_str),
            Some("flight-recorder")
        );
        assert_eq!(header.get("recorded").and_then(Json::as_u64), Some(5));
        assert_eq!(header.get("dropped").and_then(Json::as_u64), Some(3));
        assert_eq!(header.get("retained").and_then(Json::as_u64), Some(2));
        for (i, line) in lines[1..].iter().enumerate() {
            let e = Json::parse(line).unwrap();
            assert_eq!(e.get("seq").and_then(Json::as_u64), Some(3 + i as u64));
            assert_eq!(e.get("scope").and_then(Json::as_str), Some("test"));
            assert_eq!(e.get("event").and_then(Json::as_str), Some("tick"));
        }
    }

    #[test]
    fn empty_recorder_dumps_header_only() {
        let rec = FlightRecorder::new();
        assert_eq!(rec.capacity(), DEFAULT_CAPACITY);
        let mut buf = Vec::new();
        rec.dump_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn concurrent_emitters_stay_bounded() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(16));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for n in 0..100 {
                        emit(&rec, t * 1_000 + n);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), 400);
        // Once every writer has joined, the tail is exactly the final
        // wrap window: no stalled writer's older record survives.
        let seqs: Vec<u64> = rec.tail().iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, (384..400).collect::<Vec<u64>>());
    }
}
