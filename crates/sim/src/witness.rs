//! Portable witness artifacts: the `lfm-trace/v1` interchange format.
//!
//! A *witness* is a bug manifestation made first-class: the exact schedule
//! that reproduces an outcome, the vector-clock annotated event log of
//! that execution, a fingerprint of the program it belongs to, and the
//! manifestation statistics the study's headline claims are about (how
//! many threads, context switches and conflicting accesses the bug
//! *actually* needs). Witnesses serialize to a small JSON document that
//! can be saved, diffed, checked into a regression suite, replayed with
//! [`Witness::replay`] (bit-for-bit outcome verification), and exported
//! as a Chrome trace-event file for Perfetto.
//!
//! # Conflict accounting
//!
//! `conflicting_accesses` counts executed operations that participate in
//! at least one cross-thread dependent pair (shared object, at least one
//! side writing — the same relation the explorer's partial-order
//! reduction uses). For deadlocks the *attempted* acquisitions of the
//! blocked threads are included: an ABBA deadlock is four lock
//! operations even though two of them never execute. Thread lifecycle
//! edges (spawn/join) and the global I/O journal are excluded — the
//! study counts shared-memory and synchronization accesses, and all I/O
//! is mutually ordered by construction, which would inflate every
//! I/O-heavy kernel.

use std::fmt;
use std::path::Path;

use lfm_obs::json::{self, Json};
use lfm_obs::{Event as ObsEvent, Sink, Value};

use crate::exec::{Executor, RecordMode};
use crate::footprint::{Footprint, ObjKind};
use crate::ids::{ThreadId, VarId};
use crate::outcome::Outcome;
use crate::program::Program;
use crate::schedule::Schedule;
use crate::timeline;
use crate::trace::{EventKind, Trace};

/// Schema identifier embedded in every serialized witness.
pub const WITNESS_SCHEMA: &str = "lfm-trace/v1";

/// Why a witness could not be loaded, verified, or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// Reading or writing the witness file failed.
    Io(String),
    /// The document is not a structurally valid witness.
    Malformed(String),
    /// The document declares a schema this version does not understand.
    SchemaMismatch {
        /// The schema string found in the document.
        found: String,
    },
    /// The witness was recorded against a different program.
    FingerprintMismatch {
        /// Name of the program replay was attempted against.
        program: String,
        /// Fingerprint recorded in the witness.
        expected: u64,
        /// Fingerprint of the program offered for replay.
        found: u64,
    },
    /// Replaying the schedule produced a different outcome.
    OutcomeMismatch {
        /// The outcome recorded in the witness.
        expected: String,
        /// The outcome the replay produced.
        found: String,
    },
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::Io(msg) => write!(f, "io error: {msg}"),
            WitnessError::Malformed(msg) => write!(f, "malformed witness: {msg}"),
            WitnessError::SchemaMismatch { found } => {
                write!(
                    f,
                    "unsupported witness schema {found:?} (expected {WITNESS_SCHEMA:?})"
                )
            }
            WitnessError::FingerprintMismatch {
                program,
                expected,
                found,
            } => write!(
                f,
                "witness does not match program {program:?}: \
                 fingerprint {found:016x}, recorded {expected:016x}"
            ),
            WitnessError::OutcomeMismatch { expected, found } => {
                write!(
                    f,
                    "replay outcome diverged: expected {expected:?}, got {found:?}"
                )
            }
        }
    }
}

impl std::error::Error for WitnessError {}

/// One recorded visible operation, in an owned, portable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessEvent {
    /// Global sequence number (total order).
    pub seq: usize,
    /// Index of the thread that performed the operation.
    pub thread: usize,
    /// The thread's vector clock after the operation, one component per
    /// thread.
    pub clock: Vec<u32>,
    /// Short operation mnemonic (`read`, `lock`, `wait_begin`, …).
    pub op: String,
    /// Human-readable description (variable names resolved).
    pub detail: String,
}

/// Manifestation statistics of one witness, the measured counterparts of
/// the study's ≤2-threads / ≤4-accesses bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessStats {
    /// Context switches in the stored schedule.
    pub switches: usize,
    /// Distinct threads participating: scheduled threads plus threads
    /// present only as a deadlock's blocked waiters.
    pub threads: usize,
    /// Threads participating in at least one conflicting pair.
    pub conflict_threads: usize,
    /// Operations participating in at least one cross-thread conflict
    /// (including a deadlock's attempted acquisitions).
    pub conflicting_accesses: usize,
    /// Distinct shared objects (variables, locks, …) the conflicts
    /// involve — the "resources" of the study's deadlock analysis.
    pub conflict_objects: usize,
    /// Number of recorded events.
    pub events: usize,
}

/// A portable, replayable bug manifestation. See the [module
/// docs](self) for the format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Kernel id this witness was captured from (registry key, not
    /// necessarily the program name).
    pub kernel: String,
    /// Name of the program executed.
    pub program: String,
    /// FNV-1a fingerprint of the program structure; replay against a
    /// program with a different fingerprint is refused.
    pub fingerprint: u64,
    /// Number of threads in the program.
    pub n_threads: usize,
    /// Outcome classification tag (`ok`, `assert_failed`, `deadlock`,
    /// `step_limit`, `tx_retry_limit`, `misuse`).
    pub outcome_kind: String,
    /// The outcome's rendered form, compared bit-for-bit on replay.
    pub outcome_display: String,
    /// The explicit schedule: every choice taken, replayable as-is.
    pub schedule: Schedule,
    /// Manifestation statistics.
    pub stats: WitnessStats,
    /// The vector-clock annotated event log.
    pub events: Vec<WitnessEvent>,
}

/// A structural fingerprint of a program: FNV-1a over a canonical
/// rendering of its name, threads (bodies included), shared objects and
/// final assertions. Two programs with equal fingerprints behave
/// identically under any schedule, so a fingerprint match makes replay
/// meaningful and a mismatch makes it refusable.
pub fn fingerprint(program: &Program) -> u64 {
    use std::fmt::Write as _;
    let mut desc = String::new();
    let _ = write!(desc, "{};threads={};", program.name(), program.n_threads());
    for t in program.threads() {
        let _ = write!(
            desc,
            "thread {} auto={} body={:?};",
            t.name(),
            t.auto_start(),
            t.body()
        );
    }
    desc.push_str("vars=");
    for (i, init) in program.var_init().iter().enumerate() {
        let _ = write!(desc, "{}={init},", program.var_name(VarId::from_index(i)));
    }
    let _ = write!(
        desc,
        ";mutexes={};conds={};rws={};sems={:?};asserts={:?}",
        program.n_mutexes(),
        program.n_conds(),
        program.n_rws(),
        program.sem_init(),
        program.final_asserts()
    );
    fnv1a(desc.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Short mnemonic for an event kind, used in serialized witnesses and
/// Chrome trace events.
fn op_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::ThreadStart => "start",
        EventKind::ThreadExit => "exit",
        EventKind::Read { .. } => "read",
        EventKind::Write { .. } => "write",
        EventKind::Rmw { .. } => "rmw",
        EventKind::Cas { .. } => "cas",
        EventKind::Lock(_) => "lock",
        EventKind::Unlock(_) => "unlock",
        EventKind::TryLock { .. } => "try_lock",
        EventKind::RwRead(_) => "rw_read",
        EventKind::RwWrite(_) => "rw_write",
        EventKind::RwUnlock(_) => "rw_unlock",
        EventKind::WaitBegin { .. } => "wait_begin",
        EventKind::WaitEnd { .. } => "wait_end",
        EventKind::Signal(_) => "signal",
        EventKind::Broadcast(_) => "broadcast",
        EventKind::SemAcquire(_) => "sem_acquire",
        EventKind::SemRelease(_) => "sem_release",
        EventKind::Spawn(_) => "spawn",
        EventKind::Join(_) => "join",
        EventKind::Io(_) => "io",
        EventKind::TxBegin => "tx_begin",
        EventKind::TxCommit => "tx_commit",
        EventKind::TxAbort => "tx_abort",
        EventKind::AssertFail(_) => "assert_fail",
        EventKind::Yield => "yield",
    }
}

/// Classification tag for an outcome.
pub(crate) fn outcome_kind(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Ok => "ok",
        Outcome::AssertFailed { .. } => "assert_failed",
        Outcome::Deadlock { .. } => "deadlock",
        Outcome::StepLimit => "step_limit",
        Outcome::TxRetryLimit { .. } => "tx_retry_limit",
        Outcome::Misuse { .. } => "misuse",
    }
}

/// Object kinds the conflict accounting counts (see module docs).
fn countable(kind: ObjKind) -> bool {
    !matches!(kind, ObjKind::Thread | ObjKind::Io)
}

/// Computes the manifestation statistics from the per-step footprints of
/// an execution (plus, for deadlocks, the blocked threads' attempted
/// operations).
fn conflict_stats(
    schedule: &Schedule,
    ops: &[(ThreadId, Footprint)],
    n_events: usize,
) -> WitnessStats {
    let mut conflicting = vec![false; ops.len()];
    let mut objects: Vec<(ObjKind, u32)> = Vec::new();
    for i in 0..ops.len() {
        for j in i + 1..ops.len() {
            let (ta, fa) = &ops[i];
            let (tb, fb) = &ops[j];
            if ta == tb {
                continue;
            }
            let mut pair_conflicts = false;
            for a in fa.accesses() {
                for b in fb.accesses() {
                    if countable(a.kind)
                        && a.kind == b.kind
                        && a.index == b.index
                        && (a.write || b.write)
                    {
                        pair_conflicts = true;
                        let obj = (a.kind, a.index);
                        if !objects.contains(&obj) {
                            objects.push(obj);
                        }
                    }
                }
            }
            if pair_conflicts {
                conflicting[i] = true;
                conflicting[j] = true;
            }
        }
    }
    // Participating threads: everything scheduled, plus threads that
    // appear only as a deadlock's blocked ops (a thread can be part of
    // the bug without ever taking a step — blocking is a state here, not
    // a step).
    let mut threads_scheduled: Vec<ThreadId> = Vec::new();
    for t in schedule.iter().chain(ops.iter().map(|(t, _)| *t)) {
        if !threads_scheduled.contains(&t) {
            threads_scheduled.push(t);
        }
    }
    let mut conflict_threads: Vec<ThreadId> = Vec::new();
    for (i, &hit) in conflicting.iter().enumerate() {
        if hit && !conflict_threads.contains(&ops[i].0) {
            conflict_threads.push(ops[i].0);
        }
    }
    WitnessStats {
        switches: schedule.context_switches(),
        threads: threads_scheduled.len(),
        conflict_threads: conflict_threads.len(),
        conflicting_accesses: conflicting.iter().filter(|&&c| c).count(),
        conflict_objects: objects.len(),
        events: n_events,
    }
}

impl Witness {
    /// Captures a witness: replays `schedule` against `program` (skipped
    /// choices degrade gracefully, as in [`Executor::replay`]), records
    /// the explicit schedule actually taken, the event log, the outcome
    /// and the conflict statistics.
    pub fn capture(
        program: &Program,
        kernel: &str,
        schedule: &Schedule,
        max_steps: usize,
    ) -> Witness {
        // First pass resolves the explicit schedule (every recorded choice
        // is enabled when its turn comes, so the second pass can step it
        // directly while collecting footprints).
        let mut probe = Executor::new(program);
        probe.replay(schedule, max_steps);
        let explicit = probe.schedule_taken().clone();

        let mut exec = Executor::with_record(program, RecordMode::Full);
        let mut ops: Vec<(ThreadId, Footprint)> = Vec::new();
        for thread in explicit.iter() {
            if let Some(fp) = exec.next_footprint(thread) {
                ops.push((thread, fp));
            }
            let step = exec.step(thread);
            debug_assert!(step.is_ok(), "explicit schedules replay exactly");
            if step.is_err() {
                break;
            }
        }
        // `run_with` marks step-budget exhaustion itself; stepping the
        // explicit choices never reaches that code path.
        let outcome = exec.outcome().cloned().unwrap_or(Outcome::StepLimit);
        if let Outcome::Deadlock { blocked } = &outcome {
            for (thread, on) in blocked {
                ops.push((*thread, Footprint::of_blocked(on)));
            }
        }
        let stats = conflict_stats(&explicit, &ops, exec.events().len());
        let events = exec
            .events()
            .iter()
            .map(|e| WitnessEvent {
                seq: e.seq,
                thread: e.thread.index(),
                clock: (0..e.clock.len())
                    .map(|i| e.clock.get(ThreadId::from_index(i)))
                    .collect(),
                op: op_name(&e.kind).to_owned(),
                detail: timeline::describe(e, Some(program)),
            })
            .collect();
        Witness {
            kernel: kernel.to_owned(),
            program: program.name().to_owned(),
            fingerprint: fingerprint(program),
            n_threads: program.n_threads(),
            outcome_kind: outcome_kind(&outcome).to_owned(),
            outcome_display: outcome.to_string(),
            schedule: explicit,
            stats,
            events,
        }
    }

    /// Replays the witness against `program` and verifies the outcome
    /// bit-for-bit (classification tag and rendered form both equal).
    ///
    /// # Errors
    ///
    /// [`WitnessError::FingerprintMismatch`] when `program` is not the
    /// program the witness was recorded against;
    /// [`WitnessError::OutcomeMismatch`] when the re-execution diverges
    /// (e.g. a witness file whose schedule was edited or truncated).
    pub fn replay(&self, program: &Program) -> Result<Outcome, WitnessError> {
        let found = fingerprint(program);
        if found != self.fingerprint {
            return Err(WitnessError::FingerprintMismatch {
                program: program.name().to_owned(),
                expected: self.fingerprint,
                found,
            });
        }
        let mut exec = Executor::new(program);
        let outcome = exec.replay(&self.schedule, self.schedule.len());
        let kind = outcome_kind(&outcome);
        let display = outcome.to_string();
        if kind != self.outcome_kind || display != self.outcome_display {
            return Err(WitnessError::OutcomeMismatch {
                expected: self.outcome_display.clone(),
                found: display,
            });
        }
        Ok(outcome)
    }

    /// Re-executes the witness schedule with full recording and emits the
    /// trace as Chrome trace events into `sink` (fingerprint-checked).
    ///
    /// # Errors
    ///
    /// [`WitnessError::FingerprintMismatch`] as for [`Witness::replay`].
    pub fn emit_chrome(
        &self,
        program: &Program,
        pid: u64,
        sink: &dyn Sink,
    ) -> Result<(), WitnessError> {
        let found = fingerprint(program);
        if found != self.fingerprint {
            return Err(WitnessError::FingerprintMismatch {
                program: program.name().to_owned(),
                expected: self.fingerprint,
                found,
            });
        }
        let mut exec = Executor::with_record(program, RecordMode::Full);
        exec.replay(&self.schedule, self.schedule.len());
        let trace = exec.into_trace();
        emit_chrome_trace(&trace, Some(program), pid, sink);
        Ok(())
    }

    /// Serializes the witness as its canonical `lfm-trace/v1` JSON
    /// document (one event per line; stable field order, so serialize →
    /// parse → re-serialize is the identity).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        let _ = write!(out, "{{\"schema\":{}", json::quote(WITNESS_SCHEMA));
        let _ = write!(
            out,
            ",\n\"kernel\":{},\"program\":{},\"fingerprint\":\"{:016x}\",\"threads\":{}",
            json::quote(&self.kernel),
            json::quote(&self.program),
            self.fingerprint,
            self.n_threads
        );
        let _ = write!(
            out,
            ",\n\"outcome\":{{\"kind\":{},\"display\":{}}}",
            json::quote(&self.outcome_kind),
            json::quote(&self.outcome_display)
        );
        out.push_str(",\n\"schedule\":[");
        for (i, t) in self.schedule.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", t.index());
        }
        out.push(']');
        let s = &self.stats;
        let _ = write!(
            out,
            ",\n\"stats\":{{\"switches\":{},\"threads\":{},\"conflict_threads\":{},\
             \"conflicting_accesses\":{},\"conflict_objects\":{},\"events\":{}}}",
            s.switches,
            s.threads,
            s.conflict_threads,
            s.conflicting_accesses,
            s.conflict_objects,
            s.events
        );
        out.push_str(",\n\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "{{\"seq\":{},\"thread\":{},\"clock\":[",
                e.seq, e.thread
            );
            for (j, c) in e.clock.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(
                out,
                "],\"op\":{},\"detail\":{}}}",
                json::quote(&e.op),
                json::quote(&e.detail)
            );
        }
        if !self.events.is_empty() {
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a serialized witness.
    ///
    /// # Errors
    ///
    /// [`WitnessError::Malformed`] with a field-level diagnostic for
    /// truncated or corrupted documents; [`WitnessError::SchemaMismatch`]
    /// for documents from an unknown format version.
    pub fn from_json(text: &str) -> Result<Witness, WitnessError> {
        let doc =
            Json::parse(text).map_err(|e| WitnessError::Malformed(format!("invalid JSON: {e}")))?;
        let schema = req_str(&doc, "schema")?;
        if schema != WITNESS_SCHEMA {
            return Err(WitnessError::SchemaMismatch {
                found: schema.to_owned(),
            });
        }
        let kernel = req_str(&doc, "kernel")?.to_owned();
        let program = req_str(&doc, "program")?.to_owned();
        let fingerprint = u64::from_str_radix(req_str(&doc, "fingerprint")?, 16)
            .map_err(|_| malformed("\"fingerprint\" is not a hex number"))?;
        let n_threads = req_usize(&doc, "threads")?;
        let outcome = req(&doc, "outcome")?;
        let outcome_kind = req_str(outcome, "kind")?.to_owned();
        let outcome_display = req_str(outcome, "display")?.to_owned();
        let mut schedule = Schedule::new();
        for (i, v) in req_arr(&doc, "schedule")?.iter().enumerate() {
            let idx = v
                .as_u64()
                .ok_or_else(|| malformed(format!("schedule[{i}] is not an integer")))?
                as usize;
            if idx >= n_threads {
                return Err(malformed(format!(
                    "schedule[{i}] = {idx} out of range for {n_threads} threads"
                )));
            }
            schedule.push(ThreadId::from_index(idx));
        }
        let stats_obj = req(&doc, "stats")?;
        let stats = WitnessStats {
            switches: req_usize(stats_obj, "switches")?,
            threads: req_usize(stats_obj, "threads")?,
            conflict_threads: req_usize(stats_obj, "conflict_threads")?,
            conflicting_accesses: req_usize(stats_obj, "conflicting_accesses")?,
            conflict_objects: req_usize(stats_obj, "conflict_objects")?,
            events: req_usize(stats_obj, "events")?,
        };
        let mut events = Vec::new();
        for (i, ev) in req_arr(&doc, "events")?.iter().enumerate() {
            let clock = ev
                .get("clock")
                .and_then(Json::as_array)
                .ok_or_else(|| malformed(format!("events[{i}].clock is not an array")))?
                .iter()
                .map(|c| c.as_u64().map(|v| v as u32))
                .collect::<Option<Vec<u32>>>()
                .ok_or_else(|| malformed(format!("events[{i}].clock has a non-integer")))?;
            events.push(WitnessEvent {
                seq: req_usize(ev, "seq")?,
                thread: req_usize(ev, "thread")?,
                clock,
                op: req_str(ev, "op")?.to_owned(),
                detail: req_str(ev, "detail")?.to_owned(),
            });
        }
        Ok(Witness {
            kernel,
            program,
            fingerprint,
            n_threads,
            outcome_kind,
            outcome_display,
            schedule,
            stats,
            events,
        })
    }

    /// Writes the serialized witness to `path`.
    ///
    /// # Errors
    ///
    /// [`WitnessError::Io`] carrying the path and the OS error.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), WitnessError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json())
            .map_err(|e| WitnessError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and parses a witness file.
    ///
    /// # Errors
    ///
    /// As for [`Witness::from_json`], plus [`WitnessError::Io`] for
    /// unreadable files.
    pub fn load(path: impl AsRef<Path>) -> Result<Witness, WitnessError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| WitnessError::Io(format!("{}: {e}", path.display())))?;
        Witness::from_json(&text)
    }
}

fn malformed(msg: impl Into<String>) -> WitnessError {
    WitnessError::Malformed(msg.into())
}

fn req<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, WitnessError> {
    obj.get(key)
        .ok_or_else(|| malformed(format!("missing field {key:?}")))
}

fn req_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, WitnessError> {
    req(obj, key)?
        .as_str()
        .ok_or_else(|| malformed(format!("field {key:?} is not a string")))
}

fn req_usize(obj: &Json, key: &str) -> Result<usize, WitnessError> {
    req(obj, key)?
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| malformed(format!("field {key:?} is not an integer")))
}

fn req_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], WitnessError> {
    req(obj, key)?
        .as_array()
        .ok_or_else(|| malformed(format!("field {key:?} is not an array")))
}

/// Emits `trace` as Chrome trace events into `sink` (scope `"trace"`,
/// consumed by [`lfm_obs::ChromeTraceSink`]): one `pid` per kernel, one
/// `tid` per simulated thread, one instant event per visible operation
/// with `ts` equal to the sequence number (one op = 1µs), preceded by
/// `process_name`/`thread_name` metadata records.
pub fn emit_chrome_trace(trace: &Trace, program: Option<&Program>, pid: u64, sink: &dyn Sink) {
    sink.emit(&ObsEvent {
        scope: "trace",
        name: "process_name",
        fields: &[
            ("ph", Value::Str("M")),
            ("pid", Value::U64(pid)),
            ("name", Value::Str(&trace.program)),
        ],
    });
    let names: Vec<String> = match program {
        Some(p) => p.threads().iter().map(|t| t.name().to_owned()).collect(),
        None => (0..trace.n_threads).map(|i| format!("t{i}")).collect(),
    };
    for (i, name) in names.iter().enumerate() {
        sink.emit(&ObsEvent {
            scope: "trace",
            name: "thread_name",
            fields: &[
                ("ph", Value::Str("M")),
                ("pid", Value::U64(pid)),
                ("tid", Value::U64(i as u64)),
                ("name", Value::Str(name)),
            ],
        });
    }
    for event in &trace.events {
        let detail = timeline::describe(event, program);
        let clock = event.clock.to_string();
        sink.emit(&ObsEvent {
            scope: "trace",
            name: op_name(&event.kind),
            fields: &[
                ("pid", Value::U64(pid)),
                ("tid", Value::U64(event.thread.index() as u64)),
                ("ts", Value::U64(event.seq as u64)),
                ("name", Value::Str(&detail)),
                ("op", Value::Str(op_name(&event.kind))),
                ("clock", Value::Str(&clock)),
            ],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use crate::expr::Expr;
    use crate::program::ProgramBuilder;
    use crate::stmt::Stmt;
    use lfm_obs::ChromeTraceSink;

    fn racy_counter() -> Program {
        let mut b = ProgramBuilder::new("racy-counter");
        let v = b.var("counter", 0);
        for name in ["t1", "t2"] {
            b.thread(
                name,
                vec![
                    Stmt::read(v, "tmp"),
                    Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                ],
            );
        }
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "both increments kept");
        b.build().unwrap()
    }

    fn abba() -> Program {
        let mut b = ProgramBuilder::new("abba");
        let a = b.mutex();
        let bm = b.mutex();
        b.thread(
            "t1",
            vec![
                Stmt::lock(a),
                Stmt::lock(bm),
                Stmt::unlock(bm),
                Stmt::unlock(a),
            ],
        );
        b.thread(
            "t2",
            vec![
                Stmt::lock(bm),
                Stmt::lock(a),
                Stmt::unlock(a),
                Stmt::unlock(bm),
            ],
        );
        b.build().unwrap()
    }

    fn first_failure(program: &Program) -> Schedule {
        Explorer::new(program)
            .stop_on_first_failure()
            .run()
            .first_failure
            .expect("program has a failing interleaving")
            .0
    }

    #[test]
    fn capture_records_failure_and_stats() {
        let p = racy_counter();
        let w = Witness::capture(&p, "racy_counter", &first_failure(&p), 5_000);
        assert_eq!(w.outcome_kind, "assert_failed");
        assert!(w.outcome_display.contains("both increments kept"));
        assert_eq!(w.n_threads, 2);
        assert_eq!(w.stats.threads, 2);
        assert_eq!(w.stats.conflict_threads, 2);
        // Two reads + two writes of one variable all conflict across
        // threads.
        assert_eq!(w.stats.conflicting_accesses, 4);
        assert_eq!(w.stats.conflict_objects, 1);
        assert_eq!(w.stats.events, w.events.len());
        assert!(!w.schedule.is_empty());
    }

    #[test]
    fn deadlock_counts_attempted_acquisitions() {
        let p = abba();
        let w = Witness::capture(&p, "abba", &first_failure(&p), 5_000);
        assert_eq!(w.outcome_kind, "deadlock");
        // Two executed locks plus two blocked lock attempts, over two
        // mutexes: the paper's "2 threads, 2 resources" deadlock shape.
        assert_eq!(w.stats.conflict_threads, 2);
        assert_eq!(w.stats.conflicting_accesses, 4);
        assert_eq!(w.stats.conflict_objects, 2);
    }

    #[test]
    fn replay_verifies_outcome_from_the_artifact_alone() {
        let p = racy_counter();
        let w = Witness::capture(&p, "racy_counter", &first_failure(&p), 5_000);
        let text = w.to_json();
        let loaded = Witness::from_json(&text).unwrap();
        let outcome = loaded.replay(&p).unwrap();
        assert_eq!(outcome.to_string(), w.outcome_display);
    }

    #[test]
    fn serialize_parse_reserialize_is_identity() {
        for p in [racy_counter(), abba()] {
            let w = Witness::capture(&p, p.name(), &first_failure(&p), 5_000);
            let text = w.to_json();
            let reparsed = Witness::from_json(&text).unwrap();
            assert_eq!(reparsed, w);
            assert_eq!(reparsed.to_json(), text);
        }
    }

    #[test]
    fn fingerprint_rejects_a_different_program() {
        let p = racy_counter();
        let w = Witness::capture(&p, "racy_counter", &first_failure(&p), 5_000);
        let other = abba();
        let err = w.replay(&other).unwrap_err();
        assert!(matches!(err, WitnessError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("abba"), "{err}");
    }

    #[test]
    fn fingerprint_is_sensitive_to_program_structure() {
        let p1 = racy_counter();
        let p2 = racy_counter();
        assert_eq!(fingerprint(&p1), fingerprint(&p2));
        let mut b = ProgramBuilder::new("racy-counter");
        let v = b.var("counter", 1); // different initial value
        for name in ["t1", "t2"] {
            b.thread(
                name,
                vec![
                    Stmt::read(v, "tmp"),
                    Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                ],
            );
        }
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "both increments kept");
        let p3 = b.build().unwrap();
        assert_ne!(fingerprint(&p1), fingerprint(&p3));
    }

    #[test]
    fn tampered_schedule_is_an_outcome_mismatch_not_a_panic() {
        let p = racy_counter();
        let w = Witness::capture(&p, "racy_counter", &first_failure(&p), 5_000);
        let mut tampered = w.clone();
        // Run the schedule serially instead: the bug no longer manifests.
        tampered.schedule = Schedule::new();
        let err = tampered.replay(&p).unwrap_err();
        assert!(matches!(err, WitnessError::OutcomeMismatch { .. }), "{err}");
    }

    #[test]
    fn truncated_documents_fail_with_diagnostics() {
        let p = racy_counter();
        let w = Witness::capture(&p, "racy_counter", &first_failure(&p), 5_000);
        // Trim the trailing newline first: cutting only it leaves a
        // complete document.
        let text = w.to_json().trim_end().to_owned();
        for cut in (0..text.len()).step_by(7) {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let err = Witness::from_json(&text[..cut]).expect_err("truncation must not parse");
            // Every failure is a structured diagnostic.
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn schema_mismatch_is_reported() {
        let err = Witness::from_json("{\"schema\":\"lfm-trace/v999\"}").unwrap_err();
        assert!(matches!(err, WitnessError::SchemaMismatch { .. }));
        assert!(err.to_string().contains("lfm-trace/v999"), "{err}");
    }

    #[test]
    fn out_of_range_schedule_entries_are_malformed() {
        let p = racy_counter();
        let w = Witness::capture(&p, "racy_counter", &first_failure(&p), 5_000);
        let text = w.to_json().replace("\"schedule\":[0", "\"schedule\":[9");
        let err = Witness::from_json(&text).unwrap_err();
        assert!(matches!(err, WitnessError::Malformed { .. }), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn chrome_export_has_metadata_and_instants() {
        let p = racy_counter();
        let w = Witness::capture(&p, "racy_counter", &first_failure(&p), 5_000);
        let sink = ChromeTraceSink::new();
        w.emit_chrome(&p, 1, &sink).unwrap();
        // process_name + one thread_name per thread + one instant per event.
        assert_eq!(sink.len(), 1 + p.n_threads() + w.events.len());
        let doc = Json::parse(&sink.render()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // The process display name lives in args.name of the metadata
        // record, where Perfetto looks for it.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("process_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("racy-counter")
        }));
        assert!(events
            .iter()
            .any(|e| { e.get("ph").and_then(Json::as_str) == Some("i") }));
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let p = racy_counter();
        let w = Witness::capture(&p, "racy_counter", &first_failure(&p), 5_000);
        let path = std::env::temp_dir().join("lfm_witness_roundtrip_test.json");
        w.save(&path).unwrap();
        let loaded = Witness::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, w);
        let err = Witness::load("/nonexistent/lfm/witness.json").unwrap_err();
        assert!(matches!(err, WitnessError::Io(_)), "{err}");
    }
}
