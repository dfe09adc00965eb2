//! Execution traces: vector-clock annotated event logs.
//!
//! Traces are the interchange format between the simulator and the
//! `lfm-detect` dynamic detectors: a detector never re-executes a program,
//! it analyses the totally-ordered event log of one run together with the
//! partial order induced by the vector clocks.
//!
//! The executor holds no clocks. It records each event's thread, kind
//! and step, and [`Executor::into_trace`](crate::Executor::into_trace)
//! computes every clock in one pass over that log and the schedule
//! (`stamp_clocks`).

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{CondId, MutexId, RwId, SemId, ThreadId, VarId};
use crate::statehash::Comp;

/// A classic vector clock over the program's threads.
///
/// Component `i` counts the visible operations of thread `i` that
/// happened-before the clock's owner.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VectorClock(Vec<u32>);

impl VectorClock {
    /// A zero clock for `n_threads` threads.
    pub fn new(n_threads: usize) -> VectorClock {
        VectorClock(vec![0; n_threads])
    }

    /// Increments the component of `thread`.
    pub fn tick(&mut self, thread: ThreadId) {
        self.0[thread.index()] += 1;
    }

    /// Joins (component-wise max) `other` into `self`.
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// The component for `thread`.
    pub fn get(&self, thread: ThreadId) -> u32 {
        self.0[thread.index()]
    }

    /// `true` when `self` happened-before-or-equals `other`
    /// (component-wise ≤).
    pub fn le(&self, other: &VectorClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// `true` when the two clocks are concurrent (neither ≤ the other).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Number of components (threads).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the clock has no components.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

/// What happened at one visible operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Thread became runnable (start of its first step).
    ThreadStart,
    /// Thread finished its script.
    ThreadExit,
    /// Shared read; `value` is what was observed.
    Read {
        /// Variable read.
        var: VarId,
        /// Observed value.
        value: i64,
    },
    /// Shared write; `value` is what was stored.
    Write {
        /// Variable written.
        var: VarId,
        /// Stored value.
        value: i64,
    },
    /// Atomic read-modify-write.
    Rmw {
        /// Variable updated.
        var: VarId,
        /// Value before.
        old: i64,
        /// Value after.
        new: i64,
    },
    /// Compare-and-swap attempt.
    Cas {
        /// Variable targeted.
        var: VarId,
        /// Whether the swap succeeded.
        success: bool,
        /// Value observed.
        observed: i64,
    },
    /// Mutex acquired.
    Lock(MutexId),
    /// Mutex released.
    Unlock(MutexId),
    /// Non-blocking acquisition attempt.
    TryLock {
        /// Mutex attempted.
        mutex: MutexId,
        /// Whether the lock was taken.
        success: bool,
    },
    /// Read-mode rwlock acquired.
    RwRead(RwId),
    /// Write-mode rwlock acquired.
    RwWrite(RwId),
    /// Rwlock released.
    RwUnlock(RwId),
    /// Entered a condition wait (mutex released).
    WaitBegin {
        /// Condition variable.
        cond: CondId,
        /// Mutex released while waiting.
        mutex: MutexId,
    },
    /// Returned from a condition wait (mutex re-acquired).
    WaitEnd {
        /// Condition variable.
        cond: CondId,
        /// Mutex re-acquired.
        mutex: MutexId,
        /// `false` for a spurious wake-up, which synchronizes with no
        /// signaller.
        signalled: bool,
    },
    /// Signalled one waiter.
    Signal(CondId),
    /// Woke all waiters.
    Broadcast(CondId),
    /// Semaphore decremented.
    SemAcquire(SemId),
    /// Semaphore incremented.
    SemRelease(SemId),
    /// Spawned a deferred thread.
    Spawn(ThreadId),
    /// Joined a finished thread.
    Join(ThreadId),
    /// I/O side effect.
    Io(&'static str),
    /// Transaction began.
    TxBegin,
    /// Transaction committed.
    TxCommit,
    /// Transaction aborted (validation failure) and will retry.
    TxAbort,
    /// In-thread assertion failed.
    AssertFail(&'static str),
    /// Explicit yield.
    Yield,
}

impl EventKind {
    /// The variable touched, for memory-access events.
    pub fn var(&self) -> Option<VarId> {
        match self {
            EventKind::Read { var, .. }
            | EventKind::Write { var, .. }
            | EventKind::Rmw { var, .. }
            | EventKind::Cas { var, .. } => Some(*var),
            _ => None,
        }
    }

    /// `true` for events that *write* shared memory (writes, RMWs and
    /// successful CAS).
    pub fn is_write_access(&self) -> bool {
        match self {
            EventKind::Write { .. } | EventKind::Rmw { .. } => true,
            EventKind::Cas { success, .. } => *success,
            _ => false,
        }
    }

    /// `true` for any shared-memory access event.
    pub fn is_access(&self) -> bool {
        self.var().is_some()
    }
}

/// One recorded visible operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Event {
    /// Global sequence number in this execution (total order).
    pub seq: usize,
    /// The thread that performed the operation.
    pub thread: ThreadId,
    /// The thread's vector clock *after* the operation.
    pub clock: VectorClock,
    /// What happened.
    pub kind: EventKind,
}

/// One visible operation as the executor records it, before
/// [`stamp_clocks`] gives it a clock: the step that performed it
/// (counted from 1; 0 at start-up), its thread and what happened.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Logged {
    pub step: usize,
    pub thread: ThreadId,
    pub kind: EventKind,
}

/// Gives a recorded log its vector clocks: the happens-before relation
/// of one run, from its log and `taken`, the schedule it took (one
/// thread index per step). Every step ticks its thread's component, a
/// step that records no event too (a passing assert, a write buffered
/// in a transaction), so the log keeps each event's step. A release
/// joins its thread's clock into the released clock of a sync object
/// or of a thread (its spawn, to its start; its exit, to its joiner),
/// and an acquire joins that into its thread's. Each event carries its
/// thread's clock after the operation.
pub(crate) fn stamp_clocks(n_threads: usize, taken: &[u8], log: Vec<Logged>) -> Vec<Event> {
    use Comp as C;
    use EventKind as K;
    let zero = VectorClock::new(n_threads);
    let mut clocks = vec![zero.clone(); n_threads];
    let mut released = BTreeMap::new();
    let mut ticked = 0;
    let stamp = |(seq, Logged { step, thread, kind })| {
        for &t in &taken[ticked..step] {
            clocks[usize::from(t)].tick(ThreadId::from_index(t.into()));
        }
        ticked = step;
        let t = thread.index();
        // What the event acquires a clock from, and what it releases to.
        let (from, to) = match kind {
            K::ThreadStart => (Some(C::Thread(t)), None),
            K::Join(target) => (Some(C::Thread(target.index())), None),
            K::Lock(m) | K::WaitEnd { mutex: m, .. } => (Some(C::Mutex(m.index())), None),
            K::TryLock { mutex: m, success } => (success.then_some(C::Mutex(m.index())), None),
            K::RwRead(rw) | K::RwWrite(rw) => (Some(C::Rw(rw.index())), None),
            K::SemAcquire(s) => (Some(C::Sem(s.index())), None),
            K::ThreadExit => (None, Some(C::Thread(t))),
            K::Spawn(child) => (None, Some(C::Thread(child.index()))),
            K::Unlock(m) | K::WaitBegin { mutex: m, .. } => (None, Some(C::Mutex(m.index()))),
            K::Signal(c) | K::Broadcast(c) => (None, Some(C::Cond(c.index()))),
            K::RwUnlock(rw) => (None, Some(C::Rw(rw.index()))),
            K::SemRelease(s) => (None, Some(C::Sem(s.index()))),
            _ => (None, None),
        };
        // A signalled wait-end also acquires from its signallers; a
        // spurious one synchronizes with none.
        let signallers = match kind {
            K::WaitEnd {
                cond,
                signalled: true,
                ..
            } => Some(C::Cond(cond.index())),
            _ => None,
        };
        let clock = &mut clocks[t];
        for from in [from, signallers].into_iter().flatten() {
            if let Some(c) = released.get(&from) {
                clock.join(c);
            }
        }
        if let Some(to) = to {
            let object = released.entry(to).or_insert_with(|| zero.clone());
            object.join(clock);
        }
        let clock = clock.clone();
        Event {
            seq,
            thread,
            clock,
            kind,
        }
    };
    log.into_iter().enumerate().map(stamp).collect()
}

/// A complete recorded execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Name of the executed program.
    pub program: String,
    /// Number of threads in the program.
    pub n_threads: usize,
    /// Number of shared variables in the program.
    pub n_vars: usize,
    /// The event log, in execution order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Iterates over shared-memory access events only.
    pub fn accesses(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.kind.is_access())
    }

    /// All events of one thread, in order.
    pub fn thread_events(&self, thread: ThreadId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.thread == thread)
    }

    /// All access events touching one variable, in order.
    pub fn var_accesses(&self, var: VarId) -> impl Iterator<Item = &Event> {
        self.accesses().filter(move |e| e.kind.var() == Some(var))
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::from_index(i)
    }

    #[test]
    fn vector_clock_ordering() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(t(0)); // a = <1,0>
        b.tick(t(1)); // b = <0,1>
        assert!(a.concurrent_with(&b));
        b.join(&a); // b = <1,1>
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(!a.concurrent_with(&b));
        assert_eq!(b.get(t(0)), 1);
        assert_eq!(b.get(t(1)), 1);
    }

    #[test]
    fn clock_display() {
        let mut a = VectorClock::new(3);
        a.tick(t(1));
        assert_eq!(a.to_string(), "⟨0,1,0⟩");
    }

    #[test]
    fn event_kind_classification() {
        let r = EventKind::Read {
            var: VarId::from_index(0),
            value: 1,
        };
        assert!(r.is_access());
        assert!(!r.is_write_access());
        let w = EventKind::Write {
            var: VarId::from_index(0),
            value: 2,
        };
        assert!(w.is_write_access());
        let cf = EventKind::Cas {
            var: VarId::from_index(0),
            success: false,
            observed: 3,
        };
        assert!(cf.is_access());
        assert!(!cf.is_write_access());
        assert!(!EventKind::Lock(MutexId::from_index(0)).is_access());
    }

    #[test]
    fn trace_filters() {
        let v0 = VarId::from_index(0);
        let v1 = VarId::from_index(1);
        let mk = |seq, thread: usize, kind| Event {
            seq,
            thread: t(thread),
            clock: VectorClock::new(2),
            kind,
        };
        let trace = Trace {
            program: "p".into(),
            n_threads: 2,
            n_vars: 2,
            events: vec![
                mk(0, 0, EventKind::Read { var: v0, value: 0 }),
                mk(1, 1, EventKind::Lock(MutexId::from_index(0))),
                mk(2, 1, EventKind::Write { var: v1, value: 5 }),
            ],
        };
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.accesses().count(), 2);
        assert_eq!(trace.thread_events(t(1)).count(), 2);
        assert_eq!(trace.var_accesses(v1).count(), 1);
    }
}
