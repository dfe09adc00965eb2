//! Runtime state of shared objects (variables, mutexes, condition
//! variables, rwlocks, semaphores).
//!
//! All state is plain cloneable data, so the executor's undo trail can
//! record one object's value at its first write since a mark and put it
//! back on restore. It is semantics only: the happens-before relation
//! of a recorded run is computed from its event log
//! ([`crate::Executor::into_trace`]), not kept here.

use std::collections::VecDeque;

use crate::ids::ThreadId;

/// A mutex: its owner. Blocked acquirers are not queued: enabledness
/// is recomputed from the owner, and a deadlock report reads each
/// blocked thread's pending op.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct MutexState {
    pub owner: Option<ThreadId>,
}

/// A condition variable: a FIFO of waiting threads.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct CondState {
    pub waiters: VecDeque<ThreadId>,
}

/// A reader-writer lock.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct RwState {
    pub writer: Option<ThreadId>,
    pub readers: Vec<ThreadId>,
}

impl RwState {
    pub fn can_read(&self, by: ThreadId) -> bool {
        self.writer.is_none() && !self.readers.contains(&by)
    }

    /// Write admission is a property of the lock alone: free of any
    /// writer and of all readers. (A `self.writer != Some(by)` clause
    /// once rode along here; it was dead after `writer.is_none()`.)
    pub fn can_write(&self, _by: ThreadId) -> bool {
        self.writer.is_none() && self.readers.is_empty()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn holds(&self, by: ThreadId) -> bool {
        self.writer == Some(by) || self.readers.contains(&by)
    }
}

/// A counting semaphore. Like a mutex, it queues no acquirers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SemState {
    pub count: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_admission_rules() {
        let mut rw = RwState::default();
        let t0 = ThreadId::from_index(0);
        let t1 = ThreadId::from_index(1);
        assert!(rw.can_read(t0));
        assert!(rw.can_write(t0));
        rw.readers.push(t0);
        assert!(rw.can_read(t1));
        assert!(!rw.can_write(t1));
        assert!(!rw.can_read(t0), "non-reentrant");
        assert!(rw.holds(t0));
        assert!(!rw.holds(t1));
        rw.readers.clear();
        rw.writer = Some(t0);
        assert!(!rw.can_read(t1));
        assert!(!rw.can_write(t1));
        assert!(rw.holds(t0));
    }

    #[test]
    fn fresh_objects_are_idle() {
        let m = MutexState::default();
        assert_eq!(m.owner, None);
        let c = CondState::default();
        assert!(c.waiters.is_empty());
    }
}
