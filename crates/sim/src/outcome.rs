//! Terminal outcomes of a simulated execution.

use std::fmt;

use crate::error::ExecError;
use crate::ids::{CondId, MutexId, RwId, SemId, ThreadId};

/// What a blocked thread is waiting for, reported in
/// [`Outcome::Deadlock`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BlockedOn {
    /// Waiting to acquire a mutex (including a self-deadlock re-lock).
    Mutex(MutexId),
    /// Waiting on a condition variable (no signal will ever arrive).
    Cond(CondId),
    /// Waiting to re-acquire the mutex after being signalled.
    CondReacquire(MutexId),
    /// Waiting to acquire a rwlock in read mode.
    RwRead(RwId),
    /// Waiting to acquire a rwlock in write mode.
    RwWrite(RwId),
    /// Waiting on a semaphore with count zero.
    Semaphore(SemId),
    /// Waiting for a thread that will never finish (or was never spawned).
    Join(ThreadId),
}

impl fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockedOn::Mutex(m) => write!(f, "lock {m}"),
            BlockedOn::Cond(c) => write!(f, "wait {c}"),
            BlockedOn::CondReacquire(m) => write!(f, "reacquire {m}"),
            BlockedOn::RwRead(rw) => write!(f, "rdlock {rw}"),
            BlockedOn::RwWrite(rw) => write!(f, "wrlock {rw}"),
            BlockedOn::Semaphore(s) => write!(f, "acquire {s}"),
            BlockedOn::Join(t) => write!(f, "join {t}"),
        }
    }
}

/// The classified result of running a [`crate::Program`] to termination
/// (or to a resource bound).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// All threads finished and every final assertion held.
    Ok,
    /// An in-thread [`crate::Stmt::Assert`] or a final assertion failed.
    AssertFailed {
        /// Thread that failed the assertion; `None` for final assertions.
        thread: Option<ThreadId>,
        /// The assertion message.
        msg: &'static str,
    },
    /// No thread is enabled but not all threads have finished.
    Deadlock {
        /// Every unfinished thread and what it is blocked on.
        blocked: Vec<(ThreadId, BlockedOn)>,
    },
    /// The execution exceeded the step budget (livelock or just a long
    /// run; the explorer reports these separately rather than guessing).
    StepLimit,
    /// A transaction aborted more times than the retry budget allows.
    TxRetryLimit {
        /// The thread whose transaction kept aborting.
        thread: ThreadId,
    },
    /// A runtime misuse of a synchronization object (models a crash).
    Misuse {
        /// The offending thread.
        thread: ThreadId,
        /// What went wrong.
        error: ExecError,
    },
}

impl Outcome {
    /// `true` for [`Outcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok)
    }

    /// `true` for any outcome that manifests a bug or crash
    /// (assertion failure, deadlock, misuse). Step/retry limits are *not*
    /// failures: they are exploration artifacts.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Outcome::AssertFailed { .. } | Outcome::Deadlock { .. } | Outcome::Misuse { .. }
        )
    }

    /// `true` for [`Outcome::Deadlock`].
    pub fn is_deadlock(&self) -> bool {
        matches!(self, Outcome::Deadlock { .. })
    }

    /// `true` when a step cut the run short: an assertion failure,
    /// a misuse, or a transaction out of retries. (A final assertion
    /// failure also counts; every thread has finished by then, so it
    /// cuts nothing off.)
    pub(crate) fn is_abort(&self) -> bool {
        matches!(
            self,
            Outcome::AssertFailed { .. } | Outcome::Misuse { .. } | Outcome::TxRetryLimit { .. }
        )
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Ok => write!(f, "ok"),
            Outcome::AssertFailed { thread, msg } => match thread {
                Some(t) => write!(f, "assert failed in {t}: {msg}"),
                None => write!(f, "final assert failed: {msg}"),
            },
            Outcome::Deadlock { blocked } => {
                write!(f, "deadlock [")?;
                for (i, (t, on)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t} blocked on {on}")?;
                }
                write!(f, "]")
            }
            Outcome::StepLimit => write!(f, "step limit exceeded"),
            Outcome::TxRetryLimit { thread } => {
                write!(f, "transaction retry limit exceeded in {thread}")
            }
            Outcome::Misuse { thread, error } => write!(f, "misuse in {thread}: {error}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        assert!(Outcome::Ok.is_ok());
        assert!(!Outcome::Ok.is_failure());
        let af = Outcome::AssertFailed {
            thread: Some(ThreadId(0)),
            msg: "boom",
        };
        assert!(af.is_failure());
        assert!(!af.is_deadlock());
        let dl = Outcome::Deadlock {
            blocked: vec![(ThreadId(0), BlockedOn::Mutex(MutexId(0)))],
        };
        assert!(dl.is_failure());
        assert!(dl.is_deadlock());
        assert!(!Outcome::StepLimit.is_failure());
        assert!(!Outcome::TxRetryLimit {
            thread: ThreadId(0)
        }
        .is_failure());
    }

    #[test]
    fn display_mentions_participants() {
        let dl = Outcome::Deadlock {
            blocked: vec![
                (ThreadId(0), BlockedOn::Mutex(MutexId(1))),
                (ThreadId(1), BlockedOn::Mutex(MutexId(0))),
            ],
        };
        let s = dl.to_string();
        assert!(s.contains("t0 blocked on lock m1"));
        assert!(s.contains("t1 blocked on lock m0"));
    }

    #[test]
    fn blocked_on_display() {
        assert_eq!(BlockedOn::Join(ThreadId(2)).to_string(), "join t2");
        assert_eq!(BlockedOn::Semaphore(SemId(0)).to_string(), "acquire s0");
        assert_eq!(BlockedOn::Cond(CondId(1)).to_string(), "wait c1");
    }
}
