//! Error types for program construction and execution.

use std::error::Error as StdError;
use std::fmt;

use crate::ids::{MutexId, RwId, ThreadId};

/// Error returned by [`crate::ProgramBuilder::build`] when a program is
/// structurally invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A thread body (or an expression reachable from one) mentions a
    /// shared variable through [`crate::Expr::Shared`]; shared reads must
    /// be explicit [`crate::Stmt::Read`] statements.
    SharedExprInThreadBody {
        /// Thread whose body is invalid.
        thread: ThreadId,
    },
    /// A program must contain at least one thread.
    NoThreads,
    /// `TxCommit` without a matching `TxBegin`, or a block ends inside a
    /// transaction, or transactions are nested.
    UnbalancedTransaction {
        /// Thread whose body is invalid.
        thread: ThreadId,
    },
    /// A blocking synchronization statement (lock, wait, join, …) appears
    /// inside a transaction; the simulated STM only supports memory
    /// operations, assertions and (flagged-irrevocable) I/O.
    SyncInsideTransaction {
        /// Thread whose body is invalid.
        thread: ThreadId,
    },
    /// A statement refers to an object id not created by this builder.
    UnknownObject {
        /// Thread whose body is invalid.
        thread: ThreadId,
        /// Description of the missing object, e.g. `"v17"`.
        object: String,
    },
    /// `Spawn` targets a thread that is started automatically.
    SpawnOfAutoStartThread {
        /// Thread containing the spawn.
        thread: ThreadId,
        /// The auto-start target.
        target: ThreadId,
    },
    /// The program has more than 64 threads: the executor and the
    /// search keep a set of threads in one `u64`.
    TooManyThreads {
        /// Threads the builder was given.
        threads: usize,
    },
    /// A thread body names more than 64 distinct locals: the executor
    /// keeps a thread's written locals in one `u64`.
    TooManyLocals {
        /// Thread whose body is invalid.
        thread: ThreadId,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::SharedExprInThreadBody { thread } => {
                write!(
                    f,
                    "thread {thread} uses Expr::Shared in its body; use Stmt::Read instead"
                )
            }
            BuildError::NoThreads => write!(f, "program has no threads"),
            BuildError::UnbalancedTransaction { thread } => {
                write!(f, "thread {thread} has unbalanced or nested transactions")
            }
            BuildError::SyncInsideTransaction { thread } => {
                write!(
                    f,
                    "thread {thread} performs blocking synchronization inside a transaction"
                )
            }
            BuildError::UnknownObject { thread, object } => {
                write!(f, "thread {thread} refers to unknown object {object}")
            }
            BuildError::SpawnOfAutoStartThread { thread, target } => {
                write!(f, "thread {thread} spawns auto-start thread {target}")
            }
            BuildError::TooManyThreads { threads } => {
                write!(f, "program has {threads} threads; at most 64 are supported")
            }
            BuildError::TooManyLocals { thread } => {
                write!(f, "thread {thread} names more than 64 locals")
            }
        }
    }
}

impl StdError for BuildError {}

/// A runtime misuse of a synchronization object, reported as
/// [`crate::Outcome::Misuse`].
///
/// These model crashes/undefined behaviour in the original programs (e.g.
/// unlocking a mutex the thread does not hold). Note that *re-locking* a
/// mutex the thread already holds is **not** an error: like a default
/// (non-recursive) POSIX mutex it blocks forever, producing the
/// single-thread self-deadlocks that make up 22% of the studied deadlock
/// bugs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExecError {
    /// Unlocked a mutex not held by the thread.
    UnlockNotHeld {
        /// The mutex.
        mutex: MutexId,
    },
    /// Released a rwlock the thread does not hold in any mode.
    RwUnlockNotHeld {
        /// The rwlock.
        rw: RwId,
    },
    /// Waited on a condition variable without holding the mutex.
    WaitWithoutMutex {
        /// The mutex that should have been held.
        mutex: MutexId,
    },
    /// Spawned a thread that had already been started.
    DoubleSpawn {
        /// The target thread.
        target: ThreadId,
    },
    /// A thread exceeded the local-computation fuel (a pure-local infinite
    /// loop that never reaches a scheduling point).
    LocalFuelExhausted,
    /// The scheduler asked a disabled thread to run (internal misuse of
    /// the [`crate::Executor`] API).
    ThreadNotEnabled {
        /// The thread that was not enabled.
        thread: ThreadId,
    },
    /// Acquired a read lock while already holding the same rwlock
    /// (the simulator's rwlocks are non-reentrant).
    RwReentrant {
        /// The rwlock.
        rw: RwId,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnlockNotHeld { mutex } => {
                write!(f, "unlock of {mutex} which is not held")
            }
            ExecError::RwUnlockNotHeld { rw } => {
                write!(f, "rwunlock of {rw} which is not held")
            }
            ExecError::WaitWithoutMutex { mutex } => {
                write!(f, "wait without holding {mutex}")
            }
            ExecError::DoubleSpawn { target } => write!(f, "double spawn of {target}"),
            ExecError::LocalFuelExhausted => {
                write!(
                    f,
                    "local computation fuel exhausted (pure-local infinite loop)"
                )
            }
            ExecError::ThreadNotEnabled { thread } => {
                write!(f, "scheduled thread {thread} is not enabled")
            }
            ExecError::RwReentrant { rw } => write!(f, "reentrant acquisition of {rw}"),
        }
    }
}

impl StdError for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_lowercase_and_informative() {
        let e = BuildError::NoThreads;
        assert_eq!(e.to_string(), "program has no threads");
        let e = ExecError::UnlockNotHeld { mutex: MutexId(2) };
        assert!(e.to_string().contains("m2"));
        let e = ExecError::ThreadNotEnabled {
            thread: ThreadId(1),
        };
        assert!(e.to_string().contains("t1"));
    }

    #[test]
    fn errors_implement_std_error() {
        fn takes_err<E: StdError>(_: E) {}
        takes_err(BuildError::NoThreads);
        takes_err(ExecError::LocalFuelExhausted);
    }
}
