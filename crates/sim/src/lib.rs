//! # lfm-sim — deterministic interleaving simulator and model checker
//!
//! This crate is the execution substrate for the *Learning from Mistakes*
//! (ASPLOS 2008) concurrency-bug study reproduction. The original study
//! characterized bugs in native C/C++ applications whose manifestation
//! depends on thread interleavings on real hardware. Rust's ownership model
//! statically rules out writing most of those bugs directly, so instead of
//! native threads this crate models concurrent programs in a small
//! imperative script IR and executes them under a *deterministic,
//! fully-controllable scheduler*:
//!
//! - [`Program`] — a set of threads (scripts over shared variables,
//!   mutexes, rwlocks, condition variables and semaphores) plus final
//!   invariants, built with [`ProgramBuilder`].
//! - [`Executor`] — an interpreter that advances one *visible operation*
//!   (shared-memory access or synchronization) at a time, under an
//!   externally supplied schedule.
//! - [`Explorer`] — a DFS model checker that enumerates interleavings
//!   (optionally context-bounded, à la CHESS) and classifies every
//!   terminal outcome, on the calling thread; [`BudgetedExplorer`] runs
//!   it down a degradation ladder. ([`ParExplorer`], an [`Explorer`]
//!   plus an inert thread count, is kept only for the benchmark.)
//! - [`RandomWalker`] / [`random::PctScheduler`] — seeded stress
//!   schedulers for probabilistic manifestation experiments.
//! - [`Trace`] — a vector-clock annotated event log consumed by the
//!   `lfm-detect` dynamic detectors.
//! - [`Witness`] / [`minimize()`] — portable `lfm-trace/v1` bug witnesses
//!   (schedule + event log + program fingerprint) with save/load,
//!   deterministic replay verification, Chrome trace export, and ddmin
//!   schedule minimization.
//! - Transactional statements ([`Stmt::TxBegin`] / [`Stmt::TxCommit`])
//!   giving word-based STM semantics inside the simulator, used by the
//!   `lfm-stm` transactional-memory applicability experiments.
//!
//! # Example
//!
//! A classic single-variable atomicity violation (two racing
//! read-modify-write increments) explored exhaustively:
//!
//! ```rust
//! use lfm_sim::{ProgramBuilder, Stmt, Expr, Explorer};
//!
//! # fn main() -> Result<(), lfm_sim::BuildError> {
//! let mut b = ProgramBuilder::new("racy-increment");
//! let counter = b.var("counter", 0);
//! for name in ["t1", "t2"] {
//!     b.thread(name, vec![
//!         Stmt::read(counter, "tmp"),
//!         Stmt::write(counter, Expr::local("tmp") + Expr::lit(1)),
//!     ]);
//! }
//! b.final_assert(Expr::shared(counter).eq(Expr::lit(2)), "both increments kept");
//! let program = b.build()?;
//!
//! let report = Explorer::new(&program).run();
//! assert!(report.schedules_run >= 2);
//! assert!(report.counts.assert_failed > 0); // the lost-update interleaving exists
//! assert!(report.counts.ok > 0);            // and so does the serial one
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dpor;
mod error;
mod exec;
mod expr;
mod footprint;
mod frontier;
mod fxhash;
mod ids;
mod lower;
mod outcome;
mod program;
mod schedule;
mod state;
mod statehash;
mod stmt;
mod txn;

pub mod budget;
pub mod coverage;
pub mod explore;
pub mod explore_par;
pub mod fault;
pub mod generate;
pub mod minimize;
pub mod pretty;
pub mod random;
pub mod timeline;
pub mod trace;
pub mod witness;

pub use budget::{Budget, BudgetReport, BudgetedExplorer, Confidence, DegradeLevel};
pub use coverage::{PairCoverage, PairKey};
pub use error::{BuildError, ExecError};
pub use exec::{Executor, RecordMode, ReplayDeviation, StepResult};
pub use explore::{
    ExploreLimits, ExploreReport, ExploreStats, Explorer, OutcomeCounts, OutcomeSet, Truncation,
};
pub use explore_par::{ParExplorer, ParStats, WorkerStats};
pub use expr::Expr;
pub use fault::{splitmix64, FaultKind, FaultPlan, SplitMix64};
pub use generate::{generate, GenConfig};
pub use ids::{CondId, MutexId, RwId, SemId, ThreadId, VarId};
pub use minimize::{minimize, MinimizeReport};
pub use outcome::{BlockedOn, Outcome};
pub use pretty::pseudocode;
pub use program::{Program, ProgramBuilder, ThreadDef};
pub use random::{RandomWalkReport, RandomWalker};
pub use schedule::Schedule;
pub use stmt::{RmwOp, Stmt};
pub use timeline::render_timeline;
pub use trace::{Event, EventKind, Trace, VectorClock};
pub use witness::{fingerprint, Witness, WitnessError, WitnessEvent, WitnessStats, WITNESS_SCHEMA};
