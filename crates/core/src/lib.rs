//! # lfm-study — the study engine
//!
//! The primary contribution of the *Learning from Mistakes* (ASPLOS 2008)
//! reproduction: the analysis layer that turns the corpus, kernels,
//! detectors and STM substrates into the paper's artifacts —
//!
//! - [`tables`] — generators for the nine tables (applications, bug
//!   counts, patterns, manifestation scope, fix strategies, TM
//!   applicability), each computed from the corpus;
//! - [`findings`] — the findings checker: every headline fraction of the
//!   paper, measured and compared against the published value;
//! - [`figures`] — executable figure demos: each paper figure's bug
//!   kernel model-checked to a witness interleaving and its fixes proved;
//! - [`experiments`] — the implication experiments: E-scope (small-scope
//!   manifestation), E-detect (detector coverage matrix), E-tm
//!   (executable TM verdicts).
//!
//! `lfm tables` (the `lfm-cli` crate, through `lfm_bench::Artifact`)
//! renders them.
//!
//! # Example
//!
//! ```rust
//! use lfm_corpus::Corpus;
//! use lfm_study::findings::check_all;
//!
//! let corpus = Corpus::full();
//! let findings = check_all(&corpus);
//! assert!(findings.iter().all(|f| f.holds()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod figures;
pub mod findings;
pub mod profile;
pub mod table;
pub mod tables;

pub use findings::{check_all, Finding};
pub use profile::{profile_tables, TableTiming};
pub use table::Table;
