//! Per-thread transaction state for the in-simulator STM.
//!
//! The simulator gives [`crate::Stmt::TxBegin`]/[`crate::Stmt::TxCommit`]
//! word-based, lazy-versioning semantics: reads record a read set, writes
//! go to a redo log, and commit validates the read set against the current
//! shared state. On validation failure the transaction rolls back its
//! locals and restarts at the `TxBegin`. This mirrors a TL2-style STM
//! closely enough for the study's TM-applicability experiments while
//! staying deterministic under the model checker.

use crate::ids::VarId;
use crate::lower::Locals;

/// In-flight transaction bookkeeping (one per thread at most; nesting is
/// rejected at build time).
#[derive(Debug, Clone, Hash)]
pub(crate) struct TxState {
    /// Instruction index of the `TxBegin`, the restart point on abort.
    pub start_pc: usize,
    /// First-observed value of every variable read (and not previously
    /// written) inside the transaction. Repeated reads return the recorded
    /// value so the transaction sees a consistent snapshot.
    pub read_set: Vec<(VarId, i64)>,
    /// Redo log: last write per variable.
    pub write_set: Vec<(VarId, i64)>,
    /// Locals at `TxBegin`, restored on abort.
    pub locals_snapshot: Locals,
    /// Whether an irrevocable I/O effect was performed inside the
    /// transaction — the canonical "TM cannot help" obstacle in the study.
    pub io_performed: bool,
}

impl TxState {
    pub fn new(start_pc: usize, locals: &Locals) -> TxState {
        TxState {
            start_pc,
            read_set: Vec::new(),
            write_set: Vec::new(),
            locals_snapshot: locals.clone(),
            io_performed: false,
        }
    }

    /// The transactional view of `var`: redo log first, then read set,
    /// then the global value (which is then recorded in the read set).
    pub fn read(&mut self, var: VarId, global: i64) -> i64 {
        if let Some(&(_, v)) = self.write_set.iter().rev().find(|(w, _)| *w == var) {
            return v;
        }
        if let Some(&(_, v)) = self.read_set.iter().find(|(r, _)| *r == var) {
            return v;
        }
        self.read_set.push((var, global));
        global
    }

    /// Buffers a write in the redo log.
    pub fn write(&mut self, var: VarId, value: i64) {
        if let Some(entry) = self.write_set.iter_mut().find(|(w, _)| *w == var) {
            entry.1 = value;
        } else {
            self.write_set.push((var, value));
        }
    }

    /// `true` when every read-set entry still matches the global state.
    pub fn validate(&self, globals: &[i64]) -> bool {
        self.read_set
            .iter()
            .all(|(var, seen)| globals[var.index()] == *seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn read_prefers_redo_log_then_read_set() {
        let mut tx = TxState::new(0, &Locals::default());
        assert_eq!(tx.read(v(0), 10), 10); // from global, recorded
        assert_eq!(tx.read(v(0), 999), 10); // snapshot, not fresh global
        tx.write(v(0), 42);
        assert_eq!(tx.read(v(0), 999), 42); // redo log wins
    }

    #[test]
    fn write_overwrites_in_place() {
        let mut tx = TxState::new(0, &Locals::default());
        tx.write(v(1), 1);
        tx.write(v(1), 2);
        assert_eq!(tx.write_set, vec![(v(1), 2)]);
    }

    #[test]
    fn validate_checks_read_set_against_globals() {
        let mut tx = TxState::new(0, &Locals::default());
        let globals = vec![5, 7];
        assert_eq!(tx.read(v(1), globals[1]), 7);
        assert!(tx.validate(&globals));
        let changed = vec![5, 8];
        assert!(!tx.validate(&changed));
        // Writes alone never invalidate.
        let mut tx2 = TxState::new(0, &Locals::default());
        tx2.write(v(0), 9);
        assert!(tx2.validate(&changed));
    }
}
