//! Programs and the [`ProgramBuilder`].
//!
//! A [`Program`] is an immutable, validated, pre-compiled description of a
//! concurrent workload: shared objects with initial values, one script per
//! thread (compiled to a flat instruction array with explicit jumps so the
//! interpreter needs no call stack), and a set of final assertions checked
//! after all threads terminate.

use std::fmt;
use std::sync::Arc;

use crate::error::BuildError;
use crate::expr::Expr;
use crate::ids::{CondId, MutexId, RwId, SemId, ThreadId, VarId};
use crate::lower::{Instr, Lower, SlotTable};
use crate::stmt::Stmt;

/// Threads a program may have: the executor and the search keep a set
/// of threads in one `u64`.
const MAX_THREADS: usize = 64;

/// One thread of a program.
#[derive(Debug, Clone)]
pub struct ThreadDef {
    name: &'static str,
    body: Vec<Stmt>,
    code: Vec<Instr>,
    slots: SlotTable,
    auto_start: bool,
}

impl ThreadDef {
    /// The thread's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The original (uncompiled) statement list.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// `true` when the thread starts automatically; `false` for threads
    /// started by [`Stmt::Spawn`].
    pub fn auto_start(&self) -> bool {
        self.auto_start
    }

    pub(crate) fn code(&self) -> &[Instr] {
        &self.code
    }

    /// The thread's locals, by slot.
    pub(crate) fn slots(&self) -> &SlotTable {
        &self.slots
    }
}

/// A validated, executable program. Create with [`ProgramBuilder`].
///
/// A handle to immutable shared data: a clone is one reference-count
/// bump, so every executor, explorer and job can hold its own.
#[derive(Debug, Clone)]
pub struct Program(Arc<ProgramDef>);

/// What a [`Program`] handle shares.
#[derive(Debug)]
struct ProgramDef {
    name: String,
    threads: Vec<ThreadDef>,
    var_names: Vec<&'static str>,
    var_init: Vec<i64>,
    n_mutexes: usize,
    n_conds: usize,
    n_rws: usize,
    sem_init: Vec<i64>,
    final_asserts: Vec<(Expr, &'static str)>,
}

impl Program {
    /// Handles sharing this program's definition: the `Arc`'s strong
    /// count.
    #[cfg(test)]
    pub(crate) fn handle_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.0.threads.len()
    }

    /// The thread definitions.
    pub fn threads(&self) -> &[ThreadDef] {
        &self.0.threads
    }

    /// Looks up a thread by name.
    pub fn thread_by_name(&self, name: &str) -> Option<ThreadId> {
        self.0
            .threads
            .iter()
            .position(|t| t.name == name)
            .map(ThreadId::from_index)
    }

    /// Number of shared variables.
    pub fn n_vars(&self) -> usize {
        self.0.var_names.len()
    }

    /// Name of a shared variable.
    pub fn var_name(&self, var: VarId) -> &'static str {
        self.0.var_names[var.index()]
    }

    /// Initial values of the shared variables.
    pub fn var_init(&self) -> &[i64] {
        &self.0.var_init
    }

    /// Number of mutexes.
    pub fn n_mutexes(&self) -> usize {
        self.0.n_mutexes
    }

    /// Number of condition variables.
    pub fn n_conds(&self) -> usize {
        self.0.n_conds
    }

    /// Number of reader-writer locks.
    pub fn n_rws(&self) -> usize {
        self.0.n_rws
    }

    /// Initial counts of the semaphores.
    pub fn sem_init(&self) -> &[i64] {
        &self.0.sem_init
    }

    /// The final assertions (condition, message).
    pub fn final_asserts(&self) -> &[(Expr, &'static str)] {
        &self.0.final_asserts
    }

    /// Total number of visible operations across all thread scripts, an
    /// upper bound useful for sizing exploration budgets. Loops make the
    /// dynamic count larger; this is the *static* count.
    pub fn static_visible_ops(&self) -> usize {
        self.0
            .threads
            .iter()
            .map(|t| t.code.iter().filter(|i| matches!(i, Instr::Op(_))).count())
            .sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} threads, {} vars, {} mutexes)",
            self.0.name,
            self.n_threads(),
            self.n_vars(),
            self.0.n_mutexes
        )
    }
}

/// Builder for [`Program`] (C-BUILDER).
///
/// ```rust
/// use lfm_sim::{ProgramBuilder, Stmt, Expr};
///
/// # fn main() -> Result<(), lfm_sim::BuildError> {
/// let mut b = ProgramBuilder::new("demo");
/// let flag = b.var("flag", 0);
/// let m = b.mutex();
/// b.thread("writer", vec![
///     Stmt::lock(m),
///     Stmt::write(flag, 1),
///     Stmt::unlock(m),
/// ]);
/// let program = b.build()?;
/// assert_eq!(program.n_threads(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    threads: Vec<(ThreadId, &'static str, Vec<Stmt>, bool)>,
    var_names: Vec<&'static str>,
    var_init: Vec<i64>,
    n_mutexes: usize,
    n_conds: usize,
    n_rws: usize,
    sem_init: Vec<i64>,
    final_asserts: Vec<(Expr, &'static str)>,
    next_thread: u32,
}

impl ProgramBuilder {
    /// Starts building a program.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            ..ProgramBuilder::default()
        }
    }

    /// Declares a shared variable with an initial value.
    pub fn var(&mut self, name: &'static str, init: i64) -> VarId {
        let id = VarId::from_index(self.var_names.len());
        self.var_names.push(name);
        self.var_init.push(init);
        id
    }

    /// Declares a mutex.
    pub fn mutex(&mut self) -> MutexId {
        let id = MutexId::from_index(self.n_mutexes);
        self.n_mutexes += 1;
        id
    }

    /// Declares a condition variable.
    pub fn cond(&mut self) -> CondId {
        let id = CondId::from_index(self.n_conds);
        self.n_conds += 1;
        id
    }

    /// Declares a reader-writer lock.
    pub fn rwlock(&mut self) -> RwId {
        let id = RwId::from_index(self.n_rws);
        self.n_rws += 1;
        id
    }

    /// Declares a counting semaphore with an initial count.
    pub fn semaphore(&mut self, initial: i64) -> SemId {
        let id = SemId::from_index(self.sem_init.len());
        self.sem_init.push(initial);
        id
    }

    /// Adds a thread that starts automatically.
    pub fn thread(&mut self, name: &'static str, body: Vec<Stmt>) -> ThreadId {
        self.add_thread(name, body, true)
    }

    /// Adds a thread started later by [`Stmt::Spawn`]; until spawned it is
    /// not runnable.
    pub fn thread_deferred(&mut self, name: &'static str, body: Vec<Stmt>) -> ThreadId {
        self.add_thread(name, body, false)
    }

    fn add_thread(&mut self, name: &'static str, body: Vec<Stmt>, auto: bool) -> ThreadId {
        let id = ThreadId(self.next_thread);
        self.next_thread += 1;
        self.threads.push((id, name, body, auto));
        id
    }

    /// Adds a final assertion, checked after every thread has finished.
    /// Unlike thread bodies, the condition may read shared variables
    /// directly via [`Expr::shared`].
    pub fn final_assert(&mut self, cond: Expr, msg: &'static str) -> &mut Self {
        self.final_asserts.push((cond, msg));
        self
    }

    /// Validates and compiles the program.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the program is structurally invalid:
    /// no threads or more than 64, `Expr::Shared` inside a thread body,
    /// a thread naming more than 64 locals, unbalanced or nested
    /// transactions, blocking synchronization inside a transaction,
    /// references to objects not declared on this builder, or `Spawn` of
    /// an auto-start thread.
    pub fn build(mut self) -> Result<Program, BuildError> {
        if self.threads.is_empty() {
            return Err(BuildError::NoThreads);
        }
        if self.threads.len() > MAX_THREADS {
            let threads = self.threads.len();
            return Err(BuildError::TooManyThreads { threads });
        }
        let auto_flags: Vec<bool> = self.threads.iter().map(|(_, _, _, a)| *a).collect();
        let defs = std::mem::take(&mut self.threads);
        let mut threads = Vec::with_capacity(defs.len());
        for (id, name, body, auto_start) in defs {
            let mut compiler = Compiler {
                builder: &self,
                auto_flags: &auto_flags,
                thread: id,
                lower: Lower::new(id),
                code: Vec::new(),
                tx_err: None,
            };
            compiler.block(&body, false)?;
            if let Some(e) = compiler.tx_err {
                return Err(e);
            }
            threads.push(ThreadDef {
                name,
                body,
                code: compiler.code,
                slots: compiler.lower.into_slots(),
                auto_start,
            });
        }

        Ok(Program(Arc::new(ProgramDef {
            name: self.name,
            threads,
            var_names: self.var_names,
            var_init: self.var_init,
            n_mutexes: self.n_mutexes,
            n_conds: self.n_conds,
            n_rws: self.n_rws,
            sem_init: self.sem_init,
            final_asserts: self.final_asserts,
        })))
    }

    /// The first object `s` names that this builder did not declare.
    fn unknown_object(&self, s: &Stmt) -> Option<String> {
        let check_var = |v: &VarId| (v.index() >= self.var_names.len()).then(|| v.to_string());
        let check_mutex = |m: &MutexId| (m.index() >= self.n_mutexes).then(|| m.to_string());
        let check_cond = |c: &CondId| (c.index() >= self.n_conds).then(|| c.to_string());
        let check_rw = |r: &RwId| (r.index() >= self.n_rws).then(|| r.to_string());
        let check_sem = |s: &SemId| (s.index() >= self.sem_init.len()).then(|| s.to_string());
        match s {
            Stmt::Read { var, .. }
            | Stmt::Write { var, .. }
            | Stmt::Rmw { var, .. }
            | Stmt::Cas { var, .. } => check_var(var),
            Stmt::Lock(m) | Stmt::Unlock(m) => check_mutex(m),
            Stmt::TryLock { mutex, .. } => check_mutex(mutex),
            Stmt::RwRead(r) | Stmt::RwWrite(r) | Stmt::RwUnlock(r) => check_rw(r),
            Stmt::Wait { cond, mutex } => check_cond(cond).or_else(|| check_mutex(mutex)),
            Stmt::Signal(c) | Stmt::Broadcast(c) => check_cond(c),
            Stmt::SemAcquire(s) | Stmt::SemRelease(s) => check_sem(s),
            _ => None,
        }
    }
}

/// The expressions embedded in one statement (non-recursive: nested
/// blocks are statements of their own).
fn stmt_exprs(s: &Stmt) -> [Option<&Expr>; 2] {
    match s {
        Stmt::Write { value, .. } | Stmt::LocalSet { value, .. } => [Some(value), None],
        Stmt::Rmw { operand, .. } => [Some(operand), None],
        Stmt::Cas { expected, new, .. } => [Some(expected), Some(new)],
        Stmt::If { cond, .. } | Stmt::While { cond, .. } | Stmt::Assert { cond, .. } => {
            [Some(cond), None]
        }
        _ => [None, None],
    }
}

/// Validates one thread body, checks its transaction bracketing and
/// compiles it, in one pre-order walk.
struct Compiler<'a> {
    builder: &'a ProgramBuilder,
    auto_flags: &'a [bool],
    thread: ThreadId,
    lower: Lower,
    code: Vec<Instr>,
    /// The walk's first bracketing error. It is reported only when the
    /// body has no other error: object and expression checks go first.
    tx_err: Option<BuildError>,
}

impl Compiler<'_> {
    /// Compiles `stmts` into flat instructions with explicit jumps.
    /// `in_tx` says whether the block is entered inside a transaction.
    fn block(&mut self, stmts: &[Stmt], in_tx: bool) -> Result<(), BuildError> {
        let mut depth = usize::from(in_tx);
        for s in stmts {
            self.validate(s)?;
            if let Some(e) = tx_step(s, &mut depth, self.thread) {
                self.tx_err.get_or_insert(e);
            }
            match s {
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let jz = self.code.len();
                    let cond = self.lower.expr(cond)?;
                    self.code.push(Instr::JumpIfZero(cond, usize::MAX));
                    self.block(then_branch, depth > 0)?;
                    if else_branch.is_empty() {
                        self.patch(jz);
                    } else {
                        let jmp = self.code.len();
                        self.code.push(Instr::Jump(usize::MAX));
                        self.patch(jz);
                        self.block(else_branch, depth > 0)?;
                        self.patch(jmp);
                    }
                }
                Stmt::While { cond, body } => {
                    let top = self.code.len();
                    let cond = self.lower.expr(cond)?;
                    self.code.push(Instr::JumpIfZero(cond, usize::MAX));
                    self.block(body, depth > 0)?;
                    self.code.push(Instr::Jump(top));
                    self.patch(top);
                }
                Stmt::LocalSet { name, value } => {
                    let slot = self.lower.slot(name)?;
                    let value = self.lower.expr(value)?;
                    self.code.push(Instr::LocalSet { slot, value });
                }
                op => {
                    let op = self
                        .lower
                        .op(op)?
                        .expect("local statements are matched above");
                    self.code.push(Instr::Op(op));
                }
            }
        }
        // A nested block may not leave a transaction open across its end,
        // and must not have closed its caller's transaction.
        if depth != usize::from(in_tx) {
            let thread = self.thread;
            self.tx_err
                .get_or_insert(BuildError::UnbalancedTransaction { thread });
        }
        Ok(())
    }

    /// Points the jump at `at` past the code emitted so far.
    fn patch(&mut self, at: usize) {
        let end = self.code.len();
        match &mut self.code[at] {
            Instr::Jump(t) | Instr::JumpIfZero(_, t) => *t = end,
            _ => unreachable!("patch target is always a jump"),
        }
    }

    /// The checks of one statement that do not depend on where it sits.
    fn validate(&self, s: &Stmt) -> Result<(), BuildError> {
        let thread = self.thread;
        if stmt_exprs(s)
            .into_iter()
            .flatten()
            .any(Expr::mentions_shared)
        {
            return Err(BuildError::SharedExprInThreadBody { thread });
        }
        if let Some(object) = self.builder.unknown_object(s) {
            return Err(BuildError::UnknownObject { thread, object });
        }
        let unknown = |target: &ThreadId| BuildError::UnknownObject {
            thread,
            object: target.to_string(),
        };
        match s {
            Stmt::Spawn(target) => match self.auto_flags.get(target.index()) {
                Some(true) => Err(BuildError::SpawnOfAutoStartThread {
                    thread,
                    target: *target,
                }),
                Some(false) => Ok(()),
                None => Err(unknown(target)),
            },
            Stmt::Join(target) if target.index() >= self.auto_flags.len() => Err(unknown(target)),
            _ => Ok(()),
        }
    }
}

/// Transaction bracketing, one statement of `thread` at a time: within
/// every block, `TxBegin` and `TxCommit` must pair up without nesting,
/// and inside a transaction no blocking synchronization may appear
/// (nested control flow is allowed as long as it is transaction-free and
/// synchronization-free). `depth` is 1 inside a transaction.
fn tx_step(s: &Stmt, depth: &mut usize, thread: ThreadId) -> Option<BuildError> {
    let unbalanced = Some(BuildError::UnbalancedTransaction { thread });
    match s {
        Stmt::TxBegin => {
            if *depth > 0 {
                return unbalanced;
            }
            *depth = 1;
        }
        Stmt::TxCommit => {
            if *depth == 0 {
                return unbalanced;
            }
            *depth = 0;
        }
        Stmt::TxRetry if *depth == 0 => return unbalanced,
        Stmt::Lock(_)
        | Stmt::Unlock(_)
        | Stmt::TryLock { .. }
        | Stmt::RwRead(_)
        | Stmt::RwWrite(_)
        | Stmt::RwUnlock(_)
        | Stmt::Wait { .. }
        | Stmt::Signal(_)
        | Stmt::Broadcast(_)
        | Stmt::SemAcquire(_)
        | Stmt::SemRelease(_)
        | Stmt::Spawn(_)
        | Stmt::Join(_)
            if *depth > 0 =>
        {
            return Some(BuildError::SyncInsideTransaction { thread });
        }
        _ => {}
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_rejects_empty_program() {
        assert_eq!(
            ProgramBuilder::new("e").build().unwrap_err(),
            BuildError::NoThreads
        );
    }

    #[test]
    fn build_rejects_shared_expr_in_body() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread("t", vec![Stmt::write(v, Expr::shared(v))]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SharedExprInThreadBody { .. }
        ));
    }

    #[test]
    fn build_rejects_shared_expr_in_nested_body() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread(
            "t",
            vec![Stmt::if_then(
                Expr::lit(1),
                vec![Stmt::assert(Expr::shared(v).eq(Expr::lit(0)), "x")],
            )],
        );
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SharedExprInThreadBody { .. }
        ));
    }

    #[test]
    fn build_allows_shared_in_final_assert() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread("t", vec![Stmt::write(v, 1)]);
        b.final_assert(Expr::shared(v).eq(Expr::lit(1)), "v set");
        assert!(b.build().is_ok());
    }

    #[test]
    fn build_rejects_unknown_objects() {
        let mut b = ProgramBuilder::new("p");
        b.thread("t", vec![Stmt::read(VarId::from_index(9), "x")]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnknownObject { .. }
        ));

        let mut b = ProgramBuilder::new("p");
        b.thread("t", vec![Stmt::lock(MutexId::from_index(0))]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnknownObject { .. }
        ));
    }

    #[test]
    fn build_rejects_spawn_of_auto_thread() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        let t1 = b.thread("a", vec![Stmt::write(v, 1)]);
        b.thread("b", vec![Stmt::Spawn(t1)]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SpawnOfAutoStartThread { .. }
        ));
    }

    #[test]
    fn build_accepts_spawn_of_deferred_thread() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        let child = b.thread_deferred("child", vec![Stmt::write(v, 1)]);
        b.thread("parent", vec![Stmt::Spawn(child), Stmt::Join(child)]);
        let p = b.build().unwrap();
        assert!(!p.threads()[child.index()].auto_start());
    }

    #[test]
    fn tx_validation() {
        // Unbalanced: commit without begin.
        let mut b = ProgramBuilder::new("p");
        b.thread("t", vec![Stmt::TxCommit]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnbalancedTransaction { .. }
        ));

        // Unbalanced: begin never committed.
        let mut b = ProgramBuilder::new("p");
        b.thread("t", vec![Stmt::TxBegin]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnbalancedTransaction { .. }
        ));

        // Nested.
        let mut b = ProgramBuilder::new("p");
        b.thread(
            "t",
            vec![Stmt::TxBegin, Stmt::TxBegin, Stmt::TxCommit, Stmt::TxCommit],
        );
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnbalancedTransaction { .. }
        ));

        // Lock inside tx.
        let mut b = ProgramBuilder::new("p");
        let m = b.mutex();
        b.thread("t", vec![Stmt::TxBegin, Stmt::lock(m), Stmt::TxCommit]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SyncInsideTransaction { .. }
        ));

        // Lock inside an If inside tx.
        let mut b = ProgramBuilder::new("p");
        let m = b.mutex();
        b.thread(
            "t",
            vec![
                Stmt::TxBegin,
                Stmt::if_then(Expr::lit(1), vec![Stmt::lock(m)]),
                Stmt::TxCommit,
            ],
        );
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::SyncInsideTransaction { .. }
        ));

        // A whole tx inside an If is fine.
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread(
            "t",
            vec![Stmt::if_then(
                Expr::lit(1),
                vec![Stmt::TxBegin, Stmt::write(v, 1), Stmt::TxCommit],
            )],
        );
        assert!(b.build().is_ok());
    }

    /// The code `stmts` compiles to, as the one thread of a program with
    /// one variable.
    fn compile(stmts: Vec<Stmt>) -> Vec<Instr> {
        let mut b = ProgramBuilder::new("layout");
        b.var("v", 0);
        b.thread("t", stmts);
        b.build().unwrap().threads()[0].code().to_vec()
    }

    #[test]
    fn compile_if_else_layout() {
        let v = VarId::from_index(0);
        let stmts = vec![Stmt::if_else(
            Expr::local("c"),
            vec![Stmt::write(v, 1)],
            vec![Stmt::write(v, 2)],
        )];
        let code = compile(stmts);
        // JumpIfZero -> else; write 1; Jump -> end; write 2
        assert_eq!(code.len(), 4);
        assert!(matches!(code[0], Instr::JumpIfZero(_, 3)));
        assert!(matches!(code[2], Instr::Jump(4)));
    }

    #[test]
    fn compile_while_layout() {
        let v = VarId::from_index(0);
        let stmts = vec![Stmt::while_loop(Expr::local("c"), vec![Stmt::write(v, 1)])];
        let code = compile(stmts);
        // 0: JumpIfZero -> 3; 1: write; 2: Jump -> 0
        assert_eq!(code.len(), 3);
        assert!(matches!(code[0], Instr::JumpIfZero(_, 3)));
        assert!(matches!(code[2], Instr::Jump(0)));
    }

    #[test]
    fn static_visible_ops_counts_ops_only() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread(
            "t",
            vec![
                Stmt::local("i", 0),
                Stmt::while_loop(
                    Expr::local("i").lt(Expr::lit(3)),
                    vec![
                        Stmt::read(v, "x"),
                        Stmt::local("i", Expr::local("i") + Expr::lit(1)),
                    ],
                ),
            ],
        );
        let p = b.build().unwrap();
        assert_eq!(p.static_visible_ops(), 1);
    }

    #[test]
    fn build_rejects_more_than_64_threads() {
        let mut b = ProgramBuilder::new("wide");
        let v = b.var("v", 0);
        for _ in 0..64 {
            b.thread("t", vec![Stmt::write(v, 1)]);
        }
        let mut wider = ProgramBuilder::new("wider");
        let v = wider.var("v", 0);
        for _ in 0..65 {
            wider.thread("t", vec![Stmt::write(v, 1)]);
        }
        assert_eq!(b.build().unwrap().n_threads(), 64);
        assert_eq!(
            wider.build().unwrap_err(),
            BuildError::TooManyThreads { threads: 65 }
        );
    }

    #[test]
    fn build_rejects_a_thread_naming_more_than_64_locals() {
        let mut b = ProgramBuilder::new("p");
        let names =
            (0..65).map(|i| -> &'static str { Box::leak(format!("l{i}").into_boxed_str()) });
        b.thread("t", names.map(|name| Stmt::local(name, 1)).collect());
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::TooManyLocals {
                thread: ThreadId::from_index(0)
            }
        );
    }

    #[test]
    fn object_errors_outrank_an_earlier_bracketing_error() {
        // One walk finds the bracketing error first; it is reported only
        // when the body has no other error.
        let mut b = ProgramBuilder::new("p");
        b.thread(
            "t",
            vec![Stmt::TxCommit, Stmt::read(VarId::from_index(3), "x")],
        );
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnknownObject { .. }
        ));
    }

    #[test]
    fn thread_lookup_by_name() {
        let mut b = ProgramBuilder::new("p");
        let v = b.var("v", 0);
        b.thread("alpha", vec![Stmt::write(v, 1)]);
        b.thread("beta", vec![Stmt::write(v, 2)]);
        let p = b.build().unwrap();
        assert_eq!(p.thread_by_name("beta"), Some(ThreadId::from_index(1)));
        assert_eq!(p.thread_by_name("gamma"), None);
        assert_eq!(p.var_name(v), "v");
        assert_eq!(p.var_init(), &[0]);
    }
}
