//! Pseudo-code rendering of programs.
//!
//! The study's figures are annotated code excerpts of the buggy regions.
//! [`pseudocode`] renders a [`Program`] in that style — C-flavoured
//! pseudo-code with resolved object names — so the harness can print a
//! kernel the way the paper prints a figure.

use std::fmt::Write as _;

use crate::expr::Expr;
use crate::program::Program;
use crate::stmt::{RmwOp, Stmt};

/// Renders a whole program as pseudo-code.
pub fn pseudocode(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// program: {}", program.name());
    let mut decls: Vec<String> = Vec::new();
    for i in 0..program.n_vars() {
        let var = crate::ids::VarId::from_index(i);
        decls.push(format!(
            "int {} = {};",
            program.var_name(var),
            program.var_init()[i]
        ));
    }
    for i in 0..program.n_mutexes() {
        decls.push(format!("mutex m{i};"));
    }
    for i in 0..program.n_conds() {
        decls.push(format!("cond c{i};"));
    }
    for i in 0..program.n_rws() {
        decls.push(format!("rwlock rw{i};"));
    }
    for (i, init) in program.sem_init().iter().enumerate() {
        decls.push(format!("semaphore s{i} = {init};"));
    }
    if !decls.is_empty() {
        let _ = writeln!(out, "{}", decls.join("\n"));
    }
    for thread in program.threads() {
        let _ = writeln!(
            out,
            "\nthread {}() {{{}",
            thread.name(),
            if thread.auto_start() {
                ""
            } else {
                "  // deferred"
            }
        );
        render_block(program, thread.body(), 1, &mut out);
        let _ = writeln!(out, "}}");
    }
    for (cond, msg) in program.final_asserts() {
        let cond = named(program, cond);
        let _ = writeln!(out, "\nfinal_assert({cond});  // {msg}");
    }
    out
}

/// `expr` with each shared variable shown by its name, as the thread
/// bodies show it.
fn named(program: &Program, expr: &Expr) -> Expr {
    let boxed = |e| Box::new(named(program, e));
    match expr {
        Expr::Shared(var) => Expr::local(program.var_name(*var)),
        Expr::Bin(op, l, r) => Expr::Bin(*op, boxed(l), boxed(r)),
        Expr::Un(op, e) => Expr::Un(*op, boxed(e)),
        Expr::Lit(_) | Expr::Local(_) => expr.clone(),
    }
}

fn indent(depth: usize) -> String {
    "    ".repeat(depth)
}

fn render_block(program: &Program, block: &[Stmt], depth: usize, out: &mut String) {
    for stmt in block {
        render_stmt(program, stmt, depth, out);
    }
}

fn render_stmt(program: &Program, stmt: &Stmt, depth: usize, out: &mut String) {
    let pad = indent(depth);
    let var_name = |v: &crate::ids::VarId| program.var_name(*v);
    match stmt {
        Stmt::Read { var, into } => {
            let _ = writeln!(out, "{pad}{into} = {};", var_name(var));
        }
        Stmt::Write { var, value } => {
            let _ = writeln!(out, "{pad}{} = {value};", var_name(var));
        }
        Stmt::Rmw {
            var,
            op,
            operand,
            into,
        } => {
            let call = match op {
                RmwOp::FetchAdd => format!("fetch_add(&{}, {operand})", var_name(var)),
                RmwOp::FetchSub => format!("fetch_sub(&{}, {operand})", var_name(var)),
                RmwOp::Exchange => format!("exchange(&{}, {operand})", var_name(var)),
                RmwOp::FetchMax => format!("fetch_max(&{}, {operand})", var_name(var)),
                RmwOp::FetchMin => format!("fetch_min(&{}, {operand})", var_name(var)),
            };
            match into {
                Some(into) => {
                    let _ = writeln!(out, "{pad}{into} = {call};");
                }
                None => {
                    let _ = writeln!(out, "{pad}{call};");
                }
            }
        }
        Stmt::Cas {
            var,
            expected,
            new,
            into,
            ..
        } => {
            let _ = writeln!(
                out,
                "{pad}{into} = cas(&{}, {expected}, {new});",
                var_name(var)
            );
        }
        Stmt::Lock(m) => {
            let _ = writeln!(out, "{pad}lock({m});");
        }
        Stmt::Unlock(m) => {
            let _ = writeln!(out, "{pad}unlock({m});");
        }
        Stmt::TryLock { mutex, into } => {
            let _ = writeln!(out, "{pad}{into} = try_lock({mutex});");
        }
        Stmt::RwRead(rw) => {
            let _ = writeln!(out, "{pad}read_lock({rw});");
        }
        Stmt::RwWrite(rw) => {
            let _ = writeln!(out, "{pad}write_lock({rw});");
        }
        Stmt::RwUnlock(rw) => {
            let _ = writeln!(out, "{pad}rw_unlock({rw});");
        }
        Stmt::Wait { cond, mutex } => {
            let _ = writeln!(out, "{pad}wait({cond}, {mutex});");
        }
        Stmt::Signal(c) => {
            let _ = writeln!(out, "{pad}signal({c});");
        }
        Stmt::Broadcast(c) => {
            let _ = writeln!(out, "{pad}broadcast({c});");
        }
        Stmt::SemAcquire(s) => {
            let _ = writeln!(out, "{pad}sem_acquire({s});");
        }
        Stmt::SemRelease(s) => {
            let _ = writeln!(out, "{pad}sem_release({s});");
        }
        Stmt::Spawn(t) => {
            let _ = writeln!(out, "{pad}spawn({});", program.threads()[t.index()].name());
        }
        Stmt::Join(t) => {
            let _ = writeln!(out, "{pad}join({});", program.threads()[t.index()].name());
        }
        Stmt::LocalSet { name, value } => {
            let _ = writeln!(out, "{pad}{name} = {value};");
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let _ = writeln!(out, "{pad}if ({cond}) {{");
            render_block(program, then_branch, depth + 1, out);
            if else_branch.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                render_block(program, else_branch, depth + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::While { cond, body } => {
            let _ = writeln!(out, "{pad}while ({cond}) {{");
            render_block(program, body, depth + 1, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Assert { cond, msg } => {
            let _ = writeln!(out, "{pad}assert({cond});  // {msg}");
        }
        Stmt::Io { tag } => {
            let _ = writeln!(out, "{pad}io(\"{tag}\");");
        }
        Stmt::TxBegin => {
            let _ = writeln!(out, "{pad}atomic {{");
        }
        Stmt::TxCommit => {
            let _ = writeln!(out, "{pad}}} // commit");
        }
        Stmt::TxRetry => {
            let _ = writeln!(out, "{pad}retry;");
        }
        Stmt::Yield => {
            let _ = writeln!(out, "{pad}yield();");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn renders_the_racy_counter_readably() {
        let mut b = ProgramBuilder::new("racy");
        let v = b.var("counter", 0);
        let m = b.mutex();
        b.thread(
            "worker",
            vec![
                Stmt::lock(m),
                Stmt::read(v, "tmp"),
                Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                Stmt::unlock(m),
            ],
        );
        b.final_assert(Expr::shared(v).eq(Expr::lit(1)), "kept");
        let p = b.build().unwrap();
        let code = pseudocode(&p);
        for needle in [
            "// program: racy",
            "int counter = 0;",
            "mutex m0;",
            "thread worker() {",
            "lock(m0);",
            "tmp = counter;",
            "counter = (tmp + 1);",
            "unlock(m0);",
            "final_assert((counter == 1));  // kept",
        ] {
            assert!(code.contains(needle), "missing {needle:?} in:\n{code}");
        }
    }

    #[test]
    fn renders_control_flow_and_transactions() {
        let mut b = ProgramBuilder::new("tx");
        let v = b.var("x", 0);
        b.thread(
            "t",
            vec![
                Stmt::TxBegin,
                Stmt::read(v, "a"),
                Stmt::if_else(
                    Expr::local("a").eq(Expr::lit(0)),
                    vec![Stmt::TxRetry],
                    vec![Stmt::write(v, 2)],
                ),
                Stmt::TxCommit,
                Stmt::while_loop(Expr::local("a").lt(Expr::lit(1)), vec![Stmt::Yield]),
            ],
        );
        let p = b.build().unwrap();
        let code = pseudocode(&p);
        for needle in [
            "atomic {",
            "retry;",
            "} else {",
            "while ((a < 1)) {",
            "yield();",
            "} // commit",
        ] {
            assert!(code.contains(needle), "missing {needle:?} in:\n{code}");
        }
    }

    #[test]
    fn renders_sync_objects_and_threads() {
        let mut b = ProgramBuilder::new("sync");
        let v = b.var("x", 0);
        let c = b.cond();
        let m = b.mutex();
        let s = b.semaphore(2);
        let rw = b.rwlock();
        let child = b.thread_deferred("child", vec![Stmt::fetch_add(v, 1)]);
        b.thread(
            "parent",
            vec![
                Stmt::Spawn(child),
                Stmt::lock(m),
                Stmt::Wait { cond: c, mutex: m },
                Stmt::unlock(m),
                Stmt::SemAcquire(s),
                Stmt::RwRead(rw),
                Stmt::RwUnlock(rw),
                Stmt::SemRelease(s),
                Stmt::Join(child),
                Stmt::io("flush"),
            ],
        );
        let p = b.build().unwrap();
        let code = pseudocode(&p);
        for needle in [
            "semaphore s0 = 2;",
            "rwlock rw0;",
            "// deferred",
            "spawn(child);",
            "wait(c0, m0);",
            "sem_acquire(s0);",
            "read_lock(rw0);",
            "join(child);",
            "io(\"flush\");",
            "fetch_add(&x, 1);",
        ] {
            assert!(code.contains(needle), "missing {needle:?} in:\n{code}");
        }
    }
}
