//! Lowered thread code: what [`crate::ProgramBuilder::build`] compiles
//! each thread body into, once, and what the executor steps on.
//!
//! A thread's locals become dense slots, numbered in the order the body
//! first names them. Names match by content, so a name built at run time
//! and a literal share one slot. An expression becomes one operator over
//! two leaves, stored inline; only an operator with a deeper operand
//! takes a box, so a guard like `won == 0 && attempts < 3` is one box
//! over two inline comparisons. A step then reads a local by index,
//! evaluates without a name compare, and a thread's locals are a
//! fixed-size table plus a mask of the slots written so far.

use crate::error::BuildError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::ids::{CondId, MutexId, RwId, SemId, ThreadId, VarId};
use crate::statehash::Fnv;
use crate::stmt::{RmwOp, Stmt};

/// Locals one thread may name: [`Locals`] keeps one written bit per
/// slot in a `u64`.
pub(crate) const MAX_LOCALS: usize = 64;

/// A thread's local register: an index into its [`SlotTable`].
pub(crate) type Slot = u8;

/// One thread's local names by slot, each with the fingerprint prefix
/// its entries hash from: the `Fnv` state after the name's bytes and
/// `0xff`. A written local hashes as its seed followed by its value, so
/// a state key depends on local names and values, never on slot numbers.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotTable(Vec<(&'static str, Fnv)>);

impl SlotTable {
    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Fingerprint prefix of `slot`'s entries.
    #[inline]
    pub(crate) fn seed(&self, slot: usize) -> Fnv {
        self.0[slot].1
    }

    /// The slot named `name`, added on first mention; `None` past
    /// [`MAX_LOCALS`].
    fn slot(&mut self, name: &'static str) -> Option<Slot> {
        if let Some(slot) = self.0.iter().position(|&(n, _)| n == name) {
            return Some(slot as Slot);
        }
        if self.0.len() == MAX_LOCALS {
            return None;
        }
        let seed = Fnv::new().bytes(name.as_bytes()).byte(0xff);
        self.0.push((name, seed));
        Some((self.0.len() - 1) as Slot)
    }
}

/// An operand: a constant or a local.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Leaf {
    Lit(i64),
    Local(Slot),
}

impl Leaf {
    #[inline]
    fn get(self, locals: &Locals) -> i64 {
        match self {
            Leaf::Lit(v) => v,
            Leaf::Local(slot) => locals.get(slot),
        }
    }
}

/// A lowered expression over one thread's locals.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Code {
    Leaf(Leaf),
    Un(UnOp, Leaf),
    /// `leaf op leaf`: `tmp + 1`, `r == 0` and most conditions.
    Bin(BinOp, Leaf, Leaf),
    /// A unary operator over a deeper operand.
    DeepUn(Box<(UnOp, Code)>),
    /// An operator with a deeper operand: one box per such node.
    Deep(Box<(BinOp, Code, Code)>),
}

impl Code {
    /// The expression's value over `locals`. The recursion is as deep
    /// as the boxed nodes, like `Expr::eval`'s.
    #[inline]
    pub(crate) fn eval(&self, locals: &Locals) -> i64 {
        match self {
            Code::Leaf(leaf) => leaf.get(locals),
            Code::Un(op, leaf) => op.apply(leaf.get(locals)),
            Code::Bin(op, a, b) => op.apply(a.get(locals), b.get(locals)),
            Code::DeepUn(node) => node.0.apply(node.1.eval(locals)),
            Code::Deep(node) => {
                let (op, a, b) = &**node;
                op.apply(a.eval(locals), b.eval(locals))
            }
        }
    }
}

/// A lowered visible operation: a [`Stmt`] with its registers as slots
/// and its expressions as [`Code`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    Read {
        var: VarId,
        into: Slot,
    },
    Write {
        var: VarId,
        value: Code,
    },
    Rmw {
        var: VarId,
        op: RmwOp,
        operand: Code,
        into: Option<Slot>,
    },
    Cas {
        var: VarId,
        expected: Code,
        new: Code,
        into: Slot,
        observed_into: Option<Slot>,
    },
    Lock(MutexId),
    Unlock(MutexId),
    TryLock {
        mutex: MutexId,
        into: Slot,
    },
    RwRead(RwId),
    RwWrite(RwId),
    RwUnlock(RwId),
    Wait {
        cond: CondId,
        mutex: MutexId,
    },
    Signal(CondId),
    Broadcast(CondId),
    SemAcquire(SemId),
    SemRelease(SemId),
    Spawn(ThreadId),
    Join(ThreadId),
    Assert {
        cond: Code,
        msg: &'static str,
    },
    Io {
        tag: &'static str,
    },
    TxBegin,
    TxRetry,
    TxCommit,
    Yield,
}

impl Op {
    /// `true` for an op that writes no sync object and no other
    /// thread's state. Every thread's enabled bit reads only sync
    /// objects and thread states, so after such a step only the
    /// stepping thread's own bit can change, while it stays `Ready`.
    /// (A join reads its target's status and writes nothing.)
    pub(crate) fn is_thread_local(&self) -> bool {
        matches!(
            self,
            Op::Read { .. }
                | Op::Write { .. }
                | Op::Rmw { .. }
                | Op::Cas { .. }
                | Op::Join(_)
                | Op::Assert { .. }
                | Op::Io { .. }
                | Op::TxBegin
                | Op::TxRetry
                | Op::TxCommit
                | Op::Yield
        )
    }
}

/// A flat instruction, produced by compiling a statement tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Instr {
    /// A visible operation.
    Op(Op),
    /// Set a local register. Purely local.
    LocalSet { slot: Slot, value: Code },
    /// Unconditional jump. Purely local.
    Jump(usize),
    /// Jump when the condition evaluates to zero. Purely local.
    JumpIfZero(Code, usize),
}

/// Lowers one thread's statements and expressions, growing its slot
/// table as names appear.
#[derive(Debug)]
pub(crate) struct Lower {
    thread: ThreadId,
    slots: SlotTable,
}

impl Lower {
    pub(crate) fn new(thread: ThreadId) -> Lower {
        Lower {
            thread,
            slots: SlotTable::default(),
        }
    }

    /// The slot table grown so far.
    pub(crate) fn into_slots(self) -> SlotTable {
        self.slots
    }

    pub(crate) fn slot(&mut self, name: &'static str) -> Result<Slot, BuildError> {
        let thread = self.thread;
        (self.slots.slot(name)).ok_or(BuildError::TooManyLocals { thread })
    }

    fn slot_opt(&mut self, name: Option<&'static str>) -> Result<Option<Slot>, BuildError> {
        name.map(|name| self.slot(name)).transpose()
    }

    /// Lowers an expression of the thread's body, naming its locals left
    /// to right.
    pub(crate) fn expr(&mut self, e: &Expr) -> Result<Code, BuildError> {
        Ok(match e {
            Expr::Lit(v) => Code::Leaf(Leaf::Lit(*v)),
            Expr::Local(name) => Code::Leaf(Leaf::Local(self.slot(name)?)),
            Expr::Shared(_) => {
                let thread = self.thread;
                return Err(BuildError::SharedExprInThreadBody { thread });
            }
            Expr::Un(op, x) => match self.expr(x)? {
                Code::Leaf(x) => Code::Un(*op, x),
                x => Code::DeepUn(Box::new((*op, x))),
            },
            Expr::Bin(op, a, b) => match (self.expr(a)?, self.expr(b)?) {
                (Code::Leaf(a), Code::Leaf(b)) => Code::Bin(*op, a, b),
                (a, b) => Code::Deep(Box::new((*op, a, b))),
            },
        })
    }

    /// Lowers a visible statement. `None` for the local ones
    /// ([`Stmt::is_local`]), which compile to jumps and local sets.
    pub(crate) fn op(&mut self, s: &Stmt) -> Result<Option<Op>, BuildError> {
        Ok(Some(match s {
            Stmt::Read { var, into } => Op::Read {
                var: *var,
                into: self.slot(into)?,
            },
            Stmt::Write { var, value } => Op::Write {
                var: *var,
                value: self.expr(value)?,
            },
            Stmt::Rmw {
                var,
                op,
                operand,
                into,
            } => Op::Rmw {
                var: *var,
                op: *op,
                operand: self.expr(operand)?,
                into: self.slot_opt(*into)?,
            },
            Stmt::Cas {
                var,
                expected,
                new,
                into,
                observed_into,
            } => Op::Cas {
                var: *var,
                expected: self.expr(expected)?,
                new: self.expr(new)?,
                into: self.slot(into)?,
                observed_into: self.slot_opt(*observed_into)?,
            },
            Stmt::Lock(m) => Op::Lock(*m),
            Stmt::Unlock(m) => Op::Unlock(*m),
            Stmt::TryLock { mutex, into } => Op::TryLock {
                mutex: *mutex,
                into: self.slot(into)?,
            },
            Stmt::RwRead(rw) => Op::RwRead(*rw),
            Stmt::RwWrite(rw) => Op::RwWrite(*rw),
            Stmt::RwUnlock(rw) => Op::RwUnlock(*rw),
            Stmt::Wait { cond, mutex } => Op::Wait {
                cond: *cond,
                mutex: *mutex,
            },
            Stmt::Signal(c) => Op::Signal(*c),
            Stmt::Broadcast(c) => Op::Broadcast(*c),
            Stmt::SemAcquire(s) => Op::SemAcquire(*s),
            Stmt::SemRelease(s) => Op::SemRelease(*s),
            Stmt::Spawn(t) => Op::Spawn(*t),
            Stmt::Join(t) => Op::Join(*t),
            Stmt::Assert { cond, msg } => Op::Assert {
                cond: self.expr(cond)?,
                msg,
            },
            Stmt::Io { tag } => Op::Io { tag },
            Stmt::TxBegin => Op::TxBegin,
            Stmt::TxRetry => Op::TxRetry,
            Stmt::TxCommit => Op::TxCommit,
            Stmt::Yield => Op::Yield,
            Stmt::LocalSet { .. } | Stmt::If { .. } | Stmt::While { .. } => return Ok(None),
        }))
    }
}

/// Slots a thread's [`Locals`] hold without a heap allocation; a thread
/// naming more spills its values to the heap.
const INLINE_LOCALS: usize = 4;

/// A thread's local values by slot, and which slots were ever written.
/// An unwritten slot reads 0, like C static storage, and stays out of
/// the state key.
#[derive(Debug, Clone, Hash)]
pub(crate) struct Locals {
    written: u64,
    values: Values,
}

#[derive(Debug, Clone, Hash)]
enum Values {
    Inline([i64; INLINE_LOCALS]),
    Spilled(Box<[i64]>),
}

impl Default for Locals {
    fn default() -> Locals {
        Locals::new(0)
    }
}

impl Locals {
    /// Unwritten locals for a thread with `slots` slots.
    pub(crate) fn new(slots: usize) -> Locals {
        let values = if slots <= INLINE_LOCALS {
            Values::Inline([0; INLINE_LOCALS])
        } else {
            Values::Spilled(vec![0; slots].into_boxed_slice())
        };
        Locals { written: 0, values }
    }

    fn values(&self) -> &[i64] {
        match &self.values {
            Values::Inline(values) => values,
            Values::Spilled(values) => values,
        }
    }

    /// The value of `slot`: 0 until written.
    #[inline]
    pub(crate) fn get(&self, slot: Slot) -> i64 {
        self.values()[usize::from(slot)]
    }

    /// Writes `slot`.
    #[inline]
    pub(crate) fn set(&mut self, slot: Slot, value: i64) {
        let values = match &mut self.values {
            Values::Inline(values) => &mut values[..],
            Values::Spilled(values) => &mut values[..],
        };
        values[usize::from(slot)] = value;
        self.written |= 1 << slot;
    }

    /// Number of distinct slots written.
    pub(crate) fn len(&self) -> usize {
        self.written.count_ones() as usize
    }

    /// The written slots and their values, by slot.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        let values = self.values();
        let mut rest = self.written;
        std::iter::from_fn(move || {
            let slot = rest.trailing_zeros() as usize;
            rest &= rest.checked_sub(1)?;
            Some((slot, values[slot]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(e: &Expr) -> (Code, SlotTable) {
        let mut lower = Lower::new(ThreadId::from_index(0));
        let code = lower.expr(e).expect("lowers");
        (code, lower.into_slots())
    }

    #[test]
    fn names_match_by_content_across_allocations() {
        // A name built at run time is never pointer-equal to the literal.
        let leaked: &'static str = Box::leak(String::from("tmp").into_boxed_str());
        let mut lower = Lower::new(ThreadId::from_index(0));
        let literal = lower.slot("tmp").unwrap();
        assert_eq!(lower.slot(leaked).unwrap(), literal);
        assert_eq!(lower.slot("other").unwrap(), literal + 1);
        let slots = lower.into_slots();
        assert_eq!(slots.len(), 2);
        let seed = Fnv::new().bytes(b"tmp").byte(0xff);
        assert_eq!(slots.seed(0).i64(5).finish(), seed.i64(5).finish());
    }

    #[test]
    fn a_thread_names_at_most_max_locals() {
        let mut lower = Lower::new(ThreadId::from_index(3));
        for i in 0..MAX_LOCALS {
            let name: &'static str = Box::leak(format!("l{i}").into_boxed_str());
            assert_eq!(lower.slot(name).unwrap(), i as Slot);
        }
        assert_eq!(lower.slot("l0").unwrap(), 0, "a known name still resolves");
        assert_eq!(
            lower.slot("one_more"),
            Err(BuildError::TooManyLocals {
                thread: ThreadId::from_index(3)
            })
        );
    }

    #[test]
    fn shallow_expressions_lower_inline() {
        let (code, _) = lower(&(Expr::local("tmp") + Expr::lit(1)));
        assert_eq!(code, Code::Bin(BinOp::Add, Leaf::Local(0), Leaf::Lit(1)));
        let (code, _) = lower(&Expr::local("r").not());
        assert_eq!(code, Code::Un(UnOp::Not, Leaf::Local(0)));
        let (code, _) = lower(&Expr::lit(7));
        assert_eq!(code, Code::Leaf(Leaf::Lit(7)));
    }

    #[test]
    fn a_deeper_operator_takes_one_box_over_inline_operands() {
        let guard = Expr::local("won")
            .eq(Expr::lit(0))
            .and(Expr::local("attempts").lt(Expr::lit(3)));
        let (code, _) = lower(&guard);
        let won_is_0 = Code::Bin(BinOp::Eq, Leaf::Local(0), Leaf::Lit(0));
        let attempts_lt_3 = Code::Bin(BinOp::Lt, Leaf::Local(1), Leaf::Lit(3));
        assert_eq!(
            code,
            Code::Deep(Box::new((BinOp::And, won_is_0, attempts_lt_3)))
        );
        let (code, _) = lower(&(Expr::local("a") + Expr::lit(1)).not());
        let sum = Code::Bin(BinOp::Add, Leaf::Local(0), Leaf::Lit(1));
        assert_eq!(code, Code::DeepUn(Box::new((UnOp::Not, sum))));
    }

    #[test]
    fn lowered_code_evaluates_as_the_tree_does() {
        let (a, b) = (Expr::local("a"), Expr::local("b"));
        let exprs = [
            (a.clone() + Expr::lit(1)).eq(b.clone() * Expr::lit(2)),
            (-(a.clone() - b.clone())).max(Expr::lit(3) % a.clone()),
            a.clone()
                .lt(b.clone())
                .and(b.clone().ne(Expr::lit(0)).not()),
            (a.clone() / Expr::lit(0)).or(b.clone().ge(a.clone()).min(Expr::lit(1))),
            -(a.clone()),
        ];
        for e in &exprs {
            let (code, slots) = lower(e);
            for (va, vb) in [(0, 0), (3, -2), (-7, 5), (i64::MAX, 1)] {
                let mut locals = Locals::new(slots.len());
                locals.set(0, va);
                if slots.len() > 1 {
                    locals.set(1, vb);
                }
                let by_name = |name: &str| if name == "a" { va } else { vb };
                let tree = e.eval(&|name| by_name(name), &|_| unreachable!());
                assert_eq!(code.eval(&locals), tree, "{e} at a={va}, b={vb}");
            }
        }
    }

    #[test]
    fn shared_reads_are_a_build_error() {
        let mut lower = Lower::new(ThreadId::from_index(1));
        let e = Expr::lit(1) + (Expr::local("x") * Expr::shared(VarId::from_index(0)));
        assert_eq!(
            lower.expr(&e),
            Err(BuildError::SharedExprInThreadBody {
                thread: ThreadId::from_index(1)
            })
        );
    }

    #[test]
    fn locals_read_zero_until_written_inline_or_spilled() {
        for slots in [2, INLINE_LOCALS + 3] {
            let mut locals = Locals::new(slots);
            assert_eq!((locals.get(1), locals.len()), (0, 0));
            locals.set(1, 9);
            locals.set(0, 4);
            locals.set(1, 5);
            assert_eq!((locals.get(0), locals.get(1), locals.len()), (4, 5, 2));
            assert_eq!(locals.iter().collect::<Vec<_>>(), [(0, 4), (1, 5)]);
        }
    }
}
