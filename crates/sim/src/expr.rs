//! Pure expressions over thread-local registers.
//!
//! Expressions never touch shared memory when evaluated inside a thread
//! body — shared reads are explicit [`crate::Stmt::Read`] statements so
//! that every memory access is a distinct scheduling point, exactly like a
//! load instruction in the original study's native programs. The single
//! exception is [`Expr::Shared`], which is only legal inside *final
//! assertions* (evaluated after all threads have terminated, where no race
//! is possible); [`crate::ProgramBuilder::build`] rejects thread bodies
//! containing it.

use std::fmt;
use std::ops;

use crate::ids::VarId;

/// A side-effect-free integer expression.
///
/// Values are `i64`. Booleans are encoded as `0` / `1` (any non-zero value
/// is truthy), matching the C programs the studied bugs came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal constant.
    Lit(i64),
    /// The value of a thread-local register. Reading a register that was
    /// never written evaluates to `0`, like C static storage.
    Local(&'static str),
    /// The value of a shared variable. **Only legal in final assertions.**
    Shared(VarId),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical/arithmetic negation.
    Un(UnOp, Box<Expr>),
}

/// Binary operators available in [`Expr::Bin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Truncating division; division by zero evaluates to `0` (the studied
    /// kernels never rely on it, and a deterministic total semantics keeps
    /// exploration simple).
    Div,
    /// Remainder; remainder by zero evaluates to `0`.
    Rem,
    /// Equality, producing `0`/`1`.
    Eq,
    /// Inequality, producing `0`/`1`.
    Ne,
    /// Less-than, producing `0`/`1`.
    Lt,
    /// Less-or-equal, producing `0`/`1`.
    Le,
    /// Greater-than, producing `0`/`1`.
    Gt,
    /// Greater-or-equal, producing `0`/`1`.
    Ge,
    /// Logical AND over truthiness, producing `0`/`1`.
    And,
    /// Logical OR over truthiness, producing `0`/`1`.
    Or,
    /// Minimum of the operands.
    Min,
    /// Maximum of the operands.
    Max,
}

/// Unary operators available in [`Expr::Un`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT over truthiness, producing `0`/`1`.
    Not,
}

impl Expr {
    /// A literal constant.
    pub fn lit(value: i64) -> Expr {
        Expr::Lit(value)
    }

    /// The value of a thread-local register.
    pub fn local(name: &'static str) -> Expr {
        Expr::Local(name)
    }

    /// The value of a shared variable (final assertions only).
    pub fn shared(var: VarId) -> Expr {
        Expr::Shared(var)
    }

    fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// `self == rhs`, producing `0`/`1`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, rhs)
    }

    /// `self != rhs`, producing `0`/`1`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Ne, self, rhs)
    }

    /// `self < rhs`, producing `0`/`1`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, rhs)
    }

    /// `self <= rhs`, producing `0`/`1`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Le, self, rhs)
    }

    /// `self > rhs`, producing `0`/`1`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Gt, self, rhs)
    }

    /// `self >= rhs`, producing `0`/`1`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Ge, self, rhs)
    }

    /// Logical AND over truthiness.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::And, self, rhs)
    }

    /// Logical OR over truthiness.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Or, self, rhs)
    }

    /// Logical NOT over truthiness.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Un(UnOp::Not, Box::new(self))
    }

    /// Minimum of `self` and `rhs`.
    pub fn min(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Min, self, rhs)
    }

    /// Maximum of `self` and `rhs`.
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Max, self, rhs)
    }

    /// Returns `true` if the expression mentions a shared variable.
    pub(crate) fn mentions_shared(&self) -> bool {
        match self {
            Expr::Lit(_) | Expr::Local(_) => false,
            Expr::Shared(_) => true,
            Expr::Bin(_, l, r) => l.mentions_shared() || r.mentions_shared(),
            Expr::Un(_, e) => e.mentions_shared(),
        }
    }

    /// Evaluates the expression.
    ///
    /// `locals` resolves register names, `shared` resolves shared
    /// variables. The executor evaluates only final assertions this way;
    /// thread bodies run as lowered code (`crate::lower::Code`).
    pub(crate) fn eval(
        &self,
        locals: &dyn Fn(&'static str) -> i64,
        shared: &dyn Fn(VarId) -> i64,
    ) -> i64 {
        match self {
            Expr::Lit(v) => *v,
            Expr::Local(name) => locals(name),
            Expr::Shared(var) => shared(*var),
            Expr::Un(op, e) => op.apply(e.eval(locals, shared)),
            Expr::Bin(op, l, r) => op.apply(l.eval(locals, shared), r.eval(locals, shared)),
        }
    }
}

impl BinOp {
    /// Applies the operator to evaluated operands.
    #[inline]
    pub(crate) fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::Eq => i64::from(a == b),
            BinOp::Ne => i64::from(a != b),
            BinOp::Lt => i64::from(a < b),
            BinOp::Le => i64::from(a <= b),
            BinOp::Gt => i64::from(a > b),
            BinOp::Ge => i64::from(a >= b),
            BinOp::And => i64::from(a != 0 && b != 0),
            BinOp::Or => i64::from(a != 0 || b != 0),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }
}

impl UnOp {
    /// Applies the operator to an evaluated operand.
    #[inline]
    pub(crate) fn apply(self, v: i64) -> i64 {
        match self {
            UnOp::Neg => v.wrapping_neg(),
            UnOp::Not => i64::from(v == 0),
        }
    }
}

impl From<i64> for Expr {
    fn from(value: i64) -> Expr {
        Expr::Lit(value)
    }
}

impl ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
}

impl ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
}

impl ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
}

impl ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
}

impl ops::Rem for Expr {
    type Output = Expr;
    fn rem(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Rem, self, rhs)
    }
}

impl ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(self))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Local(name) => write!(f, "{name}"),
            Expr::Shared(var) => write!(f, "{var}"),
            Expr::Un(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Un(UnOp::Not, e) => write!(f, "!({e})"),
            Expr::Bin(op, l, r) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                    BinOp::Min => "min",
                    BinOp::Max => "max",
                };
                write!(f, "({l} {sym} {r})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(e: &Expr) -> i64 {
        e.eval(&|_| 7, &|_| 100)
    }

    #[test]
    fn literals_and_locals() {
        assert_eq!(eval(&Expr::lit(5)), 5);
        assert_eq!(eval(&Expr::local("x")), 7);
        assert_eq!(eval(&Expr::shared(VarId(0))), 100);
    }

    #[test]
    fn arithmetic_wraps() {
        let e = Expr::lit(i64::MAX) + Expr::lit(1);
        assert_eq!(eval(&e), i64::MIN);
    }

    #[test]
    fn division_by_zero_is_total() {
        assert_eq!(eval(&(Expr::lit(3) / Expr::lit(0))), 0);
        assert_eq!(eval(&(Expr::lit(3) % Expr::lit(0))), 0);
    }

    #[test]
    fn comparisons_produce_bool_ints() {
        assert_eq!(eval(&Expr::lit(1).lt(Expr::lit(2))), 1);
        assert_eq!(eval(&Expr::lit(2).lt(Expr::lit(2))), 0);
        assert_eq!(eval(&Expr::lit(2).le(Expr::lit(2))), 1);
        assert_eq!(eval(&Expr::lit(2).ge(Expr::lit(3))), 0);
        assert_eq!(eval(&Expr::lit(4).gt(Expr::lit(3))), 1);
        assert_eq!(eval(&Expr::lit(4).ne(Expr::lit(3))), 1);
    }

    #[test]
    fn logic_is_truthiness_based() {
        assert_eq!(eval(&Expr::lit(5).and(Expr::lit(-3))), 1);
        assert_eq!(eval(&Expr::lit(5).and(Expr::lit(0))), 0);
        assert_eq!(eval(&Expr::lit(0).or(Expr::lit(0))), 0);
        assert_eq!(eval(&Expr::lit(0).or(Expr::lit(9))), 1);
        assert_eq!(eval(&Expr::lit(0).not()), 1);
        assert_eq!(eval(&Expr::lit(2).not()), 0);
    }

    #[test]
    fn min_max() {
        assert_eq!(eval(&Expr::lit(3).min(Expr::lit(-1))), -1);
        assert_eq!(eval(&Expr::lit(3).max(Expr::lit(-1))), 3);
    }

    #[test]
    fn mentions_shared_walks_the_tree() {
        assert!(!Expr::local("x").mentions_shared());
        assert!(Expr::shared(VarId(1)).mentions_shared());
        assert!((Expr::lit(1) + Expr::shared(VarId(0))).mentions_shared());
        assert!(Expr::shared(VarId(0)).not().mentions_shared());
    }

    #[test]
    fn display_is_readable() {
        let e = (Expr::local("a") + Expr::lit(1)).eq(Expr::lit(2));
        assert_eq!(e.to_string(), "((a + 1) == 2)");
    }

    #[test]
    fn from_i64_builds_literal() {
        let e: Expr = 9i64.into();
        assert_eq!(e, Expr::Lit(9));
    }
}
