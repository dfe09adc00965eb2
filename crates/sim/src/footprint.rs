//! Operation footprints and the (in)dependence relation used by the
//! explorer's sleep-set partial-order reduction.
//!
//! Two visible operations are *independent* when they commute: executing
//! them in either order from any state yields the same state. We compute
//! a conservative over-approximation of dependence from the objects an
//! operation may touch: ops are dependent iff their footprints share an
//! object and at least one of the two touches it in write mode. All
//! synchronization operations are treated as writes on their object;
//! I/O operations share a single journal object (their order is
//! observable). Conservatism is sound: extra dependence only reduces
//! pruning, never correctness.

use crate::lower::Op;
#[cfg(test)]
use crate::stmt::Stmt;
use crate::txn::TxState;

/// Kinds of objects a footprint can mention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ObjKind {
    Var,
    Mutex,
    Cond,
    Rw,
    Sem,
    Thread,
    /// The global I/O journal (all I/O is mutually ordered).
    Io,
}

/// Blocking discipline of one access, for DPOR's co-enabledness
/// refinement. A release and a blocking acquire of the same object are
/// dependent but can never be *co-enabled* — the acquire is blocked
/// exactly while the release is runnable — so their ordering is forced
/// by the semantics and must not be treated as a reversible race (nor
/// allowed to hide the acquire↔acquire race behind it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Never blocks (plain accesses, try-lock, signal): races normally.
    Plain,
    /// May block until the object is released (lock, rwlock, sem-acquire,
    /// a condvar wakeup's mutex re-acquisition).
    Acquire,
    /// Unblocks pending acquirers (unlock, rw-unlock, sem-release, the
    /// mutex half of a condvar wait).
    Release,
}

/// One footprint entry: object + access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Access {
    pub kind: ObjKind,
    pub index: u32,
    pub write: bool,
    pub role: Role,
}

/// Accesses a [`Footprint`] holds without a heap allocation: every op
/// but a transaction commit touches at most two objects.
const INLINE: usize = 2;

/// Placeholder for unused inline slots.
const VACANT: Access = Access {
    kind: ObjKind::Var,
    index: 0,
    write: false,
    role: Role::Plain,
};

/// A footprint's accesses: inline up to [`INLINE`], on the heap beyond
/// (only a commit touching more variables gets there).
#[derive(Debug, Clone)]
enum Accesses {
    Inline { len: u8, slots: [Access; INLINE] },
    Spilled(Vec<Access>),
}

impl Default for Accesses {
    fn default() -> Accesses {
        Accesses::Inline {
            len: 0,
            slots: [VACANT; INLINE],
        }
    }
}

/// The set of objects a visible operation may touch.
#[derive(Debug, Clone, Default)]
pub(crate) struct Footprint {
    accesses: Accesses,
    /// `true` when the op can produce an outcome-relevant effect even
    /// though it touches no object: a failing assert aborts the run, a
    /// transactional boundary changes commit/retry behaviour. The
    /// step-fusion optimization must not execute such ops eagerly.
    /// [`Footprint::independent`] ignores the flag, but an aborting op
    /// does not commute with the ops it cuts off: at an abort terminal
    /// DPOR's race scan treats the aborting step as dependent with
    /// every other thread's pending op, keyed on the outcome rather
    /// than on this flag (a misuse abort carries none).
    effect: bool,
}

impl Footprint {
    fn push(&mut self, kind: ObjKind, index: usize, write: bool) {
        self.push_role(kind, index, write, Role::Plain);
    }

    fn push_role(&mut self, kind: ObjKind, index: usize, write: bool, role: Role) {
        let access = Access {
            kind,
            index: index as u32,
            write,
            role,
        };
        match &mut self.accesses {
            Accesses::Inline { len, slots } if usize::from(*len) < INLINE => {
                slots[usize::from(*len)] = access;
                *len += 1;
            }
            Accesses::Inline { slots, .. } => {
                let mut spilled = slots.to_vec();
                spilled.push(access);
                self.accesses = Accesses::Spilled(spilled);
            }
            Accesses::Spilled(spilled) => spilled.push(access),
        }
    }

    /// Footprint of a visible operation, except what is dynamic: a
    /// transaction commit's variables ([`Footprint::of_commit`]) and an
    /// assert's verdict (see [`Footprint::without_effect`]).
    pub(crate) fn of_op(op: &Op) -> Footprint {
        let mut fp = Footprint::default();
        match op {
            Op::Read { var, .. } => fp.push(ObjKind::Var, var.index(), false),
            Op::Write { var, .. } | Op::Rmw { var, .. } | Op::Cas { var, .. } => {
                fp.push(ObjKind::Var, var.index(), true)
            }
            Op::Lock(m) => fp.push_role(ObjKind::Mutex, m.index(), true, Role::Acquire),
            Op::Unlock(m) => fp.push_role(ObjKind::Mutex, m.index(), true, Role::Release),
            // Try-lock never blocks: whether it sees the mutex held is an
            // observable outcome, so it races with lock/unlock normally.
            Op::TryLock { mutex, .. } => fp.push(ObjKind::Mutex, mutex.index(), true),
            Op::RwRead(rw) => fp.push_role(ObjKind::Rw, rw.index(), false, Role::Acquire),
            Op::RwWrite(rw) => fp.push_role(ObjKind::Rw, rw.index(), true, Role::Acquire),
            Op::RwUnlock(rw) => fp.push_role(ObjKind::Rw, rw.index(), true, Role::Release),
            Op::Wait { cond, mutex } => {
                // The wait statement itself never blocks (it atomically
                // releases the mutex and parks), so the cond access races
                // with signals normally — signal-before-wait is the lost
                // wakeup the ordering must be able to express.
                fp.push(ObjKind::Cond, cond.index(), true);
                fp.push_role(ObjKind::Mutex, mutex.index(), true, Role::Release);
            }
            Op::Signal(c) | Op::Broadcast(c) => fp.push(ObjKind::Cond, c.index(), true),
            Op::SemAcquire(s) => fp.push_role(ObjKind::Sem, s.index(), true, Role::Acquire),
            Op::SemRelease(s) => fp.push_role(ObjKind::Sem, s.index(), true, Role::Release),
            Op::Spawn(t) | Op::Join(t) => fp.push(ObjKind::Thread, t.index(), true),
            Op::Io { .. } => fp.push(ObjKind::Io, 0, true),
            // A yield touches nothing and decides nothing: globally
            // invisible (the one statement fusion can always swallow).
            Op::Yield => {}
            // Object-free but outcome-relevant: transactional boundaries
            // steer commit/retry control flow, and an assert may abort.
            // (`Executor::next_footprint` clears the flag for an assert
            // whose condition currently evaluates true — a verdict that
            // depends only on the owner's locals and so cannot change
            // under other threads' steps.)
            Op::TxBegin | Op::TxRetry | Op::Assert { .. } => fp.effect = true,
            // The variables a commit touches are the transaction's, read
            // at the commit: see `Footprint::of_commit`.
            Op::TxCommit => {}
        }
        fp
    }

    /// Footprint of committing `tx`: it validates the read set and
    /// publishes the write set, so conservatively a write on every
    /// variable of both.
    pub(crate) fn of_commit(tx: &TxState) -> Footprint {
        let mut fp = Footprint::default();
        for &(var, _) in tx.read_set.iter().chain(&tx.write_set) {
            fp.push(ObjKind::Var, var.index(), true);
        }
        fp
    }

    /// Footprint of a visible statement whose commit, if it is one,
    /// touches `tx_touched`.
    #[cfg(test)]
    pub(crate) fn of_stmt(stmt: &Stmt, tx_touched: &[crate::ids::VarId]) -> Footprint {
        let mut lower = crate::lower::Lower::new(crate::ids::ThreadId::from_index(0));
        let op = lower
            .op(stmt)
            .expect("lowers")
            .expect("a visible statement");
        let mut fp = Footprint::of_op(&op);
        if op == Op::TxCommit {
            for var in tx_touched {
                fp.push(ObjKind::Var, var.index(), true);
            }
        }
        fp
    }

    /// Footprint of a condvar-wakeup mutex re-acquisition.
    pub fn of_reacquire(mutex: crate::ids::MutexId) -> Footprint {
        let mut fp = Footprint::default();
        fp.push_role(ObjKind::Mutex, mutex.index(), true, Role::Acquire);
        fp
    }

    /// Footprint of an *attempted* (blocked) operation, derived from what
    /// a deadlocked thread is waiting on. The witness conflict accounting
    /// needs these: a deadlock's essence is acquisitions that never
    /// execute as steps.
    pub fn of_blocked(on: &crate::outcome::BlockedOn) -> Footprint {
        use crate::outcome::BlockedOn;
        let mut fp = Footprint::default();
        match on {
            BlockedOn::Mutex(m) | BlockedOn::CondReacquire(m) => {
                fp.push_role(ObjKind::Mutex, m.index(), true, Role::Acquire)
            }
            BlockedOn::Cond(c) => fp.push_role(ObjKind::Cond, c.index(), true, Role::Acquire),
            BlockedOn::RwRead(rw) => fp.push_role(ObjKind::Rw, rw.index(), false, Role::Acquire),
            BlockedOn::RwWrite(rw) => fp.push_role(ObjKind::Rw, rw.index(), true, Role::Acquire),
            BlockedOn::Semaphore(s) => fp.push_role(ObjKind::Sem, s.index(), true, Role::Acquire),
            BlockedOn::Join(t) => fp.push_role(ObjKind::Thread, t.index(), true, Role::Acquire),
        }
        fp
    }

    /// The individual accesses in this footprint.
    pub fn accesses(&self) -> &[Access] {
        match &self.accesses {
            Accesses::Inline { len, slots } => &slots[..usize::from(*len)],
            Accesses::Spilled(spilled) => spilled,
        }
    }

    /// `true` when the footprint touches no object and carries no effect:
    /// the footprint of an invisible op
    /// ([`crate::Executor::next_is_invisible`] decides which ops are).
    /// The race scan logs a fused step with it, and it adds no edge.
    pub fn is_empty(&self) -> bool {
        self.accesses().is_empty() && !self.effect
    }

    /// Clears the outcome-relevance flag. Used by the executor when a
    /// dynamic check proves the op cannot abort (an assert whose
    /// condition — a function of the owner's locals only — currently
    /// holds), making it invisible after all.
    pub fn without_effect(mut self) -> Footprint {
        self.effect = false;
        self
    }

    /// `true` when the two footprints commute (no shared object with a
    /// write on either side).
    pub fn independent(&self, other: &Footprint) -> bool {
        for a in self.accesses() {
            for b in other.accesses() {
                if a.kind == b.kind && a.index == b.index && (a.write || b.write) {
                    return false;
                }
            }
        }
        true
    }

    /// `true` when `self` (the earlier step) hands an object off to
    /// `other`: `self` releases something `other` may block acquiring.
    /// Such a pair is dependent but never co-enabled — while the release
    /// is runnable the acquire is blocked — so its order is forced by
    /// the semantics: it contributes happens-before but is never a
    /// reversible race, and it must not hide the acquire↔acquire race
    /// sitting behind it (DPOR keeps scanning past it with an unmasked
    /// clock).
    pub fn hands_off_to(&self, other: &Footprint) -> bool {
        self.accesses().iter().any(|a| {
            a.role == Role::Release
                && other
                    .accesses()
                    .iter()
                    .any(|b| b.role == Role::Acquire && b.kind == a.kind && b.index == a.index)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CondId, MutexId, RwId, SemId, VarId};
    use crate::stmt::Stmt;

    fn fp(s: &Stmt) -> Footprint {
        Footprint::of_stmt(s, &[])
    }

    #[test]
    fn reads_commute_writes_do_not() {
        let v = VarId::from_index(0);
        let r = fp(&Stmt::read(v, "x"));
        let w = fp(&Stmt::write(v, 1));
        assert!(r.independent(&r));
        assert!(!r.independent(&w));
        assert!(!w.independent(&w));
    }

    #[test]
    fn disjoint_vars_commute() {
        let a = fp(&Stmt::write(VarId::from_index(0), 1));
        let b = fp(&Stmt::write(VarId::from_index(1), 1));
        assert!(a.independent(&b));
    }

    #[test]
    fn lock_ops_on_same_mutex_conflict() {
        let m = MutexId::from_index(0);
        let l = fp(&Stmt::lock(m));
        let u = fp(&Stmt::unlock(m));
        assert!(!l.independent(&u));
        let other = fp(&Stmt::lock(MutexId::from_index(1)));
        assert!(l.independent(&other));
    }

    #[test]
    fn io_is_globally_ordered() {
        let a = fp(&Stmt::io("a"));
        let b = fp(&Stmt::io("b"));
        assert!(!a.independent(&b));
    }

    #[test]
    fn yields_and_asserts_commute_with_everything() {
        let y = fp(&Stmt::Yield);
        let w = fp(&Stmt::write(VarId::from_index(0), 1));
        assert!(y.independent(&w));
        assert!(y.independent(&y));
    }

    #[test]
    fn only_yields_and_defused_asserts_are_invisible() {
        use crate::Expr;
        assert!(fp(&Stmt::Yield).is_empty());
        // Every object-touching op is visible.
        for s in catalog() {
            if !matches!(s, Stmt::Yield) {
                assert!(!fp(&s).is_empty(), "{s:?} must be visible");
            }
        }
        // Outcome-relevant object-free ops stay visible until a dynamic
        // check clears the effect flag.
        let assert_stmt = Stmt::assert(Expr::lit(1).eq(Expr::lit(1)), "holds");
        assert!(!fp(&assert_stmt).is_empty());
        assert!(fp(&assert_stmt).without_effect().is_empty());
        assert!(!fp(&Stmt::TxBegin).is_empty());
        assert!(!fp(&Stmt::TxRetry).is_empty());
        // Clearing the effect flag never hides real accesses.
        let w = fp(&Stmt::write(VarId::from_index(0), 1));
        assert!(!w.without_effect().is_empty());
    }

    #[test]
    fn commit_footprint_covers_touched_vars() {
        // Two touched variables fit inline, three spill to the heap; both
        // layouts must give the same answers.
        for touched in [&[0, 2][..], &[0, 1, 2]] {
            let touched: Vec<VarId> = touched.iter().map(|&i| VarId::from_index(i)).collect();
            let commit = Footprint::of_stmt(&Stmt::TxCommit, &touched);
            let spilled = matches!(commit.accesses, Accesses::Spilled(_));
            assert_eq!(spilled, touched.len() > INLINE);
            let writes: Vec<Access> = (touched.iter())
                .map(|v| Access {
                    kind: ObjKind::Var,
                    index: v.index() as u32,
                    write: true,
                    role: Role::Plain,
                })
                .collect();
            assert_eq!(commit.accesses(), &writes[..]);
            assert!(!commit.is_empty());
            // A touched variable conflicts with any access, an untouched
            // one with none, from either side.
            for i in 0..4 {
                let v = VarId::from_index(i);
                let free = !touched.contains(&v);
                for other in [fp(&Stmt::read(v, "x")), fp(&Stmt::write(v, 1))] {
                    assert_eq!(commit.independent(&other), free, "{touched:?} vs {v}");
                    assert_eq!(other.independent(&commit), free, "{touched:?} vs {v}");
                }
            }
            // A commit neither releases nor acquires anything.
            for s in catalog() {
                assert!(!commit.hands_off_to(&fp(&s)) && !fp(&s).hands_off_to(&commit));
            }
        }
    }

    /// Every visible statement kind, over a shared pool of objects.
    fn catalog() -> Vec<Stmt> {
        let m = MutexId::from_index(0);
        let c = CondId::from_index(0);
        let rw = RwId::from_index(0);
        let s = SemId::from_index(0);
        let t = crate::ids::ThreadId::from_index(1);
        vec![
            Stmt::read(VarId::from_index(0), "x"),
            Stmt::write(VarId::from_index(0), 1),
            Stmt::write(VarId::from_index(1), 2),
            Stmt::Lock(m),
            Stmt::Unlock(m),
            Stmt::TryLock {
                mutex: m,
                into: "ok",
            },
            Stmt::RwRead(rw),
            Stmt::RwWrite(rw),
            Stmt::RwUnlock(rw),
            Stmt::Wait { cond: c, mutex: m },
            Stmt::Signal(c),
            Stmt::Broadcast(c),
            Stmt::SemAcquire(s),
            Stmt::SemRelease(s),
            Stmt::Spawn(t),
            Stmt::Join(t),
            Stmt::io("log"),
            Stmt::Yield,
        ]
    }

    #[test]
    fn dependence_is_symmetric_across_the_stmt_catalog() {
        // DPOR's race scan only ever asks one direction of the relation;
        // soundness needs the answer to be the same from either side.
        for a in catalog() {
            for b in catalog() {
                assert_eq!(
                    fp(&a).independent(&fp(&b)),
                    fp(&b).independent(&fp(&a)),
                    "independence must be symmetric for ({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn hand_off_pairs_are_directional_and_blocking_only() {
        let m = MutexId::from_index(0);
        let lock = fp(&Stmt::Lock(m));
        let unlock = fp(&Stmt::Unlock(m));
        let try_lock = fp(&Stmt::TryLock {
            mutex: m,
            into: "ok",
        });
        assert!(unlock.hands_off_to(&lock));
        assert!(!lock.hands_off_to(&unlock), "acquire side never releases");
        assert!(
            !unlock.hands_off_to(&try_lock),
            "try-lock never blocks: held-vs-free is observable, a normal race"
        );
        let s = SemId::from_index(0);
        assert!(fp(&Stmt::SemRelease(s)).hands_off_to(&fp(&Stmt::SemAcquire(s))));
        let rw = RwId::from_index(0);
        assert!(fp(&Stmt::RwUnlock(rw)).hands_off_to(&fp(&Stmt::RwRead(rw))));
        assert!(fp(&Stmt::RwUnlock(rw)).hands_off_to(&fp(&Stmt::RwWrite(rw))));
        // A wait's mutex-release half hands off to a competing lock (and
        // to a wakeup's re-acquisition), but never to a signal: signals
        // don't block, so signal↔wait stays a reversible race — that is
        // the lost-wakeup ordering DPOR must keep exploring.
        let c = CondId::from_index(0);
        let wait = fp(&Stmt::Wait { cond: c, mutex: m });
        assert!(wait.hands_off_to(&lock));
        assert!(!wait.hands_off_to(&fp(&Stmt::Signal(c))));
        assert!(unlock.hands_off_to(&Footprint::of_reacquire(m)));
        assert!(!unlock.hands_off_to(&fp(&Stmt::Lock(MutexId::from_index(1)))));
    }

    /// Walks the full state space of `program` and, wherever two enabled
    /// ops have independent footprints, steps them in either order and
    /// asserts both orders reach the same state key. Returns the number
    /// of pairs checked.
    fn check_independent_pairs_commute(program: &crate::Program) -> usize {
        use crate::Executor;

        let mut stack = vec![Executor::new(program)];
        let mut seen = std::collections::BTreeSet::new();
        let mut pairs_checked = 0usize;
        while let Some(exec) = stack.pop() {
            if exec.outcome().is_some() || !seen.insert(exec.state_key()) {
                continue;
            }
            let enabled = exec.enabled();
            for (i, &p) in enabled.iter().enumerate() {
                for &q in &enabled[i + 1..] {
                    let (Some(fa), Some(fb)) = (exec.next_footprint(p), exec.next_footprint(q))
                    else {
                        continue;
                    };
                    if !fa.independent(&fb) {
                        continue;
                    }
                    let mut pq = exec.clone();
                    pq.step(p).expect("enabled");
                    pq.step(q)
                        .expect("independent step cannot disable its partner");
                    let mut qp = exec.clone();
                    qp.step(q).expect("enabled");
                    qp.step(p)
                        .expect("independent step cannot disable its partner");
                    assert_eq!(
                        pq.state_key(),
                        qp.state_key(),
                        "independent ops must commute: {p} and {q} in {}",
                        program.name()
                    );
                    pairs_checked += 1;
                }
            }
            for &t in &enabled {
                let mut child = exec.clone();
                child.step(t).expect("enabled");
                stack.push(child);
            }
        }
        pairs_checked
    }

    #[test]
    fn independent_enabled_pairs_commute() {
        // Executor-level witness for the relation's contract: wherever two
        // enabled ops have independent footprints, stepping them in either
        // order reaches the same state. One program mixes plain accesses
        // with mutex traffic; in the other two threads read-acquire one
        // rwlock, whose readers form a set.
        use crate::{Expr, ProgramBuilder};

        let mut b = ProgramBuilder::new("commute");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        let m = b.mutex();
        b.thread(
            "a",
            vec![
                Stmt::Lock(m),
                Stmt::read(x, "t"),
                Stmt::write(x, Expr::local("t") + Expr::lit(1)),
                Stmt::Unlock(m),
            ],
        );
        b.thread(
            "b",
            vec![Stmt::write(y, 1), Stmt::read(y, "u"), Stmt::write(x, 5)],
        );
        b.thread(
            "c",
            vec![Stmt::read(y, "v"), Stmt::Lock(m), Stmt::Unlock(m)],
        );
        let pairs_checked = check_independent_pairs_commute(&b.build().expect("builds"));
        assert!(
            pairs_checked > 50,
            "the walk must exercise independent pairs, saw {pairs_checked}"
        );

        let mut b = ProgramBuilder::new("commute_readers");
        let x = b.var("x", 0);
        let rw = b.rwlock();
        for name in ["a", "b"] {
            b.thread(
                name,
                vec![Stmt::RwRead(rw), Stmt::read(x, "t"), Stmt::RwUnlock(rw)],
            );
        }
        let pairs_checked = check_independent_pairs_commute(&b.build().expect("builds"));
        assert!(
            pairs_checked > 5,
            "the walk must exercise independent pairs, saw {pairs_checked}"
        );
    }
}
