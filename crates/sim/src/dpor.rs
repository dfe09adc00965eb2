//! Source-set dynamic partial-order reduction (DPOR) with sleep sets.
//!
//! Full enumeration explores every interleaving; most differ only in
//! the order of *independent* steps and reach the same state. DPOR
//! (Flanagan & Godefroid 2005, refined by Abdulla et al. 2014's source
//! sets) prunes those: it explores one schedule, watches the executed
//! steps for *races* — pairs of dependent steps by different threads
//! with no happens-before path between them — and for each race adds
//! just enough alternatives to the *backtrack set* of the earlier
//! step's branch point to cover the reversed order. Branch children
//! never added to a backtrack set are provably redundant and are never
//! run.
//!
//! The machinery here is engine-agnostic: it owns the step log (with
//! vector clocks derived from the `footprint` dependence relation, kept
//! in one flat buffer, and a race scan that works in two scratch clocks
//! reused across scans, so a committed step allocates no clock) and
//! the per-branch-point frames (enabled, backtrack, done and sleep sets
//! as `u64` masks, bit `i` for thread `i`), while the exploration walk's
//! DPOR strategy ([`crate::frontier::DporSearch`]) drives it through
//! [`Dpor::push_frame`], [`Dpor::select`], [`Dpor::commit_step`],
//! [`Dpor::pending_race`] and [`Dpor::pop_frame`]. Scheduler order is
//! thread order, and a program has at most 64 threads.
//!
//! Sleep sets are part of the algorithm, as in Abdulla et al.'s
//! source-DPOR, not an option: a sleeping thread is a child some
//! ancestor sibling already covers, so [`Dpor::select`] marks sleeping
//! backtrack candidates done without exploring them and puts each
//! child it picks to sleep for the siblings after it, and child sleep
//! sets are the parent's survivors that commute with everything
//! executed along the edge ([`child_sleep`]).
//!
//! A terminal still races the ops it cut off ([`Dpor::pending_race`]).
//! At an abort terminal the aborting step counts as dependent with
//! each of them, whatever the footprints say: otherwise only each
//! thread's next op would ever race the path, and the races of the ops
//! behind it would never be found.

use crate::footprint::{Footprint, ObjKind};
use crate::ids::{threads_in, ThreadId};

/// One executed step on the current exploration path. Its vector clock
/// is the log's [`Clocks`] entry at the same index.
#[derive(Debug, Clone)]
pub(crate) struct LogEntry {
    /// Thread that took the step.
    pub thread: ThreadId,
    /// Footprint the step had at execution time.
    pub fp: Footprint,
    /// Stack index of the branch frame at whose state the step was
    /// chosen, or `None` for a forced step (single enabled thread).
    /// Races whose earlier step is forced need no backtrack addition:
    /// the classic rule would add "all enabled at the pre-state", and
    /// that set is exactly the thread that already ran.
    pub pre_frame: Option<usize>,
}

/// DPOR bookkeeping for one branch point (a state with more than one
/// enabled thread) on the DFS stack. Every set is a thread mask.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DporFrame {
    /// Enabled threads at this state.
    enabled: u64,
    /// Threads that must eventually be explored from this state. Seeded
    /// with the lowest awake enabled thread; races grow it. Always a
    /// subset of `enabled`.
    backtrack: u64,
    /// Threads already selected (or sleep-skipped) here. Always a
    /// subset of `backtrack`.
    done: u64,
    /// Sleeping threads: exploring them first from this state is
    /// redundant with a subtree an ancestor sibling owns. Always a
    /// subset of `enabled`.
    sleep: u64,
    /// Log length when the frame was created.
    base: usize,
}

/// The lowest thread of a non-empty mask, as a mask.
fn lowest(mask: u64) -> u64 {
    mask & mask.wrapping_neg()
}

/// The log's vector clocks in one flat buffer: for a program of `n`
/// threads, log entry `i`'s clock (its own tick included) is
/// `flat[i * n..(i + 1) * n]`. The buffer keeps its capacity when the
/// log is cut back, so a step appends its clock without allocating.
#[derive(Debug)]
struct Clocks {
    flat: Vec<u32>,
    n: usize,
}

impl Clocks {
    /// Entry `i`'s clock.
    fn of(&self, i: usize) -> &[u32] {
        &self.flat[i * self.n..(i + 1) * self.n]
    }

    /// Entry `i`'s component for thread `t`.
    fn get(&self, i: usize, t: ThreadId) -> u32 {
        self.flat[i * self.n + t.index()]
    }
}

/// Joins (component-wise max) the clock `from` into `into`.
fn join(into: &mut [u32], from: &[u32]) {
    for (a, &b) in into.iter_mut().zip(from) {
        *a = (*a).max(b);
    }
}

/// The DPOR engine: step log plus the frame stack, kept in lockstep
/// with the driver's own branch stack (frame `i` here corresponds to
/// the driver's branch node `i`).
#[derive(Debug)]
pub(crate) struct Dpor {
    log: Vec<LogEntry>,
    clocks: Clocks,
    frames: Vec<DporFrame>,
    /// A race scan's scratch clocks, reused across scans: the scanned
    /// step's clock and its race-visibility clock
    /// ([`Dpor::scan_races`]).
    clk: Vec<u32>,
    race_clk: Vec<u32>,
}

impl Dpor {
    pub fn new(n_threads: usize) -> Dpor {
        Dpor {
            log: Vec::new(),
            clocks: Clocks {
                flat: Vec::new(),
                n: n_threads,
            },
            frames: Vec::new(),
            clk: vec![0; n_threads],
            race_clk: vec![0; n_threads],
        }
    }

    /// Cuts the log back to its first `len` entries.
    fn truncate(&mut self, len: usize) {
        self.log.truncate(len);
        self.clocks.flat.truncate(len * self.clocks.n);
    }

    /// Opens a frame for a branch state. `sleep` must be a subset of
    /// `enabled`, and at least one enabled thread must be awake (an
    /// all-asleep branch is redundant; the driver never opens it).
    pub fn push_frame(&mut self, enabled: u64, sleep: u64) {
        let awake = enabled & !sleep;
        debug_assert!(awake != 0, "all-asleep branch must not open a frame");
        self.frames.push(DporFrame {
            enabled,
            backtrack: lowest(awake),
            done: 0,
            sleep,
            base: self.log.len(),
        });
    }

    /// The top frame's sleep set.
    pub fn sleeping(&self) -> u64 {
        self.frames.last().expect("an open DPOR frame").sleep
    }

    /// Picks the next child to explore from the top frame: the lowest
    /// thread in its backtrack set and not yet done. Sleeping
    /// candidates are marked done without being explored; the count of
    /// those skips is returned so the walk can account them as
    /// sleep-set prunes. The pick itself goes to sleep: siblings
    /// selected after it need not re-explore orders that merely delay
    /// it. Truncates the log back to the frame's base first, discarding
    /// the previous sibling's steps.
    pub fn select(&mut self) -> (u64, Option<ThreadId>) {
        let base = self.frames.last().expect("an open DPOR frame").base;
        self.truncate(base);
        let f = self.frames.last_mut().expect("an open DPOR frame");
        let mut skipped = 0u64;
        while let Some(t) = threads_in(f.backtrack & !f.done).next() {
            f.done |= t.bit();
            if f.sleep & t.bit() != 0 {
                skipped += 1;
                continue;
            }
            f.sleep |= t.bit();
            return (skipped, Some(t));
        }
        (skipped, None)
    }

    /// Appends an executed step to the log, computing its vector clock
    /// and processing every race it closes. A `chosen` step was picked
    /// at the top frame's state; any other step was forced.
    pub fn commit_step(&mut self, thread: ThreadId, fp: Footprint, chosen: bool) {
        let pre_frame = chosen.then(|| self.frames.len() - 1);
        self.scan_races(thread, &fp, None);
        self.clk[thread.index()] += 1;
        self.clocks.flat.extend_from_slice(&self.clk);
        self.log.push(LogEntry {
            thread,
            fp,
            pre_frame,
        });
    }

    /// Processes races for a step that never executed: `thread`'s
    /// pending next op at a terminal state. A deadlock (the op stays
    /// blocked forever) or an abort (an assert failure ends the
    /// execution first) cuts the path before the op can commit — but
    /// the op still conflicts with executed steps, and those reversals
    /// reach outcomes this path cannot. Without this, a racing op that
    /// *always deadlocks first* on the explored order would never grow
    /// a backtrack set at all (FG-DPOR's per-state scan of every
    /// thread's next transition covers the same gap). Nothing is
    /// logged; only backtrack sets grow.
    ///
    /// At an abort terminal (`abort`), the aborting step — the last log
    /// entry — counts as dependent with the op whatever their
    /// footprints say: the abort disabled the op, so the two do not
    /// commute. Reversing that pair lets the cut-off thread run one
    /// more op before the abort, and that run exposes the op's races
    /// with the rest of the path. Scanning only each thread's next op
    /// would miss every race of the ops behind it. The footprints'
    /// hand-off and creation exemptions do not apply (a misused unlock
    /// or a double spawn orders nothing), except for an op that spawns
    /// or joins the aborting thread. The abort race adds no
    /// happens-before: the op's races with the steps before the abort
    /// are still found. The scan's clocks are scratch, and nothing keeps
    /// them.
    pub fn pending_race(&mut self, thread: ThreadId, fp: &Footprint, abort: bool) {
        let cut = self.log.len().checked_sub(1).filter(|_| abort);
        self.scan_races(thread, fp, cut);
    }

    /// The backward race scan shared by [`Dpor::commit_step`] and
    /// [`Dpor::pending_race`]: computes the step's vector clock (without
    /// its own tick) into the scratch clock `clk` and grows backtrack
    /// sets for every race it closes. The log entry at index `cut`, if
    /// any, races with the step whatever the footprints say, but its
    /// clock is joined only if they are dependent.
    fn scan_races(&mut self, thread: ThreadId, fp: &Footprint, cut: Option<usize>) {
        let Dpor {
            log,
            clocks,
            frames,
            clk,
            race_clk,
        } = self;
        // Program order: start from this thread's previous step.
        match log.iter().rposition(|e| e.thread == thread) {
            Some(i) => clk.copy_from_slice(clocks.of(i)),
            None => clk.fill(0),
        }
        // Race visibility clock: like `clk`, but blocking hand-off edges
        // (release → this step's blocked acquire) do not join it. A
        // hand-off orders the steps without being reversible, and the
        // reversible race is the acquire↔acquire pair *behind* it — a
        // mutex's previous lock reads as happens-before through the
        // unlock's clock, so masking it here would silently skip the
        // other acquisition order (and the final states only it reaches).
        race_clk.copy_from_slice(clk);
        // Backward scan: the latest dependent step of each thread is
        // met before earlier ones, so after its clock is joined the
        // earlier ones read as happens-before and are not re-reported.
        for j in (0..log.len()).rev() {
            let d = &log[j];
            if d.thread == thread {
                continue;
            }
            let real = !d.fp.independent(fp);
            // The abort race: reversible whatever the footprints say,
            // even a hand-off (a misused unlock runs while the lock is
            // free) or a creation edge (a double spawn creates
            // nothing). Only an op that spawns or joins the aborting
            // thread stays ordered after it.
            let abort = cut == Some(j) && !touches_thread(fp, d.thread);
            let creation = !abort && creation_edge(d, thread, fp);
            if !real && !creation && !abort {
                continue;
            }
            let hand_off = real && !creation && d.fp.hands_off_to(fp);
            let concurrent = clocks.get(j, d.thread) > race_clk[d.thread.index()];
            if concurrent && (abort || (real && !creation && !hand_off)) {
                process_race(log, clocks, frames, j, thread, clk);
            }
            if !real && !creation {
                // An abort race joins no clock: the pair depends only
                // because the run ended here, and the steps before the
                // abort must not read as happens-before the cut-off op,
                // or its real races with them go unreported.
                continue;
            }
            join(clk, clocks.of(j));
            if !hand_off {
                join(race_clk, clocks.of(j));
            }
        }
    }

    /// Closes the top frame, truncating the log to its base. Returns
    /// the number of enabled children never selected — the schedules
    /// DPOR proved redundant without running them.
    pub fn pop_frame(&mut self) -> u64 {
        let f = self.frames.pop().expect("pop on empty DPOR frame stack");
        self.truncate(f.base);
        u64::from((f.enabled & !f.done).count_ones())
    }
}

/// Sleep set for the child reached from a frame by stepping a choice
/// with footprint `choice_fp` and then the `forced` steps: the frame's
/// other `sleepers`, each with the footprint it had at the frame's
/// state, that commute with everything executed along the edge and are
/// still enabled at the child (`child_enabled`). A conflicting edge
/// step wakes the sleeper — delaying it past that step is no longer
/// redundant.
pub(crate) fn child_sleep(
    sleepers: &[(ThreadId, Footprint)],
    choice_fp: &Footprint,
    forced: &[(ThreadId, Footprint)],
    child_enabled: u64,
) -> u64 {
    let stays = |fp: &Footprint| {
        fp.independent(choice_fp) && forced.iter().all(|(_, ffp)| fp.independent(ffp))
    };
    sleepers
        .iter()
        .filter(|(s, fp)| child_enabled & s.bit() != 0 && stays(fp))
        .fold(0, |sleep, (s, _)| sleep | s.bit())
}

/// `true` when the dependence between logged step `d` and the new step
/// by `thread` is a thread-lifecycle edge: one side spawns or joins the
/// other's thread. Those orderings are semantically forced — a thread
/// cannot run before it is spawned or after it is joined — so they
/// contribute happens-before but can never be reversed, and race
/// processing must skip them.
fn creation_edge(d: &LogEntry, thread: ThreadId, fp: &Footprint) -> bool {
    touches_thread(&d.fp, thread) || touches_thread(fp, d.thread)
}

/// `true` when footprint `f` spawns or joins thread `t`.
fn touches_thread(f: &Footprint, t: ThreadId) -> bool {
    f.accesses()
        .iter()
        .any(|a| a.kind == ObjKind::Thread && a.index as usize == t.index())
}

/// Handles one race: logged step `d = log[j]` and the step being
/// committed by `p` (partial clock `clk`, valid for every log index
/// after `j` because the backward scan already joined them) are
/// dependent and concurrent. Following source-set DPOR, compute
/// `v = notdep(d).p` — the suffix after `d` that does not happen-after
/// `d`, extended by `p` — and ensure some initial of `v` is in the
/// backtrack set of `d`'s branch frame, so the reversed order gets
/// explored.
fn process_race(
    log: &[LogEntry],
    clocks: &Clocks,
    frames: &mut [DporFrame],
    j: usize,
    p: ThreadId,
    clk: &[u32],
) {
    let d = &log[j];
    let Some(fi) = d.pre_frame else {
        return; // forced step: reversal at its pre-state is vacuous
    };
    let dticks = clocks.get(j, d.thread);
    // Steps after d that do not know about d, by log index: still
    // runnable from d's pre-state when d is delayed. (Anything dependent
    // with d joined d's clock when committed, so the filter is a
    // component compare.)
    let v = || (j + 1..log.len()).filter(move |&x| clocks.get(x, d.thread) < dticks);
    // `y`'s own tick is past what `of` knows of `y`'s thread: `y` does
    // not happen before it.
    let unordered = |y: usize, of: &[u32]| clocks.get(y, log[y].thread) > of[log[y].thread.index()];
    // Initials: threads whose first step in v has no happens-before
    // predecessor within v — each can run first from d's pre-state.
    let mut initials = 0u64;
    for (i, x) in v().enumerate() {
        let thread = log[x].thread;
        if initials & thread.bit() != 0 {
            continue;
        }
        if v().take(i).all(|y| unordered(y, clocks.of(x))) {
            initials |= thread.bit();
        }
    }
    if initials & p.bit() == 0 && v().all(|y| unordered(y, clk)) {
        initials |= p.bit();
    }
    let frame = &mut frames[fi];
    if initials & frame.backtrack != 0 {
        return; // the reversal is already scheduled here
    }
    let enabled_initials = frame.enabled & initials;
    frame.backtrack |= if enabled_initials != 0 {
        lowest(enabled_initials)
    } else {
        // No initial is enabled at the pre-state (the conservative
        // happens-before can hide the connecting chain): fall back to
        // the classic DPOR rule and schedule every enabled thread.
        frame.enabled
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VarId;
    use crate::stmt::Stmt;

    fn t(i: usize) -> ThreadId {
        ThreadId::from_index(i)
    }

    /// The mask of `threads`.
    fn mask(threads: &[usize]) -> u64 {
        threads.iter().fold(0, |m, &i| m | t(i).bit())
    }

    fn wx() -> Footprint {
        Footprint::of_stmt(&Stmt::write(VarId::from_index(0), 1), &[])
    }

    fn wy() -> Footprint {
        Footprint::of_stmt(&Stmt::write(VarId::from_index(1), 1), &[])
    }

    /// Commits a step and returns the backtrack additions its races
    /// caused, as `(frame, thread)` pairs read off the frames' backtrack
    /// sets (which only grow).
    fn commit(
        d: &mut Dpor,
        thread: ThreadId,
        fp: Footprint,
        chosen: bool,
    ) -> Vec<(usize, ThreadId)> {
        let before: Vec<u64> = d.frames.iter().map(|f| f.backtrack).collect();
        d.commit_step(thread, fp, chosen);
        let grown = d.frames.iter().zip(before).enumerate();
        grown
            .flat_map(|(fi, (f, old))| threads_in(f.backtrack & !old).map(move |t| (fi, t)))
            .collect()
    }

    #[test]
    fn dependent_steps_grow_the_backtrack_set() {
        let mut d = Dpor::new(2);
        d.push_frame(mask(&[0, 1]), 0);
        let (skipped, sel) = d.select();
        assert_eq!((skipped, sel), (0, Some(t(0))));
        assert!(commit(&mut d, t(0), wx(), true).is_empty());
        // The second writer races with the first: its own thread is the
        // sole initial, so it lands in the frame's backtrack set.
        let adds = commit(&mut d, t(1), wx(), false);
        assert_eq!(adds, vec![(0, t(1))]);
        let (_, sel) = d.select();
        assert_eq!(sel, Some(t(1)));
        assert!(commit(&mut d, t(1), wx(), true).is_empty());
        assert!(commit(&mut d, t(0), wx(), false).is_empty()); // t(0) already done
        let (_, sel) = d.select();
        assert_eq!(sel, None);
        assert_eq!(d.pop_frame(), 0); // both orders explored
    }

    #[test]
    fn independent_steps_are_pruned() {
        let mut d = Dpor::new(2);
        d.push_frame(mask(&[0, 1]), 0);
        let (_, sel) = d.select();
        assert_eq!(sel, Some(t(0)));
        assert!(commit(&mut d, t(0), wx(), true).is_empty());
        assert!(commit(&mut d, t(1), wy(), false).is_empty()); // no race
        let (_, sel) = d.select();
        assert_eq!(sel, None); // t(1)-first never scheduled
        assert_eq!(d.pop_frame(), 1); // one child proven redundant
    }

    #[test]
    fn races_reverse_one_adjacent_pair_at_a_time() {
        let mut d = Dpor::new(2);
        d.push_frame(mask(&[0, 1]), 0);
        d.select();
        commit(&mut d, t(0), wx(), true);
        d.push_frame(mask(&[0, 1]), 0);
        d.select();
        commit(&mut d, t(0), wx(), true);
        // Only the adjacent race (second write vs t1's) is reversed
        // now; the earlier write's reversal is rediscovered inside that
        // branch, one pair at a time, exactly as in SDPOR.
        let adds = commit(&mut d, t(1), wx(), false);
        assert_eq!(adds, vec![(1, t(1))]);
        // Reversed branch: after t0's first write, run t1 — its commit
        // races with the first write and schedules the full reversal
        // back at the root frame.
        let (_, sel) = d.select();
        assert_eq!(sel, Some(t(1)));
        let adds = commit(&mut d, t(1), wx(), true);
        assert_eq!(adds, vec![(0, t(1))]);
    }

    #[test]
    fn intermediate_independent_steps_join_the_initials() {
        let mut d = Dpor::new(3);
        d.push_frame(mask(&[0, 1, 2]), 0);
        d.select();
        commit(&mut d, t(0), wx(), true);
        commit(&mut d, t(1), wy(), false);
        // t(2) races with t(0); both t(1)'s step (independent of the
        // race) and t(2) are initials of v — the lowest enabled pick is
        // t(1).
        let adds = commit(&mut d, t(2), wx(), false);
        assert_eq!(adds, vec![(0, t(1))]);
    }

    #[test]
    fn lock_hand_off_does_not_mask_the_acquisition_race() {
        use crate::ids::MutexId;
        let m = MutexId::from_index(0);
        let lock = || Footprint::of_stmt(&Stmt::lock(m), &[]);
        let unlock = || Footprint::of_stmt(&Stmt::unlock(m), &[]);
        let mut d = Dpor::new(2);
        // Both threads want the lock; t(0) wins and runs its critical
        // section as forced steps (t(1) is blocked throughout).
        d.push_frame(mask(&[0, 1]), 0);
        let (_, sel) = d.select();
        assert_eq!(sel, Some(t(0)));
        assert!(commit(&mut d, t(0), lock(), true).is_empty());
        assert!(commit(&mut d, t(0), wx(), false).is_empty());
        assert!(commit(&mut d, t(0), unlock(), false).is_empty());
        // t(1)'s acquisition happens-after the unlock (the hand-off),
        // but the reversible race is with t(0)'s *lock*: the other
        // acquisition order reaches states this one cannot.
        let adds = commit(&mut d, t(1), lock(), false);
        assert_eq!(adds, vec![(0, t(1))]);
        let (_, sel) = d.select();
        assert_eq!(sel, Some(t(1)));
    }

    #[test]
    fn hand_off_itself_is_not_a_reversible_race() {
        use crate::ids::MutexId;
        let m = MutexId::from_index(0);
        let lock = || Footprint::of_stmt(&Stmt::lock(m), &[]);
        let unlock = || Footprint::of_stmt(&Stmt::unlock(m), &[]);
        let mut d = Dpor::new(2);
        // t(1) already holds the lock when the frame opens (its next op
        // is the unlock); t(0) is waiting... not enabled, so the frame
        // only lists t(1). The release then hands off to t(0)'s acquire:
        // dependent, forced, no backtrack addition anywhere.
        d.push_frame(mask(&[1]), 0);
        let (_, sel) = d.select();
        assert_eq!(sel, Some(t(1)));
        assert!(commit(&mut d, t(1), unlock(), true).is_empty());
        assert!(commit(&mut d, t(0), lock(), false).is_empty());
    }

    #[test]
    fn creation_edges_are_never_races() {
        let spawn = || Footprint::of_stmt(&Stmt::Spawn(t(1)), &[]);
        let mut d = Dpor::new(2);
        d.push_frame(mask(&[0, 1]), 0);
        d.select();
        commit(&mut d, t(0), spawn(), true);
        // t(1)'s first step happens-after its spawn; dependence through
        // the Thread object must not be reported as a reversible race.
        let adds = commit(&mut d, t(1), wx(), false);
        assert!(adds.is_empty());
    }

    #[test]
    fn sleeping_backtrack_candidates_are_skipped() {
        let mut d = Dpor::new(2);
        // t(0) is asleep: the seed skips it and picks t(1).
        d.push_frame(mask(&[0, 1]), mask(&[0]));
        let (skipped, sel) = d.select();
        assert_eq!((skipped, sel), (0, Some(t(1))));
        commit(&mut d, t(1), wx(), true);
        let adds = commit(&mut d, t(0), wx(), false);
        assert_eq!(adds, vec![(0, t(0))]);
        // The race wants t(0) first, but t(0) is asleep — an ancestor
        // sibling already owns that ordering, so it is skipped.
        let (skipped, sel) = d.select();
        assert_eq!((skipped, sel), (1, None));
        assert_eq!(d.pop_frame(), 0);
    }

    #[test]
    fn child_sleep_wakes_on_conflict_and_filters_disabled() {
        let sleepers = [(t(1), wy()), (t(2), wy()), (t(3), wy())];
        // Choice t(0) (write x) commutes with all sleepers (write y);
        // a forced step writing y wakes them all.
        let forced = [(t(0), wy())];
        assert_eq!(child_sleep(&sleepers, &wx(), &forced, mask(&[1, 2, 3])), 0);
        // With an independent edge, sleepers survive — except the one
        // no longer enabled at the child.
        let forced = [(t(0), wx())];
        let kept = child_sleep(&sleepers, &wx(), &forced, mask(&[1, 3]));
        assert_eq!(kept, mask(&[1, 3]));
    }

    #[test]
    fn explored_children_go_to_sleep_for_later_siblings() {
        let mut d = Dpor::new(2);
        d.push_frame(mask(&[0, 1]), 0);
        let (_, sel) = d.select();
        assert_eq!(sel, Some(t(0)));
        assert_eq!(d.sleeping(), mask(&[0]));
        // A later sibling t(1) (write y) leaves t(0) (write x) asleep.
        let kept = child_sleep(&[(t(0), wx())], &wy(), &[], mask(&[0]));
        assert_eq!(kept, mask(&[0])); // t(0) ⊥ t(1): stays asleep
    }

    #[test]
    fn abort_terminal_pending_op_grows_the_aborting_steps_backtrack_set() {
        use crate::ids::MutexId;
        use crate::Expr;
        // A failing assert touches nothing; a misused unlock carries no
        // effect flag. Both commute with t(1)'s write by footprint.
        let assert_fails = Stmt::assert(Expr::lit(0).eq(Expr::lit(1)), "boom");
        let unlock = Stmt::unlock(MutexId::from_index(0));
        for aborting in [assert_fails, unlock] {
            let fp = || Footprint::of_stmt(&aborting, &[]);
            let mut d = Dpor::new(2);
            d.push_frame(mask(&[0, 1]), 0);
            let (_, sel) = d.select();
            assert_eq!(sel, Some(t(0)));
            assert!(commit(&mut d, t(0), fp(), true).is_empty());
            // At a deadlock the cut-off write would race nothing here.
            d.pending_race(t(1), &wy(), false);
            assert_eq!(d.frames[0].backtrack, mask(&[0]), "{aborting:?}");
            // The abort cut it off: reversing the pair runs it first.
            d.pending_race(t(1), &wy(), true);
            assert_eq!(d.frames[0].backtrack, mask(&[0, 1]), "{aborting:?}");
            let (_, sel) = d.select();
            assert_eq!(sel, Some(t(1)));
        }
    }

    #[test]
    fn abort_race_does_not_mask_earlier_races() {
        use crate::Expr;
        let assert_fails = Stmt::assert(Expr::lit(0).eq(Expr::lit(1)), "boom");
        let mut d = Dpor::new(2);
        d.push_frame(mask(&[0, 1]), 0);
        d.select();
        assert!(commit(&mut d, t(0), wx(), true).is_empty());
        // A forced abort: its own race reverses nothing, and t(0)'s
        // write must still race t(1)'s cut-off write.
        commit(&mut d, t(0), Footprint::of_stmt(&assert_fails, &[]), false);
        d.pending_race(t(1), &wx(), true);
        assert_eq!(d.frames[0].backtrack, mask(&[0, 1]));
    }

    #[test]
    fn fallback_adds_all_enabled_when_no_initial_is() {
        // Artificial: the frame only lists t(0), yet other threads run
        // later (as if enabled elsewhere). The race's initials are not
        // in the frame's enabled set, so the conservative fallback
        // fires — here it adds nothing new because t(0) is already the
        // seed.
        let mut d = Dpor::new(3);
        d.push_frame(mask(&[0]), 0);
        d.select();
        commit(&mut d, t(0), wx(), true);
        commit(&mut d, t(1), wy(), false);
        let adds = commit(&mut d, t(2), wx(), false);
        assert!(adds.is_empty());
        // The frame enables t(0) and t(1), and t(0) writes x from it;
        // t(2) writes y and t(3) writes x as forced steps. t(3)'s race
        // with t(0) has initials {t(2), t(3)}, neither enabled at the
        // frame, so the fallback schedules every enabled thread: t(1).
        let mut d = Dpor::new(4);
        d.push_frame(mask(&[0, 1]), 0);
        d.select();
        commit(&mut d, t(0), wx(), true);
        assert!(commit(&mut d, t(2), wy(), false).is_empty());
        let adds = commit(&mut d, t(3), wx(), false);
        assert_eq!(adds, vec![(0, t(1))]);
    }

    #[test]
    fn log_truncates_on_reselect_and_pop() {
        let mut d = Dpor::new(2);
        d.push_frame(mask(&[0, 1]), 0);
        d.select();
        commit(&mut d, t(0), wx(), true);
        commit(&mut d, t(1), wx(), false);
        assert_eq!(d.log.len(), 2);
        d.select(); // next sibling: the old edge's steps are discarded
        assert_eq!(d.log.len(), 0);
        commit(&mut d, t(1), wx(), true);
        d.pop_frame();
        assert_eq!(d.log.len(), 0);
        assert_eq!(d.frames.len(), 0);
    }
}
