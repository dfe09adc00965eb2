//! Incrementally maintained state fingerprint for the explorer's dedup.
//!
//! The state key is one FNV-1a hash per *component* — each shared
//! variable, each sync object, each thread — folded into a single key
//! with XOR. [`Executor::state_key`](crate::Executor::state_key) hashes
//! every component afresh; the explorer's dedup, which probes the key
//! at every branch point, instead keeps the per-component hashes here.
//! XOR is order-independent and self-inverse, so the cached key is
//! repaired by xoring out a mutated component's stale hash and xoring
//! in its fresh one. A step only marks what it mutates dirty; the
//! repair waits for the dedup claim, so a search that never
//! deduplicates never hashes.
//!
//! Every component hash is seeded with a kind tag and the component's
//! index and finished with a `splitmix64`-style avalanche, so distinct
//! components land in independent positions of the fold and structured
//! patterns (two counters swapping values, say) do not cancel.
//!
//! This module owns the bookkeeping (slots, dirty list, fold); the
//! executor owns the *content* hashing, and its unit tests compare the
//! repaired key against `Executor::state_key` after arbitrary step
//! sequences.

/// Streaming 64-bit FNV-1a hasher with a strong finisher.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn byte(mut self, b: u8) -> Fnv {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        self
    }

    pub(crate) fn bytes(mut self, bs: &[u8]) -> Fnv {
        for &b in bs {
            self = self.byte(b);
        }
        self
    }

    /// One multiply round per word instead of eight byte rounds: the
    /// incremental fingerprint rehashes a component on every executor
    /// step, so this is hot-path cost. The word is avalanched first so
    /// a single round still diffuses it across the accumulator.
    pub(crate) fn u64(mut self, v: u64) -> Fnv {
        self.0 = (self.0 ^ mix(v)).wrapping_mul(Self::PRIME);
        self
    }

    pub(crate) fn i64(self, v: i64) -> Fnv {
        self.u64(v as u64)
    }

    pub(crate) fn usize(self, v: usize) -> Fnv {
        self.u64(v as u64)
    }

    /// Finishes with an avalanche mix so component hashes are safe to
    /// combine by XOR.
    pub(crate) fn finish(self) -> u64 {
        mix(self.0)
    }
}

/// Word at a time, so that derived [`Hash`](std::hash::Hash) impls can
/// feed whole states: the executor's restore audit digests with it.
impl std::hash::Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            *self = self.u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        *self = self.u64(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        *self = self.u64(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        *self = self.u64(v);
    }

    fn write_usize(&mut self, v: usize) {
        *self = self.usize(v);
    }

    fn finish(&self) -> u64 {
        mix(self.0)
    }
}

/// `splitmix64` finalizer.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// One component of the execution state: a fingerprint slot, and the
/// key of a released clock in [`crate::trace`]'s clock pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Comp {
    Var(usize),
    Mutex(usize),
    Cond(usize),
    Rw(usize),
    Sem(usize),
    Thread(usize),
}

/// Components the dirty list holds. A step touches two or three; an
/// edge between two repairs that touches more (a broadcast waking many
/// waiters, a commit publishing many variables, a long forced run)
/// marks every component dirty instead.
pub(crate) const DIRTY: usize = 4;

/// Cached per-component hashes plus their XOR fold, with a dirty list
/// of components mutated since the fold was last repaired.
///
/// All slots live in one flat table (kind-segmented by offset) and the
/// dirty list is inline, in the [`Fold`]: a step must not allocate to
/// mark what it touched, and the executor's undo trail saves and
/// restores the fold as a few words. Only a repair writes the slots.
#[derive(Debug, Clone, Hash)]
pub(crate) struct StateHash {
    slots: Box<[u64]>,
    /// Start of each kind's segment in `slots`, in [`Comp`] kind order
    /// (vars start at 0).
    offsets: [u32; 5],
    fold: Fold,
}

/// The fold over a [`StateHash`]'s slots and its repair books: the
/// part an executor's mark saves whole.
#[derive(Debug, Clone, Copy, Hash)]
pub(crate) struct Fold {
    key: u64,
    /// Slots whose first `n_dirty` entries await a rehash.
    dirty: [u32; DIRTY],
    n_dirty: u8,
    /// While non-zero, every component is dirty: slots `0..sweep` still
    /// await a rehash, and the dirty list is unused.
    sweep: u32,
}

impl StateHash {
    /// Zeroed slots for a state with the given component counts, all of
    /// them dirty: the first repair fills them.
    pub(crate) fn with_sizes(
        vars: usize,
        mutexes: usize,
        conds: usize,
        rws: usize,
        sems: usize,
        threads: usize,
    ) -> StateHash {
        let mutexes_at = vars;
        let conds_at = mutexes_at + mutexes;
        let rws_at = conds_at + conds;
        let sems_at = rws_at + rws;
        let threads_at = sems_at + sems;
        let len = threads_at + threads;
        StateHash {
            slots: vec![0; len].into_boxed_slice(),
            offsets: [
                mutexes_at as u32,
                conds_at as u32,
                rws_at as u32,
                sems_at as u32,
                threads_at as u32,
            ],
            fold: Fold {
                key: 0,
                dirty: [0; DIRTY],
                n_dirty: 0,
                sweep: len as u32,
            },
        }
    }

    /// Number of components (and slots).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The component stored in slot `at`.
    fn comp_at(&self, at: usize) -> Comp {
        let [mutexes, conds, rws, sems, threads] = self.offsets.map(|o| o as usize);
        if at >= threads {
            Comp::Thread(at - threads)
        } else if at >= sems {
            Comp::Sem(at - sems)
        } else if at >= rws {
            Comp::Rw(at - rws)
        } else if at >= conds {
            Comp::Cond(at - conds)
        } else if at >= mutexes {
            Comp::Mutex(at - mutexes)
        } else {
            Comp::Var(at)
        }
    }

    /// The slot that stores component `c`.
    fn at(&self, c: Comp) -> usize {
        match c {
            Comp::Var(i) => i,
            Comp::Mutex(i) => self.offsets[0] as usize + i,
            Comp::Cond(i) => self.offsets[1] as usize + i,
            Comp::Rw(i) => self.offsets[2] as usize + i,
            Comp::Sem(i) => self.offsets[3] as usize + i,
            Comp::Thread(i) => self.offsets[4] as usize + i,
        }
    }

    /// Marks a component as mutated and returns its slot. Idempotent
    /// within one repair cycle; touching more than [`DIRTY`] components
    /// marks them all.
    pub(crate) fn touch(&mut self, c: Comp) -> usize {
        let at = self.at(c);
        let fold = &mut self.fold;
        let n = usize::from(fold.n_dirty);
        if fold.sweep > 0 || fold.dirty[..n].contains(&(at as u32)) {
            return at;
        }
        if n < DIRTY {
            fold.dirty[n] = at as u32;
            fold.n_dirty += 1;
        } else {
            fold.n_dirty = 0;
            fold.sweep = self.slots.len() as u32;
        }
        at
    }

    /// Pops one component awaiting a rehash.
    pub(crate) fn pop_dirty(&mut self) -> Option<Comp> {
        let fold = &mut self.fold;
        if fold.sweep > 0 {
            fold.sweep -= 1;
            let at = fold.sweep as usize;
            return Some(self.comp_at(at));
        }
        fold.n_dirty = fold.n_dirty.checked_sub(1)?;
        let at = fold.dirty[usize::from(fold.n_dirty)] as usize;
        Some(self.comp_at(at))
    }

    /// Installs a fresh hash for `c`, repairing the fold: the stale
    /// hash xors out, the fresh one xors in. Returns the slot and the
    /// stale hash, for the executor's undo trail.
    pub(crate) fn replace(&mut self, c: Comp, fresh: u64) -> (usize, u64) {
        let at = self.at(c);
        let stale = std::mem::replace(&mut self.slots[at], fresh);
        self.fold.key ^= stale ^ fresh;
        (at, stale)
    }

    /// Puts back slot `at`'s hash from before a repair; the fold comes
    /// back whole with [`StateHash::set_fold`].
    pub(crate) fn restore_slot(&mut self, at: usize, hash: u64) {
        self.slots[at] = hash;
    }

    /// The fold and its dirty list.
    pub(crate) fn fold(&self) -> Fold {
        self.fold
    }

    /// Reinstates a fold saved with [`StateHash::fold`], once every slot
    /// repaired since is restored.
    pub(crate) fn set_fold(&mut self, fold: Fold) {
        self.fold = fold;
    }

    /// `true` when no component awaits a rehash (the fold is valid).
    pub(crate) fn is_clean(&self) -> bool {
        self.fold.n_dirty == 0 && self.fold.sweep == 0
    }

    /// The XOR fold over all component hashes.
    pub(crate) fn key(&self) -> u64 {
        debug_assert!(self.is_clean(), "state key read with dirty components");
        self.fold.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_repairs_the_fold() {
        let mut h = StateHash::with_sizes(2, 1, 0, 0, 0, 1);
        drain(&mut h);
        h.replace(Comp::Var(0), 10);
        h.replace(Comp::Var(1), 20);
        h.replace(Comp::Mutex(0), 40);
        h.replace(Comp::Thread(0), 80);
        assert_eq!(h.key(), 10 ^ 20 ^ 40 ^ 80);
        // Updating one component swaps exactly its contribution.
        h.replace(Comp::Var(1), 21);
        assert_eq!(h.key(), 10 ^ 21 ^ 40 ^ 80);
    }

    /// Pops every pending component, leaving the hash clean.
    fn drain(h: &mut StateHash) -> Vec<Comp> {
        std::iter::from_fn(|| h.pop_dirty()).collect()
    }

    #[test]
    fn fresh_hash_has_every_component_dirty() {
        let mut h = StateHash::with_sizes(2, 1, 1, 1, 1, 2);
        assert!(!h.is_clean());
        let mut all = drain(&mut h);
        all.reverse();
        use Comp::*;
        let expect = [Var(0), Var(1), Mutex(0), Cond(0), Rw(0), Sem(0)];
        assert_eq!(all[..6], expect);
        assert_eq!(all[6..], [Thread(0), Thread(1)]);
        assert!(h.is_clean());
    }

    #[test]
    fn touch_is_idempotent_per_cycle() {
        let mut h = StateHash::with_sizes(1, 0, 0, 0, 0, 1);
        drain(&mut h);
        h.touch(Comp::Var(0));
        h.touch(Comp::Var(0));
        h.touch(Comp::Thread(0));
        assert!(!h.is_clean());
        assert!(h.pop_dirty().is_some());
        assert!(h.pop_dirty().is_some());
        assert!(h.pop_dirty().is_none());
        assert!(h.is_clean());
    }

    #[test]
    fn touching_more_than_the_list_holds_dirties_everything() {
        let mut h = StateHash::with_sizes(3, 0, 0, 0, 0, 3);
        drain(&mut h);
        for i in 0..3 {
            h.touch(Comp::Var(i));
            h.touch(Comp::Thread(i));
        }
        // Six touches overflow the list: a sweep over all six slots
        // replaces it, each component exactly once.
        let swept = drain(&mut h);
        assert_eq!(swept.len(), 6);
        for i in 0..3 {
            assert!(swept.contains(&Comp::Var(i)) && swept.contains(&Comp::Thread(i)));
        }
        assert!(h.is_clean());
        // The next cycle is back on the list.
        h.touch(Comp::Var(1));
        assert_eq!(drain(&mut h), [Comp::Var(1)]);
    }

    #[test]
    fn fnv_distinguishes_order_and_content() {
        let a = Fnv::new().u64(1).u64(2).finish();
        let b = Fnv::new().u64(2).u64(1).finish();
        let c = Fnv::new().u64(1).u64(2).finish();
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(
            Fnv::new().bytes(b"x").finish(),
            Fnv::new().bytes(b"y").finish()
        );
    }

    #[test]
    fn mix_avalanches_low_bits() {
        // Consecutive inputs must not produce correlated folds.
        let h1 = mix(1);
        let h2 = mix(2);
        assert_ne!(h1 ^ h2, 3, "mix must break additive structure");
        assert_ne!(h1, h2);
    }
}
