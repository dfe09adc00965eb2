//! The schedule log: a persistent append-only list with cheap clones.
//!
//! The executor's schedule taken grows on every step of every search,
//! and every model-checker snapshot clones it. A flat vector would copy
//! the entire O(steps) history per snapshot. [`ScheduleLog`] keeps its
//! newest entries inline and freezes each full run of them into a
//! shared, immutable node linked to the one before, so a clone copies a
//! few words and one pointer, a push allocates once per [`TAIL`]
//! entries, and divergent futures of a branch point never observe each
//! other's pushes.

use std::rc::Rc;

use crate::ids::ThreadId;

/// Elements per chunk of the chunked log layout that the snapshot size
/// model charges: a clone of it copies one pointer per `CHUNK` elements.
const CHUNK: usize = 64;

/// The bytes a clone of a `len`-element chunked log copies: one chunk
/// pointer per [`CHUNK`] elements, for the canonical packed layout.
/// The executor's snapshot size model charges both of its logs this
/// way, whatever their layout, so `snapshot_bytes_saved` stays
/// comparable across versions.
pub(crate) fn chunk_table_bytes(len: usize) -> usize {
    len.div_ceil(CHUNK) * std::mem::size_of::<Rc<Vec<()>>>()
}

/// Entries a [`ScheduleLog`] keeps inline. A clone copies them, and a
/// push allocates once per `TAIL` entries; a kernel's edge between two
/// branch points is usually shorter.
const TAIL: usize = 16;

/// A frozen run of [`TAIL`] schedule entries, linked to the run before
/// it. Never mutated once built, so any number of logs can share it.
#[derive(Debug)]
struct Frozen {
    prev: Option<Rc<Frozen>>,
    entries: [u8; TAIL],
}

impl Drop for Frozen {
    fn drop(&mut self) {
        // Unlink the runs only this one owns one at a time: the default
        // recursive drop of a long chain (an execution of millions of
        // steps) would overflow the stack.
        let mut prev = self.prev.take();
        while let Some(run) = prev {
            prev = Rc::into_inner(run).and_then(|mut run| run.prev.take());
        }
    }
}

/// The schedule taken: an append-only list of threads whose newest
/// `len % TAIL` entries sit inline and whose older ones sit in a shared
/// chain of [`Frozen`] runs, newest first. An entry is the thread's
/// index as one byte (a program has at most 64 threads), which keeps
/// the tail every snapshot copies small.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScheduleLog {
    frozen: Option<Rc<Frozen>>,
    tail: [u8; TAIL],
    len: usize,
}

impl ScheduleLog {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends an entry. Filling the tail freezes it into a new shared
    /// run, the only allocation; frozen runs are never written again.
    pub(crate) fn push(&mut self, thread: ThreadId) {
        debug_assert!(thread.index() <= usize::from(u8::MAX));
        self.tail[self.len % TAIL] = thread.index() as u8;
        self.len += 1;
        if self.len.is_multiple_of(TAIL) {
            let prev = self.frozen.take();
            let entries = self.tail;
            self.frozen = Some(Rc::new(Frozen { prev, entries }));
        }
    }

    /// The whole log as a flat vector, oldest entry first.
    pub(crate) fn to_vec(&self) -> Vec<ThreadId> {
        let mut out = vec![0; self.len];
        let inline = self.len % TAIL;
        let mut end = self.len - inline;
        out[end..].copy_from_slice(&self.tail[..inline]);
        let mut run = self.frozen.as_deref();
        while let Some(frozen) = run {
            out[end - TAIL..end].copy_from_slice(&frozen.entries);
            end -= TAIL;
            run = frozen.prev.as_deref();
        }
        debug_assert_eq!(end, 0, "the frozen runs hold every older entry");
        out.into_iter().map(|i| ThreadId(u32::from(i))).collect()
    }

    /// Bytes a clone copies in the executor's snapshot size model. That
    /// model predates this layout and charges the schedule as a chunked
    /// log ([`chunk_table_bytes`]); keeping it keeps
    /// `snapshot_bytes_saved` comparable across versions.
    pub(crate) fn clone_cost_bytes(&self) -> usize {
        chunk_table_bytes(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::from_index(i)
    }

    /// A log holding threads `0..n`, pushed one at a time.
    fn log_of(n: usize) -> ScheduleLog {
        let mut log = ScheduleLog::default();
        for i in 0..n {
            log.push(t(i));
        }
        log
    }

    #[test]
    fn schedule_log_materializes_in_order_around_the_tail() {
        for n in [0, 1, TAIL - 1, TAIL, TAIL + 1, 70] {
            let log = log_of(n);
            assert_eq!(log.len(), n);
            assert_eq!(log.to_vec(), (0..n).map(t).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn schedule_log_clones_never_observe_each_others_pushes() {
        // Branch at every tail position, including just before and just
        // after a run freezes. Entries are one byte: ids stay below 256.
        for n in [TAIL - 1, TAIL, TAIL + 1, 70] {
            let mut a = log_of(n);
            let mut b = a.clone();
            a.push(t(200));
            for i in 0..TAIL + 2 {
                b.push(t(220 + i));
            }
            let (va, vb) = (a.to_vec(), b.to_vec());
            assert_eq!(va.len(), n + 1);
            assert_eq!(vb.len(), n + TAIL + 2);
            assert_eq!(va[..n], vb[..n], "n = {n}");
            assert_eq!(va[..n], (0..n).map(t).collect::<Vec<_>>()[..]);
            assert_eq!(va[n], t(200));
            assert_eq!(
                vb[n..],
                (0..TAIL + 2).map(|i| t(220 + i)).collect::<Vec<_>>()[..]
            );
        }
    }

    #[test]
    fn schedule_log_frozen_runs_are_shared_and_never_written() {
        let a = log_of(TAIL);
        let frozen = Rc::clone(a.frozen.as_ref().expect("a full tail freezes"));
        let mut b = a.clone();
        for i in 0..3 * TAIL {
            b.push(t(100 + i));
        }
        // `b` chained new runs on top of the shared one without touching it.
        assert_eq!(frozen.entries, std::array::from_fn(|i| i as u8));
        assert!(Rc::ptr_eq(a.frozen.as_ref().unwrap(), &frozen));
        assert!(frozen.prev.is_none());
        assert_eq!(a.to_vec(), (0..TAIL).map(t).collect::<Vec<_>>());
        assert_eq!(b.to_vec()[..TAIL], a.to_vec()[..]);
    }

    #[test]
    fn dropping_a_long_schedule_log_does_not_recurse() {
        // A quarter of a million frozen runs: a recursive drop would
        // need far more stack than a test thread has.
        let mut log = ScheduleLog::default();
        for _ in 0..TAIL * 250_000 {
            log.push(t(1));
        }
        let branch = log.clone();
        drop(log);
        assert_eq!(branch.len(), TAIL * 250_000);
        drop(branch);
    }

    #[test]
    fn schedule_log_charges_the_chunked_size_model() {
        for n in [0, 1, CHUNK, CHUNK + 1, 4 * CHUNK] {
            assert_eq!(
                log_of(n).clone_cost_bytes(),
                n.div_ceil(CHUNK) * std::mem::size_of::<Rc<Vec<ThreadId>>>(),
            );
        }
    }
}
