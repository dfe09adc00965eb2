//! Heap allocations per captured request timeline.
//!
//! Since keep-alive serving a cache hit costs tens of microseconds end
//! to end, so whatever `Tracer::record` spends per span shows up in the
//! traced throughput. The tracer stores each span as a `Copy` record in
//! a preallocated ring and builds a `serve`/`span` event only when the
//! session sink wants one, so with a no-op session sink recording a
//! timeline must not touch the heap at all. A counting global allocator
//! tallies the calling thread's allocations (tests running in parallel
//! never mix their counts); the budget is zero for the two timeline
//! shapes the server records (a hit's four spans, a miss's nine), with
//! and without a client trace context.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lfm_obs::NoopSink;
use lfm_serve::{SpanRec, Stage, TraceContext, Tracer, STAGES};

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's; counting touches only
// a thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const REQUESTS: u64 = 1_000;

/// Records `REQUESTS` timelines over `stages` into a tracer with a
/// no-op session sink and returns the allocations made per request.
fn allocations_per_request(stages: &[Stage], traced: bool) -> f64 {
    let tracer = Tracer::new(true, None, Arc::new(NoopSink));
    let spans: Vec<SpanRec> = stages
        .iter()
        .enumerate()
        .map(|(i, &stage)| SpanRec {
            stage,
            pid: u64::from(stage == Stage::Explore),
            ts_us: 10 * i as u64,
            dur_us: 7,
        })
        .collect();
    let before = ALLOCATIONS.with(Cell::get);
    for seq in 0..REQUESTS {
        let trace = traced.then(|| TraceContext::mint(42, seq));
        tracer.record(trace, seq, &spans);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(tracer.captured(), REQUESTS * stages.len() as u64);
    allocations as f64 / REQUESTS as f64
}

#[test]
fn recording_a_timeline_allocates_nothing() {
    let hit = [
        Stage::Accept,
        Stage::Parse,
        Stage::CacheLookup,
        Stage::ReplyWrite,
    ];
    let mut allocating = Vec::new();
    for (shape, stages) in [("hit", &hit[..]), ("miss", &STAGES[..])] {
        for traced in [false, true] {
            let per = allocations_per_request(stages, traced);
            let line = format!(
                "{shape} ({} spans), trace context {traced}: {per:.2} allocations per request",
                stages.len()
            );
            println!("{line}");
            if per != 0.0 {
                allocating.push(line);
            }
        }
    }
    assert!(allocating.is_empty(), "capture allocated: {allocating:#?}");
}
