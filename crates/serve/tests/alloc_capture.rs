//! Heap allocations per captured request timeline and per decoded
//! frame.
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
//!
//! A hit is otherwise mostly JSON: the server parses the request line
//! and the client parses the reply. Both decodes get a budget of
//! allocations per frame, which reads the same on every host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lfm_obs::NoopSink;
use lfm_serve::protocol::{parse_response, render_ok, render_request};
use lfm_serve::{parse_request, Request, SpanRec, Stage, TraceContext, Tracer, STAGES};

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

/// The report of a cache hit on `counter_rmw/buggy`, as `lfm serve`
/// renders it.
const REPORT: &str = concat!(
    "{\"kernel\":\"counter_rmw\",\"variant\":\"buggy\",\"fingerprint\":\"bfb41251bdcf3e4a\",",
    "\"level\":\"exhaustive\",\"confidence\":\"proved\",\"truncation\":null,\"schedules\":4,",
    "\"counts\":{\"ok\":2,\"assert\":2,\"deadlock\":0,\"step_limit\":0,\"tx_retry\":0,\"misuse\":0},",
    "\"failures\":2,\"first_failure\":\"final assert failed: both increments retained\"}"
);

/// Allocations per decode of one canonical `ok` reply by the client:
/// one parse of the line, whose `report` member the client keeps, and
/// one copy of the raw report bytes.
const REPLY_BUDGET: u64 = 44;

/// Allocations per parse of one `check` request line by the server:
/// the parse, and the kernel and variant it hands on.
const REQUEST_BUDGET: u64 = 11;

/// Runs `decode` `REQUESTS` times and returns its allocations per call.
fn allocations_per_call(decode: impl Fn()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..REQUESTS {
        decode();
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocations % REQUESTS, 0, "a decode's allocations vary");
    allocations / REQUESTS
}

#[test]
fn decoding_a_frame_stays_within_budget() {
    let reply = render_ok(true, None, REPORT);
    let request = render_request(&Request::Check {
        kernel: "counter_rmw".to_owned(),
        variant: "buggy".to_owned(),
        deadline_ms: None,
        trace: None,
    });
    let reply_allocs = allocations_per_call(|| {
        parse_response(&reply).expect("a canonical reply decodes");
    });
    let request_allocs = allocations_per_call(|| {
        parse_request(&request).expect("a check line decodes");
    });
    println!(
        "ok reply ({} bytes): {reply_allocs} allocations",
        reply.len()
    );
    println!(
        "check request ({} bytes): {request_allocs} allocations",
        request.len()
    );
    assert!(
        reply_allocs <= REPLY_BUDGET,
        "decoding an ok reply made {reply_allocs} allocations, budget {REPLY_BUDGET}"
    );
    assert!(
        request_allocs <= REQUEST_BUDGET,
        "parsing a check line made {request_allocs} allocations, budget {REQUEST_BUDGET}"
    );
}
