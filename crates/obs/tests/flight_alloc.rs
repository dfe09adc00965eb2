//! Heap allocations per flight-recorder event.
//!
//! The `lfm` binary tees every event into a `FlightRecorder`, so on a
//! traced server each captured span passes through it. The recorder
//! renders an event into the buffer of the line it evicts, so once the
//! ring has wrapped, recording an event whose line fits that buffer
//! allocates nothing. A counting global allocator tallies the calling
//! thread's allocations (tests running in parallel never mix their
//! counts).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lfm_obs::{Event, FlightRecorder, Sink, Value};

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

fn emit_span(recorder: &FlightRecorder, n: u64) {
    recorder.emit(&Event {
        scope: "serve",
        name: "span",
        fields: &[
            ("req", Value::U64(n % 10)),
            ("stage", Value::Str("explore")),
            ("dur_us", Value::U64(400)),
            ("trace_id", Value::Str("00000000000000ff")),
        ],
    });
}

#[test]
fn a_wrapped_recorder_records_without_allocating() {
    let recorder = FlightRecorder::with_capacity(16);
    // The first lap gives every slot its line buffer.
    for n in 0..16 {
        emit_span(&recorder, n);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for n in 0..1_000 {
        emit_span(&recorder, n);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(recorder.recorded(), 1_016);
    assert_eq!(allocations, 0, "a wrapped ring allocated per event");
}
