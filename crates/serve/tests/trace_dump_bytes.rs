//! The exact bytes of a `--trace` dump.
//!
//! `Tracer::dump_chrome` writes the `lfm-serve-trace/v1` document that
//! Perfetto loads. Its key order, metadata records and id formatting
//! are part of that contract, so this test pins one dump byte for byte:
//! fixed spans on three tracks, one request with a trace context (its
//! ids in `args`) and one without (empty `args`).

use std::sync::Arc;

use lfm_obs::NoopSink;
use lfm_serve::{SpanRec, Stage, TraceContext, Tracer};

const EXPECTED: &str = r#"{"schema":"lfm-serve-trace/v1","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"lfm-serve conn"}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"lfm-serve worker-0"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"lfm-serve worker-1"}},
{"name":"accept","ph":"X","pid":0,"tid":1,"ts":10,"dur":5,"args":{"trace_id":"4391b455e8b2ea51"}},
{"name":"parse","ph":"X","pid":0,"tid":1,"ts":15,"dur":1,"args":{"trace_id":"4391b455e8b2ea51"}},
{"name":"queue_wait","ph":"X","pid":0,"tid":1,"ts":16,"dur":30,"args":{"trace_id":"4391b455e8b2ea51"}},
{"name":"worker_claim","ph":"X","pid":2,"tid":1,"ts":46,"dur":2,"args":{"trace_id":"4391b455e8b2ea51"}},
{"name":"explore","ph":"X","pid":2,"tid":1,"ts":48,"dur":400,"args":{"trace_id":"4391b455e8b2ea51"}},
{"name":"reply_write","ph":"X","pid":0,"tid":1,"ts":450,"dur":3,"args":{"trace_id":"4391b455e8b2ea51"}},
{"name":"accept","ph":"X","pid":0,"tid":2,"ts":500,"dur":4,"args":{}},
{"name":"cache_lookup","ph":"X","pid":0,"tid":2,"ts":504,"dur":1,"args":{}},
{"name":"explore","ph":"X","pid":1,"tid":2,"ts":505,"dur":90,"args":{}}
]}
"#;

fn span(stage: Stage, pid: u64, ts_us: u64, dur_us: u64) -> SpanRec {
    SpanRec {
        stage,
        pid,
        ts_us,
        dur_us,
    }
}

#[test]
fn dump_chrome_bytes_are_pinned() {
    let tracer = Tracer::new(true, None, Arc::new(NoopSink));
    tracer.record(
        Some(TraceContext::mint(7, 1)),
        1,
        &[
            span(Stage::Accept, 0, 10, 5),
            span(Stage::Parse, 0, 15, 1),
            span(Stage::QueueWait, 0, 16, 30),
            span(Stage::WorkerClaim, 2, 46, 2),
            span(Stage::Explore, 2, 48, 400),
            span(Stage::ReplyWrite, 0, 450, 3),
        ],
    );
    tracer.record(
        None,
        2,
        &[
            span(Stage::Accept, 0, 500, 4),
            span(Stage::CacheLookup, 0, 504, 1),
            span(Stage::Explore, 1, 505, 90),
        ],
    );
    let dir = std::env::temp_dir().join(format!("lfm-trace-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dump.json");
    let dumped = tracer.dump_chrome(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(dumped, 9);
    assert_eq!(text, EXPECTED);
}
