//! The exact bytes of a flight-recorder dump.
//!
//! `lfm-flight.jsonl` is read by people after a bad exit and by scripts
//! that parse it, so its header, the `seq` splice and the rendering of
//! every value kind are pinned here byte for byte: a ring of three
//! slots fed five events, with integers, floats (integral, fractional,
//! non-finite), booleans and strings that need escaping.

use lfm_obs::{Event, FlightRecorder, Sink, Value};

const EXPECTED: &str = "{\"schema\":\"lfm-obs/v1\",\"kind\":\"flight-recorder\",\"capacity\":3,\"recorded\":5,\"dropped\":2,\"retained\":3}\n\
    {\"seq\":2,\"scope\":\"explore\",\"event\":\"report\",\"schedules\":36436,\"delta\":-12,\"rate\":2.0,\"share\":0.125,\"tiny\":0.0000001,\"ratio\":null,\"truncated\":false}\n\
    {\"seq\":3,\"scope\":\"cli\",\"event\":\"say \\\"hi\\\"\",\"path\":\"C:\\\\tmp\\\\x\",\"text\":\"line\\nbreak\\ttab\\u0001\u{7f}é\",\"ok\":true}\n\
    {\"seq\":4,\"scope\":\"serve\",\"event\":\"span\",\"req\":18446744073709551615,\"stage\":\"explore\"}\n";

#[test]
fn dump_jsonl_bytes_are_pinned() {
    let recorder = FlightRecorder::with_capacity(3);
    recorder.emit(&Event {
        scope: "explore",
        name: "start",
        fields: &[("kernel", Value::Str("dropped"))],
    });
    recorder.emit(&Event {
        scope: "explore",
        name: "progress",
        fields: &[],
    });
    recorder.emit(&Event {
        scope: "explore",
        name: "report",
        fields: &[
            ("schedules", Value::U64(36_436)),
            ("delta", Value::I64(-12)),
            ("rate", Value::F64(2.0)),
            ("share", Value::F64(0.125)),
            ("tiny", Value::F64(1e-7)),
            ("ratio", Value::F64(f64::NAN)),
            ("truncated", Value::Bool(false)),
        ],
    });
    recorder.emit(&Event {
        scope: "cli",
        name: "say \"hi\"",
        fields: &[
            ("path", Value::Str("C:\\tmp\\x")),
            ("text", Value::Str("line\nbreak\ttab\u{1}\u{7f}é")),
            ("ok", Value::Bool(true)),
        ],
    });
    recorder.emit(&Event {
        scope: "serve",
        name: "span",
        fields: &[
            ("req", Value::U64(u64::MAX)),
            ("stage", Value::Str("explore")),
        ],
    });
    let mut out = Vec::new();
    recorder.dump_jsonl(&mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), EXPECTED);
}
