//! The exact bytes of `lfm witness <id> --chrome`.
//!
//! The Chrome trace export is what a developer loads into Perfetto to
//! read a bug's interleaving, so its record order, key order, metadata
//! records and escaping are pinned here byte for byte for one kernel's
//! minimized witness.

use std::process::Command;

const EXPECTED: &str = r#"{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"counter_rmw"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"t1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"t2"}},
{"name":"start","ph":"i","pid":1,"tid":0,"ts":0,"s":"t","args":{"op":"start","clock":"⟨0,0⟩"}},
{"name":"start","ph":"i","pid":1,"tid":1,"ts":1,"s":"t","args":{"op":"start","clock":"⟨0,0⟩"}},
{"name":"read counter -> 0","ph":"i","pid":1,"tid":1,"ts":2,"s":"t","args":{"op":"read","clock":"⟨0,1⟩"}},
{"name":"read counter -> 0","ph":"i","pid":1,"tid":0,"ts":3,"s":"t","args":{"op":"read","clock":"⟨1,0⟩"}},
{"name":"counter = 1","ph":"i","pid":1,"tid":0,"ts":4,"s":"t","args":{"op":"write","clock":"⟨2,0⟩"}},
{"name":"exit","ph":"i","pid":1,"tid":0,"ts":5,"s":"t","args":{"op":"exit","clock":"⟨2,0⟩"}},
{"name":"counter = 1","ph":"i","pid":1,"tid":1,"ts":6,"s":"t","args":{"op":"write","clock":"⟨0,2⟩"}},
{"name":"exit","ph":"i","pid":1,"tid":1,"ts":7,"s":"t","args":{"op":"exit","clock":"⟨0,2⟩"}}
]}
"#;

#[test]
fn witness_chrome_export_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("lfm-chrome-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let witness = dir.join("counter_rmw.witness.json");
    let chrome = dir.join("counter_rmw.chrome.json");
    let out = Command::new(env!("CARGO_BIN_EXE_lfm"))
        .args(["witness", "counter_rmw", "--out"])
        .arg(&witness)
        .arg("--chrome")
        .arg(&chrome)
        .output()
        .expect("lfm runs");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&chrome).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(text, EXPECTED);
}
