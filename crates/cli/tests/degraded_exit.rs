//! End-to-end exit-status contract of the `lfm` binary:
//!
//! - 0 on success (including budgeted chaos runs);
//! - 1 degraded — a table generator panicked but was contained, a
//!   `tables` benchmark gate failed, or `--log-jsonl` lost events to
//!   write errors;
//! - 2 on usage errors.

use std::process::{Command, Output};

fn lfm(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lfm"));
    cmd.args(args);
    cmd
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn clean_tables_run_exits_zero() {
    let out = lfm(&["tables", "t2"]).output().expect("spawn lfm");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("T2:"));
    assert!(!stdout(&out).contains("FAILED"));
}

#[test]
fn injected_table_panic_degrades_but_does_not_abort() {
    let out = lfm(&["tables", "t3"])
        .env("LFM_INJECT_PANIC", "t3")
        .output()
        .expect("spawn lfm");
    // Contained: the process exits 1 through the normal path (an abort
    // would be a signal death with no exit code on unix).
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("FAILED t3: injected panic for artifact t3"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn injected_panic_leaves_other_artifacts_standing() {
    // Inject into t3 but render t2: the poison is artifact-keyed, so
    // the run is clean.
    let out = lfm(&["tables", "t2"])
        .env("LFM_INJECT_PANIC", "t3")
        .output()
        .expect("spawn lfm");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("T2:"));
}

#[test]
fn failed_tables_gate_exits_one() {
    // A baseline without the gate field fails before measuring.
    let path = std::env::temp_dir().join(format!("lfm-gate-{}.json", std::process::id()));
    std::fs::write(&path, "{}").expect("write baseline");
    let dump = std::env::temp_dir().join(format!("lfm-gate-{}.jsonl", std::process::id()));
    let out = lfm(&["tables", "--check-serve", &path.to_string_lossy()])
        .env("LFM_FLIGHT_DUMP", &dump)
        .output()
        .expect("spawn lfm");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&dump);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("has no requests_per_sec for `no-chaos`"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn chaos_deadline_kernel_run_exits_zero_and_reports_level() {
    let out = lfm(&["kernel", "abba", "--chaos", "42", "--deadline", "10"])
        .output()
        .expect("spawn lfm");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("chaos seed: 42"), "{text}");
    assert!(text.contains("level: "), "{text}");
    assert!(text.contains("confidence: "), "{text}");
    assert!(text.contains("(proved)"), "{text}");
    assert!(!text.contains("BROKEN"), "{text}");
}

#[test]
fn usage_error_exits_two() {
    let out = lfm(&["frobnicate"]).output().expect("spawn lfm");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("frobnicate"));
}

#[test]
fn bad_deadline_exits_two() {
    let out = lfm(&["kernel", "abba", "--deadline", "-1"])
        .output()
        .expect("spawn lfm");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--deadline"));
}

/// `--log-jsonl` pointed at a device that rejects every write: the run
/// completes, reports the losses, and exits degraded.
#[cfg(target_os = "linux")]
#[test]
fn lost_log_events_exit_degraded() {
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipping: /dev/full not available");
        return;
    }
    let out = lfm(&["--log-jsonl", "/dev/full", "kernel", "counter_rmw"])
        .output()
        .expect("spawn lfm");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    // The exploration itself still printed its results.
    assert!(stdout(&out).contains("buggy:"), "{}", stdout(&out));
    assert!(stderr(&out).contains("lost"), "{}", stderr(&out));
}
