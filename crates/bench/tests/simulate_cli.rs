//! End-to-end tests for the `simulate` binary's error routing: each
//! failure class must exit with its own distinct non-zero code (2 usage,
//! 3 config, 4 I/O, 5 physics), and the happy path — including
//! `--resume` — must exit 0 with a reproducible summary.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate binary runs")
}

/// A unique scratch path per test invocation.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dcs-simulate-cli-{tag}-{}-{n}", std::process::id()))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A minimal valid config: tiny facility, short inline trace, Greedy.
fn tiny_config(strategy: &str) -> String {
    format!(
        r#"{{"pdus":2,"servers_per_pdu":50,"dc_headroom_percent":10.0,"pue":1.53,
            "controller":null,
            "workload":{{"kind":"inline","step_secs":60.0,
                         "samples":[0.5,0.9,2.5,3.0,2.0,0.8,0.5,0.4]}},
            "strategy":{strategy},"faults":null}}"#
    )
}

#[test]
fn no_arguments_is_a_usage_error() {
    let out = simulate(&[]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = simulate(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--frobnicate"));
}

#[test]
fn missing_config_file_exits_with_io_code() {
    let path = scratch("missing").join("nope.json");
    let out = simulate(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr_of(&out));
    // The offending path is named in the message.
    assert!(
        stderr_of(&out).contains("nope.json"),
        "stderr: {}",
        stderr_of(&out)
    );
}

#[test]
fn malformed_json_exits_with_config_code() {
    let path = scratch("malformed");
    std::fs::write(&path, "{ this is not json").unwrap();
    let out = simulate(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("malformed config"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn invalid_bound_exits_with_config_code() {
    let path = scratch("badbound");
    std::fs::write(&path, tiny_config(r#"{"kind":"fixed_bound","bound":0.5}"#)).unwrap();
    let out = simulate(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("at least 1"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn empty_inline_trace_exits_with_physics_code() {
    let path = scratch("emptytrace");
    std::fs::write(
        &path,
        r#"{"pdus":2,"servers_per_pdu":50,"dc_headroom_percent":10.0,"pue":1.53,
            "controller":null,
            "workload":{"kind":"inline","step_secs":60.0,"samples":[]},
            "strategy":{"kind":"greedy"},"faults":null}"#,
    )
    .unwrap();
    let out = simulate(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr_of(&out));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn config_error_with_resume_leaves_no_checkpoint_dir() {
    // Config validation must run before `--resume` creates the checkpoint
    // directory: a config error exits 3 and leaves nothing behind.
    let path = scratch("badresume");
    let resume = scratch("badresume-dir");
    // Oracle + faults is a config error, and oracle is a resumable
    // strategy, so before the ordering fix this created `resume` first.
    std::fs::write(
        &path,
        r#"{"pdus":2,"servers_per_pdu":50,"dc_headroom_percent":10.0,"pue":1.53,
            "controller":null,
            "workload":{"kind":"inline","step_secs":60.0,"samples":[0.5,2.5,0.5]},
            "strategy":{"kind":"oracle"},
            "faults":{"events":[{"start":0.0,"end":60.0,
                                 "kind":{"kind":"ups_string_failure","fraction":0.3}}]}}"#,
    )
    .unwrap();
    let out = simulate(&[path.to_str().unwrap(), "--resume", resume.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(
        !resume.exists(),
        "config error must not create the resume checkpoint directory"
    );
    // Same ordering for a plain invalid strategy parameter.
    let path2 = scratch("badresume2");
    let resume2 = scratch("badresume2-dir");
    std::fs::write(
        &path2,
        tiny_config(r#"{"kind":"prediction","minutes":-5.0}"#),
    )
    .unwrap();
    let out = simulate(&[
        path2.to_str().unwrap(),
        "--resume",
        resume2.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(!resume2.exists());
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&path2).unwrap();
}

#[test]
fn valid_config_runs_and_writes_telemetry() {
    let path = scratch("ok");
    let out_json = scratch("ok-out");
    std::fs::write(&path, tiny_config(r#"{"kind":"greedy"}"#)).unwrap();
    let out = simulate(&[path.to_str().unwrap(), out_json.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(stdout_of(&out).contains("strategy:"));
    let telemetry = std::fs::read_to_string(&out_json).unwrap();
    assert!(telemetry.contains("Greedy"));
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&out_json).unwrap();
}

#[test]
fn resume_reproduces_the_oracle_run_exactly() {
    let path = scratch("resume-cfg");
    let dir = scratch("resume-ckpt");
    std::fs::write(&path, tiny_config(r#"{"kind":"oracle"}"#)).unwrap();

    let first = simulate(&[path.to_str().unwrap(), "--resume", dir.to_str().unwrap()]);
    assert_eq!(
        first.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&first)
    );
    // Snapshots landed under the resume dir.
    let snaps = std::fs::read_dir(&dir).unwrap().count();
    assert!(snaps > 0, "no snapshots written to {}", dir.display());

    // A second run resumes from them and reproduces the summary verbatim.
    let second = simulate(&[path.to_str().unwrap(), "--resume", dir.to_str().unwrap()]);
    assert_eq!(
        second.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&second)
    );
    assert_eq!(stdout_of(&first), stdout_of(&second));

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resumed_run_prints_what_the_plain_run_prints() {
    for strategy in [
        r#"{"kind":"oracle"}"#,
        r#"{"kind":"prediction","minutes":5.0}"#,
    ] {
        let path = scratch("plain-vs-resume-cfg");
        let dir = scratch("plain-vs-resume-ckpt");
        std::fs::write(&path, tiny_config(strategy)).unwrap();
        let plain = simulate(&[path.to_str().unwrap()]);
        let resumed = simulate(&[path.to_str().unwrap(), "--resume", dir.to_str().unwrap()]);
        for out in [&plain, &resumed] {
            assert_eq!(out.status.code(), Some(0), "{strategy}: {}", stderr_of(out));
        }
        assert!(!stdout_of(&plain).is_empty(), "{strategy}: empty summary");
        assert_eq!(stdout_of(&plain), stdout_of(&resumed), "{strategy}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resume_without_directory_is_a_usage_error() {
    let out = simulate(&["config.json", "--resume"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--resume"));
}
