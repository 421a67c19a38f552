//! Command-line behaviour of the `ams-serve` binary: out-of-range flag
//! values must exit with the usage code (not a panic's 101) before any
//! scenario trains.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A per-test scratch directory, emptied first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ams_serve_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// Runs `bin` once per bad `(flag, value)` pair, at the test scale so a
/// missed check costs a tiny training run instead of a quick-scale one.
fn assert_usage_errors(bin: &str, scratch_name: &str, bad: &[(&str, &str)]) {
    let results = scratch(scratch_name);
    let results = results.to_str().expect("utf-8 temp path");
    for &(flag, value) in bad {
        let out = run(bin, &["--scale", "test", "--results", results, flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(ams_exp::USAGE_EXIT_CODE),
            "{bin} {flag} {value} should exit with the usage code; stderr was: {stderr}"
        );
        assert!(
            stderr.contains(flag),
            "{bin} {flag} {value}: stderr was: {stderr}"
        );
        assert!(
            stderr.contains("usage: "),
            "{bin} {flag} {value}: stderr was: {stderr}"
        );
    }
}

/// Bad values the daemon must reject.
const BAD_VALUES: [(&str, &str); 3] = [("--workers", "0"), ("--enob", "0"), ("--enob", "nan")];

#[test]
fn ams_serve_rejects_out_of_range_flags() {
    assert_usage_errors(env!("CARGO_BIN_EXE_ams-serve"), "usage_daemon", &BAD_VALUES);
}

#[test]
fn unknown_and_dangling_flags_exit_2() {
    let bin = env!("CARGO_BIN_EXE_ams-serve");
    // `--max-delay-ms` and `--max-batch` are retired flags: they must
    // fail like any unknown one.
    for args in [
        ["--bogus", "1"],
        ["--max-delay-ms", "2"],
        ["--max-batch", "2"],
    ] {
        let out = run(bin, &args);
        assert_eq!(out.status.code(), Some(ams_exp::USAGE_EXIT_CODE));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: unknown argument {:?}", args[0])),
            "stderr was: {stderr}"
        );
    }
    let out = run(bin, &["--workers"]);
    assert_eq!(out.status.code(), Some(ams_exp::USAGE_EXIT_CODE));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --workers needs a value"),
        "stderr was: {stderr}"
    );
}
