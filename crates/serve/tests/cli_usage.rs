//! Command-line behaviour of the serve binaries: out-of-range flag values
//! must exit with the usage code (not a panic's 101) before any scenario
//! trains, and `bench_serve` must run end to end at the test scale.

use std::path::PathBuf;
use std::process::{Command, Output};

use serde::Deserialize;

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

/// Bad values both binaries must reject.
const SHARED_BAD: [(&str, &str); 4] = [
    ("--workers", "0"),
    ("--max-batch", "0"),
    ("--enob", "0"),
    ("--enob", "nan"),
];

#[test]
fn ams_serve_rejects_out_of_range_flags() {
    assert_usage_errors(env!("CARGO_BIN_EXE_ams-serve"), "usage_daemon", &SHARED_BAD);
}

#[test]
fn bench_serve_rejects_out_of_range_flags() {
    let mut bad = SHARED_BAD.to_vec();
    bad.extend([("--concurrency", "0"), ("--requests", "0")]);
    assert_usage_errors(env!("CARGO_BIN_EXE_bench_serve"), "usage_bench", &bad);
}

#[test]
fn unknown_and_dangling_flags_exit_2() {
    for bin in [
        env!("CARGO_BIN_EXE_ams-serve"),
        env!("CARGO_BIN_EXE_bench_serve"),
    ] {
        // `--max-delay-ms` is a retired flag: it must fail like any
        // unknown one.
        for args in [["--bogus", "1"], ["--max-delay-ms", "2"]] {
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
}

#[derive(Debug, Deserialize)]
struct ServeReport {
    schema: String,
    modes: Vec<ModeReport>,
    speedup: f64,
}

#[derive(Debug, Deserialize)]
struct ModeReport {
    mode: String,
    max_batch: usize,
    total_requests: usize,
}

#[test]
fn bench_serve_smoke_at_test_scale() {
    let dir = scratch("bench_smoke");
    let results = dir.join("results");
    let out_path = dir.join("BENCH_serve.json");
    let out = run(
        env!("CARGO_BIN_EXE_bench_serve"),
        &[
            "--scale",
            "test",
            "--results",
            results.to_str().expect("utf-8 temp path"),
            "--concurrency",
            "2",
            "--requests",
            "3",
            "--warmup",
            "1",
            "--out",
            out_path.to_str().expect("utf-8 temp path"),
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "bench_serve failed; stderr was: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("bench_serve wrote its report");
    let report: ServeReport = serde_json::from_str(&text).expect("report parses");
    assert_eq!(report.schema, "ams-bench/serve/v3");
    let modes: Vec<&str> = report.modes.iter().map(|m| m.mode.as_str()).collect();
    assert_eq!(modes, ["batch1_forced", "adaptive"]);
    assert_eq!(report.modes[0].max_batch, 1);
    for mode in &report.modes {
        assert_eq!(mode.total_requests, 6, "{mode:?}");
    }
    assert!(
        report.speedup.is_finite() && report.speedup > 0.0,
        "speedup {}",
        report.speedup
    );
    let _ = std::fs::remove_dir_all(dir);
}
