//! Usage-error behavior of the experiment binaries: bad flags must exit
//! with code 2 (not a panic's 101) and print the shared flag synopsis.

use std::process::Command;

fn run_table1(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .output()
        .expect("spawn table1")
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    // `--workers` is a retired flag: it must fail like any unknown one.
    for args in [&["--bogus"][..], &["--workers", "2"]] {
        let out = run_table1(args);
        assert_eq!(out.status.code(), Some(ams_exp::USAGE_EXIT_CODE));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: unknown argument {:?}", args[0])),
            "stderr was: {stderr}"
        );
        assert!(stderr.contains("usage: "), "stderr was: {stderr}");
        assert!(
            stderr.contains("--scale quick|full|test"),
            "stderr was: {stderr}"
        );
    }
}

#[test]
fn missing_flag_value_exits_2_with_usage() {
    let out = run_table1(&["--scale"]);
    assert_eq!(out.status.code(), Some(ams_exp::USAGE_EXIT_CODE));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --scale needs a value"),
        "stderr was: {stderr}"
    );
    assert!(stderr.contains("usage: "), "stderr was: {stderr}");
}

#[test]
fn unknown_error_model_exits_2_with_usage() {
    let out = run_table1(&["--error-model", "bogus"]);
    assert_eq!(out.status.code(), Some(ams_exp::USAGE_EXIT_CODE));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus"), "stderr was: {stderr}");
    assert!(stderr.contains("usage: "), "stderr was: {stderr}");
}

/// Asserts that `args` exit with the usage code and a usage line, the
/// error naming `flag`.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = run_table1(args);
    assert_eq!(
        out.status.code(),
        Some(ams_exp::USAGE_EXIT_CODE),
        "{args:?} should exit with the usage code"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(flag), "{args:?}: stderr was: {stderr}");
    assert!(stderr.contains("usage: "), "{args:?}: stderr was: {stderr}");
}

#[test]
fn bad_at_times_exit_2_with_usage() {
    // Unparsable, non-positive, and non-finite time lists must all die
    // with the usage synopsis, not a panic.
    for bad in ["abc", "1,,2", "0", "-5", "1,inf", "nan"] {
        assert_usage_error(&["--at-times", bad], "--at-times");
    }
}

#[test]
fn bad_adc_values_exit_2_with_usage() {
    // Values the VMAC simulator would reject must die with the usage
    // synopsis before any training, not as a panic in every sweep point.
    for bad in [
        "ref-scaled:2",
        "ref-scaled:0",
        "ref-scaled:-0.5",
        "ref-scaled:nan",
        "ref-scaled:inf",
        "delta-sigma:-1",
        "delta-sigma:nan",
        "delta-sigma:inf",
    ] {
        assert_usage_error(&["--error-model", "per-vmac", "--adc", bad], "--adc");
    }
}

#[test]
fn cross_flag_validation_exits_2_with_usage() {
    // --drift-nu without the drifting-pcm error model is a usage error.
    let out = run_table1(&["--drift-nu", "0.1"]);
    assert_eq!(out.status.code(), Some(ams_exp::USAGE_EXIT_CODE));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--drift-nu applies to --error-model drifting-pcm only"),
        "stderr was: {stderr}"
    );
    assert!(stderr.contains("usage: "), "stderr was: {stderr}");
}
