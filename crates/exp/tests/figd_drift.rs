//! End-to-end drift tests for the figD pipeline (DESIGN.md §15): journal
//! resume must be bit-identical, `--threads 2` must produce the same CSV
//! as `--threads 1` (including under `--resume`), and the fitted
//! compensation must round-trip through its state file so a
//! resumed run reproduces the same corrected results without refitting.

use std::path::{Path, PathBuf};
use std::process::Command;

use ams_exp::{CompensationState, Experiments, Scale};

fn temp_dir(stem: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ams_figd_{stem}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn canon_rows(rows: &[ams_exp::FigDRow]) -> Vec<String> {
    rows.iter()
        .map(|r| serde_json::to_string(r).expect("row serializes"))
        .collect()
}

/// A mid-run kill leaves a truncated journal; finishing under `--resume`
/// must reproduce the uninterrupted rows bit-for-bit, including the
/// compensated series (whose fit reloads from its persisted state file
/// rather than refitting).
#[test]
fn truncated_figd_journal_resumes_to_identical_rows() {
    let dir_a = temp_dir("golden");
    let golden = Experiments::new(Scale::test(), &dir_a).figd();

    let dir_b = temp_dir("killed");
    let first = Experiments::new(Scale::test(), &dir_b).figd();
    assert_eq!(canon_rows(&first.rows), canon_rows(&golden.rows));

    // Keep only the first journal line — the state after a kill between
    // the first and second point's appends.
    let journal_path = dir_b.join("figd_journal_test.jsonl");
    let text = std::fs::read_to_string(&journal_path).expect("journal exists after a sweep");
    assert!(text.lines().count() >= 2, "figd sweeps ≥ 2 points");
    let first_line = text.lines().next().expect("nonempty journal");
    std::fs::write(&journal_path, format!("{first_line}\n")).expect("truncate journal");

    let resumed = Experiments::new(Scale::test(), &dir_b)
        .with_resume(true)
        .figd();
    assert_eq!(
        canon_rows(&resumed.rows),
        canon_rows(&golden.rows),
        "resumed figd must be bit-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

fn run_figd(results: &Path, extra: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_figd"))
        .args(["--scale", "test", "--results"])
        .arg(results)
        .args(extra)
        .output()
        .expect("spawn figd");
    assert!(
        out.status.success(),
        "figd {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--threads 2` runs figD points concurrently; the CSV must be
/// byte-identical to a `--threads 1` run, and a second
/// `--threads 2 --resume` pass must replay every point to the same bytes.
#[test]
fn figd_under_threads_two_matches_one_thread_and_resumes() {
    let dir_serial = temp_dir("serial");
    run_figd(&dir_serial, &["--threads", "1"]);
    let golden = std::fs::read_to_string(dir_serial.join("figd_test.csv")).expect("one-thread CSV");

    let dir_parallel = temp_dir("parallel");
    run_figd(&dir_parallel, &["--threads", "2"]);
    let csv_path = dir_parallel.join("figd_test.csv");
    let parallel = std::fs::read_to_string(&csv_path).expect("two-thread CSV");
    assert_eq!(
        parallel, golden,
        "a --threads 2 run must write the same CSV as --threads 1"
    );

    // Resume: every point replays from the journal.
    std::fs::remove_file(&csv_path).expect("drop CSV before resume");
    run_figd(&dir_parallel, &["--threads", "2", "--resume"]);
    let resumed = std::fs::read_to_string(&csv_path).expect("resumed CSV");
    assert_eq!(
        resumed, golden,
        "a resumed --threads 2 run must replay to a byte-identical CSV"
    );

    let _ = std::fs::remove_dir_all(dir_serial);
    let _ = std::fs::remove_dir_all(dir_parallel);
}

/// The compensation fit round-trips: a compensated run persists its fit,
/// and a resumed run loads that state file (same configuration tags, same
/// layers) and reproduces the same corrected accuracy bit-for-bit.
#[test]
fn compensation_fit_round_trips_through_resume() {
    let dir = temp_dir("comp");
    let quant = ams_quant::QuantConfig::w8a8();
    let enob = Scale::test().table2_enob;

    let exp = Experiments::new(Scale::test(), &dir).with_compensate(true);
    let fitted = exp.ams_eval_only(quant, enob);

    // The fit landed in a tagged state file next to the checkpoints.
    let state_path = dir
        .read_dir()
        .expect("results dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with(".compstate_test.json"))
        })
        .expect("a persisted compensation state file");
    let state: CompensationState =
        serde_json::from_str(&std::fs::read_to_string(&state_path).expect("state readable"))
            .expect("state parses");
    assert!(
        !state.layers.is_empty(),
        "the fit must cover the model's layers"
    );
    assert!(
        state
            .layers
            .iter()
            .all(|(a, b)| a.is_finite() && b.is_finite()),
        "fitted (a, b) pairs must be finite: {:?}",
        state.layers
    );

    // A resumed run loads the persisted fit instead of refitting and
    // reproduces the corrected accuracy exactly.
    let resumed = Experiments::new(Scale::test(), &dir)
        .with_compensate(true)
        .with_resume(true)
        .ams_eval_only(quant, enob);
    assert_eq!(
        serde_json::to_string(&fitted).unwrap(),
        serde_json::to_string(&resumed).unwrap(),
        "resume must reproduce the compensated accuracy bit-for-bit"
    );

    // Proof the resumed run read the file: a tampered fit changes the
    // corrected outputs.
    let tampered = CompensationState {
        layers: state.layers.iter().map(|&(a, b)| (a * 4.0, b)).collect(),
        ..state
    };
    tampered.save(&state_path);
    let poisoned = Experiments::new(Scale::test(), &dir)
        .with_compensate(true)
        .with_resume(true)
        .ams_eval_only(quant, enob);
    assert_ne!(
        serde_json::to_string(&fitted).unwrap(),
        serde_json::to_string(&poisoned).unwrap(),
        "a resumed run must apply the persisted fit, not a fresh one"
    );

    let _ = std::fs::remove_dir_all(dir);
}
