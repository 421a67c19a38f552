//! End-to-end resume tests: a sweep whose journal survives a mid-run kill
//! must finish to byte-identical results under `--resume`, completed
//! points must be replayed (not recomputed), and a poisoned point must
//! stay quarantined across resumes while the rest of the sweep reports.

use std::path::{Path, PathBuf};
use std::process::Command;

use ams_exp::sweep::Sweep;
use ams_exp::{Experiments, Scale};
use ams_tensor::{ExecCtx, MetricsSink};

fn temp_dir(stem: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ams_resume_{stem}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn canon_rows(rows: &[ams_exp::Fig4Row]) -> Vec<String> {
    rows.iter()
        .map(|r| serde_json::to_string(r).expect("row serializes"))
        .collect()
}

/// The tentpole guarantee, in-process: run fig4 uninterrupted in one
/// directory; in another, run it, then truncate its journal to a single
/// point (exactly the file a kill after point 1 leaves behind, thanks to
/// atomic journal rewrites) and finish under resume. The resumed rows
/// must match the uninterrupted ones bit-for-bit, with the journaled
/// point replayed rather than recomputed.
#[test]
fn truncated_fig4_journal_resumes_to_identical_rows() {
    let dir_a = temp_dir("fig4_golden");
    let golden = Experiments::new(Scale::test(), &dir_a).fig4();

    let dir_b = temp_dir("fig4_killed");
    let first = Experiments::new(Scale::test(), &dir_b).fig4();
    assert_eq!(canon_rows(&first.rows), canon_rows(&golden.rows));

    // Keep only the first journal line — the state after a kill that
    // landed between the first and second point's appends.
    let journal_path = dir_b.join("fig4_journal_test.jsonl");
    let text = std::fs::read_to_string(&journal_path).expect("journal exists after a sweep");
    assert!(text.lines().count() >= 2, "test scale sweeps ≥ 2 points");
    let first_line = text.lines().next().expect("nonempty journal");
    std::fs::write(&journal_path, format!("{first_line}\n")).expect("truncate journal");

    let sink = MetricsSink::recording();
    let resumed = Experiments::new(Scale::test(), &dir_b)
        .with_ctx(ExecCtx::serial().with_metrics(sink.clone()))
        .with_resume(true)
        .fig4();
    assert_eq!(
        canon_rows(&resumed.rows),
        canon_rows(&golden.rows),
        "resumed sweep must be bit-identical to the uninterrupted run"
    );

    let report = sink.registry().expect("recording sink").report();
    assert_eq!(report.counter("sweep.resumed").unwrap().value, 1);
    assert_eq!(report.counter("sweep.points.skipped").unwrap().value, 1);
    // The other point recomputed — through the journal, on the books.
    assert_eq!(report.counter("sweep.points.completed").unwrap().value, 1);
    assert!(report.histogram("sweep.point_ms").is_some());
    assert!(report.gauge("sweep.journal.write_ms").is_some());

    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

/// The crash contract at the process level: a `fig4` SIGKILLed right
/// after its first journal append — with points in flight on two threads
/// — leaves a journal but no CSV, and `--resume` finishes the sweep to
/// the committed golden byte for byte.
#[test]
fn killed_fig4_process_resumes_to_the_golden_csv() {
    let dir = temp_dir("fig4_sigkill");
    let fig4 = |extra: &[&str], crash: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig4"));
        cmd.args(["--scale", "test", "--threads", "2", "--results"])
            .arg(&dir)
            .args(extra)
            .env_remove("AMS_TEST_CRASH_AFTER_POINTS");
        if crash {
            cmd.env("AMS_TEST_CRASH_AFTER_POINTS", "1");
        }
        cmd.output().expect("spawn fig4")
    };

    let killed = fig4(&[], true);
    assert!(
        !killed.status.success(),
        "the crash hook must kill the run:\n{}",
        String::from_utf8_lossy(&killed.stderr)
    );
    let csv_path = dir.join("fig4_test.csv");
    assert!(!csv_path.exists(), "a killed run must not write its CSV");
    assert!(
        dir.join("fig4_journal_test.jsonl").exists(),
        "a killed run must leave its journal"
    );

    let resumed = fig4(&["--resume"], false);
    assert!(
        resumed.status.success(),
        "fig4 --resume failed:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig4_test.csv");
    assert_eq!(
        std::fs::read_to_string(&csv_path).expect("resumed CSV"),
        std::fs::read_to_string(golden).expect("committed golden"),
        "the resumed CSV must equal the committed golden"
    );

    let _ = std::fs::remove_dir_all(dir);
}

/// Without `--resume`, a leftover journal is cleared and every point
/// recomputes — a fresh run never silently trusts stale results.
#[test]
fn plain_run_clears_leftover_journal() {
    let dir = temp_dir("fresh");
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("fig5_journal_test.jsonl");
    std::fs::write(&journal_path, "garbage that would be fatal under resume\n").unwrap();

    let fig5 = Experiments::new(Scale::test(), &dir).fig5();
    assert_eq!(fig5.rows.len(), Scale::test().enob_grid_6b.len());
    let text = std::fs::read_to_string(&journal_path).expect("rewritten journal");
    assert!(!text.contains("garbage"), "stale journal must be cleared");

    let _ = std::fs::remove_dir_all(dir);
}

/// A point that panics is quarantined — recorded `failed`, the
/// sweep continues — and stays skipped on resume even if it would now
/// succeed, until the user reruns without `--resume`.
#[test]
fn quarantined_point_stays_skipped_across_resume() {
    let dir = temp_dir("quarantine");
    let path = dir.join("q.jsonl");
    let sink = MetricsSink::recording();

    let sweep = Sweep::new("q", &path, false, sink.clone()).expect("fresh sweep");
    let good: Option<f64> = sweep.run_point("good", || 7.0);
    assert_eq!(good, Some(7.0));
    let bad: Option<f64> = sweep.run_point("bad", || panic!("poisoned point"));
    assert!(bad.is_none(), "a panic quarantines the point");

    // Resume: the quarantined point must not run again...
    let sweep = Sweep::new("q", &path, true, sink.clone()).expect("resumed sweep");
    let bad: Option<f64> = sweep.run_point("bad", || 9.0);
    assert!(bad.is_none(), "quarantine must survive resume");
    // ...and the good point replays from the journal, not the closure.
    let good: Option<f64> = sweep.run_point("good", || panic!("must not recompute"));
    assert_eq!(good, Some(7.0));

    let report = sink.registry().expect("recording sink").report();
    assert_eq!(report.counter("sweep.points.quarantined").unwrap().value, 1);
    assert!(report.counter("sweep.points.skipped").unwrap().value >= 2);

    // A plain (non-resume) open clears the quarantine: the point runs.
    let sweep = Sweep::new("q", &path, false, sink).expect("fresh again");
    let bad: Option<f64> = sweep.run_point("bad", || 9.0);
    assert_eq!(bad, Some(9.0));

    let _ = std::fs::remove_dir_all(dir);
}
