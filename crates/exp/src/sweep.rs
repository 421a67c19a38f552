//! Crash-safe, resumable sweep execution.
//!
//! Every experiment binary iterates a *sweep* — a list of points (ENOB
//! values, freeze policies, quantization configs) each of which costs
//! seconds to hours of compute. This module makes those loops restartable:
//!
//! * each completed point is appended to a per-sweep **JSONL journal**,
//!   rewritten atomically (tmp + fsync + rename, [`ams_obs::fsio`]) so a
//!   crash at any instant leaves a well-formed journal;
//! * every line carries a CRC32 of its canonical JSON, so silent on-disk
//!   corruption is detected rather than resumed from;
//! * on `--resume`, points whose journal record is `done` are skipped and
//!   their recorded payload is replayed — combined with the bit-exact
//!   RNG-cursor checkpoints in `ams_tensor::rng::RngState`, a
//!   killed-and-resumed sweep produces byte-identical CSVs;
//! * a point that panics is **quarantined** on its first failure:
//!   recorded as `failed` with the panic message, so the rest of the
//!   sweep completes and later resumes do not re-run the poisoned point.
//!   A point is a pure function of its seeds and cached files, so a retry
//!   could only repeat the same panic.
//!
//! Resume events are reported through the [`MetricsSink`] threaded in the
//! `ExecCtx` (`sweep.resumed`, `sweep.points.skipped`,
//! `sweep.points.quarantined`, the `sweep.point_ms` histogram), so the
//! `--metrics` report shows exactly how much work a resume avoided.
//!
//! Points may run concurrently: sweeps hand their grid to
//! `ExecCtx::parallel_map` (`--threads N`), and the journal sits behind
//! a mutex. Every point owns its RNG stream, so completion order cannot
//! change results — a resumed or parallel run writes the same CSV as a
//! serial one.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ams_obs::fsio::atomic_write;
use ams_tensor::MetricsSink;
use serde::{Deserialize, Serialize, Value};

/// Histogram bounds (milliseconds) for per-point wall time.
pub const POINT_MS_BOUNDS: [f64; 6] = [10.0, 100.0, 1_000.0, 10_000.0, 60_000.0, 600_000.0];

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven
// ---------------------------------------------------------------------

fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE 802.3, the `cksum`/zlib polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Built once; the const-fn style body above keeps it allocation-free.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(crc32_table);
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------

/// Terminal state of a sweep point in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PointStatus {
    /// The point completed; its payload is valid and replayable.
    Done,
    /// The point panicked and is quarantined.
    Failed,
}

/// One journal line: the outcome of one sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointRecord {
    /// Sweep name (e.g. `"fig4"`), for human inspection of the file.
    pub sweep: String,
    /// Point identifier, unique within the sweep (e.g. `"enob4.0"`).
    pub point: String,
    /// Terminal status.
    pub status: PointStatus,
    /// How many attempts were made: always 1, since every point runs
    /// once. Kept so the journal line layout, and every journal already
    /// on disk, stays readable.
    pub attempts: u32,
    /// Wall time of the attempt, in milliseconds.
    pub elapsed_ms: u64,
    /// Panic message of the attempt, for `Failed` records.
    pub error: Option<String>,
    /// The point's serialized result (`Null` for `Failed` records).
    pub payload: Value,
}

/// Errors loading or writing a sweep journal.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure reading or writing the journal.
    Io(std::io::Error),
    /// A line **before the last** failed its CRC or did not parse. A
    /// torn *final* line is expected after a crash and silently dropped;
    /// corruption earlier in the file means the journal cannot be
    /// trusted and resume refuses to proceed.
    Corrupt {
        /// 1-based line number of the bad line.
        line: usize,
        /// Why the line was rejected.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o failure: {e}"),
            JournalError::Corrupt { line, reason } => write!(
                f,
                "journal line {line} is corrupt ({reason}); refusing to resume — \
                 delete the journal (or rerun without --resume) to start clean"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

fn encode_line(rec: &PointRecord) -> String {
    let canon = serde_json::to_string(rec).expect("journal record serializes");
    format!(
        "{{\"v\":1,\"crc\":{},\"rec\":{}}}",
        crc32(canon.as_bytes()),
        canon
    )
}

fn decode_line(line: &str) -> Result<PointRecord, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("not JSON: {e}"))?;
    let Value::Map(entries) = &v else {
        return Err("line is not a JSON object".to_string());
    };
    let get = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    match get("v") {
        Some(Value::U64(1)) => {}
        other => return Err(format!("unsupported journal version {other:?}")),
    }
    let Some(Value::U64(crc)) = get("crc") else {
        return Err("missing crc field".to_string());
    };
    let rec_value = get("rec").ok_or_else(|| "missing rec field".to_string())?;
    let canon = serde_json::to_string(rec_value).expect("value reserializes");
    let actual = u64::from(crc32(canon.as_bytes()));
    if actual != *crc {
        return Err(format!(
            "crc mismatch: stored {crc:#010x}, computed {actual:#010x}"
        ));
    }
    PointRecord::from_value(rec_value).map_err(|e| format!("bad record shape: {e}"))
}

/// A per-sweep JSONL journal of completed/quarantined points.
///
/// Appends rewrite the whole file atomically — journals hold at most a
/// few dozen small records, so full-rewrite costs microseconds and keeps
/// the crash-safety story trivial: the on-disk file is always a complete,
/// CRC-clean prefix of the sweep.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    records: Vec<PointRecord>,
}

impl Journal {
    /// Opens `path`, recovering its records. A missing file yields an
    /// empty journal. A torn **final** line (the signature of a crash
    /// mid-write on filesystems without atomic rename, or of a partial
    /// copy) is dropped with a warning — resume restarts from the last
    /// complete point, never from a half-written one.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] if any line before the last is
    /// unparseable or fails its CRC; [`JournalError::Io`] on read failure.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Journal {
                    path,
                    records: Vec::new(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut records = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match decode_line(line) {
                Ok(rec) => records.push(rec),
                Err(reason) if i + 1 == lines.len() => {
                    eprintln!(
                        "[sweep] journal {}: dropping torn final line ({reason}); \
                         resuming from the last complete point",
                        path.display()
                    );
                }
                Err(reason) => {
                    return Err(JournalError::Corrupt {
                        line: i + 1,
                        reason,
                    })
                }
            }
        }
        Ok(Journal { path, records })
    }

    /// Deletes any journal at `path` and returns an empty one (the
    /// non-`--resume` path: every run starts from scratch).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if an existing journal cannot be removed.
    pub fn fresh(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(Journal {
            path,
            records: Vec::new(),
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All recovered/appended records, in journal order.
    pub fn records(&self) -> &[PointRecord] {
        &self.records
    }

    /// The most recent record for `point`, if any (last record wins, so a
    /// recomputed point supersedes its stale entry).
    pub fn find(&self, point: &str) -> Option<&PointRecord> {
        self.records.iter().rev().find(|r| r.point == point)
    }

    /// Appends `rec` and atomically rewrites the journal file.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the rewrite fails; the in-memory record is
    /// still kept so the sweep can continue (the next successful append
    /// persists it).
    pub fn append(&mut self, rec: PointRecord) -> Result<(), JournalError> {
        self.records.push(rec);
        Journal::write_records(&self.path, &self.records)?;
        crash_hook_after_append();
        Ok(())
    }

    /// Atomically writes `records` as a complete journal file at `path`.
    fn write_records(path: &Path, records: &[PointRecord]) -> Result<(), JournalError> {
        let mut out = String::new();
        for r in records {
            out.push_str(&encode_line(r));
            out.push('\n');
        }
        atomic_write(path, out.as_bytes())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Deterministic crash injection (kill-and-resume tests)
// ---------------------------------------------------------------------

static JOURNAL_APPENDS: AtomicU64 = AtomicU64::new(0);

/// Test hook: when `AMS_TEST_CRASH_AFTER_POINTS=n` is set, the process
/// SIGKILLs itself immediately after the `n`-th journal append lands on
/// disk — a deterministic stand-in for a mid-sweep power cut, used by the
/// kill-and-resume tests (`tests/resume.rs`, CI's `kill-resume-e2e`).
/// SIGKILL (not panic) so no destructor, flush, or unwind cleanup
/// softens the crash.
fn crash_hook_after_append() {
    let Some(n) = std::env::var("AMS_TEST_CRASH_AFTER_POINTS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    else {
        return;
    };
    let done = JOURNAL_APPENDS.fetch_add(1, Ordering::SeqCst) + 1;
    if done >= n {
        eprintln!("[sweep] AMS_TEST_CRASH_AFTER_POINTS={n} reached: simulating crash (SIGKILL)");
        let _ = std::process::Command::new("kill")
            .args(["-9", &std::process::id().to_string()])
            .status();
        // Unreachable on unix; belt-and-braces elsewhere.
        std::process::abort();
    }
}

// ---------------------------------------------------------------------
// Sweep engine
// ---------------------------------------------------------------------

/// The resumable sweep engine: wraps a [`Journal`] behind a mutex so
/// sweep points running under `ExecCtx::parallel_map` can record results
/// concurrently.
///
/// # Example
///
/// ```
/// use ams_exp::sweep::Sweep;
/// use ams_tensor::MetricsSink;
///
/// let dir = std::env::temp_dir().join("ams_sweep_doc");
/// let path = dir.join("demo.journal.jsonl");
/// let sweep = Sweep::new("demo", &path, false, MetricsSink::disabled()).unwrap();
/// let got: Option<f64> = sweep.run_point("p0", || 42.0);
/// assert_eq!(got, Some(42.0));
/// # let _ = std::fs::remove_dir_all(dir);
/// ```
pub struct Sweep {
    name: String,
    journal: Mutex<Journal>,
    metrics: MetricsSink,
}

/// What replaying a journaled record resolved to.
enum ReplayOutcome<R> {
    /// The record settles the point: `Some` payload or quarantined `None`.
    Settled(Option<R>),
    /// The record is unusable (stale payload shape); recompute.
    Recompute,
}

impl Sweep {
    /// Opens the sweep's journal at `journal_path`.
    ///
    /// With `resume` set, previously journaled points are honored (done →
    /// replayed, failed → quarantined) and `sweep.resumed` is counted if
    /// the journal held any records. Without it, any existing journal is
    /// deleted and every point recomputes.
    ///
    /// # Errors
    ///
    /// Propagates [`JournalError`] from opening/clearing the journal —
    /// including [`JournalError::Corrupt`] when a resume would read a
    /// damaged journal.
    pub fn new(
        name: impl Into<String>,
        journal_path: impl AsRef<Path>,
        resume: bool,
        metrics: MetricsSink,
    ) -> Result<Self, JournalError> {
        let name = name.into();
        let journal = if resume {
            let j = Journal::open(&journal_path)?;
            if !j.records().is_empty() {
                metrics.inc("sweep.resumed");
                eprintln!(
                    "[sweep {name}] resuming: {} journaled point(s) at {}",
                    j.records().len(),
                    j.path().display()
                );
            }
            j
        } else {
            Journal::fresh(&journal_path)?
        };
        Ok(Sweep {
            name,
            journal: Mutex::new(journal),
            metrics,
        })
    }

    /// The sweep's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs one sweep point, honoring the journal.
    ///
    /// * Journaled `done` → the recorded payload is replayed without
    ///   running `f` (`sweep.points.skipped`).
    /// * Journaled `failed` → the point stays quarantined; returns `None`.
    /// * Otherwise `f` runs once under `catch_unwind`: success journals
    ///   the payload and returns it; a panic journals a `failed` record
    ///   with the panic message (`sweep.points.quarantined`) and returns
    ///   `None` so the remaining points still complete.
    ///
    /// `f` is expected to tolerate unwinding — the workspace's experiment
    /// closures only hold `&self`/`&ExecCtx`, which a panicking point
    /// cannot poison.
    pub fn run_point<R, F>(&self, point: impl Into<String>, f: F) -> Option<R>
    where
        R: Serialize + Deserialize,
        F: FnOnce() -> R,
    {
        let point = point.into();
        let prior = self
            .journal
            .lock()
            .expect("journal lock")
            .find(&point)
            .cloned();
        if let Some(rec) = prior {
            if let ReplayOutcome::Settled(r) = self.replay(&point, &rec) {
                return r;
            }
        }
        self.compute_and_record(point, f)
    }

    /// Replays a journaled record for `point`, or reports that the point
    /// must be recomputed (a `Done` payload that no longer deserializes).
    fn replay<R: Deserialize>(&self, point: &str, rec: &PointRecord) -> ReplayOutcome<R> {
        match rec.status {
            PointStatus::Done => match R::from_value(&rec.payload) {
                Ok(r) => {
                    self.metrics.inc("sweep.points.skipped");
                    ReplayOutcome::Settled(Some(r))
                }
                Err(e) => {
                    eprintln!(
                        "[sweep {}] point {point}: journaled payload no longer \
                         deserializes ({e}); recomputing",
                        self.name
                    );
                    ReplayOutcome::Recompute
                }
            },
            PointStatus::Failed => {
                self.metrics.inc("sweep.points.skipped");
                eprintln!(
                    "[sweep {}] point {point}: quarantined by an earlier run \
                     ({}); skipping",
                    self.name,
                    rec.error.as_deref().unwrap_or("no error recorded"),
                );
                ReplayOutcome::Settled(None)
            }
        }
    }

    /// Runs `f` once under `catch_unwind` and journals the outcome,
    /// quarantining the point if it panicked.
    fn compute_and_record<R, F>(&self, point: String, f: F) -> Option<R>
    where
        R: Serialize + Deserialize,
        F: FnOnce() -> R,
    {
        let t0 = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(f));
        let elapsed_ms = t0.elapsed().as_millis() as u64;
        let (result, status, error, payload) = match outcome {
            Ok(r) => {
                self.metrics.inc("sweep.points.completed");
                self.metrics.observe_histogram(
                    "sweep.point_ms",
                    &POINT_MS_BOUNDS,
                    elapsed_ms as f64,
                );
                let payload = r.to_value();
                (Some(r), PointStatus::Done, None, payload)
            }
            Err(panic_payload) => {
                let error = panic_message(&*panic_payload);
                self.metrics.inc("sweep.points.quarantined");
                eprintln!("[sweep {}] point {point}: quarantined: {error}", self.name);
                (None, PointStatus::Failed, Some(error), Value::Null)
            }
        };
        self.append(PointRecord {
            sweep: self.name.clone(),
            point,
            status,
            attempts: 1,
            elapsed_ms,
            error,
            payload,
        });
        result
    }

    fn append(&self, rec: PointRecord) {
        let t0 = Instant::now();
        let result = self.journal.lock().expect("journal lock").append(rec);
        self.metrics
            .observe("sweep.journal.write_ms", t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = result {
            // Journal persistence is best-effort durability, not
            // correctness: the in-memory sweep still completes.
            eprintln!("[sweep {}] journal append failed: {e}", self.name);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ams_sweep_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the IEEE 802.3 polynomial (zlib `crc32`).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn journal_round_trips_records() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("s.journal.jsonl");
        let mut j = Journal::fresh(&path).unwrap();
        j.append(PointRecord {
            sweep: "s".into(),
            point: "p0".into(),
            status: PointStatus::Done,
            attempts: 1,
            elapsed_ms: 12,
            error: None,
            payload: Value::F64(0.125),
        })
        .unwrap();
        j.append(PointRecord {
            sweep: "s".into(),
            point: "p1".into(),
            status: PointStatus::Failed,
            attempts: 3,
            elapsed_ms: 7,
            error: Some("boom".into()),
            payload: Value::Null,
        })
        .unwrap();
        let back = Journal::open(&path).unwrap();
        assert_eq!(back.records().len(), 2);
        assert_eq!(back.find("p0").unwrap().status, PointStatus::Done);
        assert_eq!(back.find("p0").unwrap().payload, Value::F64(0.125));
        assert_eq!(back.find("p1").unwrap().status, PointStatus::Failed);
        assert_eq!(back.find("p1").unwrap().error.as_deref(), Some("boom"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_final_line_is_dropped_earlier_corruption_is_fatal() {
        let dir = tmpdir("torn");
        let path = dir.join("s.journal.jsonl");
        let mut j = Journal::fresh(&path).unwrap();
        for p in ["a", "b"] {
            j.append(PointRecord {
                sweep: "s".into(),
                point: p.into(),
                status: PointStatus::Done,
                attempts: 1,
                elapsed_ms: 1,
                error: None,
                payload: Value::U64(1),
            })
            .unwrap();
        }
        // Torn tail: truncate the final line mid-record.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&path, &text[..cut]).unwrap();
        let back = Journal::open(&path).unwrap();
        assert_eq!(
            back.records().len(),
            1,
            "torn tail drops to last complete point"
        );
        assert!(back.find("a").is_some());

        // Corruption in the *first* line (flip a payload byte, keeping it
        // valid JSON but failing the CRC) must refuse to load.
        let text = std::fs::read_to_string(&path).unwrap();
        let bad = text.replacen("\"attempts\":1", "\"attempts\":2", 1);
        assert_ne!(text, bad);
        let with_tail = format!("{bad}{}", encode_line(&back.records()[0]));
        std::fs::write(&path, with_tail).unwrap();
        match Journal::open(&path) {
            Err(JournalError::Corrupt { line: 1, .. }) => {}
            other => panic!("expected Corrupt{{line:1}}, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn run_point_replays_done_and_quarantines_failures() {
        let dir = tmpdir("engine");
        let path = dir.join("s.journal.jsonl");
        let calls = AtomicU32::new(0);
        {
            let sweep = Sweep::new("s", &path, false, MetricsSink::disabled()).unwrap();
            let got: Option<f64> = sweep.run_point("ok", || {
                calls.fetch_add(1, Ordering::SeqCst);
                1.5
            });
            assert_eq!(got, Some(1.5));
            // A panicking point runs once and is quarantined.
            let bad: Option<f64> = sweep.run_point("bad", || {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("kaboom")
            });
            assert_eq!(bad, None);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1 + 1);

        // Resume: done replays without running f; failed stays quarantined.
        let sweep = Sweep::new("s", &path, true, MetricsSink::disabled()).unwrap();
        let got: Option<f64> = sweep.run_point("ok", || {
            calls.fetch_add(1, Ordering::SeqCst);
            99.0
        });
        assert_eq!(got, Some(1.5), "resume must replay the journaled payload");
        let bad: Option<f64> = sweep.run_point("bad", || {
            calls.fetch_add(1, Ordering::SeqCst);
            7.0
        });
        assert_eq!(bad, None, "quarantined points stay quarantined on resume");
        assert_eq!(calls.load(Ordering::SeqCst), 2, "resume ran nothing");

        // Without --resume the journal is cleared and everything reruns.
        let sweep = Sweep::new("s", &path, false, MetricsSink::disabled()).unwrap();
        let got: Option<f64> = sweep.run_point("bad", || 7.0);
        assert_eq!(got, Some(7.0));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn panic_text_is_journaled() {
        // Both payload kinds `panic!` produces: a `&str` literal and a
        // formatted `String`.
        let dir = tmpdir("panic_text");
        let path = dir.join("s.journal.jsonl");
        let sweep = Sweep::new("s", &path, false, MetricsSink::disabled()).unwrap();
        let alpha = 2.0;
        let _: Option<u64> =
            sweep.run_point("formatted", || panic!("alpha {alpha} is not in (0, 1]"));
        let _: Option<u64> = sweep.run_point("literal", || panic!("literal boom"));
        let journal = Journal::open(&path).unwrap();
        let error = |point: &str| journal.find(point).unwrap().error.clone();
        assert_eq!(
            error("formatted").as_deref(),
            Some("alpha 2 is not in (0, 1]")
        );
        assert_eq!(error("literal").as_deref(), Some("literal boom"));
        assert_eq!(journal.find("formatted").unwrap().attempts, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn skipped_points_are_counted() {
        let dir = tmpdir("metrics");
        let path = dir.join("s.journal.jsonl");
        {
            let sweep = Sweep::new("s", &path, false, MetricsSink::disabled()).unwrap();
            let _: Option<u64> = sweep.run_point("p", || 1);
        }
        let sink = MetricsSink::recording();
        let sweep = Sweep::new("s", &path, true, sink.clone()).unwrap();
        let _: Option<u64> = sweep.run_point("p", || 2);
        let report = sink.registry().unwrap().report();
        let count = |name: &str| {
            report
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert_eq!(count("sweep.resumed"), 1);
        assert_eq!(count("sweep.points.skipped"), 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
