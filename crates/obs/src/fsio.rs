//! Crash-safe file writes.
//!
//! Every durable artifact in the workspace — model checkpoints, sweep
//! journals, train-state snapshots, metrics reports — goes through
//! [`atomic_write`]: the bytes land in a sibling temporary file, the file
//! is fsynced, and only then renamed over the destination. A crash (power
//! loss, SIGKILL, panic) at any point leaves either the old complete file
//! or the new complete file on disk, never a torn half-write. This is the
//! primitive the resumable sweep engine's bit-identical-resume guarantee
//! is built on (DESIGN.md §9).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` atomically: tmp file → fsync → rename, then
/// best-effort fsync of the parent directory so the rename itself is
/// durable. A missing parent directory is created first.
///
/// The temporary file is `<file_name>.tmp.<pid>` in the same directory
/// (rename is only atomic within a filesystem). The pid suffix keeps
/// concurrent *processes* writing the same destination — two experiment
/// binaries sharing one results directory and caching the same
/// checkpoint, for example — from interleaving into one tmp file and
/// renaming torn content into place; the rename race itself is harmless
/// because each candidate file is complete. A stale tmp left by an
/// earlier crash of the same pid is silently overwritten.
///
/// # Errors
///
/// Propagates any I/O error from creating the parent directory, or from
/// creating, writing, syncing, or renaming the temporary file. On error
/// the destination is untouched.
///
/// # Panics
///
/// Panics if `path` has no file name (e.g. ends in `..`).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let name = path
        .file_name()
        .unwrap_or_else(|| panic!("atomic_write: path {path:?} has no file name"));
    let tmp = path.with_file_name({
        let mut n = name.to_os_string();
        n.push(format!(".tmp.{}", std::process::id()));
        n
    });
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename durable: fsync the directory entry. Best-effort —
    // some filesystems/platforms refuse to open directories.
    if let Some(d) = dir.and_then(|dir| File::open(dir).ok()) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_replaces() {
        let dir = std::env::temp_dir().join("ams_obs_fsio_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "tmp file must not survive a successful write: {leftovers:?}"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn error_leaves_destination_untouched() {
        let dir = std::env::temp_dir().join("ams_obs_fsio_err_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("keep.json");
        atomic_write(&path, b"original").unwrap();
        // Writing below a regular file (no directory can be created
        // there) fails cleanly.
        let bad = path.join("x.json");
        assert!(atomic_write(&bad, b"x").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"original");
        let _ = fs::remove_dir_all(dir);
    }
}
