//! Crash-safe checkpoint files.
//!
//! A [`crate::observe::Checkpointer`] sink that writes checkpoints with
//! `std::fs::write` has a failure window: a crash (or `SIGKILL`)
//! mid-write leaves a truncated blob at the *latest* path, and the
//! previous good checkpoint is already gone. This module closes that
//! window with the classic temp-file-then-rename protocol:
//!
//! 1. serialize into `<path>.tmp` (same directory, so the rename below
//!    cannot cross filesystems);
//! 2. `sync_all` the temp file so the bytes are durable before the name
//!    moves;
//! 3. atomically `rename` over `<path>` — readers see either the old
//!    complete checkpoint or the new complete checkpoint, never a
//!    partial one.
//!
//! [`read_checkpoint_file`] is the matching loader: it refuses a
//! truncated or corrupt blob with a clear [`PersistError::Decode`]
//! error instead of restoring garbage, and leaves the file untouched.
//! The `vne-serve` daemon and the bench suite's checkpointed cells both
//! persist through this module.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use vne_model::state::StateError;

use crate::engine::EngineCheckpoint;

/// Why a checkpoint file could not be written or read back.
#[derive(Debug)]
pub enum PersistError {
    /// The filesystem said no (missing directory, permissions, full
    /// disk, …). Carries the path for context.
    Io {
        /// The file (or temp file) the operation was touching.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file's bytes are not a complete checkpoint (truncated write,
    /// corruption, or a foreign file). The file is left as found.
    Decode {
        /// The offending file.
        path: PathBuf,
        /// The codec's refusal.
        source: StateError,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "checkpoint file {}: {source}", path.display())
            }
            PersistError::Decode { path, source } => write!(
                f,
                "checkpoint file {} is not a valid checkpoint ({source}); \
                 refusing to restore from it",
                path.display()
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Decode { source, .. } => Some(source),
        }
    }
}

/// The sibling temp path the atomic protocol stages into: `<path>.tmp`
/// in the same directory (same filesystem, so the final rename is
/// atomic).
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `bytes` to `path` atomically: stage into `<path>.tmp`, flush
/// and `sync_all`, then rename over `path`. After a crash at any point,
/// `path` holds either its previous contents or the new ones — never a
/// prefix.
///
/// # Errors
///
/// Returns [`PersistError::Io`] if any filesystem step fails; the
/// destination file is untouched in that case (a failed stage leaves at
/// most a stale `.tmp` behind, which the next write overwrites).
fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = staging_path(path);
    let stage = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()
    })();
    if let Err(source) = stage {
        return Err(PersistError::Io { path: tmp, source });
    }
    fs::rename(&tmp, path).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Serializes `checkpoint` and writes it to `path` atomically (stage,
/// `sync_all`, rename — see the module docs).
///
/// # Errors
///
/// Returns [`PersistError::Io`] if the filesystem rejects the write.
pub fn write_checkpoint_file(
    path: &Path,
    checkpoint: &EngineCheckpoint,
) -> Result<(), PersistError> {
    write_bytes_atomic(path, &checkpoint.to_bytes())
}

/// Reads a checkpoint written by [`write_checkpoint_file`] (or any
/// [`EngineCheckpoint::to_bytes`] blob), refusing truncated or corrupt
/// files with a [`PersistError::Decode`] that names the path.
///
/// # Errors
///
/// Returns [`PersistError::Io`] if the file cannot be read,
/// [`PersistError::Decode`] if its bytes are not a complete checkpoint.
pub fn read_checkpoint_file(path: &Path) -> Result<EngineCheckpoint, PersistError> {
    let bytes = fs::read(path).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    EngineCheckpoint::from_bytes(&bytes).map_err(|source| PersistError::Decode {
        path: path.to_path_buf(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vne-persist-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn atomic_write_replaces_contents_and_cleans_staging() {
        let dir = temp_dir("atomic");
        let path = dir.join("blob.bin");
        write_bytes_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_bytes_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(
            !staging_path(&path).exists(),
            "staging file must not survive a successful write"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_reports_io_error() {
        let path = temp_dir("missing").join("no-such-subdir").join("blob.bin");
        let err = write_bytes_atomic(&path, b"x").unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }), "got {err}");
        assert!(err.to_string().contains("no-such-subdir"));
    }
}
