//! The store's error type.
//!
//! Ordinary crash damage — a torn record at the tail of the last segment,
//! a half-written segment header — is **not** an error: recovery truncates
//! it and reports it through
//! [`RecoveryReport`](crate::store::RecoveryReport). [`StoreError`] is for
//! the failures the store cannot absorb: I/O errors talking to the
//! filesystem, structural corruption outside the recoverable tail (a
//! malformed manifest), and records too large to frame. Checkpoint
//! payloads are opaque here: their schema version is checked by whoever
//! decodes them.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// A failure the store cannot recover from on its own.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation against the store directory failed.
    Io {
        /// What the store was doing (`"open"`, `"append"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A structural invariant is broken outside the recoverable tail.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// What is wrong with it.
        what: String,
    },
    /// A record would exceed the frame body cap, so recovery could not
    /// read it back; nothing was written.
    TooLarge {
        /// The record body's length in bytes.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// An fsync failed earlier, so the store refuses every append, sync
    /// and sync handle until it is reopened; nothing was written.
    Poisoned,
}

impl StoreError {
    /// Wraps an I/O error with its operation and path.
    pub(crate) fn io(op: &'static str, path: impl Into<PathBuf>, source: io::Error) -> Self {
        StoreError::Io {
            op,
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store {op} failed on {}: {source}", path.display())
            }
            StoreError::Corrupt { path, what } => {
                write!(f, "store corrupt at {}: {what}", path.display())
            }
            StoreError::TooLarge { len, max } => {
                write!(f, "record body of {len} bytes exceeds the {max}-byte cap")
            }
            StoreError::Poisoned => {
                f.write_str("store refuses writes after a failed fsync; reopen it")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { .. } | StoreError::TooLarge { .. } | StoreError::Poisoned => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let err = StoreError::io(
            "append",
            "/tmp/store/seg-0.cst",
            io::Error::other("disk full"),
        );
        let text = err.to_string();
        assert!(text.contains("append"));
        assert!(text.contains("seg-0.cst"));
        assert!(text.contains("disk full"));
    }
}
