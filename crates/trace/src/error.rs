//! Typed trace failures.
//!
//! Every malformed input — wrong magic, another format version, a file cut
//! off mid-record, a corrupt enum byte — surfaces as a [`TraceError`]
//! value. Parsing never panics: the reader treats the byte stream as
//! untrusted input end to end.

use std::fmt;

/// Why a trace could not be read, written or replayed.
#[derive(Debug)]
pub enum TraceError {
    /// The first eight bytes are not the `PASTATRC` magic — this is not a
    /// pasta trace file at all.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 8],
    },
    /// The file is a pasta trace, but of a format revision this build does
    /// not read: an older one (version 1's varint records) or a newer one.
    UnsupportedVersion {
        /// Version stamped in the file header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The byte stream ended before the structure it promised — a partial
    /// download, a truncated copy, a crash mid-write.
    Truncated {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// The bytes are present but structurally invalid: an unknown event
    /// tag, an out-of-range enum code, a payload whose declared length
    /// disagrees with its records.
    Corrupt {
        /// Byte offset at which the inconsistency was detected.
        offset: usize,
        /// What was wrong.
        what: String,
    },
    /// Replay over a multi-shard trace needs one tool instance per shard,
    /// but some registered tool declines to fork.
    UnforkableTools,
    /// An underlying file operation failed ([`Trace::save`] /
    /// [`Trace::load`]).
    ///
    /// [`Trace::save`]: crate::Trace::save
    /// [`Trace::load`]: crate::Trace::load
    Io(std::io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic { found } => {
                write!(f, "not a pasta trace: bad magic {found:?}")
            }
            TraceError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported trace format version {found} (this build reads {supported})"
                )
            }
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated: input ended at byte {offset}")
            }
            TraceError::Corrupt { offset, what } => {
                write!(f, "trace corrupt at byte {offset}: {what}")
            }
            TraceError::UnforkableTools => {
                write!(
                    f,
                    "replaying a multi-shard trace needs forkable tools \
                     (some registered tool returned None from fork)"
                )
            }
            TraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Bridges trace failures into the session-level taxonomy, so `?` works
/// in code that mixes session and trace calls. The variant carries the
/// rendered message (the orphan rule puts this impl here, and pasta-core
/// cannot name `TraceError` — the dependency points the other way).
impl From<TraceError> for pasta_core::PastaError {
    fn from(e: TraceError) -> Self {
        pasta_core::PastaError::Trace(e.to_string())
    }
}
