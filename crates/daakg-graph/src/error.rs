//! The workspace-wide typed error, [`DaakgError`].
//!
//! Every fallible public entry point across the DAAKG crates — config
//! validation, model construction, dataset IO, service queries — reports
//! failures through this one enum instead of `Result<_, String>` or a
//! panic, so callers can match on the failure kind and `?` propagates
//! cleanly through the whole pipeline.
//!
//! The enum lives in `daakg-graph` because that crate sits at the bottom
//! of the workspace graph: every API-bearing crate already depends on it.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors raised by the DAAKG public API.
#[derive(Debug)]
#[non_exhaustive]
pub enum DaakgError {
    /// A configuration failed validation. `context` names the config type
    /// or builder field; `reason` explains the constraint that failed.
    InvalidConfig {
        /// Which configuration (e.g. `"EmbedConfig"`, `"Pipeline"`).
        context: &'static str,
        /// The violated constraint, human-readable.
        reason: String,
    },
    /// Two matrices or embedding spaces that must agree in size do not.
    DimensionMismatch {
        /// What was being combined (e.g. `"BatchedSimilarity columns"`).
        context: &'static str,
        /// The dimension required by the left/first operand.
        expected: usize,
        /// The dimension actually found.
        got: usize,
    },
    /// An entity index outside the graph or snapshot it was used against.
    UnknownEntity {
        /// Which side/graph rejected the index (e.g. a KG name, `"left"`).
        kg: String,
        /// The offending raw entity index.
        id: u32,
        /// Number of entities that side actually holds.
        bound: usize,
    },
    /// A required input was never supplied (builder left a field unset).
    MissingInput {
        /// The missing field or argument (e.g. `"kg1"`).
        what: &'static str,
    },
    /// Underlying I/O failure.
    Io(io::Error),
    /// An I/O failure with the path it happened on — the store layer's
    /// replacement for a bare [`DaakgError::Io`], so operators learn *which*
    /// version file failed, not just that "permission denied" happened.
    IoAt {
        /// The file or directory the operation targeted.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// A persisted file failed structural or checksum validation. The file
    /// is intact on disk (nothing is deleted on load failure); `section`
    /// pinpoints the region that failed so fault triage does not start from
    /// a hex dump.
    Corrupt {
        /// The file that failed validation.
        path: PathBuf,
        /// Which region failed (e.g. `"header"`, `"footer"`, `"ents2"`).
        section: String,
        /// What exactly was wrong, human-readable.
        reason: String,
    },
    /// A snapshot version that is not materialized: either pruned out of
    /// the retention window or never published. Replaces the `None`
    /// ambiguity of `snapshot_at` for callers that need to distinguish the
    /// two cases.
    UnknownVersion {
        /// The version the caller asked for.
        requested: u64,
        /// The newest version the registry currently holds.
        latest: u64,
        /// `true` when the version existed but fell out of retention;
        /// `false` when it was never published.
        pruned: bool,
    },
    /// A malformed line in a dataset file, with its 1-based number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        content: String,
    },
    /// A name referenced by an alignment that the KG does not contain.
    UnknownElement {
        /// 1-based line number.
        line: usize,
        /// The unresolvable element name.
        name: String,
    },
    /// Admission control rejected the query: the ingress queue was already
    /// at capacity when the query arrived. The caller should back off and
    /// retry; nothing was enqueued.
    Overloaded {
        /// Queue depth observed at admission time.
        queued: usize,
        /// The configured queue capacity (`IngressConfig::max_queue`).
        capacity: usize,
    },
    /// The query's deadline elapsed before a kernel ran it. The work was
    /// shed without burning compute; the caller decides whether to retry
    /// with a looser deadline.
    DeadlineExceeded {
        /// The deadline the caller attached to the query.
        deadline: std::time::Duration,
        /// How long the query had actually waited when it was shed.
        waited: std::time::Duration,
    },
    /// The serving component shut down while the request was in flight.
    /// Waiters are woken with this instead of hanging on a dead worker.
    Shutdown {
        /// Which component shut down (e.g. `"ingress"`).
        context: &'static str,
    },
    /// A query panicked inside the execution engine. The panic was caught
    /// at the dispatch boundary: the worker and all other in-flight
    /// queries survive, and only the offending query observes this error.
    /// With context `"training"`: an earlier training call panicked while
    /// holding the model lock, so the model may be mid-update.
    Panicked {
        /// The dispatch boundary that caught the panic (e.g.
        /// `"ingress batch"`, `"training"`).
        context: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl DaakgError {
    /// Shorthand for an [`DaakgError::InvalidConfig`] value.
    pub fn invalid(context: &'static str, reason: impl Into<String>) -> Self {
        Self::InvalidConfig {
            context,
            reason: reason.into(),
        }
    }

    /// Shorthand for an [`DaakgError::UnknownEntity`] value.
    pub fn unknown_entity(kg: impl Into<String>, id: u32, bound: usize) -> Self {
        Self::UnknownEntity {
            kg: kg.into(),
            id,
            bound,
        }
    }

    /// Shorthand for an [`DaakgError::IoAt`] value.
    pub fn io_at(path: impl Into<PathBuf>, source: io::Error) -> Self {
        Self::IoAt {
            path: path.into(),
            source,
        }
    }

    /// Shorthand for a [`DaakgError::Corrupt`] value.
    pub fn corrupt(
        path: impl Into<PathBuf>,
        section: impl Into<String>,
        reason: impl Into<String>,
    ) -> Self {
        Self::Corrupt {
            path: path.into(),
            section: section.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DaakgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaakgError::InvalidConfig { context, reason } => {
                write!(f, "invalid {context}: {reason}")
            }
            DaakgError::DimensionMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {got}"
            ),
            DaakgError::UnknownEntity { kg, id, bound } => {
                write!(f, "unknown entity {id} in {kg:?} (holds {bound} entities)")
            }
            DaakgError::MissingInput { what } => write!(f, "missing required input: {what}"),
            DaakgError::Io(e) => write!(f, "i/o error: {e}"),
            DaakgError::IoAt { path, source } => {
                write!(f, "i/o error at {}: {source}", path.display())
            }
            DaakgError::Corrupt {
                path,
                section,
                reason,
            } => write!(
                f,
                "corrupt file {} (section {section:?}): {reason}",
                path.display()
            ),
            DaakgError::UnknownVersion {
                requested,
                latest,
                pruned,
            } => write!(
                f,
                "unknown snapshot version {requested} ({}; latest is {latest})",
                if *pruned {
                    "pruned out of retention"
                } else {
                    "never published"
                }
            ),
            DaakgError::Parse { line, content } => {
                write!(f, "parse error at line {line}: {content:?}")
            }
            DaakgError::UnknownElement { line, name } => {
                write!(f, "unknown element {name:?} at line {line}")
            }
            DaakgError::Overloaded { queued, capacity } => write!(
                f,
                "overloaded: {queued} queries queued at capacity {capacity}; \
                 admission rejected"
            ),
            DaakgError::DeadlineExceeded { deadline, waited } => write!(
                f,
                "deadline exceeded: query waited {waited:?} against a \
                 {deadline:?} deadline and was shed before execution"
            ),
            DaakgError::Shutdown { context } => {
                write!(f, "{context} shut down while the request was in flight")
            }
            DaakgError::Panicked { context, message } => {
                write!(f, "panic in {context}: {message}")
            }
        }
    }
}

impl std::error::Error for DaakgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaakgError::Io(e) => Some(e),
            DaakgError::IoAt { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for DaakgError {
    fn from(e: io::Error) -> Self {
        DaakgError::Io(e)
    }
}

impl From<(PathBuf, io::Error)> for DaakgError {
    fn from((path, source): (PathBuf, io::Error)) -> Self {
        DaakgError::IoAt { path, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DaakgError::invalid("EmbedConfig", "dim must be positive");
        assert_eq!(e.to_string(), "invalid EmbedConfig: dim must be positive");
        let e = DaakgError::DimensionMismatch {
            context: "mapping",
            expected: 32,
            got: 16,
        };
        assert!(e.to_string().contains("expected 32, got 16"));
        let e = DaakgError::unknown_entity("DBpedia", 99, 10);
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("DBpedia"));
        let e = DaakgError::MissingInput { what: "kg1" };
        assert!(e.to_string().contains("kg1"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        use std::error::Error as _;
        let inner = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e: DaakgError = inner.into();
        assert!(e.to_string().contains("gone"));
        assert!(e.source().is_some());
        let e = DaakgError::Parse {
            line: 3,
            content: "bogus".into(),
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn io_at_carries_the_path_and_chains() {
        use std::error::Error as _;
        let inner = io::Error::new(io::ErrorKind::PermissionDenied, "locked");
        let e: DaakgError = (PathBuf::from("/data/v1.snap"), inner).into();
        assert!(matches!(e, DaakgError::IoAt { .. }));
        assert!(e.to_string().contains("/data/v1.snap"));
        assert!(e.to_string().contains("locked"));
        assert!(e.source().is_some());
        let e = DaakgError::io_at("/data/MANIFEST", io::Error::other("boom"));
        assert!(e.to_string().contains("MANIFEST"));
    }

    #[test]
    fn corrupt_names_file_and_section() {
        let e = DaakgError::corrupt("/data/v2.snap", "ents2", "payload crc mismatch");
        assert!(e.to_string().contains("v2.snap"));
        assert!(e.to_string().contains("ents2"));
        assert!(e.to_string().contains("crc"));
    }

    #[test]
    fn overload_taxonomy_displays_are_informative() {
        let e = DaakgError::Overloaded {
            queued: 8192,
            capacity: 8192,
        };
        assert!(e.to_string().contains("8192"));
        assert!(e.to_string().contains("admission rejected"));
        let e = DaakgError::DeadlineExceeded {
            deadline: std::time::Duration::from_millis(5),
            waited: std::time::Duration::from_millis(7),
        };
        assert!(e.to_string().contains("5ms"));
        assert!(e.to_string().contains("shed"));
        let e = DaakgError::Shutdown { context: "ingress" };
        assert!(e.to_string().contains("ingress shut down"));
        let e = DaakgError::Panicked {
            context: "ingress batch",
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        assert!(e.to_string().contains("ingress batch"));
    }

    #[test]
    fn unknown_version_distinguishes_pruned_from_never_published() {
        let pruned = DaakgError::UnknownVersion {
            requested: 1,
            latest: 9,
            pruned: true,
        };
        assert!(pruned.to_string().contains("pruned"));
        let future = DaakgError::UnknownVersion {
            requested: 12,
            latest: 9,
            pruned: false,
        };
        assert!(future.to_string().contains("never published"));
    }
}
