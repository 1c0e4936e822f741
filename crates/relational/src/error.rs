//! Typed errors for the relational source boundary.
//!
//! The public surface of [`crate::server::RelationalServer`] and
//! [`crate::store::Database::execute_select`] used to return
//! `Result<_, String>`, which forced the adaptor layer (and the
//! fail-over path, §5.6) to classify failures by substring matching.
//! [`SourceError`] carries the kind explicitly; the `Display` output is
//! byte-identical to the old strings so logs, goldens, and user-facing
//! messages are unchanged.

use std::fmt;

/// What went wrong while talking to a (simulated) relational source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The source is down (availability flag cleared) — the trigger for
    /// `fn-bea:fail-over` (§5.6).
    Unavailable { source: String },
    /// The statement itself failed (unknown table, type error, constraint
    /// violation, a statement failing during prepare or commit).
    Sql(String),
    /// A two-phase-commit protocol error (unknown transaction id,
    /// injected prepare failure).
    Tx(String),
    /// The query driving this roundtrip was cancelled (deadline) while
    /// waiting out the simulated source latency.
    Cancelled { source: String },
}

impl SourceError {
    /// An `Unavailable` error with the canonical message for `source`.
    pub fn unavailable(source: &str) -> SourceError {
        SourceError::Unavailable {
            source: source.to_string(),
        }
    }

    pub fn is_unavailable(&self) -> bool {
        matches!(self, SourceError::Unavailable { .. })
    }

    pub fn is_cancelled(&self) -> bool {
        matches!(self, SourceError::Cancelled { .. })
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Unavailable { source } => {
                write!(f, "data source '{source}' is unavailable")
            }
            SourceError::Sql(m) | SourceError::Tx(m) => write!(f, "{m}"),
            SourceError::Cancelled { source } => {
                write!(f, "query cancelled during roundtrip to '{source}'")
            }
        }
    }
}

impl std::error::Error for SourceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_strings() {
        assert_eq!(
            SourceError::unavailable("db1").to_string(),
            "data source 'db1' is unavailable"
        );
        assert_eq!(
            SourceError::Sql("unknown table 'NOPE'".into()).to_string(),
            "unknown table 'NOPE'"
        );
        assert_eq!(
            SourceError::Tx("unknown transaction 7 on 'db2'".into()).to_string(),
            "unknown transaction 7 on 'db2'"
        );
    }

    #[test]
    fn kind_predicates() {
        assert!(SourceError::unavailable("x").is_unavailable());
        assert!(!SourceError::Sql("boom".into()).is_unavailable());
        assert!(SourceError::Cancelled { source: "x".into() }.is_cancelled());
    }
}
