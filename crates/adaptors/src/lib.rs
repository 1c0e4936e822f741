//! # aldsp-adaptors — the data source adaptor framework (§2.2, §5.3)
//!
//! "Adaptors have a design-time component that introspects data source
//! metadata … They also have a runtime component that controls and
//! manages source access at runtime." The design-time side lives in
//! `aldsp-metadata`; this crate is the runtime side: one adaptor per
//! source category, all following the five-step invocation lifecycle of
//! §5.3 (connect → translate parameters → invoke → translate results →
//! release), and an [`AdaptorRegistry`] that resolves the connection /
//! service / registration names carried in pragma metadata.

#![forbid(unsafe_code)]

pub mod files;
pub mod native;
pub mod registry;
pub mod webservice;

pub use files::{CsvFileSource, XmlFileSource};
pub use native::NativeFunction;
pub use registry::AdaptorRegistry;
pub use webservice::SimulatedWebService;

/// Errors surfaced by source access. `Unavailable` distinguishes the
/// failures `fn-bea:fail-over` reacts to (§5.6).
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptorError {
    /// The source is down, unreachable, or injected-failed.
    Unavailable(String),
    /// The invocation itself failed (bad SQL, validation error, …).
    Invocation(String),
    /// No adaptor is registered for the requested name.
    Unresolved(String),
}

impl std::fmt::Display for AdaptorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptorError::Unavailable(s) => write!(f, "data source unavailable: {s}"),
            AdaptorError::Invocation(s) => write!(f, "source invocation failed: {s}"),
            AdaptorError::Unresolved(s) => write!(f, "no adaptor registered for '{s}'"),
        }
    }
}

impl std::error::Error for AdaptorError {}

/// Result alias for adaptor operations.
pub type Result<T> = std::result::Result<T, AdaptorError>;
