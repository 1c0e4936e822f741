//! # aldsp-metadata — source metadata and introspection
//!
//! Implements §2.1/§3.2 of the paper: data sources are introspected into
//! *physical data services* whose functions carry typed signatures and
//! pragma-style source annotations. [`model`] defines the function/
//! binding model, [`introspect`] generates it from relational catalogs
//! and web-service descriptions (read functions per table, navigation
//! functions per foreign key), and [`registry`] is the lookup surface
//! shared by the compiler, optimizer and runtime.

#![forbid(unsafe_code)]

pub mod introspect;
pub mod model;
pub mod registry;

pub use introspect::{
    introspect_relational, introspect_web_service, row_shape, WebServiceDescription,
    WebServiceOperation,
};
pub use model::{FunctionKind, ParamDecl, PhysicalDataService, PhysicalFunction, SourceBinding};
pub use registry::{Registry, TableStats};
