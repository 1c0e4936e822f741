//! # aldsp-relational — the relational substrate
//!
//! ALDSP delegates as much query processing as possible to the relational
//! backends it integrates (§4.3–4.4). The paper's systems were Oracle,
//! DB2, SQL Server and Sybase; this crate is the from-scratch substitute:
//! an in-memory relational engine with a catalog ([`catalog`]), typed
//! storage with key constraints and equality indexes ([`store`]), the
//! SQL AST the pushdown framework generates ([`sql`]), a SQL92-semantics
//! executor ([`exec`]) that probes those indexes where a WHERE allows,
//! per-vendor SQL text rendering ([`dialect`]), DML with conditioned
//! updates ([`dml`]), and a latency-simulating server facade with XA
//! hooks and execution statistics ([`server`]) so the distributed-join
//! and failover experiments exercise the same trade-offs as the paper's
//! testbed.

#![forbid(unsafe_code)]

mod access;
pub mod catalog;
pub mod dialect;
pub mod dml;
pub mod error;
pub mod exec;
pub mod server;
pub mod sql;
pub mod store;
pub mod types;

pub use catalog::{Catalog, Column, ForeignKey, TableSchema};
pub use dialect::{modulo_literals, render_select, Dialect};
pub use dml::{render_dml, Delete, Dml, Insert, Update};
pub use error::SourceError;
pub use exec::ResultSet;
pub use server::{
    Fault, FaultKind, FaultTrigger, LatencyModel, RelationalServer, ServerStats, TableStatistics,
};
pub use sql::{
    ppk_block_predicate, AggFunc, JoinKind, OrderBy, OutputColumn, ScalarExpr, Select, TableRef,
};
pub use store::{Database, Row, Table};
pub use types::{SqlType, SqlValue, Truth};
