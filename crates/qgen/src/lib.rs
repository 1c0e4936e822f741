//! # aldsp-qgen — differential query-correctness harness
//!
//! SQLancer-style differential testing for the ALDSP reproduction: a
//! seeded, deterministic random FLWGOR generator ([`gen`]) driven by a
//! model of the introspected catalogs ([`model`]), an oracle that
//! executes each generated query under a matrix of optimizer/runtime
//! configurations and demands byte-identical serialized results
//! ([`oracle`]), seeded fault-schedule trials asserting the
//! result-or-typed-error invariant ([`fault`]), and a greedy shrinker
//! that reduces a failing seed to a minimal query ([`shrink`]).
//!
//! The contract under test is §4.3's: the pushdown framework (and
//! every other optimization — PP-k prefetch, streaming delivery,
//! memory budgeting) may change *how* an answer is computed, never
//! *what* it is. The naive reference cell (pushdown off, everything
//! interpreted in the middleware) defines *what*.
//!
//! Reproduce any failure with its seed:
//!
//! ```text
//! DIFFTEST_SEED_START=<seed> DIFFTEST_SEEDS=1 cargo test -p aldsp --test difftest
//! ```

#![forbid(unsafe_code)]

pub mod fault;
pub mod gen;
pub mod model;
pub mod oracle;
pub mod shrink;
pub mod writes;

pub use fault::{generate_plan, run_fault_trial, FaultOutcome, FaultPlan};
pub use gen::{generate, GenQuery};
pub use model::{CatalogModel, ColTy};
pub use oracle::{default_matrix, pushed_sql, CellSpec, Mismatch, Oracle};
pub use shrink::shrink;
pub use writes::{generate_writes, WriteOp};
