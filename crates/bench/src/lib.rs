//! Criterion benches and the experiments harness live in benches/ and src/bin/.
//!
//! This library crate hosts the shared workload fixtures used by both.

#![forbid(unsafe_code)]
pub mod fixtures;
