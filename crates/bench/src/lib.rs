//! The experiments harness lives in src/bin/experiments.rs.
//!
//! This library crate hosts the workload fixtures it runs.

#![forbid(unsafe_code)]
pub mod fixtures;
