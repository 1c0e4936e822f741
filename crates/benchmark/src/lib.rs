//! # aldsp-benchmark — the repository's benchmark
//!
//! Five seeded closed-loop workloads over the whole stack, end-to-end
//! metrics with regression bounds, a per-layer itemised bill, and a
//! traced run. `BENCHMARK.json` at the repository root names the
//! command, the workloads and the metrics; `README.md` beside this
//! crate explains each. The criterion micros in `crates/bench` and the
//! `BENCH_PR*.json` files are history, not the benchmark.

pub mod bless;
pub mod fixtures;
pub mod golden;
pub mod harness;
pub mod host;
pub mod layers;
pub mod report;
pub mod trace;
pub mod workloads;
