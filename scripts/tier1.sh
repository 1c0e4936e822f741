#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): the workspace must build in
# release mode and every test must pass. Formatting and lints are
# checked first so CI fails fast on style drift.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --all-targets -- -D warnings
cargo build --release
cargo test -q
# 50-seed differential smoke: random FLWGOR queries under the 11-cell
# pushdown/prefetch/streaming/budget/join-method matrix plus the wire
# cell, which replays the same seeds through aldsp-client against a
# loopback aldspd (nightly runs 2,000 seeds)
./scripts/difftest.sh 50
# benches must at least compile (they are exercised manually /
# via scripts/bench_json.sh, not run in CI)
cargo bench --no-run
# the paired parent/change benchmark procedure takes ~20 minutes, so it
# is only syntax-checked here (run by hand: scripts/bench_pair.sh <base-ref>)
bash -n scripts/bench_pair.sh
# server smoke: a real aldspd process on an ephemeral port must answer
# one query over the wire and shut down cleanly when stdin closes
./scripts/server_smoke.sh
# informational: engine size by the one counter simplicity PRs use
# (pass a base ref to loc.sh for the per-crate delta)
./scripts/loc.sh
