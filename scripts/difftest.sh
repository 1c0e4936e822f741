#!/usr/bin/env bash
# Differential query-correctness run (see DESIGN.md, "Differential
# testing"). Generates N_SEEDS random FLWGOR queries and executes each
# under the 12-cell optimizer/runtime config matrix (pushdown, PP-k
# prefetch, streaming, budget, VM, forced join methods — every cell on
# one thread per query) plus seeded fault schedules, demanding
# byte-identical results or typed errors. The
# reference cell runs each text's literal plan; the `lifted` check
# holds the `full` cell to lifted == literal on every seed (what
# `execute` answers from its one-plan-per-shape cache vs. the text's
# own literal plan: same bytes, same pushed SQL modulo `?`). The same
# seeds also replay over a loopback aldspd through aldsp-client (the
# `wire` cell), demanding byte-identity with the in-process run.
#
# Usage:
#   scripts/difftest.sh [N_SEEDS] [SEED_START]
#
#   N_SEEDS     queries to generate for the matrix oracle (default 50);
#               fault trials run N_SEEDS/2 schedules
#   SEED_START  first seed (default 0) — reproduce a failure with
#               scripts/difftest.sh 1 <failing-seed>
#
# Environment:
#   DIFFTEST_ARTIFACT  path to write the minimized failing query to
#                      (used by the nightly job to upload a repro)
set -euo pipefail
cd "$(dirname "$0")/.."

N_SEEDS="${1:-50}"
SEED_START="${2:-0}"

DIFFTEST_SEEDS="$N_SEEDS" \
DIFFTEST_FAULT_SEEDS="$(( N_SEEDS / 2 > 0 ? N_SEEDS / 2 : 1 ))" \
DIFFTEST_SEED_START="$SEED_START" \
    cargo test -q -p aldsp --test difftest
