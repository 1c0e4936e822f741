#!/usr/bin/env bash
# Server smoke test: spawn a real aldspd process on an ephemeral port,
# run one query through the aldsp-client binary, then close the
# daemon's stdin (its shutdown signal) and assert a clean zero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p aldsp-server -p aldsp-client
bin="${CARGO_TARGET_DIR:-target}/release"

coproc ALDSPD { "$bin/aldspd" --port 0 --customers 10; }

# the daemon prints its bound (ephemeral) address as the first line
if ! read -t 30 -r banner <&"${ALDSPD[0]}"; then
    echo "server smoke: no banner from aldspd" >&2
    exit 1
fi
case "$banner" in
    "aldspd listening on "*) addr="${banner##* }" ;;
    *) echo "server smoke: unexpected banner: $banner" >&2; exit 1 ;;
esac

out="$("$bin/aldsp-client" --addr "$addr" \
    --query 'declare namespace c = "urn:custDS"; count(c:CUSTOMER())' \
    2>/dev/null)"
if [ "$out" != "10" ]; then
    echo "server smoke: expected 10 customers, got: $out" >&2
    exit 1
fi

# closing stdin tells the daemon to shut down; it must exit 0
eval "exec ${ALDSPD[1]}>&-"
wait "$ALDSPD_PID"
echo "server smoke: OK ($addr answered, clean shutdown)"
