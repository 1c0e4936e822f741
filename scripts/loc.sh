#!/usr/bin/env bash
# Non-blank, non-comment Rust line counts per crate for crates/*/src,
# with `#[cfg(test)]` modules excluded — the one counter simplicity PRs
# are sized by (not `git diff --stat`). Vendored shims and the
# benchmark harness are listed separately from the engine.
#
#   scripts/loc.sh            # counts for the working tree
#   scripts/loc.sh <base-ref> # counts plus the per-crate delta vs <base-ref>
set -euo pipefail
cd "$(dirname "$0")/.."

SHIMS=" criterion parking_lot proptest rand benchmark "

# Count the given files: skip blank lines, `//` comment lines, and
# everything from a top-level `#[cfg(test)]` to the end of the file
# (test modules sit last in every file of this workspace).
count() {
    awk '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

# crate_loc <tree-root> <crate>
crate_loc() {
    local files=()
    while IFS= read -r f; do files+=("$f"); done \
        < <(find "$1/crates/$2/src" -name '*.rs' 2>/dev/null | sort)
    if [ ${#files[@]} -eq 0 ]; then echo 0; else count "${files[@]}"; fi
}

base_ref="${1:-}"
base_dir=""
if [ -n "$base_ref" ]; then
    base_dir="$(mktemp -d)"
    trap 'rm -rf "$base_dir"' EXIT
    git archive "$base_ref" crates | tar -x -C "$base_dir"
fi

report() { # report <title> <crate>...
    local title="$1" total=0 base_total=0
    shift
    printf '%s\n' "$title"
    for c in "$@"; do
        local now base
        now="$(crate_loc . "$c")"
        total=$((total + now))
        if [ -n "$base_dir" ]; then
            base="$(crate_loc "$base_dir" "$c")"
            base_total=$((base_total + base))
            printf '  %-12s %7d  (%+d)\n' "$c" "$now" $((now - base))
        else
            printf '  %-12s %7d\n' "$c" "$now"
        fi
    done
    if [ -n "$base_dir" ]; then
        printf '  %-12s %7d  (%+d)\n' total "$total" $((total - base_total))
    else
        printf '  %-12s %7d\n' total "$total"
    fi
}

# crates of either tree, so a deleted crate still shows its delta
names() { for d in "$1"/crates/*/; do basename "$d"; done; }
engine=() other=()
for c in $({ names .; if [ -n "$base_dir" ]; then names "$base_dir"; fi; } | sort -u); do
    case "$SHIMS" in
        *" $c "*) other+=("$c") ;;
        *) engine+=("$c") ;;
    esac
done

report "engine crates (non-blank, non-comment, non-test lines in src/)" "${engine[@]}"
report "vendored shims and benchmark harness" "${other[@]}"
