#!/usr/bin/env bash
# Non-test Rust lines — the one measure ROADMAP and the simplicity PRs quote:
# "lines before each file's first `#[cfg(test)]`" (the whole file when it has
# none).
#
#   scripts/loc.sh                  per-crate table (crates/*/src), its total, and
#                                   the count over every .rs under crates/ (the
#                                   "non-test Rust under crates/" PR 12 quoted;
#                                   it counts tests/ files whole)
#   scripts/loc.sh FILE...          per-file table and total
#   scripts/loc.sh --markdown ...   the same as a markdown table (CI summary)
set -euo pipefail
cd "$(dirname "$0")/.."

markdown=0
if [[ "${1:-}" == "--markdown" ]]; then
    markdown=1
    shift
fi

# Sum of non-test lines over the files named on stdin.
count() {
    xargs -r awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }'
}

row() {
    if (( markdown )); then
        printf '| %s | %s |\n' "$1" "$2"
    else
        printf '%8s  %s\n' "$2" "$1"
    fi
}

if (( markdown )); then
    printf '| non-test Rust | lines |\n|---|---:|\n'
fi

total=0
if (( $# > 0 )); then
    for file in "$@"; do
        n=$(printf '%s\n' "$file" | count)
        row "$file" "$n"
        total=$((total + n))
    done
else
    for dir in crates/*/; do
        n=$(find "${dir}src" -name '*.rs' | count)
        row "${dir}src" "$n"
        total=$((total + n))
    done
fi
row total "$total"
if (( $# == 0 )); then
    row "all .rs under crates/" "$(find crates -name '*.rs' | count)"
fi
