#!/bin/sh
# Check formatting of *changed* C++ files against .clang-format.
#
# Usage:
#   scripts/check_format.sh [base-ref]
#
# Checks files changed relative to base-ref (default: origin/main if
# it exists, else HEAD~1). Deliberately incremental — the tree
# predates .clang-format and a mass reformat would destroy blame —
# so only files you touch are held to the style.
#
# Exits 0 with a notice when clang-format is not installed, so local
# minimal environments aren't blocked; CI installs clang-format and
# gets the real check.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

if ! command -v clang-format >/dev/null 2>&1; then
    echo "check_format: clang-format not installed, skipping"
    exit 0
fi

base="${1:-}"
if [ -z "$base" ]; then
    if git rev-parse --verify --quiet origin/main >/dev/null; then
        base="origin/main"
    else
        base="HEAD~1"
    fi
fi

changed=$(git diff --name-only --diff-filter=ACMR "$base" -- \
              '*.cc' '*.hh' | grep -v '^tools/analyze_fixtures/' || true)
if [ -z "$changed" ]; then
    echo "check_format: no changed C++ files vs $base"
    exit 0
fi

status=0
while IFS= read -r f; do
    if [ -z "$f" ] || [ ! -f "$f" ]; then
        continue
    fi
    if ! clang-format --dry-run -Werror "$f"; then
        status=1
    fi
done <<EOF
$changed
EOF
if [ "$status" -ne 0 ]; then
    echo "check_format: style violations (run clang-format -i" \
         "on the files above)" >&2
fi
exit "$status"
