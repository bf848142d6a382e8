#!/bin/sh
# Run the fscache static-analysis layer, in order:
#   1. fscache_analyze.py --self-test   (the analyzer's own fixtures)
#   2. fscache_analyze.py               (text rules over src/, tools/
#                                        and bench/; hot-path
#                                        allocation, determinism,
#                                        lock-discipline and layering
#                                        passes over src/; see
#                                        docs/STATIC_ANALYSIS.md)
#   3. clang-tidy over src/*.cc         (if clang-tidy is installed)
#
# Usage: run_lint.sh [build_dir]
#
# clang-tidy needs a compile database; pass the build dir as the
# positional argument (default: build/release, falling back to
# build). When clang-tidy or the database is missing the step is
# skipped with a notice, not an error, so the analyzer still gates
# in minimal environments: it needs no database.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

case "${1:-}" in
    -*)
        echo "run_lint.sh: unknown flag: $1" >&2
        echo "usage: run_lint.sh [build_dir]" >&2
        exit 2
        ;;
esac
build_dir="${1:-}"

echo "== fscache_analyze: self-test =="
python3 "$repo_root/tools/fscache_analyze.py" --self-test

echo "== fscache_analyze: src/ tools/ bench/ =="
# FS_ANALYZE_JSON (optional) names a findings artifact, e.g. for CI
# upload; the exit code gates either way.
if [ -n "${FS_ANALYZE_JSON:-}" ]; then
    python3 "$repo_root/tools/fscache_analyze.py" \
        --json "$FS_ANALYZE_JSON"
else
    python3 "$repo_root/tools/fscache_analyze.py"
fi

if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy: not installed, skipping =="
    exit 0
fi

if [ -z "$build_dir" ]; then
    for d in "$repo_root/build/release" "$repo_root/build"; do
        if [ -f "$d/compile_commands.json" ]; then
            build_dir="$d"
            break
        fi
    done
fi
if [ -z "$build_dir" ] || [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "== clang-tidy: no compile_commands.json found =="
    echo "   configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" \
         "and pass the build dir as \$1" >&2
    exit 1
fi

echo "== clang-tidy ($build_dir) =="
status=0
find "$repo_root/src" -name '*.cc' | sort | while IFS= read -r f; do
    clang-tidy --quiet -p "$build_dir" "$f" || exit 1
done || status=1
if [ "$status" -ne 0 ]; then
    echo "clang-tidy reported findings" >&2
    exit 1
fi
echo "clang-tidy clean"
