#!/usr/bin/env bash
# The benchmark's one command: build, then run.
#
#   benchmark/run.sh [--seed S] [--seconds T] [--out FILE] [--record] [--bless] [--quick]
#       every workload: T seconds (default 10) of fresh-process repetitions,
#       the output check and one traced run each; prints every metric by name
#       and writes a results file (--record also appends the numbers to
#       benchmark/history.jsonl; --bless rewrites benchmark/golden/)
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one workload for T seconds; the last line of stdout is one JSON object
#       (end-to-end metrics with --trace 0, the per-layer ledger with --trace 1)
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh selfcheck [--seed S] [--seconds T] [--quick]
#
# See benchmark/README.md.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# A build directory of the benchmark's own, so its artefacts never mix with
# the repository's workspace build.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BIN="$CARGO_TARGET_DIR/release/benchmark"

case "${1:-}" in
compare | selfcheck)
    exec "$BIN" "$@"
    ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$BIN" run "$@"
    fi
done
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi
exec "$BIN" all --commit "$commit" "$@"
