#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs the benchmark.
#
#   bash perfbench/run.sh --workload place-ref --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p mmp-serve --bin mmpd >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mmp-perfbench" --mmpd "$CARGO_TARGET_DIR/release/mmpd" "$@"
