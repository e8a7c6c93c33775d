#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it with the given
# arguments, from the root of the repository:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
