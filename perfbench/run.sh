#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); engine scratch files go to a per-run directory
# under .bench_tmp, removed when the run ends.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
scratch="$PWD/.bench_tmp/run-$$"
mkdir -p "$scratch"
trap 'rm -rf "$scratch"' EXIT
export TMPDIR="$scratch"
"$CARGO_TARGET_DIR/release/perfbench" "$@"
