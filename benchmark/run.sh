#!/usr/bin/env bash
# The command /BENCHMARK.json names. Run from the repository root:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the benchmark from source (nothing to do after the first run),
# then runs one workload in one process and prints its result object as
# the last line. `cupbench` hands `--trace 1` to `cupbench-trace`, which
# this build puts next to it.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/cupbench" "$@"
