#!/usr/bin/env bash
# Build the shipped `node` binary and the benchmark from source, then run
# the benchmark with the arguments given. Run from the repository root:
#
#   bash benchmark/run.sh --workload tcp_kv_sat --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh run --smoke
#
# Both builds land in $CARGO_TARGET_DIR (default .bench_build), so the
# benchmark finds `node` beside its own executable. Build output goes to
# stderr; stdout carries only the benchmark's own.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ahl-bench --bin node >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
