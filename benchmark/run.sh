#!/usr/bin/env bash
# Builds the shipped binaries and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload steady-fleet --seed 2025 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. Both builds share one target directory, so the benchmark
# finds `cordial-cli` and `cordial-experiments` next to itself.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p cordial-cli -p cordial-experiments >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cordial-benchmark" "$@"
