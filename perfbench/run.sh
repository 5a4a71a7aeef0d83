#!/usr/bin/env bash
# Build the analysis daemon and the benchmark from source, then run one
# workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload study|scan_cold|clone_churn \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); run
# artefacts (daemon logs, snapshot directories, traces) to .bench_run.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
target="$(cd "$(dirname "$CARGO_TARGET_DIR")" 2>/dev/null && pwd)/$(basename "$CARGO_TARGET_DIR")"
cargo build --release --offline --quiet -p server --bin serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --serve-bin "$target/release/serve" "$@"
