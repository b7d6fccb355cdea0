#!/usr/bin/env bash
# Builds the benchmark and the release binaries it drives, then runs it.
# Run from the repository root:
#   bash fbench/run.sh --workload campaign_grid --seed 2022 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path fbench/Cargo.toml
cargo build --release --offline --quiet -p fahana-runtime --bin fahana-serve --bin fahana-campaign
exec "$CARGO_TARGET_DIR/release/fahana-perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
