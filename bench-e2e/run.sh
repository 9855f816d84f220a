#!/usr/bin/env bash
# Build the benchmark and the real `hmm-server` into one target directory,
# then run the benchmark with the given arguments. Run from the repository
# root:
#
#   bash bench-e2e/run.sh run --workload hit-random-1m --seed 1 --seconds 10 --trace 0
#   bash bench-e2e/run.sh run --all --seed 1
#   bash bench-e2e/run.sh compare target/bench-e2e/a target/bench-e2e/b
#
# Build output goes to stderr, so the benchmark's last stdout line stays its
# JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p hmm-server >&2
cargo build --release --offline --quiet --manifest-path bench-e2e/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/bench-e2e" "$@"
