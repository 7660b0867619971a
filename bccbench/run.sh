#!/usr/bin/env bash
# Builds the shipped `bcc` binary and the benchmark binary from source, then
# runs the benchmark with the arguments given (see README.md):
#
#   bash bccbench/run.sh --workload large-search --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target/), generated graphs to $CARGO_TARGET_DIR/bccbench-work.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p bcc-cli >&2
cargo build --release --offline --quiet --manifest-path bccbench/Cargo.toml >&2
exec "$target/release/bccbench" --bcc "$target/release/bcc" --work "$target/bccbench-work" "$@"
