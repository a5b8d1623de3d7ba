#!/usr/bin/env bash
# Builds the release `nonfifo` and `benchmark` binaries from this workspace,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --seed 1
#
# The benchmark finds `nonfifo` next to itself in the target directory
# (`CARGO_TARGET_DIR`, or `target`).
set -euo pipefail
cargo build --release --quiet --locked --offline \
    -p nonfifo-cli -p nonfifo-bench --bin nonfifo --bin benchmark
exec "${CARGO_TARGET_DIR:-target}/release/benchmark" "$@"
