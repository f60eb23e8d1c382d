#!/usr/bin/env bash
# Builds the benchmark offline in release mode, runs every workload end to
# end and traced (each in a process of its own), prints every metric as
# `workload metric value unit`, and writes benchmark/out/results.json with
# host metadata. Exits non-zero if any workload failed a check.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#
# Run from anywhere; paths are taken from this script's location.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

cargo build --release --offline --manifest-path benchmark/Cargo.toml

target="${CARGO_TARGET_DIR:-benchmark/target}"
exec "$target/release/rmodp-benchmark" all "$@"
