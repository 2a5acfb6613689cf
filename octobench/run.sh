#!/usr/bin/env bash
# Build the benchmark (release) and run the whole suite: the five workloads
# untraced, then traced, one process each. Every metric is printed by name;
# the result objects land in octobench/out/results.json, the spans in
# octobench/out/<workload>.spans.jsonl. Extra arguments go to
# `octobench suite` (--seed, --seconds, --scale, --out).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path octobench/Cargo.toml
exec "${CARGO_TARGET_DIR:-octobench/target}/release/octobench" suite "$@"
