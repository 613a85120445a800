#!/usr/bin/env bash
# Smoke test of the benchmark for a later CI change to wire in: its unit
# tests, then every workload end to end and traced at a tenth of its length,
# then the output contracts. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=(--release --offline --manifest-path benchmark/Cargo.toml)
cargo test "${manifest[@]}"
mkdir -p benchmark/results
cargo run "${manifest[@]}" -- run --workload all --seed 2015 --quick --traced \
    --out benchmark/results/ci-smoke.json
cargo run "${manifest[@]}" -- check --seed 2015
