#!/bin/bash
# Regenerates every experiment result (results/) and the canonical
# test/bench transcripts. Run from the repository root.
set -u
mkdir -p results
cargo build --release -p dynastar-bench 2>&1 | tail -1
for src in crates/bench/src/bin/fig*.rs crates/bench/src/bin/table*.rs crates/bench/src/bin/ablation_modes.rs; do
  b=$(basename "$src" .rs)
  echo "=== $b start $(date +%T) ==="
  timeout 1200 ./target/release/$b > results/$b.txt 2> results/$b.log
  echo "=== $b exit=$? end $(date +%T) ==="
done
echo ALL_EXPERIMENTS_DONE
