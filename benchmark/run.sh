#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root. Arguments go to the binary unchanged:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one way; last line of stdout is the result as JSON
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#       every workload, untraced then traced, into one result file
#   benchmark/run.sh layers --workload NAME [--seed N]
#   benchmark/run.sh compare A.json B.json
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# cargo reports to stderr, so stdout stays the benchmark's alone.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
exec "$target/release/benchmark" "$@"
