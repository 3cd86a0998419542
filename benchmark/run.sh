#!/usr/bin/env bash
# Build the benchmark (both binaries, release, offline) and run one of them:
# `bench-traced` counts allocations and is picked by `--trace 1` and by
# `--quick` (which runs traced and untraced alike and times nothing worth
# keeping); `bench` does not count and serves everything else. All arguments
# go to the binary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the working directory.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin=bench
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 || $arg == --quick ]]; then
        bin=bench-traced
    fi
    prev=$arg
done
export COWBIRD_BENCH_DIR="$here"
exec "$target/release/$bin" "$@"
