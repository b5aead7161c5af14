#!/usr/bin/env bash
# Builds toppriv-serve (repository root) and the benchmark (this package)
# into one target directory, then runs the benchmark with the given
# arguments from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ]; then
    echo "benchmark/run.sh: no Cargo.toml beside benchmark/ - the repository sources are missing" >&2
    exit 3
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin toppriv-serve
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$target/release/toppriv-benchmark" --server-bin "$target/release/toppriv-serve" "$@"
