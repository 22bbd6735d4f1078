#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local
export GOFLAGS=
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
