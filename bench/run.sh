#!/usr/bin/env bash
# Builds hexbench from the sources of the checkout this script sits in and
# runs it from the checkout root with the given arguments, e.g.
#
#   bash bench/run.sh --workload cold-small --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1 --out result.json        # all four workloads
#
# Everything the build and the runs write (Go build cache, binary, stores,
# trace files) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/work"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
# The pure-Go build needs no C toolchain; the loopback HTTP path is the
# same either way.
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/hexbench" ./hexbench)
cd "$root"
exec "$build/hexbench" -workdir "$build/work" "$@"
