#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through, e.g.
#
#	bash perfbench/run.sh --workload silo-paperscale --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (the Go build cache, the binary, checkpoints and traces) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/home"

export HOME=$out/go/home
export XDG_CONFIG_HOME=$out/go/home/.config
export XDG_CACHE_HOME=$out/go/home/.cache
export GOCACHE=$out/go/cache
export GOTMPDIR=$out/go/tmp
export GOPATH=$out/go/path
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
