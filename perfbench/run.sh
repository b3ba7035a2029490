#!/usr/bin/env bash
# Builds Graft's benchmark from the sources of this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload mwm-soc-full --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the binary)
# and the traced run's span files land under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -spans "$out/spans" "$@"
