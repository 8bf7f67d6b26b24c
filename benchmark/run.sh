#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and
# runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload solve-large --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh --workload all --seed 1 --seconds 25 --trace 1
#   bash benchmark/run.sh compare A.json B.json
#
# Everything the build and the runs leave behind (Go build cache, the
# binary, stores, spans, result records) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the repository root (go.mod, internal/ and benchmark/ must be present)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

# Keep the toolchain's caches, telemetry and temporary files inside the
# checkout, and never let it reach for the network.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/benchmark" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -workdir "$out" "$@"
