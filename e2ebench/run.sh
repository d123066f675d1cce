#!/usr/bin/env bash
# Builds bfdnd and the benchmark from source, then runs one benchmark
# workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload sweep-grid --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run state go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/bfdnd ]]; then
	echo "run.sh: run from the repository root: no go.mod or cmd/bfdnd in $(pwd)" >&2
	exit 1
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/bfdnd" ./cmd/bfdnd
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -bfdnd "$out/bin/bfdnd" -out "$out/e2ebench" "$@"
