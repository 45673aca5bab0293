#!/usr/bin/env bash
# Builds sosd, sosfront and the benchmark from this checkout, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig1-sweep|serve-miss|serve-hot \
#       --seed N --seconds S --trace 0|1
#
# Everything it writes (Go build cache, binaries, per-run scratch) lives
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sosd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (cmd/sosd and perfbench/ must exist)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/bin/" ./cmd/sosd ./cmd/sosfront
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/runs" "$@"
