#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Build outputs, the Go build cache and
# traces stay under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/daemon || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

out="${PWD}/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
