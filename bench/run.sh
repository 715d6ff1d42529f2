#!/usr/bin/env bash
# Builds the benchmark and the experiments CLI into .bench_build/ and runs
# the benchmark with the given arguments. Go's build cache and temp files
# go there too, so a run writes nothing outside the checkout. Run it from
# the repository root:
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -compare parent.json change.json
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/experiments || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, cmd/experiments and bench/ not found here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
mkdir -p "$GOTMPDIR"
go build -o "$out/experiments" ./cmd/experiments
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
