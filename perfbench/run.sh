#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build outputs, the Go build cache and
# everything the benchmark writes stay inside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
