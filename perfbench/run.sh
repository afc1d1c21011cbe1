#!/usr/bin/env bash
# Builds the benchmark and gridbcastd from this checkout, then runs one
# benchmark run. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload hit-serve --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, generated inputs and span files all
# stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/work" "$out/spans"
# XDG_CONFIG_HOME keeps the go command's user config and telemetry files
# inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/gridbcastd" gridbcast/cmd/gridbcastd
) >&2
# The runner asks for nice -5 (see startDaemon in daemon.go); where the
# host refuses, nice warns and runs it at the default priority.
exec nice -n -5 "$out/bin/perfbench" -daemon "$out/bin/gridbcastd" -work "$out/work" -spans "$out/spans" "$@"
