#!/usr/bin/env bash
# Builds the benchmark and the td-serve daemon from the checkout's
# sources, then runs one benchmark workload:
#
#   bash tdbench/run.sh --workload game --seed 1 --seconds 15 --trace 0
#
# Every build output, the Go build cache, the go command's own config
# and telemetry files, and the span logs of traced runs stay under
# .bench_build/ at the checkout root. Build messages go to stderr;
# standard output is the benchmark's alone.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/go-path" \
	GOMODCACHE="$out/go-path/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$here"
go build -o "$out/bin/tdbench" . >&2
go build -o "$out/bin/td-serve" tokendrop/cmd/td-serve >&2
cd "$root"
exec "$out/bin/tdbench" -td-serve "$out/bin/td-serve" -trace-dir "$out/trace" "$@"
