#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload extract-clean --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache, temporary files, the serve
# workload's store and journal (removed at exit) and traced-run spans.
# The binary is rebuilt only when the sources' hash changes; the hash is
# also reported in the result's host line.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The go command's cache, temporary files, module path and per-user
# config (telemetry included) all stay in the checkout; it may not fetch.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
stamp=$(find go.mod internal perfbench -type f \( -name '*.go' -o -name 'go.mod' \) |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)
if [[ ! -x "$out/perfbench" || "$(cat "$out/perfbench.stamp" 2>/dev/null)" != "$stamp" ]]; then
	(cd perfbench && go build -o "$out/perfbench" .)
	echo "$stamp" >"$out/perfbench.stamp"
fi
export PERFBENCH_SOURCE_SHA256="$stamp"
exec "$out/perfbench" "$@"
