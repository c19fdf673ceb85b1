#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload oltp|htap|vdm|all --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the WAL
# directories of the durable workloads, and the span files of traced
# runs. The go command is kept off the network (GOPROXY=off,
# GOTOOLCHAIN=local); the module has no dependencies outside the repo.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out/run" "$@"
