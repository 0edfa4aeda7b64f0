#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash e2ebench/run.sh --workload ingest-dblp --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, sink files and traces go
# to .bench_build/ under the current directory, and nothing is written
# outside it. See e2ebench/README.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
src="$root/$(dirname "$0")"
mkdir -p "$out"

# Keep the toolchain's caches and config inside the checkout and offline.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$src" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -scratch "$out" "$@"
