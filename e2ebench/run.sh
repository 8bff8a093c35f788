#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the root
# of a checkout of the repository; all arguments go to the benchmark:
#
#   bash e2ebench/run.sh --workload base-sweep --seed 1 --seconds 30 --trace 0
#
# The build cache and binary live under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
  echo "e2ebench: $root holds no tecfan module to measure (go.mod, internal/)" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
# Keep every file the go command writes (build cache, module cache, its
# config and telemetry under XDG_CONFIG_HOME) inside the checkout.
(cd "$here" && GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
  go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
