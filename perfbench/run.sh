#!/usr/bin/env bash
# Builds the benchmark and the node programs it drives from the sources of
# the checkout it is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload des-churn --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the toolchain and the
# benchmark write stays under .bench_build/ in that root.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/bin/" . ./benchnode repro/cmd/hybridnode) >&2
exec "$out/bin/perfbench" "$@"
