#!/bin/sh
# The repo's verify loop. The gate list lives in one place, the Makefile's
# `check` target: build, vet (plus staticcheck when installed), tests, the
# race detector over the full suite, the fault-injection, determinism,
# conformance, allocation and routing gates, the introspection, socket and
# replication smoke clusters, a quick Scale pass, and the BenchmarkEventEngine
# regression guard against BENCH_PR1.json.
#
# Set SKIP_BENCH_GUARD=1 to skip the benchmark guard (e.g. on a loaded or
# throttled machine where timings are meaningless).
set -eu

cd "$(dirname "$0")/.."
make check
echo "check: OK"
