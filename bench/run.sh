#!/usr/bin/env bash
# Builds bench/hawkbench and runs it from the root of the checkout. The go
# build cache lives inside the checkout, so the benchmark writes nothing
# outside it and the first invocation in a fresh checkout pays for a cold
# build exactly once.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o ../.bench_build/hawkbench ./hawkbench
exec .bench_build/hawkbench "$@"
