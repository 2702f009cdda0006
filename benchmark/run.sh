#!/usr/bin/env bash
# Builds the benchmark and cmd/loom-router from the checkout this script is
# in and runs the benchmark with the given arguments. Everything the build
# writes (Go build cache included) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp # gcc, run by cgo for package net, writes here
# The go command keeps its telemetry settings under the user config dir. Keep
# that in the checkout too, and switch telemetry off there: in any other mode
# the first go command of the day starts a detached "go ** telemetry **"
# child that can outlive this script.
export XDG_CONFIG_HOME=$build/config
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/loom-bench" ./benchmark
go build -o "$build/bin/loom-router" ./cmd/loom-router
exec "$build/bin/loom-bench" -router "$build/bin/loom-router" "$@"
