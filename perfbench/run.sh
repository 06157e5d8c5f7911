#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Every build output stays inside the checkout, under .bench_build/ (or
# $CARGO_TARGET_DIR when it is set). Arguments pass through to the
# benchmark binary:
#
#   bash perfbench/run.sh --workload search-miss --seed 1 --seconds 25 --trace 0
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOPATH=$out/gopath
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=
export GOTELEMETRY=off
export GOENV=off
export XDG_CONFIG_HOME=$out/config

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
