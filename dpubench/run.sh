#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash dpubench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, the
# binary itself) stays under .bench_build in the current directory, and
# the toolchain never reaches the network: the benchmark module has no
# dependency outside this repository.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
export GOFLAGS= GOWORK=off

(cd "$root/dpubench" && go build -o "$out/dpubench" .) >&2

# One OS thread per CPU: the workloads are sized for this host's nproc.
GOMAXPROCS=$(nproc) exec "$out/dpubench" "$@"
