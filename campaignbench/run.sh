#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it is run in
# and runs it. Run it from the repository root:
#
#   bash campaignbench/run.sh --workload field-campaign --seed 0 --seconds 20 --trace 0
#
# Every build and cache file stays under .bench_build/ in the repository root,
# and the Go toolchain is kept offline (no module or toolchain downloads).
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/campaignbench" && go build -o "$out/campaignbench" . && go build -o "$out/refloop" ./refloop) >&2
exec "$out/campaignbench" "$@"
