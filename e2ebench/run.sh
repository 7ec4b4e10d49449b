#!/usr/bin/env bash
# Builds crnserve, crndiag and the benchmark client from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload estimate --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under the build directory ($CARGO_TARGET_DIR,
# default .bench_build), including the Go build cache.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/crnserve" ]; then
	echo "e2ebench: no crnserve sources under $root" >&2
	exit 1
fi
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# XDG_CONFIG_HOME keeps the go command's config here too. Telemetry is off:
# in its default local mode the go command starts a detached child process
# that outlives the build.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root" && go build -o "$out/crnserve" ./cmd/crnserve && go build -o "$out/crndiag" ./cmd/crndiag)
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --crnserve "$out/crnserve" --crndiag "$out/crndiag" --work "$out/work" "$@"
