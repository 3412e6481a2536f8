#!/usr/bin/env bash
# Builds perfbench and metisd from the checkout it is run in,
# then runs perfbench with the given arguments:
#
#	bash perfbench/run.sh --workload plan --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# go under $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout. Without the repository's sources next
# to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
	export XDG_CONFIG_HOME="$out/config" GOENV=off GOTELEMETRY=off
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
	go build -o "$out/perfbench" .
	go build -o "$out/metisd" metis/cmd/metisd
)

exec "$out/perfbench" -metisd "$out/metisd" -work "$out/work" "$@"
