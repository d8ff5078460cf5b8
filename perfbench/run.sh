#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fattree-100k --seed 181 --seconds 30 --trace 0
#
# Everything the build and the runs write (Go build cache, binary,
# session journals, Chrome traces) stays under $CARGO_TARGET_DIR, or
# .bench_build when that is unset.
set -euo pipefail
root=$PWD
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$root/$work ;;
esac
mkdir -p "$work/gotmp" "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/gotmp" \
	XDG_CONFIG_HOME="$work/config" TMPDIR="$work/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" --work "$work" "$@"
