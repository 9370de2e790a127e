#!/usr/bin/env bash
# Builds the perfbench program from the sources of the checkout that holds
# this script, then runs it from the checkout root with the given flags:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
#
# Every build product, temporary file and data directory stays under
# .bench_build in the checkout. Without the engine's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if ! (cd "$here" && go build -o "$build/bin/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
cd "$root"
exec "$build/bin/perfbench" "$@"
