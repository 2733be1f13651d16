#!/bin/sh
# Builds the benchmark from the surrounding checkout and runs it. All build
# output — the go build cache, go's temporary files, the two binaries — stays
# in <checkout>/.bench_build, so a run reads and writes only inside its
# checkout. Arguments pass through: see main.go.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
