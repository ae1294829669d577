#!/bin/bash
# The command BENCHMARK.json names: builds the benchmark (a module of
# its own, benchmark/go.mod, importing the repository through a replace
# directive) and runs it from the repository root with the arguments
# given. Everything the build writes — the binary, Go's build cache and
# its temporary files — stays in .bench_build/ inside the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp
(cd "$here" && go build -o "$build/ptlbench" .)
cd "$root"
exec "$build/ptlbench" "$@"
