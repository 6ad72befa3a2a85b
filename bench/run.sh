#!/usr/bin/env bash
# run.sh builds the benchmark driver and runs it. Everything the build
# and the run write — the Go build cache, the toolchain's temp and
# config files, the binaries, datasets and traces — stays in
# <repo>/.bench_build, so the benchmark reads and writes only inside its
# checkout.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd" ]; then
    echo "bench: no repository to measure at $root (go.mod or cmd/ missing)" >&2
    exit 2
fi
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/bin"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
