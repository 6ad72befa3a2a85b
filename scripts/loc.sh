#!/usr/bin/env bash
# loc.sh prints the repository's tracked size metric: non-test Go lines
# per package, for the five packages ROADMAP tracks together
# (scan+results+core+stats+obs), and for the whole repository. bench/ is
# the benchmark's own module and is not counted. The last two lines are a
# ratchet: scripts/check.sh fails when either exceeds its ceiling in
# scripts/loc.max.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 |
    xargs -0 wc -l | awk '
        $2 == "total" { next }
        {
            dir = $2; sub(/^\.\//, "", dir); sub(/\/[^\/]*$/, "", dir)
            if (dir ~ /\.go$/) dir = "."
            lines[dir] += $1; all += $1
            if (dir ~ /^internal\/(scan|results|core|stats|obs)$/) tracked += $1
        }
        END {
            for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%7d  scan+results+core+stats+obs\n", tracked
            printf "%7d  total (bench/ excluded)\n", all
        }'
