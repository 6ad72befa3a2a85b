#!/usr/bin/env bash
# check.sh is the tier-1+ verification gate: formatting, vet, build, and
# the full test suite under the race detector. CI and pre-merge runs
# should use this instead of bare `go test ./...`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== namelint =="
# Every metric name, metric label, and structured log key literal must
# satisfy obs.ValidName, so the Prometheus exposition and log encodings
# never see a name they would reject or have to escape.
go run ./scripts/namelint ./cmd ./internal

echo "== deadapi =="
# Every exported identifier and method in internal/... must be read by a
# non-test file (bench/ reads are listed as pinned), or be listed with a
# reason in scripts/deadapi.allow; a stale or reasonless line fails too.
go run ./scripts/deadapi

echo "== go test -race (concurrency suites, uncached) =="
# The scanner, the fused analysis passes, the campaign engine, the
# storage layer (columnar codec + sinks), and the telemetry plane
# (registry scrapes racing registration, flight recorder) are the
# shard-and-merge packages, and internal/serve runs concurrent readers
# against snapshot swaps and cache invalidation under churn; run them
# uncached so every gate exercises the race detector on fresh
# schedules.
go test -race -count=1 ./internal/scan ./internal/core ./internal/engine ./internal/colf ./internal/results ./internal/snap ./internal/stats ./internal/obs ./internal/serve ./internal/tix

echo "== go test -race =="
go test -race ./...

echo "== windowed index gate (differential + /cdf cost) =="
# The race pass above already ran these; this pass runs them without the
# detector, so the gate's allocation bound measures the code and not the
# instrumentation. The differential pins /cdf and /quantile bodies from
# the index path to the scan engine's over randomized windows; the cost
# gate asserts a /cdf index-path request reads zero sidecar bytes, loads
# no slab (nothing to select over), never scans, and allocates a bounded
# number of objects; the corrupt-slab test that /quantile's per-read CRC
# still catches a record damaged after open. The tix kernel tests pin
# the windowed quantile's bin gather, and a gather that disagrees with
# the counts as an error; the selection kernel it calls lives in
# internal/stats, pinned against sorting there. The resident report is
# pinned the same way: a HotSuite updated by delta after every Advance
# against a cold scan at every boundary (its work counted: the rows each
# update gathers, and the buffered rows it reads — no more than the step
# appended plus the rows of the probes whose nearest region flipped), a
# published view held byte-identical across later publishes, and a
# traced refresh recording each of its stages once. The nearest-region
# kernel beside it: a warm ObserveBlock allocates its chunk and nothing
# per row, a merge keeps the receiver's best row on a tie, and Figures
# 6/7 come out byte-identical at 1, 2 and 3 scan workers.
go test -count=1 -run 'TestServeWindowDifferential|TestServeCDFIndexPathGate|TestServeCorruptSlabFallsBack|TestCDFBodyMatchesEncodingJSON|TestJSONFloatMatchesEncodingJSON|TestServeChurn|TestRefreshRecordsStages' ./internal/serve
go test -count=1 -run 'TestResidentReportMatchesColdEveryStep|TestNearestObserveBlockSteadyStateAllocs|TestNearestMergeTieKeepsReceiversRow|TestNearestFiguresAtAnyWorkerCount' ./internal/core
go test -count=1 -run 'TestCurvePathReadsNoSlabs|TestBeyondGridDifferential|TestCorruptSlabAfterOpen|TestOrderStatGathersTheBin|TestOrderStatRejectsMismatchedGather' ./internal/tix
go test -count=1 -run 'TestSelectRankMatchesSort|TestSummarizeMatchesSort' ./internal/stats

echo "== bench module (API compile + paper_run parity + traced smoke) =="
# bench/ is its own module compiled against this one's exported API, and
# its parity test pins what shears leaves on disk (samples.bin, figure
# CSVs, samples.snap, samples.tix) to the benchmark's traced composition
# byte for byte — so a change to either fails here, not at the next
# benchmark run. The traced smoke is the only test that drives
# bench/trace.go end to end against the core/serve contracts it leans on
# (a HotSuite that reports straight after its constructor, a cold
# ScanStoreSnap beside a resumed one).
(cd bench && go vet ./... && go test -run 'TestPaperRunParity|TestSmokeTraced|TestBenchmarkJSONMatchesSpec' ./...)

echo "== fuzz smoke =="
# Short fuzz bursts over the decode boundaries: the columnar block
# codec (round-trip, corruption, and a cut leg: at any cut of an
# index-less stream the live locator returns exactly the blocks that end
# by the cut and the strict readers fail unless the cut is a block
# boundary), the one validator every sidecar file
# is read through — samples.snap, samples.tix, checkpoint.json (it must
# never panic or allocate past its input, and the records it accepts
# must re-encode to the bytes they were read from; the target kept its
# FuzzSnapshotRoundTrip name) — the suite state samples.snap carries
# (decode must never panic or allocate past its input; accepted states
# must round-trip), the temporal index's block-record codec (decode
# must never panic; a payload Open accepts must re-encode byte for byte
# and derive the same prefix row; the target kept its FuzzNodeRoundTrip
# name), and the window parameters of /cdf and /quantile (never a panic
# or a 5xx; every 200 body equal to the index-less engine's). Ten
# seconds each catches regressions without turning the gate into a
# fuzz farm.
go test -run='^$' -fuzz='^FuzzBlockRoundTrip$' -fuzztime=10s ./internal/colf
go test -run='^$' -fuzz='^FuzzSnapshotRoundTrip$' -fuzztime=10s ./internal/snap
go test -run='^$' -fuzz='^FuzzSuiteState$' -fuzztime=10s ./internal/core
go test -run='^$' -fuzz='^FuzzNodeRoundTrip$' -fuzztime=10s ./internal/tix
go test -run='^$' -fuzz='^FuzzWindowParams$' -fuzztime=10s ./internal/serve

echo "== bench smoke =="
# One iteration of every micro-benchmark catches bit-rot in bench code
# without paying for real measurement runs; the pipeline benchmark's own
# smoke runs its four workloads at tiny scale through the real binaries.
go test -run='^$' -bench=. -benchtime=1x ./...
(cd bench && go test -run 'TestSmokeWorkloads' ./...)

echo "== smoke dataset =="
# A short serial campaign the convert, figure-digest and temporal-index
# smokes below read. Worker-count byte identity of samples.bin is pinned
# by cmd/shears TestRunWorkerCountInvariance.
smokedir="$(mktemp -d)"
trap 'rm -rf "$smokedir"' EXIT
go run ./cmd/shears -days 2 -probes 200 -quiet -out "$smokedir/serial"

echo "== convert smoke (JSONL export/import round trip) =="
# JSONL is the interchange encoding: exporting the serial store and
# importing the export must reproduce samples.bin byte for byte (the
# two-day run ends before its first checkpoint, so no block was sealed
# short), and exporting that again the same lines.
go run ./cmd/dataset -data "$smokedir/serial" -out "$smokedir/jsonl" -to jsonl convert
go run ./cmd/dataset -data "$smokedir/jsonl" -out "$smokedir/reimport" -to binary convert
cmp "$smokedir/serial/samples.bin" "$smokedir/reimport/samples.bin"
go run ./cmd/dataset -data "$smokedir/reimport" -out "$smokedir/jsonl2" -to jsonl convert
cmp "$smokedir/jsonl/samples.jsonl" "$smokedir/jsonl2/samples.jsonl"

echo "== figure digests (worker-count byte-identity) =="
# Render figures from the store cold (-snapshot off, so the whole store
# decodes through the scanner) at one and four workers; the stdout
# bytes must not depend on the worker count.
for fig in 6 7; do
    for workers in 1 4; do
        go run ./cmd/figures -fig "$fig" -data "$smokedir/serial" -probes 200 \
            -workers "$workers" -snapshot off 2>/dev/null | sha256sum | cut -d' ' -f1 \
            >"$smokedir/fig$fig.w$workers.sha256"
    done
    cmp "$smokedir/fig$fig.w1.sha256" "$smokedir/fig$fig.w4.sha256"
    echo "figure $fig sha256 $(cat "$smokedir/fig$fig.w1.sha256")"
done

echo "== temporal index smoke (windowed equivalence) =="
# The serial shears run above built samples.tix alongside the dataset;
# -op window answers from it, composing block records plus edge-block
# decodes. Pin its per-continent delivered sample counts
# against -op continents, which cold-scans the same [since, until)
# row by row — the index must agree with the scan exactly.
test -s "$smokedir/serial/samples.tix"
win_since="2019-09-01T12:00:00Z"
win_until="2019-09-02T06:00:00Z"
go run ./cmd/dataset -data "$smokedir/serial" \
    -window "$win_since,$win_until" window >"$smokedir/window.idx.txt"
go run ./cmd/dataset -data "$smokedir/serial" \
    -since "$win_since" -until "$win_until" continents >"$smokedir/window.scan.txt"
# Both tables pad the continent name to 14 columns (names can contain
# spaces); the count is the first field after it.
tally='/^continent /{t=1;next} t{rest=substr($0,15); split(rest,a," "); print substr($0,1,14), a[1]}'
diff <(awk "$tally" "$smokedir/window.idx.txt") \
    <(awk "$tally" "$smokedir/window.scan.txt")

echo "== non-test Go lines (ceilings: scripts/loc.max) =="
# Non-test LOC is a ratchet, not a readout: scripts/loc.max holds the two
# totals loc.sh ends with (the tracked five packages, the repository) as
# of the last PR that moved them, and either one growing past its line
# fails the gate. A PR that shrinks the code lowers the file with it.
loc=$(scripts/loc.sh)
echo "$loc"
tail -n 2 <<<"$loc" | awk '
    NR == FNR { max[FNR] = $1; next }
    $1 > max[FNR] { print "loc.sh: " $0 " is over its scripts/loc.max ceiling of " max[FNR] > "/dev/stderr"; bad = 1 }
    END { exit bad }' scripts/loc.max -

echo "OK"
