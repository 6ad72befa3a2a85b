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

echo "== go vet (386) =="
# Compiles every package and test for a 32-bit int without running them,
# so a constant that overflows int there fails here, not on a 386 host.
GOARCH=386 go vet ./...

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

echo "== reach =="
# Every package under internal/ must be a dependency of some cmd/ main.
# Examples, tests and bench/ do not count as reach: a package only they
# import is either wired into a command or deleted.
unreached=$(comm -23 <(go list ./internal/... | sort) <(go list -deps ./cmd/... | sort))
if [ -n "$unreached" ]; then
    echo "internal packages no command reaches:" >&2
    echo "$unreached" >&2
    exit 1
fi

echo "== no httptest outside tests =="
# net/http/httptest is test scaffolding: a command or internal package
# whose non-test files import it runs a loopback server in production
# where a direct call would do. go list's .Imports excludes test files.
httptest_users=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./internal/... ./cmd/... |
    awk '{for (i = 2; i <= NF; i++) if ($i == "net/http/httptest") print $1}')
if [ -n "$httptest_users" ]; then
    echo "non-test code imports net/http/httptest:" >&2
    echo "$httptest_users" >&2
    exit 1
fi

echo "== examples (run to completion) =="
# Compiling an example is not running it: each must exit 0.
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done

echo "== go test -race (concurrency suites, uncached) =="
# The scanner, the fused analysis passes, the campaign engine, the
# storage layer (columnar codec + sinks), and the telemetry plane
# (registry scrapes racing registration, flight recorder) are the
# shard-and-merge packages, and internal/serve runs concurrent readers
# against snapshot swaps under churn;
# internal/cmdrun serves a run's status while the run still executes;
# and internal/atlas hands each live measurement's end from its pinger
# goroutines to Stop and Wait through a done channel.
# Run them uncached so every gate exercises the race detector on fresh
# schedules.
go test -race -count=1 ./internal/scan ./internal/core ./internal/engine ./internal/colf ./internal/results ./internal/snap ./internal/stats ./internal/obs ./internal/serve ./internal/tix ./internal/cmdrun ./internal/atlas

echo "== go test -race =="
go test -race ./...

echo "== windowed index gate (differential + /cdf cost) =="
# The race pass above already ran these; this pass runs them without the
# detector, so the gate's allocation bound measures the code and not the
# instrumentation. The differential pins /cdf and /quantile bodies from
# the index path to the scan engine's over randomized windows; the cost
# gate asserts a /cdf index-path request reads zero sidecar bytes, reads
# no slab (nothing to select over), never scans, and allocates a bounded
# number of objects, and that the Server-Timing stages of a /cdf and of
# a windowed /quantile (slab_read among them) each sum to within 10 % of
# the fill; a warm windowed /cdf and a warm windowed /quantile through
# the handler each allocate at most 8 KB (pooled tix Results and body
# buffers: no per-window garbage), and concurrent clients filling
# distinct windows through those pools get the index-less engine's
# bodies while the shared figure bodies stay byte-identical (also run
# under -race above); the corrupt-slab
# tests that a slab chunk damaged after open fails the quantile's
# per-chunk CRC (and falls back to the scan), while damage in a chunk no
# quantile reads changes no answer. Edge blocks decode once: the tix
# tests pin that a block a window cuts is decoded the first time only —
# later windows, through any View taken before or after an Extend,
# count its resident codes and read no store byte (a counting reader
# says so) — with cold, warm and index-less scan answers equal (rows,
# delivered, curves, quantiles) over windows inside one block, on round
# timestamps, with lost rows and unresolved probes; that a block whose
# time steps backwards or whose CRC fails keeps no codes and fails every
# window that cuts it (the serve test shows such a window answering
# the scan's bytes). The tix tests also pin that a quantile
# reads only its bin's chunks (under a quarter of the covered records'
# bytes) across chunk boundaries, the bin gather over a real one-record
# index, and a slab value outside the bin its prefix row names as an
# error; the selection kernel it calls lives in internal/stats, pinned
# against sorting there. The radix sort Extend orders each block's
# slabs with equals slices.Sort bit for bit (sizes 0 to 5 000,
# duplicates, negative values, a real block's slabs). The tix
# differential against a cold fold releases each window's Result before
# the next, so it also pins a reused Result's answers. The resident
# report is pinned the same way: a HotSuite updated by delta after every Advance
# against a cold scan at every boundary (its work counted: the rows each
# update gathers, and the buffered rows it reads — no more than the step
# appended plus the rows of the probes whose nearest region flipped), a
# published view held byte-identical across later publishes, and a
# traced refresh recording each of its stages once. Beside it, the
# scan.Stats every analysis entry point returns — the prefix, block and
# sample counts the snapshot's refresh gate and run.figures.json read —
# are pinned for a cold Figure 4/5 scan, a snapshot hit with a delta, a
# pure hit, ScanMemory, and a resident suite's first fold and Advance. The nearest-region
# kernel beside it: a warm ObserveBlock allocates its chunk and nothing
# per row, a round-structured block's chunk holds 14 bytes per kept row
# plus 16 per time run, a merge keeps the receiver's best row on a tie,
# and Figures 6/7 come out byte-identical at 1, 2 and 3 scan workers.
# A one-shot fold of Figures 6–8 (figures -fig 6|7|8, ScanMemory) reads
# the blocks twice and buffers exactly the rows its reports keep — as
# many as Figure 6 counts — in chunks of exactly their kept count, and
# its Figures 6–8 (lines and CSVs) and KS result equal the all-rows
# buffer's and the row oracle's at 1, 2 and 3 scan workers, with and
# without a window predicate, and at every block size below.
# The §4.1 table it derives from those chunks: it equals a row-by-row
# stats.Dist fold in file order, every Summary field bit for bit, at 1,
# 2 and 3 scan workers, a NaN RTT fails it, and the report allocates one
# buffer, 8 bytes per row of the largest provider, plus a small
# constant; on a hand-made dataset a region whose every row was lost
# still counts against its provider, a provider with only lost rows gets
# no row, and unknown probes and regions without a provider prefix count
# nowhere. Block cuts do not show: the same samples written at 1, 7, 977
# and 8192 rows a block give the same Figures 4–8 and §4.1 rows at 1 and
# 3 scan workers, and the same one-shot Figures 6–8 at 1, 2 and 3.
# Figure 7 and the KS test equal a per-sample reference on a store not
# written in time order (rows alternating timestamps across a bin edge
# and stepping backwards), cold and through delta updates that walk the
# row chain into old chunks, and a kept row before the series start
# fails Figure 7 but not a Figure 6-only report. The /cdf
# curve-value kernel is pinned to strconv byte for byte (every c/n with
# n <= 2000, powers of two +- 64 ulps, a million random values, k·1e-6
# and k·1e-7), and what it declines still renders as encoding/json does.
# tix.Open streams samples.tix through snap.Walk: it allocates its
# resident prefix rows and directory plus about one record, however long
# the file (a whole-file read fails this bound), and the walker stops
# where Validate does, with its records, on every cut and bit flip of an
# image, reading nothing of a record after its callback.
go test -count=1 -run 'TestServeWindowDifferential|TestServeCDFIndexPathGate|TestWarmWindowFillAllocs|TestConcurrentFillsKeepTheirBodies|TestServeCorruptSlabFallsBack|TestServeBackwardTimeFallsBack|TestCDFBodyMatchesEncodingJSON|TestJSONFloatMatchesEncodingJSON|TestCurvePMatchesStrconv|TestCurvePDeclines|TestServeChurn|TestRefreshRecordsStages' ./internal/serve
go test -count=1 -run 'TestResidentReportMatchesColdEveryStep|TestScanStatsAccounting|TestNearestObserveBlockSteadyStateAllocs|TestNearestChunkBytes|TestNearestMergeTieKeepsReceiversRow|TestNearestFiguresAtAnyWorkerCount|TestLastMileOutOfOrderTime|TestProviderTableIsSequentialFold|TestProviderTableCountsLosses|TestSuiteIgnoresBlockCuts|TestOneShotFoldRetention|TestScanStoreMatchesRowOracle' ./internal/core
go test -count=1 -run 'TestQueryMatchesColdFold|TestCurvePathReadsNoSlabs|TestBeyondGridDifferential|TestCorruptSlabAfterOpen|TestOrderStatGathersTheBin|TestOrderStatRejectsMismatchedGather|TestSortSlabMatchesSort|TestEdgeCodesDifferential|TestWarmEdgeReadsNoStore|TestBackwardTimeFailsQuery|TestCRCDamagedEdgeBlock|TestViewsShareEdgeCodes|TestOpenAllocatesOneRecord' ./internal/tix
go test -count=1 -run 'TestWalkMatchesValidate' ./internal/snap
go test -count=1 -run 'TestSelectRankMatchesSort|TestSummarizeMatchesSort' ./internal/stats

echo "== one answer on 386 (Exp kernel + golden digests) =="
# The lognormal draw's exponential is a pure-Go transliteration of
# math.Exp's amd64 FMA path (internal/netem/exp.go), pinned bit for bit
# to math.Exp on 10^8 inputs on an amd64 host with FMA; so a 386 build,
# whose math.Exp is another computation, writes the same samples, and
# the golden digests of both commands hold there unedited.
go test -count=1 -run '^TestExpMatchesMathExp$' ./internal/netem
GOARCH=386 go test -count=1 -run 'TestRunGoldenDigests|TestOpsMatchGolden' ./cmd/shears ./cmd/dataset

echo "== benchtraj (verdict arithmetic, trajectory) =="
# The pair driver's quartiles, pair wins, claim rule and bounds, and the
# trajectory check; its tests run nothing and time nothing. verify
# checks BENCH_pipeline.json only appended to its committed entries,
# each with its stamp and BENCHMARK.json's names. Recording an entry
# times the benchmark, so it stays out of this gate.
go test -count=1 ./scripts/benchtraj
go run ./scripts/benchtraj verify

echo "== campaign allocation gate =="
# Like the windowed index gate, without the race detector so the
# allocation ceilings measure the code. The campaign's steady state
# allocates nothing per round: the engine recycles each shard's drained
# batch buffers (a run allocates no more at 4x the rounds, and its merged
# stream stays canonical at 1, 2, 3 and 7 workers), and a warmed round's
# synthesis allocates a handful of objects at most. Its batched path
# resolver returns a path equal to what Platform.Path derives, pair for
# pair, derives the pairs the table has no cell for, and on a path error
# still emits the samples before it; the table dies with its campaign (a
# weak pointer to it is cleared by the first collection after
# RunCampaignOpts returns). The paths a campaign keeps live hold no pointer for the
# collector to scan, Sample still matches its reference (which computes
# lon/15 and reads the model's Config itself) bit for bit, MinRTT —
# which takes its pings in time order and skips the noise of any whose
# lower bound is not below the best total so far — equals the fold of
# RTT over its pings bit for bit for one to nine pings and allocates
# nothing, and each probe's address is spelled as fmt would.
go test -count=1 -run '^TestRunRecyclesBatches$' ./internal/engine
go test -count=1 -run '^(TestSynthesizeRoundSteadyStateAllocs|TestResolvePathsMatchesPath|TestPathTableDiesWithCampaign)$' ./internal/atlas
go test -count=1 -run '^(TestPathHoldsNoPointers|TestSampleMatchesReference|TestMinRTTMatchesRTTFold)$' ./internal/netem
go test -count=1 -run '^TestAddr$' ./internal/probe

echo "== kill drill (restart is re-running) =="
# Builds shears, figures and dataset and SIGKILLs them on a fixed seeded
# schedule: shears after its Nth checkpoint and at seeded instants,
# figures -fig 4 while it writes samples.snap, dataset window while it
# extends samples.tix. Re-running the same command must end with the
# uninterrupted run's stdout, figure files, dataset files and directory
# listing; a failure prints the schedule's seed. Uncached: the seeded
# kill instants are fractions of a reference run timed in the gate.
go test -count=1 -run '^TestKillDrill$' ./cmd/shears

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
# or a 5xx; every 200 body equal to the index-less engine's), and the
# JSON float encoder (any bit pattern renders as encoding/json does,
# NaN and the infinities are errors, and the curve-value kernel equals
# strconv wherever it does not decline). Ten seconds each catches
# regressions without turning the gate into a fuzz farm.
go test -run='^$' -fuzz='^FuzzBlockRoundTrip$' -fuzztime=10s ./internal/colf
go test -run='^$' -fuzz='^FuzzSnapshotRoundTrip$' -fuzztime=10s ./internal/snap
go test -run='^$' -fuzz='^FuzzSuiteState$' -fuzztime=10s ./internal/core
go test -run='^$' -fuzz='^FuzzNodeRoundTrip$' -fuzztime=10s ./internal/tix
go test -run='^$' -fuzz='^FuzzWindowParams$' -fuzztime=10s ./internal/serve
go test -run='^$' -fuzz='^FuzzJSONFloat$' -fuzztime=10s ./internal/serve

echo "== bench smoke =="
# One iteration of every micro-benchmark catches bit-rot in bench code
# without paying for real measurement runs; the pipeline benchmark's own
# smoke runs its four workloads at tiny scale through the real binaries.
go test -run='^$' -bench=. -benchtime=1x ./...
(cd bench && go test -run 'TestSmokeWorkloads' ./...)

echo "== smoke dataset =="
# A short campaign the convert, figure-digest and temporal-index
# smokes below read. Worker-count byte identity of samples.bin is pinned
# by cmd/shears TestRunWorkerCountInvariance. Its one-continent filter
# must print the same regions table at one and three scan workers.
smokedir="$(mktemp -d)"
trap 'rm -rf "$smokedir"' EXIT
go run ./cmd/shears -days 2 -probes 200 -quiet -out "$smokedir/store"
go run ./cmd/dataset -data "$smokedir/store" -continent EU -out "$smokedir/eu" filter
for workers in 1 3; do
    go run ./cmd/dataset -data "$smokedir/eu" -workers "$workers" regions >"$smokedir/regions.w$workers.txt"
done
test -s "$smokedir/regions.w1.txt"
cmp "$smokedir/regions.w1.txt" "$smokedir/regions.w3.txt"

echo "== convert smoke (JSONL export/import round trip) =="
# JSONL is the interchange encoding: exporting the smoke store and
# importing the export must reproduce samples.bin byte for byte (the
# two-day run ends before its first checkpoint, so no block was sealed
# short), and exporting that again the same lines.
go run ./cmd/dataset -data "$smokedir/store" -out "$smokedir/jsonl" convert
go run ./cmd/dataset -data "$smokedir/jsonl" -out "$smokedir/reimport" convert
cmp "$smokedir/store/samples.bin" "$smokedir/reimport/samples.bin"
go run ./cmd/dataset -data "$smokedir/reimport" -out "$smokedir/jsonl2" convert
cmp "$smokedir/jsonl/samples.jsonl" "$smokedir/jsonl2/samples.jsonl"

echo "== figure digests (worker-count byte-identity) =="
# Render figures from the store cold (-snapshot off, so the whole store
# decodes through the scanner) at one and four workers; the stdout
# bytes must not depend on the worker count.
for fig in 6 7; do
    for workers in 1 4; do
        go run ./cmd/figures -fig "$fig" -data "$smokedir/store" -probes 200 \
            -workers "$workers" -snapshot off 2>/dev/null | sha256sum | cut -d' ' -f1 \
            >"$smokedir/fig$fig.w$workers.sha256"
    done
    cmp "$smokedir/fig$fig.w1.sha256" "$smokedir/fig$fig.w4.sha256"
    echo "figure $fig sha256 $(cat "$smokedir/fig$fig.w1.sha256")"
done

echo "== temporal index smoke (windowed equivalence) =="
# The shears run above built samples.tix alongside the dataset;
# -op window answers from it, composing block records plus edge-block
# decodes. Pin its per-continent delivered sample counts
# against -op continents, which cold-scans the same [since, until)
# row by row — the index must agree with the scan exactly.
test -s "$smokedir/store/samples.tix"
win_since="2019-09-01T12:00:00Z"
win_until="2019-09-02T06:00:00Z"
go run ./cmd/dataset -data "$smokedir/store" \
    -window "$win_since,$win_until" window >"$smokedir/window.idx.txt"
go run ./cmd/dataset -data "$smokedir/store" \
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
