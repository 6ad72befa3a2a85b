package scan

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/colf"
)

// benchRows is big enough that decode throughput dominates setup and
// small enough for a 1x smoke run.
const benchRows = 200_000

// benchScan measures File over one samples file, reporting decode
// throughput in file MB/s plus two sample rates: samples/s counts
// predicate matches (the pass-visible rate), rows/s counts every row
// decoded and examined. They coincide on unfiltered scans; on filtered
// ones samples/s measures selectivity, not decode speed; zone-skipped
// blocks appear in neither rate.
func benchScan(b *testing.B, path string, pred *colf.Predicate) {
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	var samples, rows uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := File(context.Background(), Config{
			Path:      path,
			Workers:   4,
			Predicate: pred,
			NewPasses: func(int) ([]Pass, error) { return []Pass{&tallyPass{}}, nil },
		})
		if err != nil {
			b.Fatal(err)
		}
		samples = st.Samples
		rows = st.RowsScanned
	}
	b.StopTimer()
	b.ReportMetric(float64(samples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkScanBinary is a full 4-worker scan at the default block
// size through a pass that reads two columns. bench/'s
// colf.decode_rows_per_s is the nearest per-layer metric (a count-only
// pass at the harness's GOMAXPROCS=2); this one keeps the scanner's own
// overhead — grouping, dispatch, merge — measurable without a suite on
// top.
func BenchmarkScanBinary(b *testing.B) {
	path := writeBinary(b, genSamples(benchRows), colf.DefaultBlockRows)
	benchScan(b, path, nil)
}

// BenchmarkScanBinaryFiltered scans a ~30-minute window out of the
// ~55-hour stream: zone maps skip all but one or two blocks, and those
// are compacted to the window's rows. bench/'s
// scan.window_blocks_decoded_ratio counts the blocks such a scan
// decodes; nothing there times it.
func BenchmarkScanBinaryFiltered(b *testing.B) {
	samples := genSamples(benchRows)
	path := writeBinary(b, samples, colf.DefaultBlockRows)
	benchScan(b, path, &colf.Predicate{
		Since: samples[0].Time.Add(24 * time.Hour),
		Until: samples[0].Time.Add(24*time.Hour + 30*time.Minute),
	})
}
