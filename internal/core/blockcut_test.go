package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/results"
)

// TestSuiteIgnoresBlockCuts is the block-cut relation: where a store
// cuts its rows into blocks is not a property of the samples, so no
// report may show it. The golden run's seven days are written again at
// 1, 7, 977 and 8192 rows a block and folded through the whole suite at
// 1 and 3 scan workers; every fold must render Figures 4–8 (lines and
// CSVs) to the same bytes and give the same §4.1 rows, every Summary
// field bit for bit. The per-block chunks NearestPass keeps, and the
// §4.1 table gathers across, are cut differently by every size.
func TestSuiteIgnoresBlockCuts(t *testing.T) {
	const week = 7 * 24 * time.Hour
	w, cfg, store := goldenDataset(t)
	var rows []colf.Row
	err := store.ForEach(func(s results.Sample) error {
		rows = append(rows, colf.Row{Probe: s.ProbeID, TimeNano: s.Time.UnixNano(), Region: s.Region, RTT: s.RTTms, Lost: s.Lost})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wantLabel string
		want      []byte
		wantRows  []core.ProviderRow
	)
	for _, blockRows := range []int{8192, 977, 7, 1} {
		var buf bytes.Buffer
		cw := colf.NewWriter(&buf)
		cw.SetBlockRows(blockRows)
		for _, r := range rows {
			if err := cw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Finish(); err != nil {
			t.Fatal(err)
		}
		img, err := colf.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if n := (len(rows) + blockRows - 1) / blockRows; len(img.Blocks()) != n {
			t.Fatalf("%d rows at %d a block: %d blocks, want %d", len(rows), blockRows, len(img.Blocks()), n)
		}
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("%d rows a block, %d workers", blockRows, workers)
			rep, err := core.ScanImage(img, img.Blocks(), w.Index, cfg.Start, week, workers)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := renderSuite(t, rep)
			if want == nil {
				wantLabel, want, wantRows = label, got, rep.Provider.Rows
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: Figures 4–8 differ from %s", label, wantLabel)
			}
			if len(rep.Provider.Rows) != len(wantRows) {
				t.Errorf("%s: %d provider rows, %s has %d", label, len(rep.Provider.Rows), wantLabel, len(wantRows))
				continue
			}
			for i, row := range rep.Provider.Rows {
				prev := wantRows[i]
				if row.Provider != prev.Provider || !sameBits(row.Summary, prev.Summary) || row.Lost != prev.Lost || row.LossRate != prev.LossRate {
					t.Errorf("%s: %s row %+v, %s has %+v", label, row.Provider, row, wantLabel, prev)
				}
			}
		}
	}
}
