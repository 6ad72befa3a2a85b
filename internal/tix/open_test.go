package tix_test

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/colf"
	"repro/internal/results"
	"repro/internal/tix"
)

// TestOpenAllocatesFileOnce bounds what Open allocates to the sidecar's
// own size plus a quarter, plus the resident prefix row of each record:
// one buffer the file is read into, and one array of rows sized up front.
// Reading the file through a growing buffer allocated several times its
// size, and so would growing the rows one append at a time.
func TestOpenAllocatesFileOnce(t *testing.T) {
	f := getFixture(t)
	const blockRows = 4096
	store, sink, err := results.Create(t.TempDir(), f.store.Meta(), results.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f.samples {
		if err := sink.Write(s); err != nil {
			t.Fatal(err)
		}
		if (i+1)%blockRows == 0 {
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	blocks := append([]colf.BlockInfo(nil), r.Blocks()...)
	closer.Close()
	sf, err := os.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()

	ix, err := tix.Open(store.TixPath(), f.binding, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Extend(sf, blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	nodes := ix.Nodes()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(store.TixPath())
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	re, err := tix.Open(store.TixPath(), f.binding, blocks, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() != nodes || nodes == 0 {
		t.Fatalf("reopen validated %d of %d records", re.Nodes(), nodes)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(fi.Size()*5/4 + int64(nodes+1)*tix.PrefixRowBytes); allocated > limit {
		t.Errorf("Open allocated %d bytes for a %d-byte sidecar (%.2fx), want at most %d",
			allocated, fi.Size(), float64(allocated)/float64(fi.Size()), limit)
	}
}
