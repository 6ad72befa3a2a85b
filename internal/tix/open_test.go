package tix_test

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/colf"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/tix"
)

// TestOpenAllocatesOneRecord bounds what Open allocates by what it keeps
// — the resident prefix rows and slab directory — plus two of the
// sidecar's largest records and a small constant, however long the file
// is: the file streams through one record buffer that grows only to the
// largest record. Reading the whole file into a buffer of its own size
// allocates several times that bound here, as would growing the rows one
// append at a time.
func TestOpenAllocatesOneRecord(t *testing.T) {
	f := getFixture(t)
	const blockRows = 1024
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
	data, err := os.ReadFile(store.TixPath())
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, rec := range snap.Validate(data, f.binding).Records {
		largest = max(largest, rec.Len())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	re, err := tix.Open(store.TixPath(), f.binding, blocks, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() != nodes || nodes < 10 {
		t.Fatalf("reopen validated %d of %d records; the test needs a dozen", re.Nodes(), nodes)
	}
	prefixRows, directory, _ := re.ResidentBytes()
	allocated := after.TotalAlloc - before.TotalAlloc
	limit := uint64(prefixRows + directory + 2*int64(largest) + 4<<10)
	t.Logf("Open allocated %d bytes: %d of prefix rows, %d of directory; the file is %d bytes, its largest record %d",
		allocated, prefixRows, directory, len(data), largest)
	if allocated > limit {
		t.Errorf("Open allocated %d bytes for a %d-byte sidecar whose largest record is %d, want at most %d",
			allocated, len(data), largest, limit)
	}
}
