package tix

import (
	"os"

	"repro/internal/geo"
)

// SwapFile replaces the index's sidecar handle and returns the previous
// one, so a test can make Extend's record writes fail.
func SwapFile(ix *Index, f *os.File) *os.File {
	old := ix.f
	ix.f = f
	return old
}

// ChunkSize is the slab chunk a quantile reads and verifies as one.
const ChunkSize = chunkSize

// SlabAt returns where record i's ct slab starts in the sidecar and how
// many samples it holds, so a test can damage chosen chunks of it.
func SlabAt(v *View, i int, ct geo.Continent) (off int64, n int) {
	return v.recs[i].off[ct], int(v.cum[i+1].bins[ct][curveBins] - v.cum[i].bins[ct][curveBins])
}

// SortSlab is the slab sort Extend runs on each block's values.
var SortSlab = sortSlab
