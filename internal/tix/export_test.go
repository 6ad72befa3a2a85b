package tix

import "os"

// SwapFile replaces the index's sidecar handle and returns the previous
// one, so a test can make Extend's record writes fail.
func SwapFile(ix *Index, f *os.File) *os.File {
	old := ix.f
	ix.f = f
	return old
}
