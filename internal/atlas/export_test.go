package atlas

import (
	"testing"
	"weak"
)

// weakPathTables wraps newPathTable for the rest of the test: each table
// it allocates is appended as a weak pointer, which holds nothing alive.
func weakPathTables(t testing.TB) *[]weak.Pointer[pathTable] {
	var tables []weak.Pointer[pathTable]
	made := newPathTable
	newPathTable = func(p *Platform) *pathTable {
		pt := made(p)
		tables = append(tables, weak.Make(pt))
		return pt
	}
	t.Cleanup(func() { newPathTable = made })
	return &tables
}
