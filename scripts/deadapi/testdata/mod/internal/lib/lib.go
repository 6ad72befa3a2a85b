// Package lib is the fixture API: one symbol per verdict.
package lib

// Live is read by cmd/app.
func Live() {}

// TestOnly is read only by lib's tests: dead.
func TestOnly() {}

// Listed is dead, and the allow files list it.
func Listed() {}

// Pinned is read only by the nested bench module.
func Pinned() {}

// Recur reads only itself: dead.
func Recur(n int) {
	if n > 0 {
		Recur(n - 1)
	}
}

// Visitor is read by cmd/app.
type Visitor interface{ Visit(int) }

// T is read by cmd/app through NewT.
type T struct{}

// NewT is read by cmd/app.
func NewT() *T { return &T{} }

// String implements fmt.Stringer: not reported.
func (T) String() string { return "T" }

// Visit implements Visitor: not reported.
func (*T) Visit(int) {}

// Unused is a method nothing reads and no interface declares: dead.
func (*T) Unused() {}
