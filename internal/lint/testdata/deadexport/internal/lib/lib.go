// Package lib exercises the dead-export check: the exports it must report
// and those it must let stand.
package lib

// Unused has no caller at all.
func Unused() int { return Unused() } // want `lib.Unused is exported but nothing outside its declaration calls it`

// TestOnly is called only from lib's own tests.
func TestOnly() int { return 1 } // want `lib.TestOnly is exported but nothing outside its declaration calls it`

// Used is called from package use.
func Used() T { return T{} }

// T is named by package use.
type T struct{}

// String is never called by name, but T implements fmt.Stringer.
func (T) String() string { return "t" }

// Mode shares its name with fs.FileInfo's method, but T does not
// implement fs.FileInfo.
func (T) Mode() int { return 0 } // want `lib.T.Mode is exported but nothing outside its declaration calls it`

// Iface is what package use calls Impl through.
type Iface interface {
	Called() int
	Uncalled() int // want `lib.Iface.Uncalled is exported but nothing outside its declaration calls it`
}

// Impl implements Iface.
type Impl struct{}

// Called is reached through Iface.Called, which package use calls.
func (Impl) Called() int { return 1 }

// Uncalled implements Iface, but nothing calls Iface.Uncalled.
func (Impl) Uncalled() int { return 2 } // want `lib.Impl.Uncalled is exported but nothing outside its declaration calls it`

// Limit is a constant nothing reads.
const Limit = 3 // want `lib.Limit is exported but nothing outside its declaration calls it`

// Default is a variable package use reads.
var Default = 2

// Kept is on the fixture's allow-list.
func Kept() {}
