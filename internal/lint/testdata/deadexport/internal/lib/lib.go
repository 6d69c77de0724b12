// Package lib exercises the dead-export check: two exports it must report
// and three it must let stand.
package lib

// Unused has no caller at all.
func Unused() int { return Unused() } // want `lib.Unused is exported but nothing outside its declaration calls it`

// TestOnly is called only from lib's own tests.
func TestOnly() int { return 1 } // want `lib.TestOnly is exported but nothing outside its declaration calls it`

// Used is called from package use.
func Used() T { return T{} }

// T is named by package use.
type T struct{}

// String is never called by name, but fmt.Stringer has a String method.
func (T) String() string { return "t" }

// Kept is on the fixture's allow-list.
func Kept() {}
