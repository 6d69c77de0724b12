// Package use is the fixture's production caller.
package use

import (
	"fmt"

	"degradedfirst/internal/lint/testdata/deadexport/internal/lib"
)

var t lib.T = lib.Used()

var _ fmt.Stringer = t

var i lib.Iface = lib.Impl{}

var _ = i.Called()

var _ = lib.Default
