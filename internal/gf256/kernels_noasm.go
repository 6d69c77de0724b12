//go:build !amd64 || purego

package gf256

// No assembly in this build: mulAdd, xorInto and MulAddSlices always take
// the table kernel, and the stubs below are never reached.
var kernel = tierTable

func mulAddSlicesGFNI(aff *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte) {
	panic("gf256: no assembly kernel in this build")
}

func mulAddAVX2(nib *[32]byte, src, dst []byte) { panic("gf256: no assembly kernel in this build") }

func xorAVX2(src, dst []byte) { panic("gf256: no assembly kernel in this build") }
