//go:build !amd64 || purego

package gf256

// No assembly in this build: mulAdd, xorInto and mulSlices always take
// the table kernel, and the stubs below are never reached.
var kernel = tierTable

func mulSlicesGFNI(aff *[256]uint64, coeffs []byte, srcs [][]byte, dsts [][]byte, n int, overwrite bool) {
	panic("gf256: no assembly kernel in this build")
}

func mulAddAVX2(nib *[32]byte, src, dst []byte) { panic("gf256: no assembly kernel in this build") }

func xorAVX2(src, dst []byte) { panic("gf256: no assembly kernel in this build") }
