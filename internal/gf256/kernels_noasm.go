//go:build !amd64 || purego

package gf256

// No assembly in this build: mulAdd and xorInto always take the table
// kernel, and the two stubs below are never reached.
var useAVX2 = false

func mulAddAVX2(nib *[32]byte, src, dst []byte) { panic("gf256: no assembly kernel in this build") }

func xorAVX2(src, dst []byte) { panic("gf256: no assembly kernel in this build") }
