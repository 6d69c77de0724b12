//go:build amd64 && !purego

package gf256

// useAVX2 says whether mulAdd and xorInto hand whole 32-byte groups to the
// assembly kernels. It is decided once, here; only tests change it.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches (CPUID alone does not say the latter).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(sseState|avxState) != sseState|avxState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with the given leaf in EAX and sub-leaf in ECX.
func cpuid(leaf, subLeaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, which says what register state
// the OS has enabled. It may run only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// mulAddAVX2 computes dst[i] ^= c*src[i] over len(src) bytes, where nib is
// c's pair of shuffle tables. len(src) must be a multiple of 32 and
// len(dst) at least len(src).
//
//go:noescape
func mulAddAVX2(nib *[32]byte, src, dst []byte)

// xorAVX2 computes dst[i] ^= src[i] under the same length conditions.
//
//go:noescape
func xorAVX2(src, dst []byte)
