//go:build amd64 && !purego

package gf256

// kernel is the widest multiply tier the CPU and OS support. It is decided
// once, here; only tests change it.
var kernel = detectKernel(cpuid, xgetbv)

// detectKernel reads CPUID and XCR0 through the two probes it is given
// (the instructions themselves outside tests). CPUID says what the CPU
// implements; XCR0 says which register state the OS saves across context
// switches, and an instruction whose registers the OS does not save
// cannot be used.
func detectKernel(cpuid func(leaf, subLeaf uint32) (eax, ebx, ecx, edx uint32), xgetbv func() (eax, edx uint32)) tier {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return tierTable
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return tierTable
	}
	xcr0, _ := xgetbv()
	_, ebx, ecx, _ := cpuid(7, 0)
	const sseState, avxState = 1 << 1, 1 << 2
	const avx2 = 1 << 5
	if xcr0&(sseState|avxState) != sseState|avxState || ebx&avx2 == 0 {
		return tierTable
	}
	// Opmask, the upper halves of Z0-Z15, and Z16-Z31.
	const zmmState = 1<<5 | 1<<6 | 1<<7
	const avx512f, gfni = 1 << 16, 1 << 8
	if xcr0&zmmState != zmmState || ebx&avx512f == 0 || ecx&gfni == 0 {
		return tierAVX2
	}
	return tierGFNI
}

// cpuid executes CPUID with the given leaf in EAX and sub-leaf in ECX.
func cpuid(leaf, subLeaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, which says what register state
// the OS has enabled. It may run only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// mulSlicesGFNI computes, for every row r < len(dsts) and i < n,
//
//	dsts[r][i] (^)= coeffs[r*k]*srcs[0][i] ^ ... ^ coeffs[r*k+k-1]*srcs[k-1][i]
//
// with k = len(srcs), aff the bit matrix of every coefficient, and the
// sum XORed into dsts[r] or, when overwrite is set, written over it. n
// must be a multiple of 256, every source and dst at least that long,
// len(dsts) and k at least 1, and len(coeffs) k times len(dsts). It makes
// one pass over the sources per maxRows rows.
//
//go:noescape
func mulSlicesGFNI(aff *[256]uint64, coeffs []byte, srcs [][]byte, dsts [][]byte, n int, overwrite bool)

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
