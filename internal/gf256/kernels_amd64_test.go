//go:build amd64 && !purego

package gf256

import "testing"

// TestDetectKernel feeds detectKernel the register values of CPUs and
// OSes without each feature it needs, so every tier it can pick is
// picked on any amd64 host, whatever that host's own CPU has.
func TestDetectKernel(t *testing.T) {
	const (
		osxsave, avx         = 1 << 27, 1 << 28
		sseAVXState          = 1<<1 | 1<<2
		zmmState             = 1<<5 | 1<<6 | 1<<7
		avx2, avx512f, gfni7 = 1 << 5, 1 << 16, 1 << 8
	)
	for _, tc := range []struct {
		name             string
		maxLeaf, ecx1    uint32
		xcr0, ebx7, ecx7 uint32
		want             tier
	}{
		{"no leaf 7", 6, osxsave | avx, sseAVXState | zmmState, avx2 | avx512f, gfni7, tierTable},
		{"no OSXSAVE", 7, avx, sseAVXState | zmmState, avx2 | avx512f, gfni7, tierTable},
		{"OS saves no AVX state", 7, osxsave | avx, 1 << 1, avx2 | avx512f, gfni7, tierTable},
		{"no AVX2", 7, osxsave | avx, sseAVXState | zmmState, avx512f, gfni7, tierTable},
		{"OS saves no ZMM state", 7, osxsave | avx, sseAVXState, avx2 | avx512f, gfni7, tierAVX2},
		{"no AVX-512F", 7, osxsave | avx, sseAVXState | zmmState, avx2, gfni7, tierAVX2},
		{"no GFNI", 7, osxsave | avx, sseAVXState | zmmState, avx2 | avx512f, 0, tierAVX2},
		{"everything", 7, osxsave | avx, sseAVXState | zmmState, avx2 | avx512f, gfni7, tierGFNI},
	} {
		probe := func(leaf, _ uint32) (eax, ebx, ecx, edx uint32) {
			switch leaf {
			case 0:
				return tc.maxLeaf, 0, 0, 0
			case 1:
				return 0, 0, tc.ecx1, 0
			case 7:
				return 0, tc.ebx7, tc.ecx7, 0
			}
			t.Fatalf("%s: CPUID leaf %d read", tc.name, leaf)
			return
		}
		xgetbv := func() (uint32, uint32) {
			if tc.ecx1&osxsave == 0 {
				t.Fatalf("%s: XGETBV read without OSXSAVE", tc.name)
			}
			return tc.xcr0, 0
		}
		if got := detectKernel(probe, xgetbv); got != tc.want {
			t.Errorf("%s: detectKernel = %s, want %s", tc.name, tierNames[got], tierNames[tc.want])
		}
	}
}
