package gf256

import (
	"bytes"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// testLengths exercises the batching edges of every tier (8-byte words,
// 32-byte groups, 256-byte fused steps, the 8 KiB window): empty,
// sub-word, exact, odd tails.
var testLengths = []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 1000, 4096, 8191, 8192, 8193, 65536}

// tierNames are the kernel tiers as the tests and benchmarks name them.
var tierNames = [...]string{tierTable: "table", tierAVX2: "avx2", tierGFNI: "gfni"}

// eachKernel calls fn once per multiply tier this build and CPU can run,
// with the dispatch forced to it: "table" always, then "avx2" and "gfni"
// when the CPU has them. It logs the tiers it could not run, so a pass on
// a host without them is visibly not a pass of their kernels.
func eachKernel(tb testing.TB, fn func(kernel string)) {
	tb.Helper()
	saved := kernel
	defer func() { kernel = saved }()
	for k := tierTable; k <= saved; k++ {
		kernel = k
		fn(tierNames[k])
	}
	if saved < tierGFNI {
		tb.Logf("kernels above %q not exercised: this build or CPU lacks them", tierNames[saved])
	}
}

// refMulAdd and refMulSet are the oracle: the field's scalar Mul, one byte
// at a time.
func refMulAdd(c byte, src, dst []byte) {
	for i, s := range src {
		dst[i] ^= Mul(c, s)
	}
}

func refMulSet(c byte, src, dst []byte) {
	for i, s := range src {
		dst[i] = Mul(c, s)
	}
}

// mulSliceSet computes dst[i] = c * src[i] through the kernels: MulSlice
// into a cleared dst. dst and src must not overlap.
func mulSliceSet(c byte, src, dst []byte) {
	clear(dst)
	MulSlice(c, src, dst)
}

// fillPattern writes deterministic data with interleaved zeros.
func fillPattern(b []byte, seed byte) {
	x := uint32(seed) + 1
	for i := range b {
		x = x*1664525 + 1013904223
		if x&3 == 0 {
			b[i] = 0
		} else {
			b[i] = byte(x >> 8)
		}
	}
}

func TestMulSliceMatchesReference(t *testing.T) {
	eachKernel(t, func(kernel string) {
		for _, n := range testLengths {
			for _, c := range []byte{0, 1, 2, 3, 37, 0x80, 0xd7, 0xff} {
				src := make([]byte, n)
				fillPattern(src, c)
				dst := make([]byte, n)
				fillPattern(dst, c+1)
				want := append([]byte(nil), dst...)
				refMulAdd(c, src, want)
				MulSlice(c, src, dst)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s: MulSlice(c=%#x, n=%d) diverges from per-byte Mul", kernel, c, n)
				}
			}
		}
	})
}

func TestMulSliceSetMatchesReference(t *testing.T) {
	eachKernel(t, func(kernel string) {
		for _, n := range testLengths {
			for _, c := range []byte{0, 1, 2, 37, 0xff} {
				src := make([]byte, n)
				fillPattern(src, c)
				dst := make([]byte, n)
				fillPattern(dst, 99)
				want := append([]byte(nil), dst...)
				refMulSet(c, src, want)
				mulSliceSet(c, src, dst)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s: mulSliceSet(c=%#x, n=%d) diverges from per-byte Mul", kernel, c, n)
				}
			}
		}
	})
}

func TestAddSliceMatchesXOR(t *testing.T) {
	eachKernel(t, func(kernel string) {
		for _, n := range testLengths {
			src := make([]byte, n)
			fillPattern(src, 5)
			dst := make([]byte, n)
			fillPattern(dst, 6)
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ src[i]
			}
			MulSlice(1, src, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: MulSlice(1, n=%d) is not XOR", kernel, n)
			}
		}
	})
}

// TestKernelsEveryCoefficientAndAlignment runs MulSlice and mulSliceSet
// over slices that start at every offset 0-31 of a larger buffer, so the
// assembly kernel's unaligned loads and the hand-over to the table
// kernel at the 32-byte tail are hit at every alignment. What a coefficient
// changes (table contents) and what an offset changes (addresses) are
// independent, so the sweep is two passes rather than their product: all
// 256 coefficients over lengths 0-100 and testLengths up to 8193 with the
// offset advancing from case to case, then every (length 0-100, offset)
// pair for a handful of coefficients. The bytes around dst, and all of src,
// must come back untouched.
func TestKernelsEveryCoefficientAndAlignment(t *testing.T) {
	const guard = 64 // bytes kept on each side of the slice under test
	// The 64 KiB case stays with TestMulSliceMatchesReference: 256
	// coefficients of it are most of this test's time under -race.
	long := testLengths[:len(testLengths)-1]
	maxLen := long[len(long)-1]
	srcBuf := make([]byte, maxLen+2*guard)
	fillPattern(srcBuf, 11)
	srcCopy := append([]byte(nil), srcBuf...)
	dstInit := make([]byte, len(srcBuf))
	fillPattern(dstInit, 12)
	dstBuf := make([]byte, len(srcBuf))
	wantBuf := make([]byte, len(srcBuf))

	check := func(kernel, op string, c byte, n, off int, apply func(src, dst []byte), ref func(src, dst []byte)) {
		t.Helper()
		srcOff, dstOff := off, 31-off
		span := n + 2*guard // the slice under test plus what surrounds it
		got, want := dstBuf[:span], wantBuf[:span]
		copy(got, dstInit)
		copy(want, dstInit)
		ref(srcBuf[srcOff:srcOff+n], want[dstOff:dstOff+n])
		apply(srcBuf[srcOff:srcOff+n], got[dstOff:dstOff+n])
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s(c=%#x, n=%d, src+%d, dst+%d) wrong result or wrote outside dst", kernel, op, c, n, srcOff, dstOff)
		}
		if !bytes.Equal(srcBuf[:span], srcCopy[:span]) {
			t.Fatalf("%s: %s(c=%#x, n=%d, src+%d) modified src", kernel, op, c, n, srcOff)
		}
	}
	checkAll := func(kernel string, c byte, n, off int) {
		check(kernel, "MulSlice", c, n, off,
			func(src, dst []byte) { MulSlice(c, src, dst) },
			func(src, dst []byte) { refMulAdd(c, src, dst) })
		check(kernel, "mulSliceSet", c, n, off,
			func(src, dst []byte) { mulSliceSet(c, src, dst) },
			func(src, dst []byte) { refMulSet(c, src, dst) })
	}
	eachKernel(t, func(kernel string) {
		for c := 0; c < 256; c++ {
			for n := 0; n <= 100; n++ {
				checkAll(kernel, byte(c), n, (c+n)%32)
			}
			for i, n := range long {
				checkAll(kernel, byte(c), n, (c+i)%32)
			}
		}
		for _, c := range []byte{0, 1, 2, 0x1d, 0x80, 0xff} {
			for n := 0; n <= 100; n++ {
				for off := 0; off < 32; off++ {
					checkAll(kernel, c, n, off)
				}
			}
		}
		for off := 0; off < 32; off++ {
			for _, n := range append([]int{33, 95, 100}, long...) {
				check(kernel, "MulSlice", 1, n, off, func(src, dst []byte) { MulSlice(1, src, dst) },
					func(src, dst []byte) { refMulAdd(1, src, dst) })
			}
		}
	})
}

func TestMulAddSlicesMatchesSerialReference(t *testing.T) {
	eachKernel(t, func(kernel string) {
		rng := rand.New(rand.NewSource(7))
		// 8191/8192/8193 straddle the fused window (fuseBlock).
		for _, n := range []int{0, 1, 7, 8, 9, 63, 255, 4096, 8191, 8192, 8193, 70000} {
			for _, k := range []int{1, 2, 3, 10} {
				coeffs := make([]byte, k)
				srcs := make([][]byte, k)
				for j := range srcs {
					coeffs[j] = byte(rng.Intn(256))
					srcs[j] = make([]byte, n)
					fillPattern(srcs[j], byte(j))
				}
				// Force the special coefficients into the mix.
				if k >= 3 {
					coeffs[0], coeffs[1] = 0, 1
				}
				dst := make([]byte, n)
				fillPattern(dst, 0xee)
				want := append([]byte(nil), dst...)
				for j := range srcs {
					refMulAdd(coeffs[j], srcs[j], want)
				}
				MulAddSlices(coeffs, srcs, dst)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s: MulAddSlices(n=%d, k=%d, coeffs=%v) diverges from serial per-byte Mul", kernel, n, k, coeffs)
				}
			}
		}
	})
}

// TestMulAddSlicesFusedSweep drives the fused GFNI kernel's edges under
// every tier: k = 1-20 sources (odd and even, so the kernel's source
// pairs and its odd last source), 1-6 output rows (every row count one
// pass over the sources computes, and a second pass), accumulating into
// dst and overwriting it, zero and unit
// coefficients mixed into every row, lengths either side of its 256-byte
// step and of the 32-byte groups the tail takes, and every source and dst
// at its own offset 0-63 (mod 64) between two guards. The guard bytes
// around every dst and every byte of every source buffer must come back
// untouched. Offsets advance from case to case; a second pass runs every
// offset for a few source counts. The per-byte reference is computed once
// per case, not once per tier. One accumulating row goes through
// MulAddSlices, an overwrite through MulSlices, and accumulating rows
// through mulSlices, which have no exported entry.
func TestMulAddSlicesFusedSweep(t *testing.T) {
	const guard = 64
	type fusedCase struct {
		coeffs           []byte // rows x k, row-major
		overwrite        bool
		srcBufs, srcCopy [][]byte // each source with its guards
		srcs             [][]byte
		dstOffs          []int
		n                int
		dstInit, dstWant [][]byte // each dst's buffer, guards included
	}
	rng := rand.New(rand.NewSource(41))
	newCase := func(rows, k, n, off int, overwrite bool) fusedCase {
		fc := fusedCase{coeffs: make([]byte, rows*k), overwrite: overwrite, n: n}
		for r := 0; r < rows; r++ {
			row := fc.coeffs[r*k : (r+1)*k]
			for j := range row {
				row[j] = byte(2 + rng.Intn(254))
			}
			if k >= 2 { // a zero and a one, at positions that move with k and r
				row[(k/2+r)%k], row[(k-1+r)%k] = 0, 1
			}
		}
		for j := 0; j < k; j++ {
			srcOff := guard + (off+17*j)%64
			buf := make([]byte, srcOff+n+guard)
			fillPattern(buf, byte(j+n))
			fc.srcBufs = append(fc.srcBufs, buf)
			fc.srcCopy = append(fc.srcCopy, append([]byte(nil), buf...))
			fc.srcs = append(fc.srcs, buf[srcOff:srcOff+n])
		}
		for r := 0; r < rows; r++ {
			dstOff := guard + 63 - (off+29*r)%64
			init := make([]byte, dstOff+n+guard)
			fillPattern(init, byte(0xee-r))
			want := append([]byte(nil), init...)
			d := want[dstOff : dstOff+n]
			if overwrite {
				clear(d)
			}
			for j, c := range fc.coeffs[r*k : (r+1)*k] {
				refMulAdd(c, fc.srcs[j], d)
			}
			fc.dstOffs = append(fc.dstOffs, dstOff)
			fc.dstInit = append(fc.dstInit, init)
			fc.dstWant = append(fc.dstWant, want)
		}
		return fc
	}
	var cases []fusedCase
	for k := 1; k <= 20; k++ {
		for i, n := range []int{0, 1, 255, 256, 257, 511, 513, 8193} {
			for rows := 1; rows <= maxRows+2; rows++ {
				for _, overwrite := range []bool{false, true} {
					cases = append(cases, newCase(rows, k, n, (k+7*i+rows)%64, overwrite))
				}
			}
		}
	}
	// 1 MiB + 7: a long run of fused steps and a 7-byte tail, for an odd
	// and an even source count, one row and three passes' rows.
	cases = append(cases, newCase(1, 1, 1<<20+7, 3, false), newCase(1, 20, 1<<20+7, 60, false),
		newCase(2*maxRows+1, 10, 1<<20+7, 31, true))
	for _, k := range []int{1, 2, 3, 10} {
		for _, n := range []int{255, 256, 257, 513} {
			for off := 0; off < 64; off++ {
				cases = append(cases, newCase(1+off/2%(maxRows+2), k, n, off, off%2 == 1))
			}
		}
	}
	eachKernel(t, func(kernel string) {
		for _, fc := range cases {
			got := make([][]byte, len(fc.dstInit))
			dsts := make([][]byte, len(fc.dstInit))
			for r, init := range fc.dstInit {
				got[r] = append([]byte(nil), init...)
				dsts[r] = got[r][fc.dstOffs[r] : fc.dstOffs[r]+fc.n]
			}
			switch {
			case fc.overwrite:
				MulSlices(fc.coeffs, fc.srcs, dsts...)
			case len(dsts) == 1:
				MulAddSlices(fc.coeffs, fc.srcs, dsts[0])
			default:
				mulSlices(fc.coeffs, fc.srcs, dsts, false)
			}
			for r := range got {
				if !bytes.Equal(got[r], fc.dstWant[r]) {
					t.Fatalf("%s: k=%d, rows=%d, overwrite=%v, n=%d: row %d (dst+%d, coeffs=%v) wrong or written outside dst",
						kernel, len(fc.srcs), len(dsts), fc.overwrite, fc.n, r, fc.dstOffs[r], fc.coeffs)
				}
			}
			for j := range fc.srcBufs {
				if !bytes.Equal(fc.srcBufs[j], fc.srcCopy[j]) {
					t.Fatalf("%s: k=%d, rows=%d, n=%d: source %d modified", kernel, len(fc.srcs), len(dsts), fc.n, j)
				}
			}
		}
	})
}

// affineModel is VGF2P8AFFINEQB on one byte with a zero constant, as the
// Intel SDM defines it: bit b of the result is the parity of byte 7-b of
// the matrix ANDed with x.
func affineModel(matrix uint64, x byte) byte {
	var out byte
	for b := 0; b < 8; b++ {
		row := byte(matrix >> (8 * (7 - b)))
		out |= byte(bits.OnesCount8(row&x)&1) << b
	}
	return out
}

// TestAffineMatricesMatchMul checks the GFNI tier's bit matrices against
// the product rows through a model of the instruction, for all 65 536
// (c, b) pairs, on every host: a wrong matrix fails here even where no
// CPU can run the kernel.
func TestAffineMatricesMatchMul(t *testing.T) {
	tb := productTables()
	for c := 0; c < 256; c++ {
		for b := 0; b < 256; b++ {
			if got, want := affineModel(tb.aff[c], byte(b)), tb.mul[c][b]; got != want {
				t.Fatalf("aff[%#x] applied to %#x = %#x, want %#x", c, b, got, want)
			}
		}
	}
}

// TestKernelTiers logs which tiers this build and CPU exercise. CI runs it
// verbosely, so a green run on a host without GFNI or AVX2 shows which
// kernels it did not test.
func TestKernelTiers(t *testing.T) {
	var ran []string
	eachKernel(t, func(kernel string) { ran = append(ran, kernel) })
	if len(ran) == 0 || ran[0] != "table" {
		t.Fatalf("tiers run %v, want the table kernel first", ran)
	}
	t.Logf("kernel tiers exercised: %s (dispatch default %q)", strings.Join(ran, ", "), tierNames[kernel])
	if kernel >= tierGFNI {
		t.Logf("fused gfni kernel exercised: 1-%d rows per pass over the sources, and more in further passes, accumulating and overwriting", maxRows)
	} else {
		t.Logf("fused gfni kernel (1-%d rows per pass, accumulating and overwriting) not exercised", maxRows)
	}
	t.Logf("row-at-a-time windows exercised, accumulating and overwriting: all of %s, and the gfni kernel's sub-256-byte tails", strings.Join(ran[:min(len(ran), 2)], " and "))
}

func TestKernelsProperty(t *testing.T) {
	// For arbitrary coefficient and data, MulSlice agrees with per-byte Mul
	// under every tier.
	eachKernel(t, func(kernel string) {
		f := func(c byte, src []byte) bool {
			dst := make([]byte, len(src))
			fillPattern(dst, c)
			ref := append([]byte(nil), dst...)
			MulSlice(c, src, dst)
			refMulAdd(c, src, ref)
			return bytes.Equal(dst, ref)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", kernel, err)
		}
	})
}

func TestMulTableRowMatchesMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		row := &productTables().mul[c]
		for a := 0; a < 256; a++ {
			if row[a] != Mul(byte(c), byte(a)) {
				t.Fatalf("product row %#x [%#x] = %#x, want %#x", c, a, row[a], Mul(byte(c), byte(a)))
			}
		}
	}
}

func TestMulAddSlicesPanicsOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"coeff-count":   func() { MulAddSlices([]byte{1, 2}, [][]byte{{1}}, []byte{0}) },
		"src-length":    func() { MulAddSlices([]byte{1}, [][]byte{{1, 2}}, []byte{0}) },
		"rows-coeffs":   func() { MulSlices([]byte{1, 2}, [][]byte{{1}}, []byte{0}) },
		"dst-length":    func() { MulSlices([]byte{1, 2}, [][]byte{{1}}, []byte{0}, []byte{0, 0}) },
		"overwrite-src": func() { MulSlices([]byte{1}, [][]byte{{1, 2}}, []byte{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzMulSliceEquivalence pins every tier to the field's scalar Mul: for
// arbitrary coefficient and data (any length, so any split between 256-byte
// fused steps, 32-byte groups, 8-byte words and single bytes), MulSlice,
// mulSliceSet and
// MulAddSlices must be byte-identical to a per-byte loop.
func FuzzMulSliceEquivalence(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(1), []byte{1, 2, 3})
	f.Add(byte(2), []byte{0, 0xff, 0, 7, 0, 0, 9})            // odd length, zeros
	f.Add(byte(37), bytes.Repeat([]byte{0xab, 0, 0xcd}, 100)) // 2x150 bytes: four groups, two words, six bytes
	f.Add(byte(0xff), bytes.Repeat([]byte{1}, 17))            // one word
	f.Fuzz(func(t *testing.T, c byte, data []byte) {
		// Split the input into src and a starting dst so both operands vary.
		half := len(data) / 2
		src, dstInit := data[:half], data[half:half+half]

		ref := append([]byte(nil), dstInit...)
		refMulAdd(c, src, ref)
		refSet := make([]byte, half)
		refMulSet(c, src, refSet)
		// Fused kernel over three sources: src scaled by c, c^1, and 1.
		coeffs := []byte{c, c ^ 1, 1}
		srcs := [][]byte{src, refSet, dstInit}
		refFused := append([]byte(nil), dstInit...)
		for j := range srcs {
			refMulAdd(coeffs[j], srcs[j], refFused)
		}

		eachKernel(t, func(kernel string) {
			dst := append([]byte(nil), dstInit...)
			MulSlice(c, src, dst)
			if !bytes.Equal(dst, ref) {
				t.Fatalf("%s: MulSlice(c=%#x) diverges from per-byte Mul on %d bytes", kernel, c, half)
			}
			set := append([]byte(nil), dstInit...)
			mulSliceSet(c, src, set)
			if !bytes.Equal(set, refSet) {
				t.Fatalf("%s: mulSliceSet(c=%#x) diverges from per-byte Mul on %d bytes", kernel, c, half)
			}
			fused := append([]byte(nil), dstInit...)
			MulAddSlices(coeffs, srcs, fused)
			if !bytes.Equal(fused, refFused) {
				t.Fatalf("%s: MulAddSlices diverges from serial per-byte Mul on %d bytes", kernel, half)
			}
		})
	})
}

// FuzzMulAddSlicesEquivalence pins MulAddSlices under every tier to a
// per-byte Mul loop for arbitrary source counts, coefficients (zero and
// one included), data, lengths and alignments: source j is the data
// rotated by 31*j bytes and XORed with j, placed at offset off+j of its
// buffer, and dst starts as the data reversed at offset 63-off.
func FuzzMulAddSlicesEquivalence(f *testing.F) {
	f.Add([]byte{7}, []byte{}, byte(0))
	f.Add([]byte{0, 1, 2}, bytes.Repeat([]byte{0xab, 0, 0xcd}, 100), byte(5))
	f.Add([]byte{1, 0, 0x1d, 0xff, 2, 3, 4, 5, 6, 7, 8}, bytes.Repeat([]byte{9, 0, 0x80}, 300), byte(63))
	f.Add(bytes.Repeat([]byte{0x53}, 20), bytes.Repeat([]byte{1, 2, 3, 4}, 64), byte(33))
	f.Fuzz(func(t *testing.T, coeffs, data []byte, off byte) {
		if len(coeffs) == 0 || len(coeffs) > 24 {
			return
		}
		n, o := len(data), int(off%64)
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			buf := make([]byte, o+j+n)
			src := buf[o+j:]
			for i := range src {
				src[i] = data[(i+31*j)%n] ^ byte(j)
			}
			srcs[j] = src
		}
		dstInit := make([]byte, 63-o+n)[63-o:]
		for i := range dstInit {
			dstInit[i] = data[n-1-i]
		}
		want := append([]byte(nil), dstInit...)
		for j, c := range coeffs {
			refMulAdd(c, srcs[j], want)
		}
		eachKernel(t, func(kernel string) {
			dst := make([]byte, 63-o+n)[63-o:]
			copy(dst, dstInit)
			MulAddSlices(coeffs, srcs, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: MulAddSlices(k=%d, n=%d, coeffs=%v) diverges from per-byte Mul", kernel, len(coeffs), n, coeffs)
			}
		})
	})
}

// FuzzMulSlicesEquivalence pins the multi-row and overwrite paths under
// every tier to a per-byte Mul loop: shape picks 1-8 output rows (low
// three bits: one or two passes of the GFNI kernel) and whether they are
// overwritten or added to (bit 3); coeffs is
// cut into that many rows of k = len(coeffs)/rows coefficients (k = 0
// included). Sources are built from data as in
// FuzzMulAddSlicesEquivalence, and row r's dst starts as the data
// reversed and XORed with r, at its own offset.
func FuzzMulSlicesEquivalence(f *testing.F) {
	f.Add([]byte{7}, []byte{}, byte(0), byte(8))
	f.Add([]byte{0, 1, 2, 3, 4, 5}, bytes.Repeat([]byte{0xab, 0, 0xcd}, 100), byte(5), byte(1))
	f.Add(bytes.Repeat([]byte{1, 0, 0x1d, 0xff, 2}, 8), bytes.Repeat([]byte{9, 0, 0x80}, 300), byte(63), byte(11))
	f.Add(bytes.Repeat([]byte{0x53, 1}, 15), bytes.Repeat([]byte{1, 2, 3, 4}, 128), byte(33), byte(6))
	f.Add(bytes.Repeat([]byte{3, 0x8e, 1}, 14), bytes.Repeat([]byte{7, 0, 5}, 200), byte(17), byte(14))
	f.Fuzz(func(t *testing.T, coeffs, data []byte, off, shape byte) {
		rows, overwrite := 1+int(shape&7), shape&8 != 0
		k := len(coeffs) / rows
		if k > 24 {
			return
		}
		coeffs = coeffs[:rows*k]
		n, o := len(data), int(off%64)
		srcs := make([][]byte, k)
		for j := range srcs {
			src := make([]byte, o+j+n)[o+j:]
			for i := range src {
				src[i] = data[(i+31*j)%n] ^ byte(j)
			}
			srcs[j] = src
		}
		inits := make([][]byte, rows)
		wants := make([][]byte, rows)
		for r := range inits {
			inits[r] = make([]byte, n)
			for i := range inits[r] {
				inits[r][i] = data[n-1-i] ^ byte(r)
			}
			wants[r] = append([]byte(nil), inits[r]...)
			if overwrite {
				clear(wants[r])
			}
			for j, c := range coeffs[r*k : (r+1)*k] {
				refMulAdd(c, srcs[j], wants[r])
			}
		}
		eachKernel(t, func(kernel string) {
			dsts := make([][]byte, rows)
			for r := range dsts {
				dsts[r] = make([]byte, 63-o+7*r+n)[63-o+7*r:]
				copy(dsts[r], inits[r])
			}
			mulSlices(coeffs, srcs, dsts, overwrite)
			for r := range dsts {
				if !bytes.Equal(dsts[r], wants[r]) {
					t.Fatalf("%s: rows=%d, overwrite=%v, k=%d, n=%d: row %d diverges from per-byte Mul (coeffs=%v)", kernel, rows, overwrite, k, n, r, coeffs)
				}
			}
		})
	})
}
