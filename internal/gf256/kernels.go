package gf256

import (
	"encoding/binary"
	"sync"
)

// This file holds the bulk kernels: the slice-level GF(2^8) routines that
// move every byte of the erasure path (encode, degraded read, repair).
//
// There are three implementations of dst ^= c*src, one per tier, chosen
// once at start-up (kernel, set in kernels_amd64.go or kernels_noasm.go)
// and dispatched on by mulAdd, xorInto and mulSlices and nowhere else:
//
//   - tierGFNI (kernels_amd64.s): GF2P8AFFINEQB applies an 8x8 bit matrix
//     to every byte, and multiplying by c is linear over GF(2), so aff[c]
//     turns 64 products into one instruction. mulSlices hands the
//     256-byte-aligned prefix of its outputs to one fused kernel that
//     computes up to maxRows output rows per pass, reads each source byte
//     once for all of them, sums the products in registers and then adds
//     the sums to dst or writes them over it, once per 256 bytes. Used
//     when the CPU has AVX-512F and GFNI and the OS saves the ZMM state;
//     the rest of each dst, and every single-source mulAdd, runs on AVX2.
//   - tierAVX2 (kernels_amd64.s): the split-nibble shuffle multiply. c*s
//     equals c*(s&15) ^ c*(s>>4<<4), so two 16-entry tables per
//     coefficient turn 32 products into two VPSHUFB lookups and an XOR.
//     Used for the whole 32-byte groups of a slice when the CPU and OS
//     support AVX2.
//   - tierTable, the table kernel below: one 256-byte product row per
//     coefficient, eight lookups packed into a uint64. It handles the
//     sub-32-byte tails, and everything on other architectures and under
//     -tags purego.
//
// Each tier includes the ones below it for the bytes it leaves over.

// tier names a multiply implementation; a higher tier needs more of the
// CPU and also runs every lower one.
type tier int

const (
	tierTable tier = iota
	tierAVX2
	tierGFNI
)

// tables holds what the kernels look products up in. 74 KiB, built once
// on first use: the simulator-only paths never touch bulk arithmetic and
// should not pay for it at init.
type tables struct {
	mul [256][256]byte // mul[c][a] = c*a
	// nib[c] is the AVX2 kernel's pair of shuffle tables for c:
	// nib[c][i] = c*i and nib[c][16+i] = c*(i<<4), i < 16.
	nib [256][32]byte
	// aff[c] is multiplication by c as the GFNI kernel's 8x8 bit matrix:
	// byte 7-b of it has bit i set when bit b of c*(1<<i) is set, so
	// GF2P8AFFINEQB computes bit b of c*s as the parity of that byte & s.
	aff [256]uint64
}

var (
	tablesOnce sync.Once
	_tables    *tables
)

func productTables() *tables {
	tablesOnce.Do(func() {
		t := new(tables)
		for c := 1; c < 256; c++ {
			logC := int(_logTable[c])
			row := &t.mul[c]
			for a := 1; a < 256; a++ {
				row[a] = _expTable[logC+int(_logTable[a])]
			}
			for i := 0; i < 16; i++ {
				t.nib[c][i], t.nib[c][16+i] = row[i], row[i<<4]
			}
			for i := 0; i < 8; i++ {
				for b := 0; b < 8; b++ {
					if row[1<<i]>>b&1 != 0 {
						t.aff[c] |= 1 << (8*(7-b) + i)
					}
				}
			}
		}
		_tables = t
	})
	return _tables
}

// mulAdd computes dst[i] ^= c*src[i] for a general coefficient (c >= 2;
// callers peel off 0 and 1). It is the one place the per-source kernel is
// chosen. len(dst) must be at least len(src).
func mulAdd(t *tables, c byte, src, dst []byte) {
	n := 0
	if kernel >= tierAVX2 {
		n = len(src) &^ 31
		mulAddAVX2(&t.nib[c], src[:n], dst[:n])
	}
	mulAddRow(&t.mul[c], src[n:], dst[n:])
}

// xorInto computes dst[i] ^= src[i]: mulAdd for c == 1, with the same
// split between assembly and portable code (XOR gains nothing from GFNI).
func xorInto(src, dst []byte) {
	n := 0
	if kernel >= tierAVX2 {
		n = len(src) &^ 31
		xorAVX2(src[:n], dst[:n])
	}
	xorWords(src[n:], dst[n:])
}

// mulAddRow is the table kernel: dst[i] ^= row[src[i]] with row the
// product row of some c >= 2. Eight lookups are packed into one uint64 so
// dst sees one load and one store per 8 bytes.
func mulAddRow(row *[256]byte, src, dst []byte) {
	n := len(src) &^ 7
	s8, d8 := src[:n], dst[:n]
	for i := 0; i < len(s8); i += 8 {
		v := binary.LittleEndian.Uint64(s8[i:])
		r := uint64(row[byte(v)]) |
			uint64(row[byte(v>>8)])<<8 |
			uint64(row[byte(v>>16)])<<16 |
			uint64(row[byte(v>>24)])<<24 |
			uint64(row[byte(v>>32)])<<32 |
			uint64(row[byte(v>>40)])<<40 |
			uint64(row[byte(v>>48)])<<48 |
			uint64(row[byte(v>>56)])<<56
		binary.LittleEndian.PutUint64(d8[i:], binary.LittleEndian.Uint64(d8[i:])^r)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

// xorWords is the table kernel's c == 1 case: 8 bytes per XOR.
func xorWords(src, dst []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// MulSlice computes dst[i] ^= c * src[i] for all i. It is the inner kernel
// of Reed-Solomon encoding: accumulate a scaled source block into an output
// block. dst and src must have equal length.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
	case 1:
		xorInto(src, dst)
	default:
		mulAdd(productTables(), c, src, dst)
	}
}

// fuseBlock is the dst window the per-source kernels process per pass
// across all sources: small enough to stay L1-resident while k source
// streams are accumulated into it.
const fuseBlock = 8 << 10

// maxRows is how many output rows one pass of the GFNI kernel over the
// sources computes: each row keeps 256 bytes in four of the 32 ZMM
// registers, and a source pair, its two matrices and their products take
// twelve more.
const maxRows = 4

// MulAddSlices computes the fused accumulation
//
//	dst[i] ^= coeffs[0]*srcs[0][i] ^ coeffs[1]*srcs[1][i] ^ ...
//
// — one output block of a matrix-vector product over shards. Every source
// must have dst's length. It is mulSlices' one-row, accumulating case.
func MulAddSlices(coeffs []byte, srcs [][]byte, dst []byte) {
	mulSlices(coeffs, srcs, [][]byte{dst}, false)
}

// MulSlices writes rows of a matrix-vector product over shards: with
// k = len(srcs),
//
//	dsts[r][i] = coeffs[r*k]*srcs[0][i] ^ ... ^ coeffs[r*k+k-1]*srcs[k-1][i]
//
// for every row r, overwriting dsts[r]; coeffs is the matrix, row-major.
// This is Encode (one row per parity block) and a decode (one row). There
// must be at least one dst, every source and dst must have one length, and
// no dst may overlap a source.
func MulSlices(coeffs []byte, srcs [][]byte, dsts ...[]byte) {
	mulSlices(coeffs, srcs, dsts, true)
}

// mulSlices is MulSlices when overwrite is set and otherwise XORs every
// row's sum into its dst. On the GFNI tier the 256-byte-aligned prefix of
// the outputs goes to the fused kernel, maxRows rows per pass over the
// sources: it reads every source byte once per pass, and dst once to
// accumulate or not at all to overwrite. A zero coefficient is the zero
// matrix and a unit one the identity, so it needs no special case. The
// rest, and everything on the lower tiers, is computed a row at a time in
// L1-sized windows, one source at a time, so the window is read and
// written from cache however many sources are folded in (an overwritten
// one is cleared first); there zero coefficients are skipped and unit
// coefficients are plain XORs.
func mulSlices(coeffs []byte, srcs [][]byte, dsts [][]byte, overwrite bool) {
	k := len(srcs)
	if len(coeffs) != k*len(dsts) {
		panic("gf256: coefficient count is not sources times outputs")
	}
	size := len(dsts[0])
	for _, s := range srcs {
		if len(s) != size {
			panic("gf256: source and destination lengths differ")
		}
	}
	for _, d := range dsts {
		if len(d) != size {
			panic("gf256: destination lengths differ")
		}
	}
	t := productTables()
	n := 0
	if kernel >= tierGFNI && k > 0 {
		n = size &^ 255
		mulSlicesGFNI(&t.aff, coeffs, srcs, dsts, n, overwrite)
	}
	for r, dst := range dsts {
		row := coeffs[r*k : (r+1)*k]
		for lo := n; lo < size; lo += fuseBlock {
			hi := min(lo+fuseBlock, size)
			d := dst[lo:hi]
			if overwrite {
				clear(d)
			}
			for j, c := range row {
				switch c {
				case 0:
				case 1:
					xorInto(srcs[j][lo:hi], d)
				default:
					mulAdd(t, c, srcs[j][lo:hi], d)
				}
			}
		}
	}
}
