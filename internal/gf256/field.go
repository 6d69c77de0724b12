// Package gf256 implements arithmetic over the Galois field GF(2^8) and
// dense matrix operations over that field. It is the algebraic substrate for
// the Reed-Solomon erasure codes in package erasure.
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// storage-oriented Reed-Solomon implementations. Multiplication and
// inversion are table-driven via discrete logarithms.
package gf256

// fieldSize is the number of elements in GF(2^8).
const fieldSize = 256

// primitivePoly is the reduction polynomial x^8+x^4+x^3+x^2+1.
const primitivePoly = 0x11d

// generator is a primitive element of the field; powers of it enumerate all
// non-zero field elements.
const generator = 2

var (
	_expTable [2 * fieldSize]byte // exp[i] = generator^i, doubled to avoid mod 255 in Mul
	_logTable [fieldSize]byte     // log[x] = i such that generator^i = x, for x != 0
)

func init() {
	x := 1
	for i := 0; i < fieldSize-1; i++ {
		_expTable[i] = byte(x)
		_logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= primitivePoly
		}
	}
	// Duplicate the table so Mul can index exp[log(a)+log(b)] without a
	// modular reduction.
	for i := fieldSize - 1; i < 2*fieldSize; i++ {
		_expTable[i] = _expTable[i-(fieldSize-1)]
	}
}

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return _expTable[int(_logTable[a])+int(_logTable[b])]
}

// Inv returns the multiplicative inverse of a. Inv(0) panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return _expTable[(fieldSize-1)-int(_logTable[a])]
}

// Pow returns a^n in GF(2^8) for n >= 0, with 0^0 = 1.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	logA := int(_logTable[a])
	return _expTable[(logA*n)%(fieldSize-1)]
}

// MulSlice and MulAddSlices — the bulk slice kernels — live in
// kernels.go.
