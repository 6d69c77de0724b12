package gf256

import (
	"testing"
	"testing/quick"
)

// div returns a/b in GF(2^8) from the log tables directly, an oracle
// independent of Mul and Inv. Division by zero panics.
func div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	diff := int(_logTable[a]) - int(_logTable[b])
	if diff < 0 {
		diff += fieldSize - 1
	}
	return _expTable[diff]
}

// exp returns generator^n for n >= 0.
func exp(n int) byte {
	if n < 0 {
		panic("gf256: negative exponent")
	}
	return _expTable[n%(fieldSize-1)]
}

// TestAddIsXOR pins field addition, as the kernels apply it (MulSlice with
// c = 1), to XOR.
func TestAddIsXOR(t *testing.T) {
	dst := []byte{0x53}
	MulSlice(1, []byte{0xca}, dst)
	if dst[0] != 0x53^0xca {
		t.Fatalf("0x53 + 0xca = %#x, want %#x", dst[0], 0x53^0xca)
	}
}

func TestMulKnownValues(t *testing.T) {
	tests := []struct {
		a, b, want byte
	}{
		{0, 0, 0},
		{0, 7, 0},
		{7, 0, 0},
		{1, 1, 1},
		{1, 0xff, 0xff},
		{2, 2, 4},
		{2, 0x80, 0x1d},    // x * x^7 = x^8 = poly remainder 0x1d
		{0x53, 0xca, 0x8f}, // under 0x11d (AES's 0x11b would give 0x01)
	}
	for _, tc := range tests {
		if got := Mul(tc.a, tc.b); got != tc.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tc.a, tc.b, got, tc.want)
		}
	}
}

// mulSlow is a bitwise reference multiplication (Russian peasant) used to
// validate the table-driven implementation exhaustively.
func mulSlow(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a&0x80 != 0
		a <<= 1
		if carry {
			a ^= byte(primitivePoly & 0xff)
		}
		b >>= 1
	}
	return p
}

func TestMulMatchesReferenceExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	// Commutativity of multiplication.
	if err := quick.Check(func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }, nil); err != nil {
		t.Errorf("multiplication not commutative: %v", err)
	}
	// Associativity of multiplication.
	if err := quick.Check(func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}, nil); err != nil {
		t.Errorf("multiplication not associative: %v", err)
	}
	// Distributivity over addition.
	if err := quick.Check(func(a, b, c byte) bool {
		return Mul(a, b^c) == Mul(a, b)^Mul(a, c)
	}, nil); err != nil {
		t.Errorf("multiplication not distributive: %v", err)
	}
	// Multiplicative inverse: a * Inv(a) == 1 for a != 0.
	if err := quick.Check(func(a byte) bool {
		if a == 0 {
			return true
		}
		return Mul(a, Inv(a)) == 1
	}, nil); err != nil {
		t.Errorf("inverse law violated: %v", err)
	}
	// Division round-trip: div(Mul(a,b), b) == a for b != 0.
	if err := quick.Check(func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return div(Mul(a, b), b) == a
	}, nil); err != nil {
		t.Errorf("division round-trip violated: %v", err)
	}
}

func TestInvExhaustive(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a=%#x: a*Inv(a) = %#x, want 1", a, got)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("div(1, 0) did not panic")
		}
	}()
	div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestPow(t *testing.T) {
	tests := []struct {
		a    byte
		n    int
		want byte
	}{
		{0, 0, 1},
		{0, 5, 0},
		{5, 0, 1},
		{2, 1, 2},
		{2, 8, 0x1d},
	}
	for _, tc := range tests {
		if got := Pow(tc.a, tc.n); got != tc.want {
			t.Errorf("Pow(%#x, %d) = %#x, want %#x", tc.a, tc.n, got, tc.want)
		}
	}
	// Pow by repeated multiplication, spot-check.
	for a := byte(1); a < 20; a++ {
		acc := byte(1)
		for n := 0; n < 10; n++ {
			if got := Pow(a, n); got != acc {
				t.Fatalf("Pow(%#x, %d) = %#x, want %#x", a, n, got, acc)
			}
			acc = Mul(acc, a)
		}
	}
}

func TestExpPeriodic(t *testing.T) {
	if exp(0) != 1 {
		t.Fatalf("exp(0) = %#x, want 1", exp(0))
	}
	if exp(255) != exp(0) {
		t.Fatalf("exp not periodic with period 255")
	}
	// Powers of the generator enumerate all non-zero elements.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[exp(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator has order %d, want 255", len(seen))
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{1, 2, 3, 0, 255}
	dst := []byte{10, 20, 30, 40, 50}
	want := make([]byte, len(src))
	for i := range src {
		want[i] = dst[i] ^ Mul(7, src[i])
	}
	MulSlice(7, src, dst)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("MulSlice index %d: got %#x, want %#x", i, dst[i], want[i])
		}
	}
}

func TestMulSliceIdentityAndZero(t *testing.T) {
	src := []byte{5, 6, 7}
	dst := []byte{1, 2, 3}
	MulSlice(0, src, dst)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatal("MulSlice with c=0 must leave dst unchanged")
	}
	MulSlice(1, src, dst)
	if dst[0] != 1^5 || dst[1] != 2^6 || dst[2] != 3^7 {
		t.Fatal("MulSlice with c=1 must XOR src into dst")
	}
}

func TestMulSliceSet(t *testing.T) {
	src := []byte{9, 0, 27}
	dst := make([]byte, 3)
	mulSliceSet(3, src, dst)
	for i := range src {
		if dst[i] != Mul(3, src[i]) {
			t.Fatalf("mulSliceSet index %d: got %#x, want %#x", i, dst[i], Mul(3, src[i]))
		}
	}
	mulSliceSet(0, src, dst)
	for i := range dst {
		if dst[i] != 0 {
			t.Fatal("mulSliceSet with c=0 must zero dst")
		}
	}
	mulSliceSet(1, src, dst)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatal("mulSliceSet with c=1 must copy src")
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulSlice with mismatched lengths did not panic")
		}
	}()
	MulSlice(2, []byte{1, 2}, []byte{1})
}
