package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// matrixFromRows builds a matrix from explicit row data. All rows must have
// equal length. The rows are copied.
func matrixFromRows(rows [][]byte) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("gf256: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// matrixEqual reports whether a and b have identical shape and contents.
func matrixEqual(a, b *Matrix) bool {
	return a.rows == b.rows && a.cols == b.cols && bytes.Equal(a.data, b.data)
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if id.At(r, c) != want {
				t.Fatalf("Identity(4)[%d][%d] = %d, want %d", r, c, id.At(r, c), want)
			}
		}
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := matrixFromRows([][]byte{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected matrix: %v", m)
	}
	if _, err := matrixFromRows([][]byte{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows must error")
	}
	empty, err := matrixFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Fatalf("empty rows: m=%v err=%v", empty, err)
	}
}

func TestMulIdentity(t *testing.T) {
	m := Vandermonde(3, 3)
	id := Identity(3)
	got, err := m.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	if !matrixEqual(got, m) {
		t.Fatalf("M * I != M:\n%v\nvs\n%v", got, m)
	}
	got2, err := id.Mul(m)
	if err != nil {
		t.Fatal(err)
	}
	if !matrixEqual(got2, m) {
		t.Fatal("I * M != M")
	}
}

func TestMulShapeMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("2x3 * 2x3 must error")
	}
}

func TestInvertIdentity(t *testing.T) {
	id := Identity(5)
	inv, err := id.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !matrixEqual(inv, id) {
		t.Fatal("Identity inverse must be identity")
	}
}

func TestInvertSingular(t *testing.T) {
	m, _ := matrixFromRows([][]byte{{1, 2}, {1, 2}})
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("got err=%v, want ErrSingular", err)
	}
	z := NewMatrix(3, 3)
	if _, err := z.Invert(); err != ErrSingular {
		t.Fatalf("zero matrix: got err=%v, want ErrSingular", err)
	}
}

// TestInvertZeroPivot inverts matrices whose leading pivots are zero, so
// elimination must swap a lower row up before it can scale.
func TestInvertZeroPivot(t *testing.T) {
	for _, rows := range [][][]byte{
		{{0, 1}, {1, 1}},
		{{0, 0, 3}, {0, 5, 1}, {7, 2, 9}},
	} {
		m, err := matrixFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := m.Invert()
		if err != nil {
			t.Fatalf("%v: %v", rows, err)
		}
		prod, err := m.Mul(inv)
		if err != nil {
			t.Fatal(err)
		}
		if !matrixEqual(prod, Identity(len(rows))) {
			t.Errorf("%v times its inverse is not the identity", rows)
		}
	}
}

func TestInvertNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.Invert(); err == nil {
		t.Fatal("non-square invert must error")
	}
}

func TestInvertRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for {
			for i := range m.data {
				m.data[i] = byte(rng.Intn(256))
			}
			if _, err := m.Clone().Invert(); err == nil {
				break
			}
		}
		inv, err := m.Invert()
		if err != nil {
			t.Fatal(err)
		}
		prod, err := m.Mul(inv)
		if err != nil {
			t.Fatal(err)
		}
		if !matrixEqual(prod, Identity(n)) {
			t.Fatalf("trial %d: M * M^-1 != I for n=%d", trial, n)
		}
	}
}

func TestVandermondeSubmatricesInvertible(t *testing.T) {
	// Any k rows of a Vandermonde matrix with distinct generators must be
	// invertible; this is the foundation of RS decoding.
	const n, k = 12, 8
	v := Vandermonde(n, k)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		rows := rng.Perm(n)[:k]
		sub, err := v.SubMatrix(rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("Vandermonde submatrix rows %v not invertible: %v", rows, err)
		}
	}
}

func TestCauchySubmatricesInvertible(t *testing.T) {
	const rows, cols = 6, 6
	c := Cauchy(rows, cols)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		// Random square submatrix: pick cols rows... here matrix is square,
		// test full inversion and random row subsets of a taller Cauchy.
		_ = trial
		if _, err := c.Invert(); err != nil {
			t.Fatalf("Cauchy matrix not invertible: %v", err)
		}
	}
	tall := Cauchy(10, 4)
	for trial := 0; trial < 50; trial++ {
		sel, err := tall.SubMatrix(rng.Perm(10)[:4])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sel.Invert(); err != nil {
			t.Fatalf("Cauchy 4x4 submatrix not invertible: %v", err)
		}
	}
}

func TestSubMatrixOutOfRange(t *testing.T) {
	m := Identity(3)
	if _, err := m.SubMatrix([]int{0, 5}); err == nil {
		t.Fatal("out-of-range row index must error")
	}
}

func TestMatrixMulAssociativityProperty(t *testing.T) {
	// (AB)C == A(BC) for random small square matrices.
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		mk := func() *Matrix {
			m := NewMatrix(n, n)
			for i := range m.data {
				m.data[i] = byte(rng.Intn(256))
			}
			return m
		}
		a, b, c := mk(), mk(), mk()
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		return matrixEqual(abc1, abc2)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("matrix multiplication not associative: %v", err)
	}
}
