package gf256

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when attempting to invert a singular matrix.
var ErrSingular = errors.New("gf256: matrix is singular")

// Matrix is a dense rows x cols matrix over GF(2^8). The zero value is an
// empty matrix; use NewMatrix or one of the constructors.
type Matrix struct {
	rows, cols int
	data       []byte // row-major
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("gf256: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows x cols Vandermonde matrix with entry
// (i, j) = i^j. Any k rows of a Vandermonde matrix with distinct generators
// are linearly independent, which is the property Reed-Solomon relies on.
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, Pow(byte(i), j))
		}
	}
	return m
}

// Cauchy returns the rows x cols Cauchy matrix with entry
// (i, j) = 1 / (x_i + y_j) where x_i = i and y_j = rows + j. Every square
// submatrix of a Cauchy matrix is invertible, so it can be used directly as
// the parity part of an encoding matrix.
func Cauchy(rows, cols int) *Matrix {
	if rows+cols > fieldSize {
		panic("gf256: Cauchy matrix too large for GF(256)")
	}
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, Inv(byte(i)^byte(rows+j)))
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns a mutable view of row r.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("gf256: cannot multiply %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols)
	}
	out := NewMatrix(m.rows, other.cols)
	srcs := make([][]byte, m.cols)
	for k := 0; k < m.cols; k++ {
		srcs[k] = other.Row(k)
	}
	for i := 0; i < m.rows; i++ {
		MulAddSlices(m.Row(i), srcs, out.Row(i))
	}
	return out, nil
}

// SubMatrix returns the matrix consisting of the given rows of m, in order.
func (m *Matrix) SubMatrix(rowIdx []int) (*Matrix, error) {
	out := NewMatrix(len(rowIdx), m.cols)
	for i, r := range rowIdx {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("gf256: row index %d out of range [0,%d)", r, m.rows)
		}
		copy(out.Row(i), m.Row(r))
	}
	return out, nil
}

// Invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or ErrSingular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("gf256: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot row.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale the pivot row so the pivot is 1.
		if p := work.At(col, col); p != 1 {
			pinv := Inv(p)
			scaleRow(work, col, pinv)
			scaleRow(inv, col, pinv)
		}
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			MulSlice(f, work.Row(col), work.Row(r))
			MulSlice(f, inv.Row(col), inv.Row(r))
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(m *Matrix, r int, c byte) {
	row := m.Row(r)
	for i, v := range row {
		row[i] = Mul(v, c)
	}
}
