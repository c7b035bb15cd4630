package linalg

import "fmt"

// Matrix is a dense row-major matrix backed by a single flat slice, so a
// whole matrix (for example one neural-network layer's weights, or the factor
// matrices in matrix factorization) can be registered as one MALT vector and
// scattered with a single copy.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewMatrix negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// WrapMatrix views data (len rows*cols) as a matrix without copying.
// Mutations through the matrix are visible in data and vice versa, which is
// how models place their parameters directly in dstorm-registered memory.
func WrapMatrix(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: WrapMatrix %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set stores v at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice sharing the matrix's storage.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes dst = M·x for a dense x of length Cols.
// dst must have length Rows and must not alias x.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec shapes %dx%d · %d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for r := 0; r < m.Rows; r++ {
		dst[r] = Dot(m.Row(r), x)
	}
}

// MulVecT computes dst = Mᵀ·x for a dense x of length Rows.
// dst must have length Cols and must not alias x.
func (m *Matrix) MulVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecT shapes %dx%d ᵀ· %d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	Zero(dst)
	for r := 0; r < m.Rows; r++ {
		Axpy(x[r], m.Row(r), dst)
	}
}

// AddOuter accumulates M += alpha · u·vᵀ, the rank-1 update at the heart of
// back-propagation for fully-connected layers.
func (m *Matrix) AddOuter(alpha float64, u, v []float64) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic(fmt.Sprintf("linalg: AddOuter shapes %dx%d += %d·%dᵀ", m.Rows, m.Cols, len(u), len(v)))
	}
	for r := 0; r < m.Rows; r++ {
		Axpy(alpha*u[r], v, m.Row(r))
	}
}
