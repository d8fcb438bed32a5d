// Package matrix implements the dense linear algebra the reproduction needs
// and the Go standard library does not provide: matrix arithmetic,
// Householder QR least squares, and a cyclic Jacobi eigensolver for
// symmetric matrices.
//
// The eigensolver is what lets us compute the paper's smoothness coefficient
// µ (largest eigenvalue of the per-agent Hessian) and strong-convexity
// coefficient γ (smallest eigenvalue of the subset-aggregate Hessian), and
// the QR solver computes least-squares minimizers x_S = argmin ||B_S -
// A_S x||² such as the honest estimate x_H and the reference the subset
// enumeration of package core is tested against.
//
// Matrices are small in this domain (d is the optimization dimension, a few
// dozen at most in the paper's experiments), so the implementations favor
// clarity and numerical robustness over blocking or parallelism.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned (wrapped) when operand shapes are incompatible.
var ErrShape = errors.New("matrix: shape mismatch")

// ErrSingular is returned (wrapped) when a solver meets a singular or
// numerically rank-deficient system.
var ErrSingular = errors.New("matrix: singular matrix")

// ErrNotSPD is returned (wrapped) when the eigensolver is handed a matrix
// that is not symmetric.
var ErrNotSPD = errors.New("matrix: matrix not symmetric positive definite")

// Matrix is a dense, row-major matrix of float64.
// The zero value is an empty 0x0 matrix; construct with New, Zero, Identity,
// or FromRows.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// New builds an r x c matrix backed by the given data (row-major). The data
// is copied so the matrix never aliases caller memory.
func New(r, c int, data []float64) (*Matrix, error) {
	if r < 0 || c < 0 {
		return nil, fmt.Errorf("matrix: negative dimensions %dx%d", r, c)
	}
	if len(data) != r*c {
		return nil, fmt.Errorf("matrix: %dx%d needs %d entries, got %d: %w", r, c, r*c, len(data), ErrShape)
	}
	d := make([]float64, len(data))
	copy(d, data)
	return &Matrix{rows: r, cols: c, data: d}, nil
}

// Zero builds an r x c matrix of zeros.
func Zero(r, c int) (*Matrix, error) {
	if r < 0 || c < 0 {
		return nil, fmt.Errorf("matrix: negative dimensions %dx%d", r, c)
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}, nil
}

// Identity builds the n x n identity matrix.
func Identity(n int) (*Matrix, error) {
	m, err := Zero(n, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m, nil
}

// FromRows builds a matrix from row slices, which must be non-empty and of
// equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("matrix: FromRows with no rows")
	}
	c := len(rows[0])
	if c == 0 {
		return nil, errors.New("matrix: FromRows with empty rows")
	}
	data := make([]float64, 0, len(rows)*c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("matrix: row %d has %d entries, want %d: %w", i, len(row), c, ErrShape)
		}
		data = append(data, row...)
	}
	return &Matrix{rows: len(rows), cols: c, data: data}, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the entry at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the entry at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Matrix{rows: m.rows, cols: m.cols, data: d}
}

// SelectRows returns the submatrix formed by the given row indices, in the
// order provided. It is how the redundancy machinery builds A_S from S.
func (m *Matrix) SelectRows(idx []int) (*Matrix, error) {
	if len(idx) == 0 {
		return nil, errors.New("matrix: SelectRows with no indices")
	}
	out := make([]float64, 0, len(idx)*m.cols)
	for _, i := range idx {
		if i < 0 || i >= m.rows {
			return nil, fmt.Errorf("matrix: row index %d out of range [0,%d)", i, m.rows)
		}
		out = append(out, m.data[i*m.cols:(i+1)*m.cols]...)
	}
	return &Matrix{rows: len(idx), cols: m.cols, data: out}, nil
}

// Scale returns alpha * m.
func (m *Matrix) Scale(alpha float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= alpha
	}
	return out
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	out := make([]float64, m.rows)
	if err := m.MulVecInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto writes the matrix-vector product m * v into dst, which must
// have length Rows. Each entry is the same ascending-index dot product
// MulVec computes, so the result is bitwise identical; no memory is
// allocated. dst must not alias v.
//
// Rows run four at a time through dot4, whose chains each sum their own row
// in ascending index order, so every dst[i] matches dotRow bit for bit.
func (m *Matrix) MulVecInto(dst, v []float64) error {
	if m.cols != len(v) {
		return fmt.Errorf("matrix: mulvec %dx%d by %d: %w", m.rows, m.cols, len(v), ErrShape)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("matrix: mulvec into %d, want %d: %w", len(dst), m.rows, ErrShape)
	}
	c := m.cols
	i := 0
	for ; i <= m.rows-4; i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(m.data[i*c:(i+4)*c], c, v)
	}
	for ; i < m.rows; i++ {
		dst[i] = dotRow(m.data[i*c:(i+1)*c], v)
	}
	return nil
}

// ResidualNormSq returns ||b - m v||² without allocating. Rows run four at a
// time as in MulVecInto, and each residual b_i - (m v)_i is squared into one
// accumulator in ascending row order, the addition sequence NormSq applies to
// a materialized residual, so the value is bitwise that of
// NormSq(Residual(m, v, b)).
func (m *Matrix) ResidualNormSq(v, b []float64) (float64, error) {
	if m.cols != len(v) {
		return 0, fmt.Errorf("matrix: mulvec %dx%d by %d: %w", m.rows, m.cols, len(v), ErrShape)
	}
	if len(b) != m.rows {
		return 0, fmt.Errorf("matrix: residual rhs length %d, want %d: %w", len(b), m.rows, ErrShape)
	}
	c := m.cols
	var s float64
	i := 0
	for ; i <= m.rows-4; i += 4 {
		s0, s1, s2, s3 := dot4(m.data[i*c:(i+4)*c], c, v)
		r0, r1, r2, r3 := b[i]-s0, b[i+1]-s1, b[i+2]-s2, b[i+3]-s3
		s += r0 * r0
		s += r1 * r1
		s += r2 * r2
		s += r3 * r3
	}
	for ; i < m.rows; i++ {
		r := b[i] - dotRow(m.data[i*c:(i+1)*c], v)
		s += r * r
	}
	return s, nil
}

// dot4 returns the dot products with v of the four c-entry rows of block:
// one pass over v drives four independent accumulator chains, hiding the
// floating-point add latency a lone dot product is bound by. Each chain
// still sums its own row in ascending index order, so each result matches
// dotRow bit for bit.
func dot4(block []float64, c int, v []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 := block[:c], block[c:2*c], block[2*c:3*c], block[3*c:4*c]
	for j, vj := range v {
		s0 += r0[j] * vj
		s1 += r1[j] * vj
		s2 += r2[j] * vj
		s3 += r3[j] * vj
	}
	return s0, s1, s2, s3
}

// dotRow is the bounds-check-free inner product behind MulVecInto: one
// accumulator in ascending index order (the exact addition sequence the
// straight-line loop used, so results are bitwise unchanged), four-way
// unrolled with an equal-length re-slice so the unrolled body carries no
// per-access checks.
func dotRow(row, v []float64) float64 {
	v = v[:len(row)]
	var s float64
	j := 0
	for ; j <= len(row)-4; j += 4 {
		s += row[j] * v[j]
		s += row[j+1] * v[j+1]
		s += row[j+2] * v[j+2]
		s += row[j+3] * v[j+3]
	}
	for ; j < len(row); j++ {
		s += row[j] * v[j]
	}
	return s
}

// MulTResidualInto writes mᵀ(b − m v) into dst, which must have length
// Cols, with no scratch: each row's residual b_i − (m v)_i, its dot product
// summed as MulVecInto sums it, is added into dst as a multiple of the row,
// rows ascending — the addition sequence of mᵀ applied to the materialized
// residual, so the result is bitwise that route's. Every row reads all of v
// after dst is first written, so dst must not share memory with v.
func (m *Matrix) MulTResidualInto(dst, v, b []float64) error {
	if m.cols != len(v) {
		return fmt.Errorf("matrix: mulvec %dx%d by %d: %w", m.rows, m.cols, len(v), ErrShape)
	}
	if len(b) != m.rows {
		return fmt.Errorf("matrix: residual rhs length %d, want %d: %w", len(b), m.rows, ErrShape)
	}
	if len(dst) != m.cols {
		return fmt.Errorf("matrix: mulvec into %d, want %d: %w", len(dst), m.cols, ErrShape)
	}
	clear(dst)
	c := m.cols
	i := 0
	for ; i <= m.rows-4; i += 4 {
		s0, s1, s2, s3 := dot4(m.data[i*c:(i+4)*c], c, v)
		axpyRow(dst, b[i]-s0, m.data[i*c:(i+1)*c])
		axpyRow(dst, b[i+1]-s1, m.data[(i+1)*c:(i+2)*c])
		axpyRow(dst, b[i+2]-s2, m.data[(i+2)*c:(i+3)*c])
		axpyRow(dst, b[i+3]-s3, m.data[(i+3)*c:(i+4)*c])
	}
	for ; i < m.rows; i++ {
		row := m.data[i*c : (i+1)*c]
		axpyRow(dst, b[i]-dotRow(row, v), row)
	}
	return nil
}

// axpyRow computes dst[j] += a*row[j], the unrolled bounds-check-free axpy
// behind MulTResidualInto; element-wise, so unrolling cannot reorder any
// addition into a given dst entry.
func axpyRow(dst []float64, a float64, row []float64) {
	row = row[:len(dst)]
	j := 0
	for ; j <= len(dst)-4; j += 4 {
		dst[j] += a * row[j]
		dst[j+1] += a * row[j+1]
		dst[j+2] += a * row[j+2]
		dst[j+3] += a * row[j+3]
	}
	for ; j < len(dst); j++ {
		dst[j] += a * row[j]
	}
}

// Gram returns mᵀ m, the Gram matrix (symmetric positive semi-definite).
func (m *Matrix) Gram() *Matrix {
	out := &Matrix{rows: m.cols, cols: m.cols, data: make([]float64, m.cols*m.cols)}
	for i := 0; i < m.cols; i++ {
		for j := i; j < m.cols; j++ {
			var s float64
			for k := 0; k < m.rows; k++ {
				s += m.data[k*m.cols+i] * m.data[k*m.cols+j]
			}
			out.data[i*m.cols+j] = s
			out.data[j*m.cols+i] = s
		}
	}
	return out
}

// IsSymmetric reports whether the matrix is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// FrobeniusNorm returns the Frobenius norm of the matrix.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, x := range m.data {
		s += x * x
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging and error messages.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteString("]")
		if i < m.rows-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}
