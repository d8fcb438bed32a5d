// Package vecmath provides dense vector arithmetic used throughout the
// byzopt module: element-wise operations, inner products, norms, distances,
// and projection onto axis-aligned boxes (the compact convex set W of the
// paper's update rule (21)).
//
// All functions treat []float64 as immutable inputs unless the name carries
// an explicit "InPlace" suffix; non-in-place variants allocate fresh slices
// so callers never alias internal state (see the Uber style guide on copying
// slices at boundaries).
package vecmath

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned (wrapped) whenever two vectors that must
// share a dimension do not.
var ErrDimensionMismatch = errors.New("vecmath: dimension mismatch")

// Clone returns a fresh copy of v. A nil input yields a nil output.
func Clone(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Zeros returns a zero vector of dimension d.
func Zeros(d int) []float64 { return make([]float64, d) }

// Ones returns a vector of dimension d with all entries set to one.
func Ones(d int) []float64 {
	out := make([]float64, d)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Sub returns a - b.
func Sub(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("sub %d vs %d: %w", len(a), len(b), ErrDimensionMismatch)
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out, nil
}

// AddInPlace accumulates b into dst (dst += b).
func AddInPlace(dst, b []float64) error {
	if len(dst) != len(b) {
		return fmt.Errorf("add in place %d vs %d: %w", len(dst), len(b), ErrDimensionMismatch)
	}
	addKernel(dst, b)
	return nil
}

// AxpyInPlace computes dst += alpha*x, the classic BLAS axpy update.
func AxpyInPlace(dst []float64, alpha float64, x []float64) error {
	if len(dst) != len(x) {
		return fmt.Errorf("axpy %d vs %d: %w", len(dst), len(x), ErrDimensionMismatch)
	}
	axpyKernel(dst, alpha, x)
	return nil
}

// Scale returns alpha * v.
func Scale(alpha float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = alpha * v[i]
	}
	return out
}

// ScaleInPlace multiplies v by alpha in place.
func ScaleInPlace(alpha float64, v []float64) {
	scaleKernel(alpha, v)
}

// Neg returns -v.
func Neg(v []float64) []float64 { return Scale(-1, v) }

// Dot returns the Euclidean inner product <a, b>.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dot %d vs %d: %w", len(a), len(b), ErrDimensionMismatch)
	}
	return DotKernel(a, b), nil
}

// Norm returns the Euclidean (L2) norm of v.
func Norm(v []float64) float64 {
	// Two-pass scaling guards against overflow for extreme magnitudes,
	// matching the behavior of math.Hypot generalized to n entries.
	var maxAbs float64
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		// Fall back to the naive sum; it yields 0, +Inf, or NaN as expected.
		var s float64
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	}
	var s float64
	for _, x := range v {
		r := x / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// NormSq returns the squared Euclidean norm of v.
func NormSq(v []float64) float64 {
	return normSqKernel(v)
}

// Dist returns the Euclidean distance between a and b. It computes the
// differences on the fly — no intermediate vector is allocated — with the
// same scaled two-pass form as Norm, so the result is bitwise identical to
// Norm(a - b).
func Dist(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("sub %d vs %d: %w", len(a), len(b), ErrDimensionMismatch)
	}
	var maxAbs float64
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		var s float64
		for i := range a {
			x := a[i] - b[i]
			s += x * x
		}
		return math.Sqrt(s), nil
	}
	var s float64
	for i := range a {
		r := (a[i] - b[i]) / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s), nil
}

// Mean returns the arithmetic mean of the given vectors, which must all have
// the same dimension. It errors on an empty input.
func Mean(vs [][]float64) ([]float64, error) {
	if len(vs) == 0 {
		return nil, errors.New("vecmath: mean of zero vectors")
	}
	out := make([]float64, len(vs[0]))
	if err := MeanInto(out, vs); err != nil {
		return nil, err
	}
	return out, nil
}

// MeanInto writes the arithmetic mean of the given vectors into dst, which
// must match their dimension. It accumulates in input order, so the result is
// bitwise identical to Mean's. dst is fully overwritten and may not alias any
// input vector.
func MeanInto(dst []float64, vs [][]float64) error {
	if len(vs) == 0 {
		return errors.New("vecmath: mean of zero vectors")
	}
	d := len(vs[0])
	if len(dst) != d {
		return fmt.Errorf("mean into %d vs %d: %w", len(dst), d, ErrDimensionMismatch)
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, v := range vs {
		if len(v) != d {
			return fmt.Errorf("mean entry %d vs %d: %w", len(v), d, ErrDimensionMismatch)
		}
		addKernel(dst, v)
	}
	ScaleInPlace(1/float64(len(vs)), dst)
	return nil
}

// Sum returns the element-wise sum of the given vectors.
func Sum(vs [][]float64) ([]float64, error) {
	if len(vs) == 0 {
		return nil, errors.New("vecmath: sum of zero vectors")
	}
	out := make([]float64, len(vs[0]))
	if err := SumInto(out, vs); err != nil {
		return nil, err
	}
	return out, nil
}

// SumInto writes the element-wise sum of the given vectors into dst, which
// must match their dimension. It accumulates in input order, so the result is
// bitwise identical to Sum's. dst is fully overwritten and may not alias any
// input vector.
func SumInto(dst []float64, vs [][]float64) error {
	if len(vs) == 0 {
		return errors.New("vecmath: sum of zero vectors")
	}
	d := len(vs[0])
	if len(dst) != d {
		return fmt.Errorf("sum into %d vs %d: %w", len(dst), d, ErrDimensionMismatch)
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, v := range vs {
		if len(v) != d {
			return fmt.Errorf("sum entry %d vs %d: %w", len(v), d, ErrDimensionMismatch)
		}
		addKernel(dst, v)
	}
	return nil
}

// SubInto writes a - b into dst. All three slices must share a dimension;
// dst may alias a or b.
func SubInto(dst, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("sub %d vs %d: %w", len(a), len(b), ErrDimensionMismatch)
	}
	if len(dst) != len(a) {
		return fmt.Errorf("sub into %d vs %d: %w", len(dst), len(a), ErrDimensionMismatch)
	}
	subKernel(dst, a, b)
	return nil
}

// IsFinite reports whether every entry of v is neither NaN nor infinite.
func IsFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Box is an axis-aligned hyper-rectangle [Lo[i], Hi[i]] per coordinate: the
// compact convex set W onto which the DGD server projects its estimates.
// The zero value is unusable; construct with NewBox or NewCube.
type Box struct {
	lo, hi []float64
}

// NewBox builds a box from per-coordinate bounds. It errors if the slices
// differ in length, are empty, or any lo[i] > hi[i].
func NewBox(lo, hi []float64) (*Box, error) {
	if len(lo) != len(hi) {
		return nil, fmt.Errorf("box bounds %d vs %d: %w", len(lo), len(hi), ErrDimensionMismatch)
	}
	if len(lo) == 0 {
		return nil, errors.New("vecmath: empty box")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return nil, fmt.Errorf("vecmath: box coordinate %d has lo %v > hi %v", i, lo[i], hi[i])
		}
	}
	return &Box{lo: Clone(lo), hi: Clone(hi)}, nil
}

// NewCube builds the d-dimensional hypercube [-r, r]^d. It errors if d <= 0
// or r < 0.
func NewCube(d int, r float64) (*Box, error) {
	if d <= 0 {
		return nil, fmt.Errorf("vecmath: cube dimension %d must be positive", d)
	}
	if r < 0 {
		return nil, fmt.Errorf("vecmath: cube radius %v must be non-negative", r)
	}
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range lo {
		lo[i], hi[i] = -r, r
	}
	return &Box{lo: lo, hi: hi}, nil
}

// Dim returns the dimension of the box.
func (b *Box) Dim() int { return len(b.lo) }

// Project returns the Euclidean projection of x onto the box, clamping each
// coordinate into [lo[i], hi[i]]. For an axis-aligned box the coordinate-wise
// clamp is exactly the Euclidean projection (20) of the paper.
func (b *Box) Project(x []float64) ([]float64, error) {
	if len(x) != len(b.lo) {
		return nil, fmt.Errorf("project %d vs box dim %d: %w", len(x), len(b.lo), ErrDimensionMismatch)
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = clamp(x[i], b.lo[i], b.hi[i])
	}
	return out, nil
}

// ProjectInPlace clamps x onto the box in place — Project without the output
// allocation, for round loops that own their estimate buffer.
func (b *Box) ProjectInPlace(x []float64) error {
	if len(x) != len(b.lo) {
		return fmt.Errorf("project %d vs box dim %d: %w", len(x), len(b.lo), ErrDimensionMismatch)
	}
	for i := range x {
		x[i] = clamp(x[i], b.lo[i], b.hi[i])
	}
	return nil
}

func clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}
