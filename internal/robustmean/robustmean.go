// Package robustmean applies the paper's framework to robust mean
// estimation (Section 2.3): given n data points of which up to f are
// arbitrary outliers, estimate the mean of the honest points.
//
// The reduction is the one the paper sketches: agent i holds the cost
// Q_i(x) = ||x - x_i||², so the minimizer of any subset aggregate is that
// subset's sample mean, subset minimization is closed-form, and the whole
// Section-3 theory applies verbatim. The package holds the two faces of that
// reduction: NewProblem, the point set as a core.Problem for the redundancy
// and resilience machinery (core.MeasureRedundancy, core.ExhaustiveResilient
// — the Theorem-2 algorithm specialized to means), and Cloud and PointCost,
// from which the sweep's robustmean workload builds its agents and runs
// filtered gradient descent on the gradients 2(x - x_i).
package robustmean

import (
	"errors"
	"fmt"
	"math/rand"

	"byzopt/internal/core"
	"byzopt/internal/costfunc"
	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// ErrArgs is returned (wrapped) for invalid inputs.
var ErrArgs = errors.New("robustmean: invalid arguments")

// meanProblem adapts a point set to core.Problem: subset aggregates of
// ||x - x_i||² minimize at the subset mean.
type meanProblem struct {
	points [][]float64
	dim    int
}

var _ core.Problem = (*meanProblem)(nil)

// NewProblem wraps the points as a core.Problem so the generic redundancy
// and resilience machinery can interrogate the instance.
func NewProblem(points [][]float64) (core.Problem, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("no points: %w", ErrArgs)
	}
	d := len(points[0])
	if d == 0 {
		return nil, fmt.Errorf("zero-dimensional points: %w", ErrArgs)
	}
	cp := make([][]float64, len(points))
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("point %d has dim %d, want %d: %w", i, len(p), d, ErrArgs)
		}
		cp[i] = vecmath.Clone(p)
	}
	return &meanProblem{points: cp, dim: d}, nil
}

// N implements core.Problem.
func (m *meanProblem) N() int { return len(m.points) }

// Dim implements core.Problem.
func (m *meanProblem) Dim() int { return m.dim }

// MinimizeSubset implements core.Problem: the subset sample mean.
func (m *meanProblem) MinimizeSubset(idx []int) ([]float64, error) {
	if len(idx) == 0 {
		return nil, fmt.Errorf("empty subset: %w", ErrArgs)
	}
	sub := make([][]float64, len(idx))
	for i, j := range idx {
		if j < 0 || j >= len(m.points) {
			return nil, fmt.Errorf("index %d out of [0, %d): %w", j, len(m.points), ErrArgs)
		}
		sub[i] = m.points[j]
	}
	return vecmath.Mean(sub)
}

// Cloud draws a deterministic Gaussian point cloud around the all-ones mean:
// point i is (1, ..., 1) + spread·N(0, I). The same (n, d, spread, seed)
// always yields the same cloud, so sweep grid points over robust mean
// estimation replay exactly.
func Cloud(n, d int, spread float64, seed int64) ([][]float64, error) {
	if n < 1 || d < 1 {
		return nil, fmt.Errorf("n=%d d=%d must be positive: %w", n, d, ErrArgs)
	}
	if spread < 0 {
		return nil, fmt.Errorf("negative spread %v: %w", spread, ErrArgs)
	}
	r := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	for i := range points {
		p := vecmath.Ones(d)
		for j := range p {
			p[j] += spread * r.NormFloat64()
		}
		points[i] = p
	}
	return points, nil
}

// PointCost builds agent i's cost ||x - p||² as a quadratic form
// (P = 2I, q = -2p, c = p·p), the per-agent cost of the Section-2.3
// reduction — exported so the sweep problem registry can build robust-mean
// agents without re-deriving the form.
func PointCost(p []float64) (costfunc.Differentiable, error) {
	id, err := matrix.Identity(len(p))
	if err != nil {
		return nil, err
	}
	return costfunc.NewQuadraticForm(id.Scale(2), vecmath.Scale(-2, p), vecmath.NormSq(p))
}
