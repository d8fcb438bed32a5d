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

// NewProblem builds the point set's core.Problem, so the generic
// redundancy and resilience machinery can interrogate the instance: point
// p_i contributes (I, p_i), and a subset aggregate minimises at the subset
// mean.
func NewProblem(points [][]float64) (*core.Problem, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("no points: %w", ErrArgs)
	}
	d := len(points[0])
	if d == 0 {
		return nil, fmt.Errorf("zero-dimensional points: %w", ErrArgs)
	}
	id, err := matrix.Identity(d)
	if err != nil {
		return nil, err
	}
	hess := make([]*matrix.Matrix, len(points))
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("point %d has dim %d, want %d: %w", i, len(p), d, ErrArgs)
		}
		hess[i] = id
	}
	return core.NewHessianProblem(hess, points)
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
