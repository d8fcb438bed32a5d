package core

import (
	"fmt"

	"byzopt/internal/costfunc"
	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// Problem exposes the minimum structure the Section-3 theory needs: a
// collection of n agent cost functions whose subset aggregates can be
// minimized exactly. Assumption 1 of the paper (non-empty, closed argmin
// sets) corresponds to MinimizeSubset returning a point for every non-empty
// subset.
type Problem interface {
	// N returns the number of agents.
	N() int
	// Dim returns the optimization dimension d.
	Dim() int
	// MinimizeSubset returns a minimizer of sum_{i in idx} Q_i(x).
	// idx must be non-empty with strictly increasing entries in [0, N).
	MinimizeSubset(idx []int) ([]float64, error)
}

// --- least-squares problem ---

// LeastSquaresProblem is the distributed linear regression instance of
// Section 5: agent i holds a row A_i and response B_i, with cost
// Q_i(x) = (B_i - A_i x)^2. Subset minimization is closed-form least
// squares over the stacked rows.
type LeastSquaresProblem struct {
	a *matrix.Matrix
	b []float64
}

var _ Problem = (*LeastSquaresProblem)(nil)

// NewLeastSquaresProblem builds the problem from the full design matrix
// (one row per agent) and response vector.
func NewLeastSquaresProblem(a *matrix.Matrix, b []float64) (*LeastSquaresProblem, error) {
	if a == nil {
		return nil, fmt.Errorf("nil design matrix: %w", ErrArgs)
	}
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("%d rows vs %d responses: %w", a.Rows(), len(b), ErrArgs)
	}
	if a.Rows() == 0 {
		return nil, fmt.Errorf("empty problem: %w", ErrArgs)
	}
	return &LeastSquaresProblem{a: a.Clone(), b: vecmath.Clone(b)}, nil
}

// N implements Problem.
func (p *LeastSquaresProblem) N() int { return p.a.Rows() }

// Dim implements Problem.
func (p *LeastSquaresProblem) Dim() int { return p.a.Cols() }

// MinimizeSubset implements Problem via QR least squares on the stacked
// subset rows. It errors when the subset design is column rank deficient
// (the subset aggregate then has a non-unique minimum, violating the
// regression instance's 2f-rank condition).
func (p *LeastSquaresProblem) MinimizeSubset(idx []int) ([]float64, error) {
	sub, err := p.a.SelectRows(idx)
	if err != nil {
		return nil, fmt.Errorf("subset design: %w", err)
	}
	bs := make([]float64, len(idx))
	for i, j := range idx {
		bs[i] = p.b[j]
	}
	x, err := matrix.LeastSquares(sub, bs)
	if err != nil {
		return nil, fmt.Errorf("subset %v: %w", idx, err)
	}
	return x, nil
}

// Cost returns agent i's cost function.
func (p *LeastSquaresProblem) Cost(i int) (*costfunc.Observation, error) {
	if i < 0 || i >= p.N() {
		return nil, fmt.Errorf("agent %d out of [0, %d): %w", i, p.N(), ErrArgs)
	}
	return costfunc.NewObservation(p.a.Row(i), p.b[i])
}

// Costs returns all agents' cost functions in order.
func (p *LeastSquaresProblem) Costs() ([]costfunc.Differentiable, error) {
	out := make([]costfunc.Differentiable, p.N())
	for i := range out {
		c, err := p.Cost(i)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// SubsetCost returns the aggregate cost sum_{i in idx} Q_i as a
// least-squares cost over the stacked rows.
func (p *LeastSquaresProblem) SubsetCost(idx []int) (*costfunc.LeastSquares, error) {
	sub, err := p.a.SelectRows(idx)
	if err != nil {
		return nil, err
	}
	bs := make([]float64, len(idx))
	for i, j := range idx {
		bs[i] = p.b[j]
	}
	return costfunc.NewLeastSquares(sub, bs)
}

// --- quadratic-form problem ---

// QuadraticProblem holds one quadratic cost 1/2 x'P_i x + q_i'x + c_i per
// agent. Subset aggregates are again quadratic and minimized by a linear
// solve, which makes this the workhorse for randomized property tests of
// the Section-3 theory.
type QuadraticProblem struct {
	forms []*costfunc.QuadraticForm
	dim   int
}

var _ Problem = (*QuadraticProblem)(nil)

// NewQuadraticProblem builds the problem; all forms must share a dimension.
func NewQuadraticProblem(forms []*costfunc.QuadraticForm) (*QuadraticProblem, error) {
	if len(forms) == 0 {
		return nil, fmt.Errorf("empty problem: %w", ErrArgs)
	}
	d := forms[0].Dim()
	for i, f := range forms {
		if f == nil {
			return nil, fmt.Errorf("nil form %d: %w", i, ErrArgs)
		}
		if f.Dim() != d {
			return nil, fmt.Errorf("form %d has dim %d, want %d: %w", i, f.Dim(), d, ErrArgs)
		}
	}
	cp := make([]*costfunc.QuadraticForm, len(forms))
	copy(cp, forms)
	return &QuadraticProblem{forms: cp, dim: d}, nil
}

// N implements Problem.
func (p *QuadraticProblem) N() int { return len(p.forms) }

// Dim implements Problem.
func (p *QuadraticProblem) Dim() int { return p.dim }

// MinimizeSubset implements Problem: the subset aggregate has Hessian
// sum P_i and linear term sum q_i, minimized by solving the stationarity
// system.
func (p *QuadraticProblem) MinimizeSubset(idx []int) ([]float64, error) {
	if len(idx) == 0 {
		return nil, fmt.Errorf("empty subset: %w", ErrArgs)
	}
	pSum, err := matrix.Zero(p.dim, p.dim)
	if err != nil {
		return nil, err
	}
	qSum := vecmath.Zeros(p.dim)
	for _, i := range idx {
		if i < 0 || i >= len(p.forms) {
			return nil, fmt.Errorf("agent %d out of [0, %d): %w", i, len(p.forms), ErrArgs)
		}
		pSum, err = pSum.Add(p.forms[i].Hessian())
		if err != nil {
			return nil, err
		}
		g0, err := costfunc.Grad(p.forms[i], vecmath.Zeros(p.dim)) // grad at 0 equals q_i
		if err != nil {
			return nil, err
		}
		if err := vecmath.AddInPlace(qSum, g0); err != nil {
			return nil, err
		}
	}
	x, err := pSum.Solve(vecmath.Neg(qSum))
	if err != nil {
		return nil, fmt.Errorf("subset %v: %w", idx, err)
	}
	return x, nil
}

// Cost returns agent i's quadratic cost.
func (p *QuadraticProblem) Cost(i int) (*costfunc.QuadraticForm, error) {
	if i < 0 || i >= len(p.forms) {
		return nil, fmt.Errorf("agent %d out of [0, %d): %w", i, len(p.forms), ErrArgs)
	}
	return p.forms[i], nil
}

// Costs returns all agents' cost functions in order.
func (p *QuadraticProblem) Costs() []costfunc.Differentiable {
	out := make([]costfunc.Differentiable, len(p.forms))
	for i, f := range p.forms {
		out[i] = f
	}
	return out
}
