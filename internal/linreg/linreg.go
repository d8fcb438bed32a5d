// Package linreg encodes the distributed linear-regression instance the
// paper evaluates in Section 5 / Appendix J: n = 6 agents, d = 2, f = 1,
// the exact (A, B, N) data of equation (132), and the derived quantities
// the paper reports — the honest minimizer x_H = (1.0780, 0.9825), the
// redundancy parameter ε = 0.0890, and the coefficients µ = 2, γ = 0.712.
package linreg

import (
	"errors"
	"fmt"
	"math"

	"byzopt/internal/core"
	"byzopt/internal/costfunc"
	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// ErrArgs is returned (wrapped) for invalid arguments.
var ErrArgs = errors.New("linreg: invalid arguments")

// Paper constants of Appendix J.
const (
	// N is the number of agents.
	N = 6
	// Dim is the optimization dimension.
	Dim = 2
	// F is the number of Byzantine agents in the paper's experiments.
	F = 1
	// FaultyAgent is the paper's Byzantine agent (agent 1, zero-indexed 0).
	FaultyAgent = 0
	// BoxRadius is the convex compact set W = [-1000, 1000]^2.
	BoxRadius = 1000
	// StepC is the paper's diminishing step-size coefficient: 1.5/(t+1).
	StepC = 1.5
	// Rounds is the paper's output iteration: x_out = x_500.
	Rounds = 500
)

// paperA is the design matrix A of equation (132); row i is agent i's A_i.
var paperA = [][]float64{
	{1, 0},
	{0.8, 0.5},
	{0.5, 0.8},
	{0, 1},
	{-0.5, 0.8},
	{-0.8, 0.5},
}

// paperB is the response vector B of equation (132).
var paperB = []float64{0.9108, 1.3349, 1.3376, 1.0033, 0.2142, -0.3615}

// paperX0 is the initial estimate used by every experiment in Section 5.
var paperX0 = []float64{-0.0085, -0.5643}

// Instance bundles the paper's regression workload with its derived
// quantities.
type Instance struct {
	// Problem holds the agents' cost functions Q_i(x) = (B_i - A_i x)^2.
	Problem *core.Problem
	// XH is the minimizer of the honest aggregate sum_{i in H} Q_i, with H
	// the agents f, ..., n-1 (all but agent 0 in the paper's instance).
	XH []float64
	// Epsilon is the measured (2f, ε)-redundancy parameter (Appendix J.2).
	Epsilon float64
	// Mu is the Lipschitz-smoothness coefficient of Assumption 2:
	// max_i λ_max(∇²Q_i) with ∇²Q_i = 2 A_i'A_i.
	Mu float64
	// Gamma is the strong-convexity coefficient of Assumption 3:
	// min over |S| = n-f of λ_min((2/|S|) A_S'A_S).
	Gamma float64
	// X0 is the paper's initial estimate.
	X0 []float64
	// Box is the constraint set W.
	Box *vecmath.Box

	a *matrix.Matrix
	b []float64
	f int
}

// Paper builds the exact Appendix-J instance and computes its derived
// quantities from scratch (nothing is hard-coded beyond the data itself, so
// the returned values reproduce — rather than quote — the paper's numbers).
func Paper() (*Instance, error) {
	return FromData(paperA, paperB, F)
}

// A returns a copy of the paper's design matrix rows.
func A() [][]float64 {
	out := make([][]float64, len(paperA))
	for i, r := range paperA {
		out[i] = vecmath.Clone(r)
	}
	return out
}

// B returns a copy of the paper's response vector.
func B() []float64 { return vecmath.Clone(paperB) }

// X0 returns the paper's initial estimate.
func X0() []float64 { return vecmath.Clone(paperX0) }

// FromData builds an Instance from regression data (one row and response
// per agent) with the paper's conventions at a fault budget of f agents,
// 0 <= f < n/2: the first f agents are the faulty ones, so the honest set
// is agents f, ..., n-1 (all but agent 0 at the paper's f = 1), and ε and γ
// are measured at f. One subset enumeration yields both.
func FromData(rows [][]float64, b []float64, f int) (*Instance, error) {
	a, err := matrix.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("linreg: %w", err)
	}
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("linreg: %d rows vs %d responses: %w", a.Rows(), len(b), ErrArgs)
	}
	n := a.Rows()
	if !core.Feasible(n, f) {
		return nil, fmt.Errorf("linreg: need 0 <= f < n/2, got n=%d f=%d: %w", n, f, ErrArgs)
	}
	prob, err := core.NewLeastSquaresProblem(a, b)
	if err != nil {
		return nil, fmt.Errorf("linreg: %w", err)
	}
	inst := &Instance{Problem: prob, a: a, b: vecmath.Clone(b), f: f}

	honest, err := a.SelectRows(inst.honest())
	if err != nil {
		return nil, err
	}
	if inst.XH, err = matrix.LeastSquares(honest, b[f:]); err != nil {
		return nil, fmt.Errorf("linreg: honest minimizer: %w", err)
	}
	// Redundancy per Appendix J.2 (inner subsets of size >= n-2f); the
	// outer Hessian terms A_i A_i' are half the costs' Hessians.
	m, err := core.Measure(prob, f, core.AtLeastSize)
	if err != nil {
		return nil, fmt.Errorf("linreg: redundancy: %w", err)
	}
	inst.Epsilon = m.Redundancy.Epsilon
	inst.Gamma = 2 * m.Curvature / float64(n-f)
	for i := 0; i < n; i++ {
		q, err := costfunc.NewObservation(a.Row(i), 0)
		if err != nil {
			return nil, err
		}
		hi, err := costfunc.Smoothness(q)
		if err != nil {
			return nil, fmt.Errorf("linreg: coefficients: %w", err)
		}
		inst.Mu = math.Max(inst.Mu, hi)
	}

	if inst.Box, err = vecmath.NewCube(a.Cols(), BoxRadius); err != nil {
		return nil, fmt.Errorf("linreg: box: %w", err)
	}
	// The paper's x0 in its first coordinates, zero beyond d = 2.
	inst.X0 = vecmath.Zeros(a.Cols())
	copy(inst.X0, paperX0)
	return inst, nil
}

// honest returns the instance's honest agents f, ..., n-1.
func (inst *Instance) honest() []int {
	out := make([]int, 0, inst.a.Rows()-inst.f)
	for i := inst.f; i < inst.a.Rows(); i++ {
		out = append(out, i)
	}
	return out
}

// HonestSum returns the honest aggregate cost sum_{i in H} Q_i, the "loss"
// series of Figures 2 and 3.
func (inst *Instance) HonestSum() (*costfunc.LeastSquares, error) {
	sub, err := inst.a.SelectRows(inst.honest())
	if err != nil {
		return nil, err
	}
	return costfunc.NewLeastSquares(sub, inst.b[inst.f:])
}

// Costs returns all agents' individual cost functions in agent order.
func (inst *Instance) Costs() ([]costfunc.Differentiable, error) {
	out := make([]costfunc.Differentiable, inst.a.Rows())
	for i := range out {
		c, err := costfunc.NewObservation(inst.a.Row(i), inst.b[i])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// GradientDissimilarity estimates the Assumption-5 coefficient λ over a grid
// of points in the box spanned by the honest minimizer: the smallest λ with
// ||∇Q_i(x) - ∇Q_j(x)|| <= λ max(||∇Q_i(x)||, ||∇Q_j(x)||) across sampled x
// and honest pairs (i, j). The paper does not report its value; the CWTM
// bound (Theorem 6) consumes it.
func (inst *Instance) GradientDissimilarity(samples int) (float64, error) {
	if samples < 2 {
		return 0, fmt.Errorf("linreg: need at least 2 samples, got %d: %w", samples, ErrArgs)
	}
	costs, err := inst.Costs()
	if err != nil {
		return 0, err
	}
	honest := inst.honest()
	var lambda float64
	// Deterministic grid on the segment between x0 and 2*xH - x0 plus an
	// orthogonal offset, cheap but representative.
	for s := 0; s < samples; s++ {
		tt := float64(s) / float64(samples-1)
		x := make([]float64, len(inst.XH))
		for k := range x {
			x[k] = inst.X0[k] + tt*2*(inst.XH[k]-inst.X0[k])
			if k%2 == 0 {
				x[k] += 0.25 * tt
			}
		}
		grads := make([][]float64, len(honest))
		for i, h := range honest {
			g, err := costfunc.Grad(costs[h], x)
			if err != nil {
				return 0, err
			}
			grads[i] = g
		}
		for i := 0; i < len(grads); i++ {
			for j := i + 1; j < len(grads); j++ {
				diff, err := vecmath.Sub(grads[i], grads[j])
				if err != nil {
					return 0, err
				}
				denom := math.Max(vecmath.Norm(grads[i]), vecmath.Norm(grads[j]))
				if denom == 0 {
					continue
				}
				if r := vecmath.Norm(diff) / denom; r > lambda {
					lambda = r
				}
			}
		}
	}
	return lambda, nil
}
