package linreg

import (
	"errors"
	"math"
	"testing"

	"byzopt/internal/core"
	"byzopt/internal/costfunc"
	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

func paperInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := Paper()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// The noise vector N of equation (132) and the noise-free generator
// x* = (1, 1): B = A x* + N.
var (
	paperNoise  = []float64{-0.0892, 0.0349, 0.0376, 0.0033, -0.0858, -0.0615}
	groundTruth = []float64{1, 1}
)

func TestDataConsistency(t *testing.T) {
	// B = A x* + N with x* = (1, 1) (equation 133).
	a := A()
	b := B()
	noise := paperNoise
	xstar := groundTruth
	for i := range a {
		pred := a[i][0]*xstar[0] + a[i][1]*xstar[1] + noise[i]
		if math.Abs(pred-b[i]) > 1e-12 {
			t.Errorf("row %d: A x* + N = %v, B = %v", i, pred, b[i])
		}
	}
}

func TestAccessorsReturnCopies(t *testing.T) {
	a := A()
	a[0][0] = 99
	if A()[0][0] == 99 {
		t.Error("A aliases package data")
	}
	b := B()
	b[0] = 99
	if B()[0] == 99 {
		t.Error("B aliases package data")
	}
	x := X0()
	x[0] = 99
	if X0()[0] == 99 {
		t.Error("X0 aliases package data")
	}
}

func TestPaperXH(t *testing.T) {
	// Appendix J: x_H = (1.0780, 0.9825).
	inst := paperInstance(t)
	want := []float64{1.0780, 0.9825}
	if !approxEqual(inst.XH, want, 5e-4) {
		t.Errorf("x_H = %v, want %v", inst.XH, want)
	}
}

func TestPaperEpsilon(t *testing.T) {
	// Appendix J.2: epsilon = 0.0890.
	inst := paperInstance(t)
	if math.Abs(inst.Epsilon-0.0890) > 5e-4 {
		t.Errorf("epsilon = %v, want 0.0890", inst.Epsilon)
	}
}

func TestPaperMuGamma(t *testing.T) {
	// Section 5: mu = 2 (rows of unit norm, Hessian 2 A_i'A_i) and
	// gamma = 0.712 (smallest eigenvalue of (2/5) A_S'A_S over 5-subsets).
	inst := paperInstance(t)
	if math.Abs(inst.Mu-2) > 1e-9 {
		t.Errorf("mu = %v, want 2", inst.Mu)
	}
	if math.Abs(inst.Gamma-0.712) > 1e-3 {
		t.Errorf("gamma = %v, want 0.712", inst.Gamma)
	}
	if inst.Gamma > inst.Mu {
		t.Error("gamma must not exceed mu")
	}
}

func TestRankCondition(t *testing.T) {
	// Equation (135): every subset of >= 4 rows has full rank 2 — the
	// paper's designed 2f-redundancy in the noise-free case.
	inst := paperInstance(t)
	err := core.ForEachSubset(N, 4, func(idx []int) error {
		if _, err := inst.Problem.MinimizeSubset(idx); err != nil {
			t.Errorf("subset %v rank-deficient: %v", idx, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNoiseFreeInstanceHasExactRedundancy(t *testing.T) {
	// With N_i = 0 the instance satisfies 2f-redundancy exactly.
	a := A()
	xstar := groundTruth
	b := make([]float64, len(a))
	for i := range a {
		b[i] = a[i][0]*xstar[0] + a[i][1]*xstar[1]
	}
	inst, err := FromData(a, b, F)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Epsilon > 1e-8 {
		t.Errorf("noise-free epsilon = %v, want ~0", inst.Epsilon)
	}
	if !approxEqual(inst.XH, xstar, 1e-9) {
		t.Errorf("noise-free x_H = %v, want %v", inst.XH, xstar)
	}
}

func TestHonestSumMinimizesAtXH(t *testing.T) {
	inst := paperInstance(t)
	sum, err := inst.HonestSum()
	if err != nil {
		t.Fatal(err)
	}
	g, err := costfunc.Grad(sum, inst.XH)
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.Norm(g) > 1e-8 {
		t.Errorf("gradient at x_H = %v", g)
	}
}

func TestCosts(t *testing.T) {
	inst := paperInstance(t)
	costs, err := inst.Costs()
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != N {
		t.Fatalf("%d costs", len(costs))
	}
	// Each agent's cost at the generator equals its squared noise.
	for i, c := range costs {
		v, err := c.Eval(groundTruth)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-paperNoise[i]*paperNoise[i]) > 1e-12 {
			t.Errorf("agent %d cost at x* = %v, want %v", i, v, paperNoise[i]*paperNoise[i])
		}
	}
}

func TestGradientDissimilarity(t *testing.T) {
	inst := paperInstance(t)
	lambda, err := inst.GradientDissimilarity(20)
	if err != nil {
		t.Fatal(err)
	}
	// By the triangle inequality lambda <= 2 always.
	if lambda <= 0 || lambda > 2 {
		t.Errorf("lambda = %v out of (0, 2]", lambda)
	}
	if _, err := inst.GradientDissimilarity(1); !errors.Is(err, ErrArgs) {
		t.Errorf("bad samples: %v", err)
	}
}

func TestFromDataValidation(t *testing.T) {
	if _, err := FromData(nil, nil, F); err == nil {
		t.Error("empty data should error")
	}
	if _, err := FromData([][]float64{{1, 0}}, []float64{1, 2}, F); !errors.Is(err, ErrArgs) {
		t.Errorf("length mismatch: %v", err)
	}
	if _, err := FromData([][]float64{{1, 0}, {0, 1}}, []float64{1, 1}, F); !errors.Is(err, ErrArgs) {
		t.Errorf("n too small: %v", err)
	}
}

// TestFromDataBeyondPaperDim: data of dimension 3 builds an instance whose
// x0 is the paper's in its first two coordinates and zero after them, where
// slicing the paper's two-entry x0 used to panic.
func TestFromDataBeyondPaperDim(t *testing.T) {
	rows := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 0}, {0, 1, 1}, {1, 0, 1}}
	inst, err := FromData(rows, []float64{1, 1, 1, 2, 2, 2}, F)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{-0.0085, -0.5643, 0}; !approxEqual(inst.X0, want, 0) {
		t.Errorf("x0 = %v, want %v", inst.X0, want)
	}
	if inst.Box.Dim() != 3 || len(inst.XH) != 3 {
		t.Errorf("box dim %d, x_H %v", inst.Box.Dim(), inst.XH)
	}
	// µ = max_i 2||A_i||², 4 for the rows with two unit entries.
	if math.Abs(inst.Mu-4) > 1e-9 {
		t.Errorf("mu = %v, want 4", inst.Mu)
	}
}

func TestBoxAndConstants(t *testing.T) {
	inst := paperInstance(t)
	if inst.Box.Dim() != Dim {
		t.Errorf("box dim = %d", inst.Box.Dim())
	}
	inW := func(x []float64) bool {
		for _, v := range x {
			if math.Abs(v) > BoxRadius {
				return false
			}
		}
		return true
	}
	if !inW(inst.XH) {
		t.Error("x_H must lie in W (Assumption 4)")
	}
	if !inW(inst.X0) {
		t.Error("x0 must lie in W")
	}
	if !approxEqual(inst.X0, []float64{-0.0085, -0.5643}, 0) {
		t.Errorf("x0 = %v", inst.X0)
	}
}

// TestFromDataAtF: at f = 2 the honest set is agents 2, ..., n-1, x_H is
// their least-squares estimate, and ε and γ are measured at f = 2.
func TestFromDataAtF(t *testing.T) {
	rows := [][]float64{{1, 0}, {0.8, 0.5}, {0.5, 0.8}, {0, 1}, {-0.5, 0.8}, {-0.8, 0.5}, {0.3, -0.9}, {-1, -0.2}, {0.6, 0.6}}
	b := []float64{0.9, 1.3, 1.4, 1.0, 0.2, -0.4, -0.5, -1.3, 1.1}
	const f = 2
	inst, err := FromData(rows, b, f)
	if err != nil {
		t.Fatal(err)
	}
	a, err := matrix.FromRows(rows[f:])
	if err != nil {
		t.Fatal(err)
	}
	xh, err := matrix.LeastSquares(a, b[f:])
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(inst.XH, xh, 0) {
		t.Errorf("x_H = %v, want the honest rows' estimate %v", inst.XH, xh)
	}
	rep, err := core.MeasureRedundancy(inst.Problem, f, core.AtLeastSize)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Epsilon != rep.Epsilon {
		t.Errorf("epsilon = %v, want %v at f = %d", inst.Epsilon, rep.Epsilon, f)
	}
	full, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	gamma := math.Inf(1)
	if err := core.ForEachSubset(len(rows), len(rows)-f, func(idx []int) error {
		sub, err := full.SelectRows(idx)
		if err != nil {
			return err
		}
		lo, _, err := matrix.EigenBounds(sub.Gram().Scale(2 / float64(len(idx))))
		gamma = math.Min(gamma, lo)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(inst.Gamma-gamma) > 1e-12*gamma {
		t.Errorf("gamma = %v, want %v", inst.Gamma, gamma)
	}
	sum, err := inst.HonestSum()
	if err != nil {
		t.Fatal(err)
	}
	if g, err := costfunc.Grad(sum, inst.XH); err != nil || vecmath.Norm(g) > 1e-12 {
		t.Errorf("honest loss gradient at x_H = %v (%v)", g, err)
	}
}

// approxEqual reports whether a and b have the same length and agree entry
// by entry within absolute tolerance tol.
func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
