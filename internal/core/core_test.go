package core

import (
	"errors"
	"math"
	"testing"

	"byzopt/internal/costfunc"
	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

func TestForEachSubsetEnumerates(t *testing.T) {
	var got [][]int
	err := ForEachSubset(4, 2, func(idx []int) error {
		got = append(got, append([]int(nil), idx...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %d subsets, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("subset %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestForEachSubsetEdgeCases(t *testing.T) {
	count := 0
	if err := ForEachSubset(3, 0, func(idx []int) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("k=0 visited %d times", count)
	}
	count = 0
	if err := ForEachSubset(3, 3, func(idx []int) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("k=n visited %d times", count)
	}
	if err := ForEachSubset(2, 3, func(idx []int) error { return nil }); !errors.Is(err, ErrArgs) {
		t.Errorf("k>n: %v", err)
	}
	if err := ForEachSubset(-1, 0, func(idx []int) error { return nil }); !errors.Is(err, ErrArgs) {
		t.Errorf("negative n: %v", err)
	}
	// Early stop propagates the visitor's error.
	sentinel := errors.New("stop")
	visits := 0
	err := ForEachSubset(5, 2, func(idx []int) error {
		visits++
		if visits == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || visits != 3 {
		t.Errorf("early stop: err=%v visits=%d", err, visits)
	}
}

func TestCombinationsCountsMatchBinomial(t *testing.T) {
	for n := 0; n <= 8; n++ {
		for k := 0; k <= n; k++ {
			var combos int64
			if err := ForEachSubset(n, k, func([]int) error { combos++; return nil }); err != nil {
				t.Fatal(err)
			}
			want, err := Binomial(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if combos != want {
				t.Errorf("C(%d,%d): %d combos vs binomial %d", n, k, combos, want)
			}
		}
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{6, 5, 6}, {5, 4, 5}, {10, 3, 120}, {0, 0, 1}, {52, 5, 2598960},
	}
	for _, c := range cases {
		got, err := Binomial(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("C(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if _, err := Binomial(3, 5); !errors.Is(err, ErrArgs) {
		t.Errorf("k>n: %v", err)
	}
	if _, err := Binomial(200, 100); err == nil {
		t.Error("expected overflow error")
	}
}

// scalarQuadraticProblem builds n 1-d quadratics (x - centers[i])^2.
func scalarQuadraticProblem(t *testing.T, centers []float64) *Problem {
	t.Helper()
	forms := make([]*costfunc.QuadraticForm, len(centers))
	for i, c := range centers {
		p, err := matrix.New(1, 1, []float64{2})
		if err != nil {
			t.Fatal(err)
		}
		q, err := costfunc.NewQuadraticForm(p, []float64{-2 * c}, c*c)
		if err != nil {
			t.Fatal(err)
		}
		forms[i] = q
	}
	prob, err := NewQuadraticProblem(forms)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func TestQuadraticProblemSubsetMinIsMean(t *testing.T) {
	// sum of (x - c_i)^2 over a subset minimizes at the subset mean.
	p := scalarQuadraticProblem(t, []float64{0, 1, 2, 3})
	x, err := p.MinimizeSubset([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 {
		t.Fatalf("subset min = %v, want 2", x)
	}
	x, err = p.MinimizeSubset([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1.5) > 1e-10 {
		t.Fatalf("full min = %v, want 1.5", x)
	}
	if _, err := p.MinimizeSubset(nil); !errors.Is(err, ErrArgs) {
		t.Errorf("empty subset: %v", err)
	}
	if _, err := p.MinimizeSubset([]int{9}); !errors.Is(err, ErrArgs) {
		t.Errorf("out of range subset: %v", err)
	}
}

func TestLeastSquaresProblem(t *testing.T) {
	a, err := matrix.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}, {1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	xstar := []float64{2, -1}
	b, err := a.MulVec(xstar)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewLeastSquaresProblem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 4 || p.Dim() != 2 {
		t.Fatalf("N, Dim = %d, %d", p.N(), p.Dim())
	}
	// Noise-free: every full-rank subset recovers xstar.
	for _, idx := range [][]int{{0, 1}, {0, 1, 2}, {1, 3}, {0, 1, 2, 3}} {
		x, err := p.MinimizeSubset(idx)
		if err != nil {
			t.Fatalf("subset %v: %v", idx, err)
		}
		if !approxEqual(x, xstar, 1e-9) {
			t.Fatalf("subset %v min = %v", idx, x)
		}
	}
	// Rank-deficient subset errors.
	if _, err := p.MinimizeSubset([]int{0}); !errors.Is(err, matrix.ErrSingular) {
		t.Errorf("rank-deficient subset: %v", err)
	}
}

func TestLeastSquaresProblemValidation(t *testing.T) {
	if _, err := NewLeastSquaresProblem(nil, nil); !errors.Is(err, ErrArgs) {
		t.Errorf("nil design: %v", err)
	}
	a, err := matrix.FromRows([][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLeastSquaresProblem(a, []float64{1, 2}); !errors.Is(err, ErrArgs) {
		t.Errorf("length mismatch: %v", err)
	}
}

func TestMeasureRedundancyExactWhenShared(t *testing.T) {
	// All costs share minimizer 5: 2f-redundancy holds, epsilon = 0.
	p := scalarQuadraticProblem(t, []float64{5, 5, 5, 5, 5})
	rep, err := MeasureRedundancy(p, 1, AtLeastSize)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epsilon > 1e-10 {
		t.Errorf("epsilon = %v, want 0", rep.Epsilon)
	}
	ok, err := HasExactRedundancy(p, 1, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("exact redundancy not detected")
	}
}

func TestMeasureRedundancyKnownValue(t *testing.T) {
	// n=3, f=1: centers 0, 1, 2. Outer subsets are pairs (mean), inner
	// singletons (center). Max |pair mean - member center| = |mean(0,2) - 0| = 1.
	p := scalarQuadraticProblem(t, []float64{0, 1, 2})
	rep, err := MeasureRedundancy(p, 1, ExactSize)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Epsilon-1) > 1e-10 {
		t.Errorf("epsilon = %v, want 1", rep.Epsilon)
	}
	if rep.Pairs != 6 { // 3 outer pairs x 2 singletons each
		t.Errorf("pairs = %d, want 6", rep.Pairs)
	}
	if len(rep.WorstOuter) != 2 || len(rep.WorstInner) != 1 {
		t.Errorf("worst pair = %v, %v", rep.WorstOuter, rep.WorstInner)
	}
	// AtLeastSize additionally includes the trivial inner = outer pairs
	// (distance zero), so epsilon is unchanged.
	rep2, err := MeasureRedundancy(p, 1, AtLeastSize)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep2.Epsilon-rep.Epsilon) > 1e-12 {
		t.Errorf("mode changed epsilon: %v vs %v", rep2.Epsilon, rep.Epsilon)
	}
	if rep2.Pairs <= rep.Pairs {
		t.Errorf("AtLeastSize should examine more pairs: %d vs %d", rep2.Pairs, rep.Pairs)
	}
}

func TestMeasureRedundancyValidation(t *testing.T) {
	p := scalarQuadraticProblem(t, []float64{0, 1, 2})
	if _, err := MeasureRedundancy(nil, 1, ExactSize); !errors.Is(err, ErrArgs) {
		t.Errorf("nil problem: %v", err)
	}
	if _, err := MeasureRedundancy(p, 2, ExactSize); !errors.Is(err, ErrArgs) {
		t.Errorf("f too large: %v", err)
	}
	if _, err := MeasureRedundancy(p, -1, ExactSize); !errors.Is(err, ErrArgs) {
		t.Errorf("negative f: %v", err)
	}
	if _, err := MeasureRedundancy(p, 1, SubsetMode(0)); !errors.Is(err, ErrArgs) {
		t.Errorf("bad mode: %v", err)
	}
}

func TestMeasureResilience(t *testing.T) {
	p := scalarQuadraticProblem(t, []float64{0, 1, 2, 3})
	honest := []int{0, 1, 2, 3}
	// f=1: (n-f)=3-subsets of honest agents. Their means:
	// {0,1,2}:1, {0,1,3}:4/3, {0,2,3}:5/3, {1,2,3}:2.
	rep, err := MeasureResilience(p, 1, honest, []float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxDistance-0.5) > 1e-10 {
		t.Errorf("max distance = %v, want 0.5", rep.MaxDistance)
	}
	if rep.Subsets != 4 {
		t.Errorf("subsets = %d, want 4", rep.Subsets)
	}
	if _, err := MeasureResilience(p, 1, []int{0, 1}, []float64{0}); !errors.Is(err, ErrArgs) {
		t.Errorf("too few honest: %v", err)
	}
	if _, err := MeasureResilience(p, 1, honest, []float64{0, 0}); !errors.Is(err, ErrArgs) {
		t.Errorf("wrong dim: %v", err)
	}
}

func TestLeastSquaresAndQuadraticProblemsAgree(t *testing.T) {
	// The same instance expressed through both Problem substrates must
	// yield identical subset minimizers: Q_i(x) = (b_i - a_i x)^2 equals
	// the quadratic form with P = 2 a_i'a_i, q = -2 b_i a_i, c = b_i^2.
	rows := [][]float64{{1, 0}, {0.8, 0.5}, {0.5, 0.8}, {0, 1}, {-0.5, 0.8}, {-0.8, 0.5}}
	b := []float64{0.9108, 1.3349, 1.3376, 1.0033, 0.2142, -0.3615}

	a, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	lsq, err := NewLeastSquaresProblem(a, b)
	if err != nil {
		t.Fatal(err)
	}

	forms := make([]*costfunc.QuadraticForm, len(rows))
	for i, row := range rows {
		ri, err := matrix.FromRows([][]float64{row})
		if err != nil {
			t.Fatal(err)
		}
		p := ri.Gram().Scale(2)
		q := vecmath.Scale(-2*b[i], row)
		forms[i], err = costfunc.NewQuadraticForm(p, q, b[i]*b[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	quad, err := NewQuadraticProblem(forms)
	if err != nil {
		t.Fatal(err)
	}

	err = ForEachSubset(len(rows), 4, func(idx []int) error {
		x1, err := lsq.MinimizeSubset(idx)
		if err != nil {
			return err
		}
		x2, err := quad.MinimizeSubset(idx)
		if err != nil {
			return err
		}
		if !approxEqual(x1, x2, 1e-8) {
			t.Errorf("subset %v: least-squares %v vs quadratic %v", idx, x1, x2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// And the redundancy epsilon agrees across substrates.
	r1, err := MeasureRedundancy(lsq, 1, AtLeastSize)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MeasureRedundancy(quad, 1, AtLeastSize)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Epsilon-r2.Epsilon) > 1e-8 {
		t.Errorf("epsilon disagrees: %v vs %v", r1.Epsilon, r2.Epsilon)
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
