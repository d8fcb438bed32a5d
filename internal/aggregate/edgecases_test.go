package aggregate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"byzopt/internal/vecmath"
)

// edge-case suite: every registered filter (iterated via Names(), so new
// filters are covered the day they are registered) is pushed through the
// boundary conditions the theory cares about.

func constGrads(n, d int, v float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		g := make([]float64, d)
		for j := range g {
			g[j] = v + float64(j)
		}
		out[i] = g
	}
	return out
}

// TestFiltersFaultFree: at f = 0 no filter may refuse, and on identical
// inputs each must return (numerically) that very gradient — dropping
// nothing is the only sane fault-free consensus.
func TestFiltersFaultFree(t *testing.T) {
	grads := constGrads(7, 3, 1.5)
	for _, name := range Names() {
		filter, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := filter.Aggregate(grads, 0)
		if err != nil {
			t.Errorf("%s: f=0 must be feasible, got %v", name, err)
			continue
		}
		want := grads[0]
		if name == "cge" { // unnormalized CGE sums the n-f survivors
			want = vecmath.Scale(7, grads[0])
		}
		if !approxEqual(out, want, 1e-9) {
			t.Errorf("%s: identical inputs gave %v, want %v", name, out, want)
		}
	}
}

// TestFiltersAtHalfBoundary: n = 2f+1 is the Lemma-1 feasibility edge.
// Every filter must either aggregate or refuse with ErrTooManyFaults —
// never panic, never return a silent wrong answer shape.
func TestFiltersAtHalfBoundary(t *testing.T) {
	const f = 2
	grads := randGrads(rand.New(rand.NewSource(1)), 2*f+1, 4, 1)
	for _, name := range Names() {
		filter, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := filter.Aggregate(grads, f)
		switch {
		case err == nil:
			if len(out) != 4 || !vecmath.IsFinite(out) {
				t.Errorf("%s: malformed output %v at n=2f+1", name, out)
			}
		case errors.Is(err, ErrTooManyFaults):
			// A declared tolerance refusal is the other legal outcome.
		default:
			t.Errorf("%s: want success or ErrTooManyFaults at n=2f+1, got %v", name, err)
		}
	}
}

// TestFiltersAllIdenticalUnderFaults: with every report identical there is
// nothing to distinguish honest from Byzantine; any filter that accepts
// (n, f) must return that gradient.
func TestFiltersAllIdenticalUnderFaults(t *testing.T) {
	grads := constGrads(9, 2, -0.75)
	for _, name := range Names() {
		filter, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := filter.Aggregate(grads, 1)
		if errors.Is(err, ErrTooManyFaults) {
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want := grads[0]
		if name == "cge" {
			want = vecmath.Scale(8, grads[0]) // sums n-f = 8 survivors
		}
		if !approxEqual(out, want, 1e-9) {
			t.Errorf("%s: identical inputs gave %v, want %v", name, out, want)
		}
	}
}

// TestFiltersRejectNonFinite: a NaN or Inf anywhere in any report must be
// refused by every filter with the shared ErrNonFinite sentinel, before
// any feasibility or aggregation logic runs.
func TestFiltersRejectNonFinite(t *testing.T) {
	poisons := map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)}
	for _, name := range Names() {
		filter, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for label, v := range poisons {
			grads := constGrads(7, 3, 1)
			grads[4][1] = v
			if _, err := filter.Aggregate(grads, 1); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s: %s gradient accepted (err = %v), want ErrNonFinite", name, label, err)
			}
			// Even at infeasible (n, f) the non-finite input is the error
			// that must surface: validation precedes feasibility.
			if _, err := filter.Aggregate(grads, 3); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s: %s at infeasible f: got %v, want ErrNonFinite", name, label, err)
			}
		}
	}
}

// TestFiniteTable holds finiteSum, and validate's verdict on a report,
// to the per-entry definition at every length from 0 to 40, on both sides of
// finiteSumMinDim: each poison (NaN with several payloads and either sign,
// ±Inf) at every position of a report of finite extremes (-0, ±MaxFloat64,
// subnormals), which both must accept unpoisoned.
func TestFiniteTable(t *testing.T) {
	poisons := []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000bad), math.Float64frombits(0x7ff4000000000000),
		math.Inf(1), math.Inf(-1)}
	extremes := []float64{negZero, 0, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0x1p-1030, 1.5, -2}
	perEntry := func(g []float64) bool {
		for _, x := range g {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	// check compares both verdicts on g with the definition's.
	check := func(what string, g []float64) {
		t.Helper()
		want := perEntry(g)
		if got := finiteSum(g); got != want {
			t.Fatalf("len %d, %s: finiteSum = %v, per-entry %v", len(g), what, got, want)
		}
		if len(g) == 0 {
			return // validate refuses a zero-dimensional report for that
		}
		if _, _, err := validate([][]float64{g}, 0); errors.Is(err, ErrNonFinite) == want {
			t.Fatalf("len %d, %s: validate = %v, per-entry finite %v", len(g), what, err, want)
		}
	}
	for n := 0; n <= 40; n++ {
		g := make([]float64, n)
		for i := range g {
			g[i] = extremes[(i+n)%len(extremes)]
		}
		check("no poison", g)
		for pos := 0; pos < n; pos++ {
			for _, p := range poisons {
				keep := g[pos]
				g[pos] = p
				check(fmt.Sprintf("%v (%#x) at %d", p, math.Float64bits(p), pos), g)
				g[pos] = keep
			}
		}
	}
}

// TestFiltersRejectStructurallyInvalid pins the shared validate() path:
// empty input, ragged dimensions, and negative f.
func TestFiltersRejectStructurallyInvalid(t *testing.T) {
	ragged := constGrads(5, 3, 1)
	ragged[2] = []float64{1, 2}
	for _, name := range Names() {
		filter, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for label, call := range map[string]func() error{
			"empty":      func() error { _, err := filter.Aggregate(nil, 1); return err },
			"ragged":     func() error { _, err := filter.Aggregate(ragged, 1); return err },
			"negative f": func() error { _, err := filter.Aggregate(constGrads(5, 3, 1), -1); return err },
		} {
			if err := call(); !errors.Is(err, ErrInput) {
				t.Errorf("%s: %s input gave %v, want ErrInput", name, label, err)
			}
		}
	}
}

// TestPairwiseDistSqMatchesNaive cross-checks the shared kernel against a
// direct vecmath computation.
func TestPairwiseDistSqMatchesNaive(t *testing.T) {
	grads := randGrads(rand.New(rand.NewSource(3)), 17, 9, 1)
	n := len(grads)
	want := make([][]float64, n)
	for i := range want {
		want[i] = make([]float64, n)
		for j := range want[i] {
			diff, err := vecmath.Sub(grads[i], grads[j])
			if err != nil {
				t.Fatal(err)
			}
			want[i][j] = vecmath.NormSq(diff)
		}
	}
	got := new(Scratch).distMatrix(n)
	pairwiseDistSqInto(got, grads)
	for i := range want {
		if !approxEqual(got[i], want[i], 0) {
			t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPairwiseTiledBitwise: every entry of the matrix, whether the
// four-column pass or the leftover loop computed it, carries the bits of vecmath.DistSqKernel on that pair, the diagonal +0, and
// no stale entry of the scratch survives.
func TestPairwiseTiledBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 5, 6, 7, 100} {
		for _, d := range []int{1, 3, 4, 50, 1000} {
			grads := randGrads(r, n, d, 3)
			got := new(Scratch).distMatrix(n)
			for i := range got {
				for j := range got[i] {
					got[i][j] = math.NaN()
				}
			}
			pairwiseDistSqInto(got, grads)
			for i := range got {
				for j := range got[i] {
					want := vecmath.DistSqKernel(grads[i], grads[j])
					if math.Float64bits(got[i][j]) != math.Float64bits(want) {
						t.Fatalf("n=%d d=%d: entry (%d, %d) = %v (%#x), DistSqKernel has %v (%#x)",
							n, d, i, j, got[i][j], math.Float64bits(got[i][j]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}
