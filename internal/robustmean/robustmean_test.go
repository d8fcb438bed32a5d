package robustmean

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"byzopt/internal/aggregate"
	"byzopt/internal/core"
	"byzopt/internal/dgd"
	"byzopt/internal/vecmath"
)

// cluster draws honest points around center with the given noise, then
// appends outliers far away.
func cluster(r *rand.Rand, honest, outliers, d int, center []float64, noise float64) [][]float64 {
	points := make([][]float64, 0, honest+outliers)
	for i := 0; i < honest; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = center[j] + r.NormFloat64()*noise
		}
		points = append(points, p)
	}
	for i := 0; i < outliers; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = 1e4 * (1 + r.Float64())
		}
		points = append(points, p)
	}
	return points
}

func honestMean(points [][]float64, honest int) []float64 {
	m, err := vecmath.Mean(points[:honest])
	if err != nil {
		panic(err)
	}
	return m
}

func TestProblemAdapter(t *testing.T) {
	p, err := NewProblem([][]float64{{0, 0}, {2, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 3 || p.Dim() != 2 {
		t.Fatalf("N/Dim = %d/%d", p.N(), p.Dim())
	}
	m, err := p.MinimizeSubset([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(m, []float64{1, 0}, 1e-12) {
		t.Fatalf("subset mean = %v", m)
	}
	if _, err := p.MinimizeSubset(nil); !errors.Is(err, core.ErrArgs) {
		t.Errorf("empty subset: %v", err)
	}
	if _, err := p.MinimizeSubset([]int{7}); !errors.Is(err, core.ErrArgs) {
		t.Errorf("bad index: %v", err)
	}
}

func TestProblemValidation(t *testing.T) {
	if _, err := NewProblem(nil); !errors.Is(err, ErrArgs) {
		t.Errorf("no points: %v", err)
	}
	if _, err := NewProblem([][]float64{{}}); !errors.Is(err, ErrArgs) {
		t.Errorf("zero dim: %v", err)
	}
	if _, err := NewProblem([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrArgs) {
		t.Errorf("ragged: %v", err)
	}
}

// mustProblem is NewProblem for points the test built itself.
func mustProblem(t *testing.T, points [][]float64) *core.Problem {
	t.Helper()
	p, err := NewProblem(points)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// spread is the instance's (2f, ε)-redundancy: the worst drift of a subset
// mean when shrinking from n-f to n-2f points.
func spread(p *core.Problem, f int) (float64, error) {
	rep, err := core.MeasureRedundancy(p, f, core.AtLeastSize)
	if err != nil {
		return 0, err
	}
	return rep.Epsilon, nil
}

// The Theorem-2 algorithm on a robust-mean instance picks a subset without
// the outliers and lands near the honest mean.
func TestExhaustiveIgnoresOutliers(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	center := []float64{3, -2}
	points := cluster(r, 7, 2, 2, center, 0.1)
	res, err := core.ExhaustiveResilient(mustProblem(t, points), 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := vecmath.Dist(res.X, honestMean(points, 7))
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.2 {
		t.Errorf("exhaustive estimate %v is %v from the honest mean", res.X, d)
	}
	// The winning subset must exclude both outliers (indices 7, 8).
	for _, i := range res.Subset {
		if i >= 7 {
			t.Errorf("outlier %d selected: %v", i, res.Subset)
		}
	}
}

func TestSpreadScalesWithNoise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	center := []float64{0, 0}
	tight := cluster(r, 9, 0, 2, center, 0.01)
	loose := cluster(r, 9, 0, 2, center, 1.0)
	sTight, err := spread(mustProblem(t, tight), 2)
	if err != nil {
		t.Fatal(err)
	}
	sLoose, err := spread(mustProblem(t, loose), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sTight >= sLoose {
		t.Errorf("spread should grow with noise: %v vs %v", sTight, sLoose)
	}
	if sTight > 0.05 {
		t.Errorf("tight cluster spread = %v", sTight)
	}
}

// TestViaDGDMatchesHonestMean: filtered gradient descent over the PointCost
// agents — the ones the sweep's robustmean workload builds — lands near the
// honest mean despite two far outliers.
func TestViaDGDMatchesHonestMean(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	center := []float64{-1, 4, 2}
	points := cluster(r, 10, 2, 3, center, 0.05)
	agents := make([]dgd.Agent, len(points))
	for i, p := range points {
		cost, err := PointCost(p)
		if err != nil {
			t.Fatal(err)
		}
		if agents[i], err = dgd.NewHonest(cost); err != nil {
			t.Fatal(err)
		}
	}
	// Start from the coordinate-wise median: a cheap f-robust warm start.
	start, err := aggregate.CWMedian{}.Aggregate(points, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dgd.Run(dgd.Config{
		Agents: agents,
		F:      2,
		Filter: aggregate.CWTM{},
		Steps:  dgd.Diminishing{C: 0.5 / float64(len(points)), P: 1},
		X0:     start,
		Rounds: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := vecmath.Dist(res.X, honestMean(points, 10))
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.25 {
		t.Errorf("DGD estimate %v is %v from the honest mean", res.X, d)
	}
}

// TestPropExhaustiveWithinTwoEps is Theorem 2 specialized to means: the
// estimate must be within 2 eps of every (n-f)-subset mean of honest
// points, with eps measured on the full (honest-only) instance.
func TestPropExhaustiveWithinTwoEps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(3)
		fCount := 1
		d := 1 + r.Intn(3)
		center := make([]float64, d)
		for j := range center {
			center[j] = r.NormFloat64() * 5
		}
		points := cluster(r, n, 0, d, center, 0.5) // all honest
		p, err := NewProblem(points)
		if err != nil {
			return false
		}
		eps, err := spread(p, fCount)
		if err != nil {
			return false
		}
		res, err := core.ExhaustiveResilient(p, fCount)
		if err != nil {
			return false
		}
		honest := make([]int, n)
		for i := range honest {
			honest[i] = i
		}
		resil, err := core.MeasureResilience(p, fCount, honest, res.X)
		if err != nil {
			return false
		}
		return resil.MaxDistance <= 2*eps+1e-9
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
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
