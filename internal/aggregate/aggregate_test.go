package aggregate

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"byzopt/internal/vecmath"
)

func TestValidateErrors(t *testing.T) {
	filters := []Filter{Mean{}, CGE{}, CWTM{}, CWMedian{}, Krum{}, MultiKrum{M: 1}, Bulyan{}, GeoMedian{}, GeoMedianOfMeans{Groups: 1}}
	for _, fl := range filters {
		if _, err := fl.Aggregate(nil, 0); !errors.Is(err, ErrInput) {
			t.Errorf("%s: empty input: %v", fl.Name(), err)
		}
		if _, err := fl.Aggregate([][]float64{{1}, {1, 2}}, 0); !errors.Is(err, ErrInput) {
			t.Errorf("%s: ragged input: %v", fl.Name(), err)
		}
		if _, err := fl.Aggregate([][]float64{{1}}, -1); !errors.Is(err, ErrInput) {
			t.Errorf("%s: negative f: %v", fl.Name(), err)
		}
		if _, err := fl.Aggregate([][]float64{{}}, 0); !errors.Is(err, ErrInput) {
			t.Errorf("%s: zero-dim: %v", fl.Name(), err)
		}
	}
}

func TestToleranceConditions(t *testing.T) {
	grads := [][]float64{{1}, {2}, {3}, {4}} // n = 4
	cases := []struct {
		filter Filter
		f      int
	}{
		{CGE{}, 4},                       // needs n > f
		{CWTM{}, 2},                      // needs n > 2f
		{CWMedian{}, 2},                  // needs n > 2f
		{Krum{}, 1},                      // needs n >= 2f+3 = 5
		{MultiKrum{M: 1}, 1},             // same
		{Bulyan{}, 1},                    // needs n >= 4f+3 = 7
		{GeoMedian{}, 2},                 // needs n > 2f
		{GeoMedianOfMeans{Groups: 4}, 2}, // needs groups > 2f
	}
	for _, c := range cases {
		if _, err := c.filter.Aggregate(grads, c.f); !errors.Is(err, ErrTooManyFaults) {
			t.Errorf("%s with f=%d: want ErrTooManyFaults, got %v", c.filter.Name(), c.f, err)
		}
	}
}

func TestMean(t *testing.T) {
	got, err := Mean{}.Aggregate([][]float64{{1, 2}, {3, 4}, {5, 6}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got, []float64{3, 4}, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
}

func TestCGESumsSmallestNorms(t *testing.T) {
	grads := [][]float64{
		{10, 0}, // norm 10, should be dropped with f=1
		{1, 0},  // norm 1
		{0, 2},  // norm 2
		{-1, 1}, // norm sqrt(2)
	}
	got, err := CGE{}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Survivors: (1,0), (0,2), (-1,1); sum = (0, 3).
	if !approxEqual(got, []float64{0, 3}, 1e-12) {
		t.Fatalf("CGE = %v", got)
	}
	avg, err := CGE{Averaged: true}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(avg, []float64{0, 1}, 1e-12) {
		t.Fatalf("CGE avg = %v", avg)
	}
}

func TestCGEZeroFaults(t *testing.T) {
	grads := [][]float64{{1, 0}, {0, 1}}
	got, err := CGE{}.Aggregate(grads, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got, []float64{1, 1}, 1e-12) {
		t.Fatalf("CGE f=0 = %v", got)
	}
}

func TestCGEDoesNotMutateInput(t *testing.T) {
	grads := [][]float64{{3, 0}, {1, 0}, {2, 0}}
	if _, err := (CGE{}).Aggregate(grads, 1); err != nil {
		t.Fatal(err)
	}
	if grads[0][0] != 3 || grads[1][0] != 1 || grads[2][0] != 2 {
		t.Errorf("CGE reordered or mutated input: %v", grads)
	}
}

func TestCWTMKnownValue(t *testing.T) {
	grads := [][]float64{
		{100, -100}, // extreme per coordinate, trimmed
		{1, 1},
		{2, 2},
		{3, 3},
		{-100, 100}, // extreme per coordinate, trimmed
	}
	got, err := CWTM{}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got, []float64{2, 2}, 1e-12) {
		t.Fatalf("CWTM = %v", got)
	}
}

func TestCWTMZeroFaultsIsMean(t *testing.T) {
	grads := [][]float64{{1, 5}, {3, 1}, {2, 3}}
	got, err := CWTM{}.Aggregate(grads, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mean{}.Aggregate(grads, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got, want, 1e-12) {
		t.Fatalf("CWTM f=0 %v != mean %v", got, want)
	}
}

func TestCWMedian(t *testing.T) {
	grads := [][]float64{{1}, {100}, {2}, {3}, {-50}}
	got, err := CWMedian{}.Aggregate(grads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("median = %v", got)
	}
	even := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	got, err = CWMedian{}.Aggregate(even, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3.5 {
		t.Fatalf("even median = %v", got)
	}
}

func TestKrumPicksClusterMember(t *testing.T) {
	// Five gradients: four clustered near (1,1), one far away. f=1, n=5
	// satisfies n >= 2f+3. Krum must return a cluster member, never the
	// outlier.
	grads := [][]float64{
		{1.0, 1.0},
		{1.1, 0.9},
		{0.9, 1.1},
		{1.05, 1.0},
		{500, -500},
	}
	got, err := Krum{}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := vecmath.Dist(got, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.5 {
		t.Fatalf("Krum picked outlier: %v", got)
	}
}

func TestKrumOutputIsOneInput(t *testing.T) {
	grads := [][]float64{{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}}
	got, err := Krum{}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range grads {
		if approxEqual(got, g, 0) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Krum output %v is not one of the inputs", got)
	}
}

func TestMultiKrum(t *testing.T) {
	grads := [][]float64{
		{1.0, 1.0},
		{1.2, 0.8},
		{0.8, 1.2},
		{1.1, 1.1},
		{900, 900},
	}
	got, err := MultiKrum{M: 2}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := vecmath.Dist(got, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.5 {
		t.Fatalf("MultiKrum contaminated: %v", got)
	}
	if _, err := (MultiKrum{M: 0}).Aggregate(grads, 1); !errors.Is(err, ErrInput) {
		t.Errorf("MultiKrum M=0: %v", err)
	}
	if _, err := (MultiKrum{M: 5}).Aggregate(grads, 1); !errors.Is(err, ErrInput) {
		t.Errorf("MultiKrum M>n-f: %v", err)
	}
}

func TestBulyanResistsOutliers(t *testing.T) {
	// n = 7 honest-ish gradients near (2, -1) plus one adversarial, f=1,
	// n=8 >= 4f+3=7.
	grads := [][]float64{
		{2.0, -1.0},
		{2.1, -0.9},
		{1.9, -1.1},
		{2.05, -1.0},
		{1.95, -0.95},
		{2.0, -1.05},
		{2.02, -1.02},
		{-1000, 1000},
	}
	got, err := Bulyan{}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := vecmath.Dist(got, []float64{2, -1})
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.2 {
		t.Fatalf("Bulyan contaminated: %v", got)
	}
}

func TestGeoMedianRobust(t *testing.T) {
	grads := [][]float64{
		{0, 0},
		{0.1, 0},
		{-0.1, 0},
		{0, 0.1},
		{1e6, 1e6},
	}
	got, err := GeoMedian{}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.Norm(got) > 1 {
		t.Fatalf("geometric median dragged away: %v", got)
	}
}

func TestGeoMedianCoincidentPoints(t *testing.T) {
	// All points identical: Weiszfeld must not divide by zero.
	grads := [][]float64{{2, 3}, {2, 3}, {2, 3}}
	got, err := GeoMedian{}.Aggregate(grads, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got, []float64{2, 3}, 1e-9) {
		t.Fatalf("geomedian of identical points = %v", got)
	}
}

func TestGMoM(t *testing.T) {
	grads := [][]float64{
		{1, 1}, {1.1, 1}, {0.9, 1},
		{1, 1.1}, {1, 0.9}, {1.05, 1},
		{1e5, 1e5}, // one poisoned gradient in the last bucket
	}
	got, err := GeoMedianOfMeans{Groups: 7}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := vecmath.Dist(got, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.5 {
		t.Fatalf("GMoM contaminated: %v", got)
	}
	if _, err := (GeoMedianOfMeans{Groups: 0}).Aggregate(grads, 1); !errors.Is(err, ErrInput) {
		t.Errorf("GMoM groups=0: %v", err)
	}
	if _, err := (GeoMedianOfMeans{Groups: 99}).Aggregate(grads, 1); !errors.Is(err, ErrInput) {
		t.Errorf("GMoM groups>n: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		fl, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if fl.Name() == "" {
			t.Errorf("filter %q has empty Name", name)
		}
	}
	if _, err := New("bogus"); !errors.Is(err, ErrInput) {
		t.Errorf("unknown name: %v", err)
	}
}

func TestRegistryFiltersRun(t *testing.T) {
	// Every registered filter must aggregate a well-formed input without
	// error at n=9, f=1 (satisfies every filter's condition).
	r := rand.New(rand.NewSource(5))
	grads := make([][]float64, 9)
	for i := range grads {
		grads[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	}
	for _, name := range Names() {
		fl, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := fl.Aggregate(grads, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(out) != 3 || !vecmath.IsFinite(out) {
			t.Errorf("%s: bad output %v", name, out)
		}
	}
}

// --- property tests ---

func randGrads(r *rand.Rand, n, d int, scale float64) [][]float64 {
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = make([]float64, d)
		for j := range grads[i] {
			grads[i][j] = r.NormFloat64() * scale
		}
	}
	return grads
}

// TestPropCWTMWithinHonestRange verifies robustness bound (119) of the
// paper: each CWTM output coordinate lies within the min/max of the honest
// values at that coordinate, for any placement of up to f Byzantine values.
func TestPropCWTMWithinHonestRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fCount := 1 + r.Intn(2)
		n := 2*fCount + 1 + r.Intn(4)
		d := 1 + r.Intn(4)
		honest := randGrads(r, n-fCount, d, 5)
		byz := randGrads(r, fCount, d, 1e6) // adversarial extremes
		grads := append(append([][]float64{}, honest...), byz...)
		out, err := CWTM{}.Aggregate(grads, fCount)
		if err != nil {
			return false
		}
		for k := 0; k < d; k++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, g := range honest {
				lo = math.Min(lo, g[k])
				hi = math.Max(hi, g[k])
			}
			if out[k] < lo-1e-9 || out[k] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropCWMedianWithinHonestRange: the same containment holds for the
// coordinate-wise median.
func TestPropCWMedianWithinHonestRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fCount := 1 + r.Intn(2)
		n := 2*fCount + 1 + r.Intn(4)
		d := 1 + r.Intn(4)
		honest := randGrads(r, n-fCount, d, 5)
		byz := randGrads(r, fCount, d, 1e6)
		grads := append(append([][]float64{}, honest...), byz...)
		out, err := CWMedian{}.Aggregate(grads, fCount)
		if err != nil {
			return false
		}
		for k := 0; k < d; k++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, g := range honest {
				lo = math.Min(lo, g[k])
				hi = math.Max(hi, g[k])
			}
			if out[k] < lo-1e-9 || out[k] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropCGENormBounded verifies the boundedness used by Theorem 4 part 1:
// the CGE output norm is at most (n-f) times the (n-f)-th smallest gradient
// norm, regardless of Byzantine magnitudes.
func TestPropCGENormBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fCount := r.Intn(3)
		n := fCount + 2 + r.Intn(5)
		d := 1 + r.Intn(4)
		grads := randGrads(r, n, d, 100)
		out, err := CGE{}.Aggregate(grads, fCount)
		if err != nil {
			return false
		}
		norms := make([]float64, n)
		for i := range grads {
			norms[i] = vecmath.Norm(grads[i])
		}
		// (n-f)-th smallest norm.
		insertionSort(norms)
		bound := float64(n-fCount)*norms[n-fCount-1] + 1e-9
		return vecmath.Norm(out) <= bound
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// permutedGrads draws a gradient table and a permutation of it from seed.
func permutedGrads(seed int64) (grads, shuffled [][]float64) {
	r := rand.New(rand.NewSource(seed))
	n := 5 + r.Intn(4)
	d := 1 + r.Intn(3)
	grads = randGrads(r, n, d, 10)
	shuffled = make([][]float64, n)
	for i, p := range r.Perm(n) {
		shuffled[i] = grads[p]
	}
	return grads, shuffled
}

// TestPropPermutationInvariance: every filter must be invariant to the order
// in which gradients arrive (the server must not care about agent identity).
func TestPropPermutationInvariance(t *testing.T) {
	filters := []Filter{Mean{}, CGE{}, CWTM{}, CWMedian{}, GeoMedian{}}
	f := func(seed int64) bool {
		grads, shuffled := permutedGrads(seed)
		for _, fl := range filters {
			a, err := fl.Aggregate(grads, 1)
			if err != nil {
				return false
			}
			b, err := fl.Aggregate(shuffled, 1)
			if err != nil {
				return false
			}
			if !approxEqual(a, b, 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestGeoMedianOrderIndependent runs TestPropPermutationInvariance's generator
// over 20,000 fixed seeds for the one iterative filter in that list. The
// solver's decisions — accept an extrapolation, stop, return a report — are
// comparisons of sums taken in report order, and each of them has to come out
// the same in every order wherever the other outcome would move the result:
// this is the test that found the tie rules in weiszfeldInto and medianAt.
func TestGeoMedianOrderIndependent(t *testing.T) {
	for seed := int64(0); seed < 20000; seed++ {
		grads, shuffled := permutedGrads(seed)
		a, err := GeoMedian{}.Aggregate(grads, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GeoMedian{}.Aggregate(shuffled, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEqual(a, b, 1e-9) {
			t.Errorf("seed %d: %v in one order, %v in another", seed, a, b)
		}
	}
}

// TestPropFiltersAgreeOnIdenticalGradients: when all agents submit the same
// gradient g, every filter must return g (CGE returns (n-f) g by design).
func TestPropFiltersAgreeOnIdenticalGradients(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 7 + r.Intn(4)
		d := 1 + r.Intn(4)
		g := make([]float64, d)
		for i := range g {
			g[i] = r.NormFloat64() * 10
		}
		grads := make([][]float64, n)
		for i := range grads {
			grads[i] = vecmath.Clone(g)
		}
		for _, name := range Names() {
			fl, err := New(name)
			if err != nil {
				return false
			}
			out, err := fl.Aggregate(grads, 1)
			if err != nil {
				return false
			}
			want := g
			if name == "cge" {
				want = vecmath.Scale(float64(n-1), g)
			}
			if !approxEqual(out, want, 1e-6*(1+vecmath.Norm(want))) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}
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
