package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"byzopt/internal/costfunc"
	"byzopt/internal/matrix"
)

// randQuadraticProblem builds n d-dimensional quadratics whose minimizers
// are drawn within radius spread of a common center, planting approximate
// redundancy.
func randQuadraticProblem(r *rand.Rand, n, d int, spread float64) (*Problem, error) {
	forms := make([]*costfunc.QuadraticForm, n)
	center := make([]float64, d)
	for j := range center {
		center[j] = r.NormFloat64() * 5
	}
	for i := 0; i < n; i++ {
		// SPD Hessian: random diagonal in [1, 3].
		p, err := matrix.Zero(d, d)
		if err != nil {
			return nil, err
		}
		for j := 0; j < d; j++ {
			p.Set(j, j, 1+2*r.Float64())
		}
		// Minimizer within spread of the center.
		min := make([]float64, d)
		for j := range min {
			min[j] = center[j] + (r.Float64()*2-1)*spread
		}
		// q = -P min so that the form minimizes at min.
		pm, err := p.MulVec(min)
		if err != nil {
			return nil, err
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = -pm[j]
		}
		form, err := costfunc.NewQuadraticForm(p, q, 0)
		if err != nil {
			return nil, err
		}
		forms[i] = form
	}
	return NewQuadraticProblem(forms)
}

func TestExhaustiveResilientAllHonest(t *testing.T) {
	// Theorem 2: under (2f, eps)-redundancy the output is within 2 eps of
	// every (n-f)-subset minimizer of honest agents. With all agents honest
	// this must hold exactly as stated.
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(3)
		f := 1 + r.Intn(2)
		if 2*f >= n {
			f = 1
		}
		d := 1 + r.Intn(3)
		p, err := randQuadraticProblem(r, n, d, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := MeasureRedundancy(p, f, AtLeastSize)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExhaustiveResilient(p, f)
		if err != nil {
			t.Fatal(err)
		}
		honest := make([]int, n)
		for i := range honest {
			honest[i] = i
		}
		resil, err := MeasureResilience(p, f, honest, res.X)
		if err != nil {
			t.Fatal(err)
		}
		if resil.MaxDistance > 2*rep.Epsilon+1e-9 {
			t.Errorf("trial %d (n=%d f=%d d=%d): resilience %v exceeds 2eps = %v",
				trial, n, f, d, resil.MaxDistance, 2*rep.Epsilon)
		}
		if res.Score > rep.Epsilon+1e-9 {
			t.Errorf("trial %d: score r_S = %v exceeds eps = %v (eq. 16)", trial, res.Score, rep.Epsilon)
		}
	}
}

func TestExhaustiveResilientWithByzantineCost(t *testing.T) {
	// n = 5 scalar agents, f = 1. Four honest agents' costs minimize within
	// [0, 0.4]; the Byzantine agent reports a cost minimizing far away at 50.
	// The algorithm must stay within 2 eps of every 4-subset of honest
	// minimizers, where eps is the honest instance's redundancy.
	centers := []float64{0, 0.1, 0.25, 0.4, 50}
	forms := make([]*costfunc.QuadraticForm, len(centers))
	for i, c := range centers {
		pm, err := matrix.New(1, 1, []float64{2})
		if err != nil {
			t.Fatal(err)
		}
		form, err := costfunc.NewQuadraticForm(pm, []float64{-2 * c}, c*c)
		if err != nil {
			t.Fatal(err)
		}
		forms[i] = form
	}
	p, err := NewQuadraticProblem(forms)
	if err != nil {
		t.Fatal(err)
	}

	// Redundancy of the honest four agents as a standalone instance with
	// the same f: outer subsets of size 3, inner of size 2.
	honestProblem, err := NewQuadraticProblem(forms[:4])
	if err != nil {
		t.Fatal(err)
	}
	// Note: redundancy for the full system quantifies over (n-f)=4 and
	// (n-2f)=3 subsets of all 5 agents when all are honest; here agent 4 is
	// faulty so the relevant redundancy is that of honest subsets. Bound the
	// honest-subset spread directly: all honest pair/triple/quad means lie
	// in [0, 0.4], so eps <= 0.4.
	_ = honestProblem
	const epsUpper = 0.4

	res, err := ExhaustiveResilient(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	resil, err := MeasureResilience(p, 1, []int{0, 1, 2, 3}, res.X)
	if err != nil {
		t.Fatal(err)
	}
	if resil.MaxDistance > 2*epsUpper {
		t.Errorf("output %v: worst honest-subset distance %v exceeds 2 eps = %v",
			res.X, resil.MaxDistance, 2*epsUpper)
	}
	// The winning subset should exclude the outlier agent 4.
	for _, i := range res.Subset {
		if i == 4 {
			t.Errorf("exhaustive algorithm selected the Byzantine cost: subset %v", res.Subset)
		}
	}
}

func TestExhaustiveValidation(t *testing.T) {
	p := scalarQuadraticProblem(t, []float64{0, 1, 2})
	if _, err := ExhaustiveResilient(nil, 1); !errors.Is(err, ErrArgs) {
		t.Errorf("nil problem: %v", err)
	}
	if _, err := ExhaustiveResilient(p, 0); !errors.Is(err, ErrArgs) {
		t.Errorf("f=0: %v", err)
	}
	if _, err := ExhaustiveResilient(p, 2); !errors.Is(err, ErrArgs) {
		t.Errorf("f >= n/2: %v", err)
	}
}

func TestExhaustiveCost(t *testing.T) {
	// n=6, f=1: C(6,5) * (1 + C(5,4)) = 6 * 6 = 36.
	got, err := ExhaustiveCost(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 36 {
		t.Errorf("cost = %d, want 36", got)
	}
}

func TestPropExhaustiveTheorem2(t *testing.T) {
	// Randomized Theorem 2 check across instance geometry.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(3)
		fCount := 1
		d := 1 + r.Intn(2)
		spread := r.Float64() * 3
		p, err := randQuadraticProblem(r, n, d, spread)
		if err != nil {
			return false
		}
		rep, err := MeasureRedundancy(p, fCount, AtLeastSize)
		if err != nil {
			return false
		}
		res, err := ExhaustiveResilient(p, fCount)
		if err != nil {
			return false
		}
		honest := make([]int, n)
		for i := range honest {
			honest[i] = i
		}
		resil, err := MeasureResilience(p, fCount, honest, res.X)
		if err != nil {
			return false
		}
		return resil.MaxDistance <= 2*rep.Epsilon+1e-8
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNecessityTheorem1Scenario(t *testing.T) {
	// Reproduce the Theorem 1 lower-bound construction in one dimension.
	// n = 3, f = 1. Costs: agents 0 and 1 minimize at 0, agent 2 at 2c. The
	// server cannot distinguish scenario (i) honest = {0, 1} from scenario
	// (ii) honest = {1, 2} (both consistent with one Byzantine agent). Any
	// deterministic output x has worst-case honest-subset distance at least
	// half the separation of the two scenario aggregates.
	const c = 5.0
	p := scalarQuadraticProblem(t, []float64{0, 0, 2 * c})

	// Scenario (i): honest {0, 1}; subsets of size n-f = 2: {0,1} -> 0.
	// Scenario (ii): honest {1, 2}; subset {1,2} -> mean = c.
	res, err := ExhaustiveResilient(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := res.X[0]
	worstI := math.Abs(x - 0) // scenario (i) aggregate minimizer
	worstII := math.Abs(x - c)
	if math.Max(worstI, worstII) < c/2-1e-9 {
		t.Errorf("impossible: output %v is within %v of both scenario minimizers 0 and %v", x, c/2, c)
	}
}

func TestLemma1Feasible(t *testing.T) {
	cases := []struct {
		n, f int
		want bool
	}{
		{2, 1, false}, {3, 1, true}, {6, 1, true}, {6, 3, false}, {10, 4, true}, {0, 0, false}, {5, -1, false},
	}
	for _, c := range cases {
		if got := Feasible(c.n, c.f); got != c.want {
			t.Errorf("Feasible(%d, %d) = %v, want %v", c.n, c.f, got, c.want)
		}
	}
}

func TestCGEResilienceTheorem4(t *testing.T) {
	// With the paper's Section-5 coefficients (mu/gamma ~= 2.809) Theorem 4
	// needs f/n < 1/(1+2mu/gamma) ~= 0.151; n=10, f=1 satisfies it.
	b, err := CGEResilienceTheorem4(10, 1, 2, 0.712)
	if err != nil {
		t.Fatal(err)
	}
	wantAlpha := 1 - (1.0/10.0)*(1+2*2/0.712)
	if math.Abs(b.Alpha-wantAlpha) > 1e-12 {
		t.Errorf("alpha = %v, want %v", b.Alpha, wantAlpha)
	}
	wantD := 4 * 2 * 1 / (wantAlpha * 0.712)
	if math.Abs(b.D-wantD) > 1e-9 {
		t.Errorf("D = %v, want %v", b.D, wantD)
	}
	// The paper's own n=6, f=1 evaluation instance violates Theorem 4's
	// alpha > 0 condition (f/n = 1/6 > 0.151) — only Theorem 5 covers it.
	if _, err := CGEResilienceTheorem4(6, 1, 2, 0.712); !errors.Is(err, ErrArgs) {
		t.Errorf("paper instance should be Theorem-4 inapplicable: %v", err)
	}
	// Inapplicable when f/n too large: n=3, f=1, mu/gamma=1 -> alpha = 0.
	if _, err := CGEResilienceTheorem4(3, 1, 1, 1); !errors.Is(err, ErrArgs) {
		t.Errorf("alpha <= 0: %v", err)
	}
	if _, err := CGEResilienceTheorem4(6, 1, 0.5, 0.712); !errors.Is(err, ErrArgs) {
		t.Errorf("mu < gamma: %v", err)
	}
	if _, err := CGEResilienceTheorem4(6, 3, 2, 0.712); !errors.Is(err, ErrArgs) {
		t.Errorf("f >= n/2: %v", err)
	}
	if _, err := CGEResilienceTheorem4(6, 1, 2, 0); !errors.Is(err, ErrArgs) {
		t.Errorf("gamma = 0: %v", err)
	}
	if _, err := CGEResilienceTheorem4(0, 0, 2, 1); !errors.Is(err, ErrArgs) {
		t.Errorf("n = 0: %v", err)
	}
}

func TestCGEResilienceTheorem5(t *testing.T) {
	b, err := CGEResilienceTheorem5(6, 1, 2, 0.712)
	if err != nil {
		t.Fatal(err)
	}
	wantAlpha := 1 - (1.0/6.0)*(1+2/0.712)
	if math.Abs(b.Alpha-wantAlpha) > 1e-12 {
		t.Errorf("alpha = %v, want %v", b.Alpha, wantAlpha)
	}
	wantD := float64(3) * 4 * 2 / (wantAlpha * 6 * 0.712)
	if math.Abs(b.D-wantD) > 1e-9 {
		t.Errorf("D = %v, want %v", b.D, wantD)
	}
	// Theorem 5 requires f <= n/3.
	if _, err := CGEResilienceTheorem5(7, 3, 2, 1); !errors.Is(err, ErrArgs) {
		t.Errorf("f > n/3: %v", err)
	}
}

func TestTheorem5WiderApplicability(t *testing.T) {
	// The paper motivates Theorem 5 as making better use of redundancy. Two
	// checks: (a) it covers the paper's n=6, f=1 instance that Theorem 4
	// cannot; (b) where both apply, its alpha margin is never smaller.
	if _, err := CGEResilienceTheorem5(6, 1, 2, 0.712); err != nil {
		t.Errorf("Theorem 5 should apply to the paper instance: %v", err)
	}
	b4, err := CGEResilienceTheorem4(10, 1, 2, 0.712)
	if err != nil {
		t.Fatal(err)
	}
	b5, err := CGEResilienceTheorem5(10, 1, 2, 0.712)
	if err != nil {
		t.Fatal(err)
	}
	if b5.Alpha < b4.Alpha {
		t.Errorf("Theorem 5 alpha = %v smaller than Theorem 4 alpha = %v", b5.Alpha, b4.Alpha)
	}
}

func TestCWTMResilienceTheorem6(t *testing.T) {
	// d=2, mu=2, gamma=0.712: lambda must be < 0.712/(2 sqrt 2) ~= 0.2517.
	b, err := CWTMResilienceTheorem6(6, 1, 2, 2, 0.712, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sqrtD := math.Sqrt2
	wantMax := 0.712 / (2 * sqrtD)
	if math.Abs(b.LambdaMax-wantMax) > 1e-12 {
		t.Errorf("lambdaMax = %v, want %v", b.LambdaMax, wantMax)
	}
	wantD := 2 * sqrtD * 6 * 2 * 0.1 / (0.712 - sqrtD*2*0.1)
	if math.Abs(b.D-wantD) > 1e-9 {
		t.Errorf("D = %v, want %v", b.D, wantD)
	}
	if _, err := CWTMResilienceTheorem6(6, 1, 2, 2, 0.712, 0.3); !errors.Is(err, ErrArgs) {
		t.Errorf("lambda too large: %v", err)
	}
	if _, err := CWTMResilienceTheorem6(6, 1, 0, 2, 0.712, 0.1); !errors.Is(err, ErrArgs) {
		t.Errorf("dim 0: %v", err)
	}
	if _, err := CWTMResilienceTheorem6(6, 1, 2, 2, 0.712, 0); !errors.Is(err, ErrArgs) {
		t.Errorf("lambda 0: %v", err)
	}
}

func TestDiminishingStepCondition(t *testing.T) {
	if !DiminishingStepCondition(1.5, 1) {
		t.Error("c/(t+1) should satisfy Theorem 3")
	}
	if DiminishingStepCondition(1.5, 0.5) {
		t.Error("1/sqrt(t) has divergent sum of squares")
	}
	if DiminishingStepCondition(1.5, 1.5) {
		t.Error("summable steps violate sum eta = infinity")
	}
	if DiminishingStepCondition(0, 1) {
		t.Error("zero coefficient is not a step size")
	}
}
