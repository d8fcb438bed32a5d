package sensing

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/core"
	"byzopt/internal/dgd"
	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// buildSystem makes n sensors observing state x through random 2-row
// observation matrices, with optional measurement noise, then corrupts the
// last `corrupt` sensors' readings arbitrarily.
func buildSystem(t *testing.T, r *rand.Rand, n, d int, x []float64, noise float64, corrupt int) *System {
	t.Helper()
	sensors := make([]Sensor, n)
	for i := 0; i < n; i++ {
		rows := [][]float64{}
		for k := 0; k < 2; k++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			rows = append(rows, row)
		}
		c, err := matrix.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		y, err := c.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for k := range y {
			y[k] += noise * r.NormFloat64()
		}
		if i >= n-corrupt {
			for k := range y {
				y[k] = 1e4 * r.NormFloat64() // Byzantine measurements
			}
		}
		sensors[i] = Sensor{C: c, Y: y}
	}
	sys, err := NewSystem(sensors)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil); !errors.Is(err, ErrArgs) {
		t.Errorf("no sensors: %v", err)
	}
	c, err := matrix.FromRows([][]float64{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem([]Sensor{{C: nil}}); !errors.Is(err, ErrArgs) {
		t.Errorf("nil C: %v", err)
	}
	if _, err := NewSystem([]Sensor{{C: c, Y: []float64{1, 2}}}); !errors.Is(err, ErrArgs) {
		t.Errorf("row mismatch: %v", err)
	}
	c3, err := matrix.FromRows([][]float64{{1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem([]Sensor{{C: c, Y: []float64{1}}, {C: c3, Y: []float64{1}}}); !errors.Is(err, ErrArgs) {
		t.Errorf("dim mismatch: %v", err)
	}
}

func TestSparseObservability(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x := []float64{1, -1, 2}
	sys := buildSystem(t, r, 8, 3, x, 0, 0)
	ok, err := sys.SparseObservable(2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("random 2-row sensors should make the system 2f-sparse observable")
	}
	// A system where one axis is observed by a single sensor is NOT sparse
	// observable: removing that sensor hides the axis.
	blind := make([]Sensor, 5)
	for i := range blind {
		c, err := matrix.FromRows([][]float64{{1, 0}}) // everyone watches axis 0
		if err != nil {
			t.Fatal(err)
		}
		blind[i] = Sensor{C: c, Y: []float64{1}}
	}
	cy, err := matrix.FromRows([][]float64{{0, 1}}) // only sensor 4 watches axis 1
	if err != nil {
		t.Fatal(err)
	}
	blind[4] = Sensor{C: cy, Y: []float64{7}}
	bsys, err := NewSystem(blind)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = bsys.SparseObservable(1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("single-coverage axis must break sparse observability")
	}
	if _, err := bsys.SparseObservable(3); !errors.Is(err, ErrArgs) {
		t.Errorf("f >= n/2: %v", err)
	}
}

// TestMeasureEpsilonMatchesSequential: the system's ε from the one subset
// enumeration over its summed observation Grams matches the sequential
// pair-by-pair measurement, each subset estimated by QR over its stacked
// observations, to 1e-12 relative.
func TestMeasureEpsilonMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x := []float64{1, -1, 2}
	sys := buildSystem(t, r, 9, 3, x, 0.05, 0)
	const n, f = 9, 1
	got, err := core.MeasureRedundancy(sys.Problem, f, core.AtLeastSize)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(idx []int) []float64 {
		c, y, err := sys.Stacked(idx)
		if err != nil {
			t.Fatal(err)
		}
		xs, err := matrix.LeastSquares(c, y)
		if err != nil {
			t.Fatal(err)
		}
		return xs
	}
	var want float64
	pairs := 0
	_ = core.ForEachSubset(n, n-f, func(s []int) error {
		xs := estimate(s)
		for k := n - 2*f; k <= n-f; k++ {
			_ = core.ForEachSubset(n-f, k, func(pos []int) error {
				inner := make([]int, k)
				for i, q := range pos {
					inner[i] = s[q]
				}
				d, err := vecmath.Dist(xs, estimate(inner))
				if err != nil {
					t.Fatal(err)
				}
				want = math.Max(want, d)
				pairs++
				return nil
			})
		}
		return nil
	})
	if math.Abs(got.Epsilon-want) > 1e-12*want || got.Pairs != pairs {
		t.Errorf("epsilon %v over %d pairs, sequential %v over %d", got.Epsilon, got.Pairs, want, pairs)
	}
}

func TestExhaustiveEstimateDefeatsByzantineSensors(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := []float64{1, -1, 2}
	sys := buildSystem(t, r, 8, 3, x, 0, 2) // noise-free, 2 corrupted
	res, err := sys.Estimate(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := vecmath.Dist(res.X, x)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-8 {
		t.Errorf("noise-free estimate %v is %v from the true state", res.X, d)
	}
	// The winning subset excludes both corrupted sensors.
	for _, i := range res.Subset {
		if i >= 6 {
			t.Errorf("corrupted sensor %d selected: %v", i, res.Subset)
		}
	}
}

func TestNoisyEstimateWithinTwoEpsilon(t *testing.T) {
	// Redundancy is a property of the honest instance, so epsilon is
	// measured on the clean noisy system; the estimator then runs on a copy
	// with two sensors corrupted.
	r := rand.New(rand.NewSource(3))
	x := []float64{0.5, 2, -1}
	const n, d, f = 8, 3, 2
	sensors := make([]Sensor, n)
	for i := 0; i < n; i++ {
		rows := [][]float64{}
		for k := 0; k < 2; k++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			rows = append(rows, row)
		}
		c, err := matrix.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		y, err := c.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for k := range y {
			y[k] += 0.01 * r.NormFloat64()
		}
		sensors[i] = Sensor{C: c, Y: y}
	}
	honest, err := NewSystem(sensors)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.MeasureRedundancy(honest.Problem, f, core.AtLeastSize)
	if err != nil {
		t.Fatal(err)
	}
	eps := rep.Epsilon
	if eps <= 0 || eps > 1 {
		t.Fatalf("noisy epsilon = %v out of plausible range", eps)
	}

	corrupted := make([]Sensor, n)
	copy(corrupted, sensors)
	for i := n - f; i < n; i++ {
		bad := make([]float64, len(sensors[i].Y))
		for k := range bad {
			bad[k] = 1e4 * r.NormFloat64()
		}
		corrupted[i] = Sensor{C: sensors[i].C, Y: bad}
	}
	sys, err := NewSystem(corrupted)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Estimate(f)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := vecmath.Dist(res.X, x)
	if err != nil {
		t.Fatal(err)
	}
	// The true state generated the honest observations, so it lies within
	// the noise-scale neighborhood of every honest-subset estimate; 2 eps
	// bounds the subset drift and a small slack covers the
	// generator-vs-minimizer gap.
	if dist > 2*eps+0.05 {
		t.Errorf("noisy estimate error %v vs 2 eps = %v", dist, 2*eps)
	}
}

// TestEstimateDGD: filtered gradient descent over the per-sensor costs —
// the agents the sweep's sensing workload and the package Example build from
// Costs — recovers the state despite two corrupted sensors.
func TestEstimateDGD(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := []float64{1, 0, -2}
	sys := buildSystem(t, r, 8, 3, x, 0.005, 2)
	costs, err := sys.Costs()
	if err != nil {
		t.Fatal(err)
	}
	agents, err := dgd.HonestAgents(costs)
	if err != nil {
		t.Fatal(err)
	}
	box, err := vecmath.NewCube(sys.Dim(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dgd.Run(dgd.Config{
		Agents: agents,
		F:      2,
		Filter: aggregate.CWTM{},
		Steps:  dgd.Diminishing{C: 0.5, P: 1},
		Box:    box,
		X0:     vecmath.Zeros(sys.Dim()),
		Rounds: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := vecmath.Dist(res.X, x)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.2 {
		t.Errorf("DGD estimate %v is %v from the true state", res.X, d)
	}
}

func TestMinimizeSubsetErrors(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sys := buildSystem(t, r, 4, 3, []float64{1, 1, 1}, 0, 0)
	if _, err := sys.MinimizeSubset(nil); !errors.Is(err, core.ErrArgs) {
		t.Errorf("empty subset: %v", err)
	}
	if _, err := sys.MinimizeSubset([]int{9}); !errors.Is(err, core.ErrArgs) {
		t.Errorf("bad index: %v", err)
	}
}
