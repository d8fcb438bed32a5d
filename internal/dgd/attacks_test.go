package dgd

import (
	"math/rand"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/vecmath"
)

// syntheticQuadratics builds n strongly convex quadratic agents whose
// honest aggregate minimizes at xstar, with slight heterogeneity.
func syntheticQuadratics(t *testing.T, r *rand.Rand, n, d int, xstar []float64, spread float64) []costfunc.Differentiable {
	t.Helper()
	costs := make([]costfunc.Differentiable, n)
	for i := 0; i < n; i++ {
		// Per-agent minimizer near xstar; pairing +delta with -delta keeps
		// the aggregate minimizer exactly at xstar.
		min := vecmath.Clone(xstar)
		for j := range min {
			delta := spread * r.NormFloat64()
			if i%2 == 0 {
				min[j] += delta
			} else {
				min[j] -= delta
			}
		}
		rows := make([][]float64, d)
		b := make([]float64, d)
		for j := 0; j < d; j++ {
			rows[j] = make([]float64, d)
			rows[j][j] = 1
			b[j] = min[j]
		}
		q := mustLeastSquares(t, rows, b)
		costs[i] = q
	}
	return costs
}

func mustLeastSquares(t *testing.T, rows [][]float64, b []float64) costfunc.Differentiable {
	t.Helper()
	costs := make([]costfunc.Differentiable, len(rows))
	for i := range rows {
		c, err := costfunc.NewObservation(rows[i], b[i])
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = c
	}
	sum, err := costfunc.NewSum(costs...)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// spike plants magnitude in one coordinate of the true gradient and reports
// the rest truthfully, stressing coordinate-wise filters.
type spike struct {
	coordinate int
	magnitude  float64
}

func (spike) Name() string { return "spike" }

func (s spike) Apply(_, _ int, trueGrad []float64) ([]float64, error) {
	out := append([]float64(nil), trueGrad...)
	out[s.coordinate] = s.magnitude
	return out, nil
}

// attackCase pairs a filter with a behavior and a tolerated final distance.
type attackCase struct {
	name     string
	filter   aggregate.Filter
	behavior byzantine.Behavior
	maxDist  float64
}

func TestFilterAttackMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const n, f, d = 10, 3, 3
	xstar := []float64{1, -2, 0.5}

	big, err := byzantine.NewConstant([]float64{1e6, 1e6, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	cases := []attackCase{
		{"cwtm-vs-spike", aggregate.CWTM{}, spike{coordinate: 1, magnitude: 1e6}, 0.2},
		{"cwtm-vs-constant", aggregate.CWTM{}, big, 0.2},
		{"cge-vs-constant", aggregate.CGE{}, big, 0.2},
		{"cge-vs-zero", aggregate.CGE{}, byzantine.Zero{}, 0.35},
		{"cwtm-vs-alie", aggregate.CWTM{}, byzantine.ALittleIsEnough{Z: 1.5}, 0.6},
		{"cge-vs-ipm", aggregate.CGE{}, byzantine.InnerProductManipulation{Epsilon: 0.5}, 0.35},
		{"cwtm-vs-ipm", aggregate.CWTM{}, byzantine.InnerProductManipulation{Epsilon: 0.5}, 0.35},
		{"cwmedian-vs-constant", aggregate.CWMedian{}, big, 0.35},
		{"krum-vs-constant", aggregate.Krum{}, big, 0.6},
		{"geomedian-vs-constant", aggregate.GeoMedian{}, big, 0.35},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			costs := syntheticQuadratics(t, r, n, d, xstar, 0.05)
			agents, err := HonestAgents(costs)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < f; i++ {
				agents[i], err = NewFaulty(agents[i], tc.behavior)
				if err != nil {
					t.Fatal(err)
				}
			}
			box, err := vecmath.NewCube(d, 100)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{
				Agents:    agents,
				F:         f,
				Filter:    tc.filter,
				Steps:     Diminishing{C: 0.5, P: 1},
				Box:       box,
				X0:        []float64{0, 0, 0},
				Rounds:    600,
				Reference: xstar,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Trace.Dist[len(res.Trace.Dist)-1]; got > tc.maxDist {
				t.Errorf("final distance %v exceeds tolerance %v", got, tc.maxDist)
			}
		})
	}
}

// TestMeanCollapsesUnderEveryAttack is the control for the matrix above:
// plain averaging fails under any large-magnitude attack.
func TestMeanCollapsesUnderEveryAttack(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const n, f, d = 10, 3, 3
	xstar := []float64{1, -2, 0.5}
	big, err := byzantine.NewConstant([]float64{1e6, 1e6, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	costs := syntheticQuadratics(t, r, n, d, xstar, 0.05)
	agents, err := HonestAgents(costs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f; i++ {
		agents[i], err = NewFaulty(agents[i], big)
		if err != nil {
			t.Fatal(err)
		}
	}
	box, err := vecmath.NewCube(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Agents:    agents,
		F:         f,
		Filter:    aggregate.Mean{},
		Steps:     Diminishing{C: 0.5, P: 1},
		Box:       box,
		X0:        []float64{0, 0, 0},
		Rounds:    600,
		Reference: xstar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Trace.Dist[len(res.Trace.Dist)-1]; got < 10 {
		t.Errorf("plain mean unexpectedly survived: distance %v", got)
	}
}
