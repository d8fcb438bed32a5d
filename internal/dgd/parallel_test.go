package dgd

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/vecmath"
)

func TestParallelForMatchesSequentialAndReportsLowestError(t *testing.T) {
	idx := make([]int, 50)
	for i := range idx {
		idx[i] = i
	}
	for _, workers := range []int{1, 4, 64} {
		out := make([]int, len(idx))
		if err := parallelFor(workers, idx, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, out[i])
			}
		}
		// Failures at indices 7 and 31: index 7's error must win whatever
		// the interleaving.
		err := parallelFor(workers, idx, func(i int) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 7" {
			t.Errorf("workers=%d: want lowest-index error, got %v", workers, err)
		}
	}
}

// TestRunWorkersMatchesSequential is the satellite regression guarantee:
// Workers > 1 must reproduce the sequential execution bit for bit on the
// fixed regression scenario, faults and all.
func TestRunWorkersMatchesSequential(t *testing.T) {
	xstar := []float64{1, 1}
	runWith := func(workers int, behavior byzantine.Behavior) *Result {
		t.Helper()
		agents, _, sum := regressionAgents(t, testRows, xstar)
		fa, err := NewFaulty(agents[0], behavior)
		if err != nil {
			t.Fatal(err)
		}
		agents[0] = fa
		res, err := Run(Config{
			Agents:    agents,
			F:         1,
			Filter:    aggregate.CGE{},
			Box:       testBox(t),
			X0:        []float64{0, 0},
			Rounds:    200,
			TrackLoss: sum,
			Reference: xstar,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gaussian := func() byzantine.Behavior {
		b, err := byzantine.NewRandomGaussian(200, 11)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	behaviors := map[string]func() byzantine.Behavior{
		"gradient-reverse": func() byzantine.Behavior { return byzantine.GradientReverse{} },
		"random":           gaussian,
		"alie-omniscient":  func() byzantine.Behavior { return byzantine.ALittleIsEnough{Z: 1.5} },
	}
	for name, mk := range behaviors {
		seq := runWith(0, mk())
		for _, workers := range []int{2, 8, -1} {
			par := runWith(workers, mk())
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s: Workers=%d result differs from sequential", name, workers)
			}
		}
	}
}

// TestOmniscientSeesAllHonestGradientsInParallel pins the adversary
// semantics: with concurrent collection, an omniscient behavior must still
// observe every honest gradient of the round (collected first, in agent
// order). IPM reports -eps * mean(honest), which we can check exactly.
func TestOmniscientSeesAllHonestGradientsInParallel(t *testing.T) {
	xstar := []float64{1, 1}
	agents, costs, _ := regressionAgents(t, testRows, xstar)
	const eps = 0.5
	fa, err := NewFaulty(agents[0], byzantine.InnerProductManipulation{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	agents[0] = fa

	x := []float64{0.3, -0.2}
	honest := make([][]float64, 0, len(costs)-1)
	for _, c := range costs[1:] {
		g, err := c.Grad(x)
		if err != nil {
			t.Fatal(err)
		}
		honest = append(honest, g)
	}
	mean, err := vecmath.Mean(honest)
	if err != nil {
		t.Fatal(err)
	}
	want := vecmath.Scale(-eps, mean)

	for _, workers := range []int{1, 8} {
		grads, err := NewCollector(agents, len(x), workers).Collect(0, x)
		if err != nil {
			t.Fatal(err)
		}
		if !vecmath.Equal(grads[0], want, 0) {
			t.Errorf("workers=%d: omniscient report %v, want %v", workers, grads[0], want)
		}
		for i, g := range grads[1:] {
			if !vecmath.Equal(g, honest[i], 0) {
				t.Errorf("workers=%d: honest slot %d corrupted", workers, i+1)
			}
		}
	}
}

// TestParallelCollectionStress hammers the concurrent collection path with
// a large mixed pool of honest and colluding omniscient agents; under
// -race this is the collection layer's data-race probe.
func TestParallelCollectionStress(t *testing.T) {
	const n, d = 60, 16
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		row[i%d] = 1
		row[(i+3)%d] = 0.5
		rows[i] = row
	}
	xstar := vecmath.Ones(d)
	agents, _, sum := regressionAgents(t, rows, xstar)
	// Every third agent colludes, alternating the two omniscient attacks.
	faults := 0
	for i := 0; i < n; i += 3 {
		var b byzantine.Behavior = byzantine.ALittleIsEnough{Z: 1.5}
		if i%2 == 0 {
			b = byzantine.InnerProductManipulation{Epsilon: 0.3}
		}
		fa, err := NewFaulty(agents[i], b)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = fa
		faults++
	}
	res, err := Run(Config{
		Agents:    agents,
		F:         faults,
		Filter:    aggregate.CWTM{},
		X0:        vecmath.Zeros(d),
		Rounds:    25,
		TrackLoss: sum,
		Workers:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.IsFinite(res.X) {
		t.Error("stress run produced non-finite estimate")
	}
}

// TestNonFiniteGradientSurfacesAsDivergence covers the aggregate-level
// NaN rejection: a Byzantine NaN report must be classified ErrDiverged on
// both collection paths, not bubble up as a generic filter error.
func TestNonFiniteGradientSurfacesAsDivergence(t *testing.T) {
	for _, workers := range []int{0, 4} {
		xstar := []float64{1, 1}
		agents, _, _ := regressionAgents(t, testRows, xstar)
		fa, err := NewFaulty(agents[0], infBehavior{})
		if err != nil {
			t.Fatal(err)
		}
		agents[0] = fa
		_, err = Run(Config{
			Agents:  agents,
			F:       1,
			Filter:  aggregate.CWTM{},
			X0:      []float64{0, 0},
			Rounds:  3,
			Workers: workers,
		})
		if !errors.Is(err, ErrDiverged) {
			t.Errorf("workers=%d: want ErrDiverged, got %v", workers, err)
		}
	}
}

// infBehavior reports a +Inf gradient, exercising the filter-level
// finiteness rejection (the estimate itself never goes non-finite).
type infBehavior struct{}

func (infBehavior) Name() string { return "inf" }

func (infBehavior) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	out := vecmath.Clone(trueGrad)
	out[0] = math.Inf(1)
	return out, nil
}
