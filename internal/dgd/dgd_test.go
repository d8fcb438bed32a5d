package dgd

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/vecmath"
)

// regressionAgents builds n honest single-row least-squares agents whose
// aggregate minimizes at xstar, plus the aggregate cost for tracking.
func regressionAgents(t *testing.T, rows [][]float64, xstar []float64) ([]Agent, []costfunc.Differentiable, *costfunc.Sum) {
	t.Helper()
	costs := make([]costfunc.Differentiable, len(rows))
	for i, row := range rows {
		b := 0.0
		for j := range row {
			b += row[j] * xstar[j]
		}
		c, err := costfunc.NewObservation(row, b)
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = c
	}
	agents, err := HonestAgents(costs)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := costfunc.NewSum(costs...)
	if err != nil {
		t.Fatal(err)
	}
	return agents, costs, sum
}

var testRows = [][]float64{
	{1, 0}, {0.8, 0.5}, {0.5, 0.8}, {0, 1}, {-0.5, 0.8}, {-0.8, 0.5},
}

func testBox(t *testing.T) *vecmath.Box {
	t.Helper()
	b, err := vecmath.NewCube(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFaultFreeConvergesToMinimum(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, sum := regressionAgents(t, testRows, xstar)
	res, err := Run(Config{
		Agents:    agents,
		F:         0,
		Filter:    aggregate.Mean{},
		Steps:     Diminishing{C: 1.5, P: 1},
		Box:       testBox(t),
		X0:        []float64{0, 0},
		Rounds:    500,
		TrackLoss: sum,
		Reference: xstar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(res.X, xstar, 1e-3) {
		t.Fatalf("final = %v, want %v", res.X, xstar)
	}
	if got := res.Trace.Dist[len(res.Trace.Dist)-1]; got > 1e-3 {
		t.Errorf("final distance = %v", got)
	}
	if len(res.Trace.Loss) != 501 || len(res.Trace.Dist) != 501 {
		t.Errorf("trace lengths = %d, %d, want 501", len(res.Trace.Loss), len(res.Trace.Dist))
	}
	// Loss is (eventually) decreasing: final much lower than initial.
	if res.Trace.Loss[len(res.Trace.Loss)-1] > res.Trace.Loss[0]/10 {
		t.Errorf("loss barely decreased: %v -> %v", res.Trace.Loss[0], res.Trace.Loss[len(res.Trace.Loss)-1])
	}
}

func TestCGEWithGradientReverseConverges(t *testing.T) {
	xstar := []float64{1, 1}
	agents, costs, _ := regressionAgents(t, testRows, xstar)
	// Agent 0 turns Byzantine, reversing its gradient. Honest aggregate
	// (agents 1..5) still minimizes at xstar because the data is noise-free.
	fa, err := NewFaulty(agents[0], byzantine.GradientReverse{})
	if err != nil {
		t.Fatal(err)
	}
	agents[0] = fa
	honestSum, err := costfunc.NewSum(costs[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Agents:    agents,
		F:         1,
		Filter:    aggregate.CGE{},
		Box:       testBox(t),
		X0:        []float64{-0.0085, -0.5643},
		Rounds:    500,
		TrackLoss: honestSum,
		Reference: xstar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Trace.Dist[len(res.Trace.Dist)-1]; d > 0.05 {
		t.Errorf("CGE final distance = %v", d)
	}
}

func TestCWTMWithGradientReverseConverges(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	fa, err := NewFaulty(agents[0], byzantine.GradientReverse{})
	if err != nil {
		t.Fatal(err)
	}
	agents[0] = fa
	res, err := Run(Config{
		Agents:    agents,
		F:         1,
		Filter:    aggregate.CWTM{},
		Box:       testBox(t),
		X0:        []float64{-0.0085, -0.5643},
		Rounds:    500,
		Reference: xstar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Trace.Dist[len(res.Trace.Dist)-1]; d > 0.05 {
		t.Errorf("CWTM final distance = %v", d)
	}
}

func TestPlainMeanFailsUnderAttack(t *testing.T) {
	// The paper's plain-GD baseline: averaging with a large-magnitude
	// Byzantine agent stays far from the honest minimizer.
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	big, err := byzantine.NewConstant([]float64{500, 500})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := NewFaulty(agents[0], big)
	if err != nil {
		t.Fatal(err)
	}
	agents[0] = fa
	res, err := Run(Config{
		Agents:    agents,
		F:         1,
		Filter:    aggregate.Mean{},
		Box:       testBox(t),
		X0:        []float64{0, 0},
		Rounds:    300,
		Reference: xstar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Trace.Dist[len(res.Trace.Dist)-1]; d < 1 {
		t.Errorf("plain mean unexpectedly resisted the attack: distance %v", d)
	}
}

func TestEstimatesStayInBox(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	box, err := vecmath.NewCube(2, 0.5) // tight box excluding xstar
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	_, err = Run(Config{
		Agents: agents,
		F:      0,
		Filter: aggregate.Mean{},
		Box:    box,
		X0:     []float64{5, -5}, // outside; must be projected in
		Rounds: 50,
		Observer: ObserverFunc(func(t int, x []float64, loss, dist float64) error {
			for _, v := range x {
				if math.Abs(v) > 0.5 {
					violations++
					break
				}
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("%d estimates escaped the box", violations)
	}
}

func TestOmniscientBehaviorSeesHonestGradients(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	seen := 0
	spy := &spyOmniscient{onApply: func(honest [][]float64) { seen = len(honest) }}
	fa, err := NewFaulty(agents[0], spy)
	if err != nil {
		t.Fatal(err)
	}
	agents[0] = fa
	if _, err := Run(Config{
		Agents: agents,
		F:      1,
		Filter: aggregate.CWTM{},
		X0:     []float64{0, 0},
		Rounds: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Errorf("omniscient behavior saw %d honest gradients, want 5", seen)
	}
}

// spyOmniscient records how many honest gradients it is shown.
type spyOmniscient struct {
	onApply func(honest [][]float64)
}

func (s *spyOmniscient) Name() string { return "spy" }

func (s *spyOmniscient) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return vecmath.Clone(trueGrad), nil
}

func (s *spyOmniscient) ApplyOmniscient(round, agentID int, trueGrad []float64, honestGrads [][]float64) ([]float64, error) {
	s.onApply(honestGrads)
	return vecmath.Clone(trueGrad), nil
}

// wrongDimBehavior reports one coordinate too many.
type wrongDimBehavior struct{}

func (wrongDimBehavior) Name() string { return "wrong-dim" }

func (wrongDimBehavior) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return make([]float64, len(trueGrad)+1), nil
}

// TestBehaviorWithoutIntoFace: a behavior that only implements
// byzantine.Behavior (or Omniscient) is adapted once in NewFaulty and reports
// on every face of the wrapper exactly what its own methods return; a report
// of the wrong dimension is a configuration error, not a truncated copy.
func TestBehaviorWithoutIntoFace(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	x := []float64{0.3, -0.2}
	trueGrad, err := agents[0].Gradient(0, x)
	if err != nil {
		t.Fatal(err)
	}
	honest := [][]float64{{1, 2}, {3, 4}}
	for _, sees := range [][][]float64{nil, honest} {
		seen := -1
		spy := &spyOmniscient{onApply: func(h [][]float64) { seen = len(h) }}
		fa, err := NewFaulty(agents[0], spy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fa.(Faulty).FaultyGradient(0, 0, x, sees)
		if err != nil {
			t.Fatal(err)
		}
		into := make([]float64, len(x))
		if err := fa.(IntoFaulty).FaultyGradientInto(into, 0, 0, x, sees); err != nil {
			t.Fatal(err)
		}
		if !approxEqual(got, trueGrad, 0) || !approxEqual(into, trueGrad, 0) {
			t.Errorf("spy reports %v and %v, want the true gradient %v", got, into, trueGrad)
		}
		if want := len(sees); sees != nil && seen != want || sees == nil && seen != -1 {
			t.Errorf("honest=%v: spy was shown %d honest gradients", sees != nil, seen)
		}
	}

	fa, err := NewFaulty(agents[0], wrongDimBehavior{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.(Faulty).FaultyGradient(0, 0, x, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("wrong-dimension report: want ErrConfig, got %v", err)
	}
	agents[0] = fa
	if _, err := Run(Config{Agents: agents, F: 1, Filter: aggregate.CWTM{}, X0: []float64{0, 0}, Rounds: 1}); !errors.Is(err, ErrConfig) {
		t.Errorf("run with a wrong-dimension report: want ErrConfig, got %v", err)
	}
}

// innerless is a sleeper fault configured without the behavior it wakes into:
// honest before round activate, then the configuration error that is.
type innerless struct{ activate int }

func (d innerless) Name() string { return fmt.Sprintf("delayed-%d-<nil>", d.activate) }

func (d innerless) Apply(round, _ int, trueGrad []float64) ([]float64, error) {
	if round < d.activate {
		return append([]float64(nil), trueGrad...), nil
	}
	return nil, fmt.Errorf("delayed behavior without inner behavior: %w", byzantine.ErrBadConfig)
}

// TestDelayedWithoutInnerFailsTheRun: the wrapper words a behavior's error
// with the behavior's name, and a sleeper fault configured without its inner
// behavior fails the run with its own error once it wakes.
func TestDelayedWithoutInnerFailsTheRun(t *testing.T) {
	agents, _, _ := regressionAgents(t, testRows, []float64{1, 1})
	fa, err := NewFaulty(agents[0], innerless{activate: 1})
	if err != nil {
		t.Fatal(err)
	}
	agents[0] = fa
	_, err = Run(Config{Agents: agents, F: 1, Filter: aggregate.CWTM{}, X0: []float64{0, 0}, Rounds: 3})
	if !errors.Is(err, byzantine.ErrBadConfig) {
		t.Fatalf("want byzantine.ErrBadConfig, got %v", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	xstar := []float64{1, 1}
	build := func() Config {
		agents, _, _ := regressionAgents(t, testRows, xstar)
		rg, err := byzantine.NewRandomGaussian(200, 99)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := NewFaulty(agents[0], rg)
		if err != nil {
			t.Fatal(err)
		}
		agents[0] = fa
		return Config{
			Agents: agents,
			F:      1,
			Filter: aggregate.CGE{},
			Box:    testBox(t),
			X0:     []float64{0, 0},
			Rounds: 100,
		}
	}
	r1, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(r1.X, r2.X, 0) {
		t.Errorf("non-deterministic: %v vs %v", r1.X, r2.X)
	}
}

func TestStepSchedules(t *testing.T) {
	d := Diminishing{C: 1.5, P: 1}
	if math.Abs(d.At(0)-1.5) > 1e-12 || math.Abs(d.At(2)-0.5) > 1e-12 {
		t.Errorf("diminishing At = %v, %v", d.At(0), d.At(2))
	}
	c := Constant{Eta: 0.01}
	if c.At(0) != 0.01 || c.At(1000) != 0.01 {
		t.Error("constant schedule not constant")
	}
	if d.Name() == "" || c.Name() == "" {
		t.Error("schedules must have names")
	}
}

func TestZeroRoundsReturnsProjectedX0(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	box, err := vecmath.NewCube(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Agents: agents,
		F:      0,
		Filter: aggregate.Mean{},
		Box:    box,
		X0:     []float64{5, 5},
		Rounds: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(res.X, []float64{1, 1}, 0) {
		t.Errorf("zero-round result = %v", res.X)
	}
}

func TestConfigValidation(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, sum := regressionAgents(t, testRows, xstar)
	base := Config{Agents: agents, F: 1, Filter: aggregate.CGE{}, X0: []float64{0, 0}, Rounds: 1}

	cases := []struct {
		name   string
		mutate func(c *Config)
	}{
		{"no agents", func(c *Config) { c.Agents = nil }},
		{"nil agent", func(c *Config) { c.Agents = []Agent{nil, agents[0]} }},
		{"f too large", func(c *Config) { c.F = 3 }},
		{"negative f", func(c *Config) { c.F = -1 }},
		{"nil filter", func(c *Config) { c.Filter = nil }},
		{"empty x0", func(c *Config) { c.X0 = nil }},
		{"negative rounds", func(c *Config) { c.Rounds = -1 }},
		{"reference dim", func(c *Config) { c.Reference = []float64{1} }},
		{"loss dim", func(c *Config) {
			one, err := costfunc.NewObservation([]float64{1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.TrackLoss = one
		}},
	}
	_ = sum
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: want ErrConfig, got %v", tc.name, err)
		}
	}
	// Box dim mismatch.
	box, err := vecmath.NewCube(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Box = box
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("box dim: %v", err)
	}
}

func TestObserverErrorAborts(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	sentinel := errors.New("abort")
	_, err := Run(Config{
		Agents: agents,
		F:      0,
		Filter: aggregate.Mean{},
		X0:     []float64{0, 0},
		Rounds: 10,
		Observer: ObserverFunc(func(t int, x []float64, loss, dist float64) error {
			if t == 3 {
				return sentinel
			}
			return nil
		}),
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("want sentinel, got %v", err)
	}
}

func TestNewFaultyValidation(t *testing.T) {
	if _, err := NewFaulty(nil, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("nil behavior: %v", err)
	}
	if _, err := NewHonest(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("nil cost: %v", err)
	}
	one, err := costfunc.NewObservation([]float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HonestAgents([]costfunc.Differentiable{one, nil}); !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "agent 1") {
		t.Errorf("nil cost among many: %v", err)
	}
	// nil inner agent is allowed: the behavior sees a zero gradient.
	fa, err := NewFaulty(nil, byzantine.GradientReverse{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := fa.Gradient(0, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.Norm(g) != 0 {
		t.Errorf("nil inner should yield zero gradient, got %v", g)
	}
}

func TestDivergenceDetected(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	nan, err := byzantine.NewConstant([]float64{math.NaN(), 0})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := NewFaulty(agents[0], nan)
	if err != nil {
		t.Fatal(err)
	}
	agents[0] = fa
	// No box: NaN propagates into the estimate and must be caught.
	_, err = Run(Config{
		Agents: agents,
		F:      1,
		Filter: aggregate.Mean{},
		X0:     []float64{0, 0},
		Rounds: 5,
	})
	if !errors.Is(err, ErrDiverged) {
		t.Errorf("want ErrDiverged, got %v", err)
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
