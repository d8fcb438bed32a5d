package dgd

// Gates for the Collector's one report path: the same bits for agents with
// or without their Into faces, honest reports collected before the
// adversary's, and an arena that a faces-less agent cannot corrupt.

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/vecmath"
)

// collectRun drives the kernel the way RunContext does and returns a copy of
// every round's report table followed by the final estimate.
func collectRun(t *testing.T, cfg Config) [][]float64 {
	t.Helper()
	round, err := NewRound(cfg, len(cfg.Agents))
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(cfg.Agents, len(cfg.X0), nil)
	var out [][]float64
	for r := 0; r < cfg.Rounds; r++ {
		reports, err := col.Collect(r, round.X())
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range reports {
			out = append(out, vecmath.Clone(g))
		}
		if err := round.Apply(r, cfg.F, reports); err != nil {
			t.Fatal(err)
		}
	}
	return append(out, vecmath.Clone(round.X()))
}

// TestCollectorWorkersBitEqual: for every registered behavior at two
// Byzantine agents, the reports of every round and the final estimate are the
// same bits whether the agents write into their arena rows themselves or are
// adapted from their allocating faces.
func TestCollectorWorkersBitEqual(t *testing.T) {
	for _, name := range byzantine.Names() {
		build := func(strip bool) Config {
			cfg := allocConfig(t, 10, 16, 12)
			cfg.F = 2
			for i := 0; i < cfg.F; i++ {
				behavior, err := byzantine.New(name, 7)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Agents[i], err = NewFaulty(cfg.Agents[i], behavior); err != nil {
					t.Fatal(err)
				}
			}
			if strip {
				cfg.Agents = stripInto(cfg.Agents)
			}
			return cfg
		}
		requireSameVectors(t, name+": the Into faces against the allocating ones",
			collectRun(t, build(false)), collectRun(t, build(true)))
	}

	// A coalition that reports once: ten colluders of forty whose behavior is
	// marked byzantine.SharedReport send what the same ten send when each
	// computes its own report (the mark hidden).
	for _, name := range []string{"alie", "ipm"} {
		build := func(mark bool) Config {
			cfg := allocConfig(t, 40, 16, 12)
			cfg.F = 10
			for i := 3; i < 3+cfg.F; i++ {
				behavior, err := byzantine.New(name, 7)
				if err != nil {
					t.Fatal(err)
				}
				if !mark {
					behavior = unmarked{behavior.(byzantine.IntoBehavior)}
				}
				if cfg.Agents[i], err = NewFaulty(cfg.Agents[i], behavior); err != nil {
					t.Fatal(err)
				}
			}
			return cfg
		}
		if got := len(NewCollector(build(true).Agents, 16, nil).followers); got != 9 {
			t.Fatalf("%s: %d of ten equal colluders follow, want 9", name, got)
		}
		if got := len(NewCollector(build(false).Agents, 16, nil).followers); got != 0 {
			t.Fatalf("%s with the mark hidden: %d colluders follow, want none", name, got)
		}
		requireSameVectors(t, name+": shared against each its own",
			collectRun(t, build(false)), collectRun(t, build(true)))
	}
}

func requireSameVectors(t *testing.T, what string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vectors against %d", what, len(want), len(got))
	}
	for k := range want {
		for j := range want[k] {
			if math.Float64bits(want[k][j]) != math.Float64bits(got[k][j]) {
				t.Fatalf("%s: vector %d coord %d: %v against %v", what, k, j, want[k][j], got[k][j])
			}
		}
	}
}

// unmarked hides a behavior's SharedReport face and nothing else.
type unmarked struct{ byzantine.IntoBehavior }

// countedALIE is ALIE, mark included, counting its ApplyInto calls.
type countedALIE struct {
	byzantine.ALittleIsEnough
	calls *atomic.Int64
}

func (c countedALIE) ApplyInto(dst []float64, round, agentID int, trueGrad []float64, honest [][]float64) error {
	c.calls.Add(1)
	return c.ALittleIsEnough.ApplyInto(dst, round, agentID, trueGrad, honest)
}

// sliceALIE is countedALIE holding a slice: a value == cannot compare.
type sliceALIE struct {
	countedALIE
	pad []float64
}

// TestCoalitionReportsOnce counts ApplyInto calls a round: one per coalition
// of equal marked behaviors, one per agent when the values differ, cannot be
// compared, or no honest report is in view.
func TestCoalitionReportsOnce(t *testing.T) {
	const n, d, f, rounds = 12, 4, 4, 5
	for _, tc := range []struct {
		name     string
		behavior func(i int, calls *atomic.Int64) byzantine.Behavior
		honest   bool
		perRound int64
	}{
		{"one coalition", func(_ int, c *atomic.Int64) byzantine.Behavior {
			return countedALIE{byzantine.ALittleIsEnough{Z: 1.5}, c}
		}, true, 1},
		{"two values of Z", func(i int, c *atomic.Int64) byzantine.Behavior {
			return countedALIE{byzantine.ALittleIsEnough{Z: 1.5 + float64(i%2)}, c}
		}, true, 2},
		{"a behavior holding a slice", func(_ int, c *atomic.Int64) byzantine.Behavior {
			return sliceALIE{countedALIE{byzantine.ALittleIsEnough{Z: 1.5}, c}, []float64{1}}
		}, true, f},
		{"no honest agent", func(_ int, c *atomic.Int64) byzantine.Behavior {
			return countedALIE{byzantine.ALittleIsEnough{Z: 1.5}, c}
		}, false, f},
	} {
		var calls atomic.Int64
		agents := allocConfig(t, n, d, rounds).Agents
		if !tc.honest {
			agents = agents[:f]
		}
		for i := 0; i < f; i++ {
			var err error
			if agents[i], err = NewFaulty(agents[i], tc.behavior(i, &calls)); err != nil {
				t.Fatal(err)
			}
		}
		col := NewCollector(agents, d, nil)
		x := make([]float64, d)
		for r := 0; r < rounds; r++ {
			reports, err := col.Collect(r, x)
			if err != nil {
				t.Fatal(err)
			}
			if tc.perRound == 2 && approxEqual(reports[0], reports[1], 0) {
				t.Errorf("%s: agents 0 and 1 differ in Z and sent one vector", tc.name)
			}
		}
		if got := calls.Load(); got != tc.perRound*rounds {
			t.Errorf("%s: %d ApplyInto calls in %d rounds, want %d a round",
				tc.name, got, rounds, tc.perRound)
		}
	}

	// Without a collector nobody holds the honest set (the cluster serves each
	// agent behind its own connection, through Gradient): every agent reports.
	var calls atomic.Int64
	agents := allocConfig(t, n, d, rounds).Agents
	for i := 0; i < f; i++ {
		fa, err := NewFaulty(agents[i], countedALIE{byzantine.ALittleIsEnough{Z: 1.5}, &calls})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fa.Gradient(0, make([]float64, d)); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != f {
		t.Errorf("Gradient on %d agents made %d ApplyInto calls", f, got)
	}
}

// retainingAgent has no Into face and reports in the one slice it keeps,
// len(buf) coordinates whatever the estimate's dimension.
type retainingAgent struct{ buf []float64 }

func (a *retainingAgent) Gradient(round int, x []float64) ([]float64, error) {
	for j := range a.buf {
		a.buf[j] = float64(round + j)
	}
	return a.buf, nil
}

// retainingFaulty is retainingAgent marked Faulty.
type retainingFaulty struct{ retainingAgent }

func (a *retainingFaulty) FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error) {
	return a.Gradient(round, x)
}

// TestCollectorAdaptsFacelessAgents: an agent adapted from its allocating
// face gets the checks the old fallback made — a report of the wrong length
// is ErrConfig — and its report is copied, so a producer that overwrites the
// slice it handed out leaves its arena row as it was.
func TestCollectorAdaptsFacelessAgents(t *testing.T) {
	x := []float64{0, 0, 0}
	bufs := make([][]float64, 4)
	for i := range bufs {
		bufs[i] = make([]float64, len(x))
	}
	agents := []Agent{
		&retainingAgent{buf: bufs[0]},
		&retainingAgent{buf: bufs[1]},
		&retainingFaulty{retainingAgent{buf: bufs[2]}},
		&retainingFaulty{retainingAgent{buf: bufs[3]}},
	}
	col := NewCollector(agents, len(x), nil)
	reports, err := col.Collect(5, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range bufs {
		clear(buf) // the producers overwrite what they handed out
	}
	for i, g := range reports {
		if len(g) != len(x) || g[0] != 5 || g[1] != 6 || g[2] != 7 {
			t.Errorf("agent %d's row reads %v after the producer reused its slice, want [5 6 7]", i, g)
		}
	}

	for _, bad := range []Agent{
		&retainingAgent{buf: make([]float64, len(x)+1)},
		&retainingFaulty{retainingAgent{buf: make([]float64, len(x)-1)}},
	} {
		mixed := append([]Agent{bad}, agents...)
		if _, err := NewCollector(mixed, len(x), nil).Collect(0, x); !errors.Is(err, ErrConfig) {
			t.Errorf("wrong-length report from %T: want ErrConfig, got %v", bad, err)
		}
	}
}

// TestOmniscientSeesAllHonestGradientsInParallel pins the adversary
// semantics: an omniscient behavior observes every honest gradient of the
// round, collected first and in agent order, even when the Byzantine agent
// comes first in the pool. IPM reports -eps * mean(honest), which we can
// check exactly.
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
		g, err := costfunc.Grad(c, x)
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

	grads, err := NewCollector(agents, len(x), nil).Collect(0, x)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(grads[0], want, 0) {
		t.Errorf("omniscient report %v, want %v", grads[0], want)
	}
	for i, g := range grads[1:] {
		if !approxEqual(g, honest[i], 0) {
			t.Errorf("honest slot %d corrupted", i+1)
		}
	}
}

// TestNonFiniteGradientSurfacesAsDivergence covers the aggregate-level
// NaN rejection: a Byzantine NaN report must be classified ErrDiverged, not
// bubble up as a generic filter error.
func TestNonFiniteGradientSurfacesAsDivergence(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	fa, err := NewFaulty(agents[0], infBehavior{})
	if err != nil {
		t.Fatal(err)
	}
	agents[0] = fa
	_, err = Run(Config{
		Agents: agents,
		F:      1,
		Filter: aggregate.CWTM{},
		X0:     []float64{0, 0},
		Rounds: 3,
	})
	if !errors.Is(err, ErrDiverged) {
		t.Errorf("want ErrDiverged, got %v", err)
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
