package dgd

// Gates for the zero-allocation steady-state round loop: with Into-capable
// agents and an Into-capable filter, a round of the in-process engine must
// perform zero heap allocations, and the Into path must be bitwise
// indistinguishable from the legacy allocating path.

import (
	"math"
	"math/rand"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/vecmath"
)

// legacyAgent strips every Into face off an agent, forcing the engine's
// allocating fallback (honest side).
type legacyAgent struct{ inner Agent }

func (l legacyAgent) Gradient(round int, x []float64) ([]float64, error) {
	return l.inner.Gradient(round, x)
}

// legacyFaultyAgent strips the Into faces while staying Faulty.
type legacyFaultyAgent struct{ inner Faulty }

func (l legacyFaultyAgent) Gradient(round int, x []float64) ([]float64, error) {
	return l.inner.Gradient(round, x)
}

func (l legacyFaultyAgent) FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error) {
	return l.inner.FaultyGradient(round, agent, x, honest)
}

// legacyFilter strips the IntoFilter face off a filter, forcing the
// engines' allocating aggregation path.
type legacyFilter struct{ inner aggregate.Filter }

func (l legacyFilter) Name() string { return l.inner.Name() }

func (l legacyFilter) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return l.inner.Aggregate(grads, f)
}

// legacyKeyedFilter is legacyFilter for round-keyed filters: the Into face
// goes, but the engine-owned clock stays, since round keying is orthogonal
// to which aggregation path runs (the sketch and stateful REDGRAF filters
// consume SetRound on both).
type legacyKeyedFilter struct{ legacyFilter }

func (l legacyKeyedFilter) SetRound(t int) { l.inner.(aggregate.RoundKeyed).SetRound(t) }

// stripFilterInto wraps a filter with its legacy face, preserving round
// keying when present.
func stripFilterInto(inner aggregate.Filter) aggregate.Filter {
	if _, ok := inner.(aggregate.RoundKeyed); ok {
		return legacyKeyedFilter{legacyFilter{inner: inner}}
	}
	return legacyFilter{inner: inner}
}

// stripInto converts an agent list to its legacy faces.
func stripInto(agents []Agent) []Agent {
	out := make([]Agent, len(agents))
	for i, a := range agents {
		if fa, ok := a.(Faulty); ok {
			out[i] = legacyFaultyAgent{inner: fa}
		} else {
			out[i] = legacyAgent{inner: a}
		}
	}
	return out
}

// allocConfig builds the steady-state workload: n single-observation
// regression agents (Into-capable through costfunc's GradInto), CWTM, a box,
// and a reference-distance trace.
func allocConfig(tb testing.TB, n, d, rounds int) Config {
	tb.Helper()
	r := rand.New(rand.NewSource(31))
	agents := make([]Agent, n)
	for i := range agents {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		cost, err := costfunc.NewObservation(row, r.NormFloat64())
		if err != nil {
			tb.Fatal(err)
		}
		agents[i], err = NewHonest(cost)
		if err != nil {
			tb.Fatal(err)
		}
	}
	box, err := vecmath.NewCube(d, 100)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		Agents:    agents,
		F:         1,
		Filter:    aggregate.CWTM{},
		Box:       box,
		X0:        make([]float64, d),
		Rounds:    rounds,
		Reference: vecmath.Ones(d),
	}
}

// TestSteadyStateAllocs proves the tentpole claim: once per-run setup is
// paid, an in-process DGD round with Into-capable agents and an
// Into-capable filter allocates nothing. Measured as the difference between
// a 1-round and a 101-round run — setup (estimate clone, arena, scratch,
// trace headroom, lazy cost buffers) is identical in both, so any per-round
// allocation would surface 100-fold.
func TestSteadyStateAllocs(t *testing.T) {
	// CWTM is the canonical stateless Into filter; SDMMFD additionally
	// carries its auxiliary center across rounds through the engine's
	// scratch, which must stay in the reused buffers. The named behaviors are
	// the paper grid's: two Byzantine agents report through them, their true
	// gradient and its rewrite both landing in the agents' arena rows.
	// A FilterObserver that allocates nothing keeps the round at zero: the
	// face costs the kernel one call.
	cases := []struct {
		filter   aggregate.Filter
		behavior string
		observer *filterCalls
	}{
		{aggregate.CWTM{}, "", nil}, {&aggregate.SDMMFD{}, "", nil},
		{aggregate.CWTM{}, "gradient-reverse", nil}, {aggregate.CWTM{}, "random", nil},
		{aggregate.CWTM{}, "ipm", nil}, {aggregate.CWTM{}, "alie", nil},
		{aggregate.CWTM{}, "gradient-reverse", &filterCalls{}},
	}
	for _, tc := range cases {
		name := tc.filter.Name()
		if tc.behavior != "" {
			name += "/" + tc.behavior
		}
		if tc.observer != nil {
			name += "/filter-observer"
		}
		t.Run(name, func(t *testing.T) {
			cfg := allocConfig(t, 10, 16, 1)
			cfg.Filter = tc.filter
			if tc.observer != nil {
				cfg.Observer = tc.observer
			}
			if tc.behavior != "" {
				behavior, err := byzantine.New(tc.behavior, 7)
				if err != nil {
					t.Fatal(err)
				}
				cfg.F = 2
				for i := 0; i < cfg.F; i++ {
					if cfg.Agents[i], err = NewFaulty(cfg.Agents[i], behavior); err != nil {
						t.Fatal(err)
					}
				}
			}
			long := cfg
			long.Rounds = 101

			runOnce := func(c Config) func() {
				return func() {
					if _, err := Run(c); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm the lazy per-cost gradient buffers shared by both measurements.
			runOnce(cfg)()

			base := testing.AllocsPerRun(10, runOnce(cfg))
			extended := testing.AllocsPerRun(10, runOnce(long))
			if perRound := (extended - base) / 100; perRound > 0 {
				t.Fatalf("steady-state round allocates: %.2f allocs/round (1-round run %.0f, 101-round run %.0f)",
					perRound, base, extended)
			}

			// The kernel on its own: once warm, Apply over a fixed report
			// table allocates nothing.
			round, err := NewRound(cfg, len(cfg.Agents))
			if err != nil {
				t.Fatal(err)
			}
			reports, err := NewCollector(cfg.Agents, len(cfg.X0)).Collect(0, round.X())
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			apply := func() {
				if err := round.Apply(next, cfg.F, reports); err != nil {
					t.Fatal(err)
				}
				next++
			}
			apply()
			if allocs := testing.AllocsPerRun(100, apply); allocs > 0 {
				t.Fatalf("Round.Apply allocates: %.2f allocs/round", allocs)
			}
			if tc.observer != nil && tc.observer.calls < next {
				t.Fatalf("the filter observer saw %d of at least %d filter calls", tc.observer.calls, next)
			}
		})
	}
}

// filterCalls is a FilterObserver that counts calls and allocates nothing.
type filterCalls struct{ calls int }

func (o *filterCalls) ObserveRound(int, []float64, float64, float64) error { return nil }

func (o *filterCalls) ObserveFilter(int, int, [][]float64, []float64) error {
	o.calls++
	return nil
}

// TestLegacyPathStillAllocates documents the fallback: stripping the Into
// faces must leave behavior identical (see the parity tests) but brings the
// allocating path back — guarding against the legacy wrappers silently
// becoming Into-capable and invalidating the benchmark comparison.
func TestLegacyPathStillAllocates(t *testing.T) {
	cfg := allocConfig(t, 10, 16, 1)
	cfg.Agents = stripInto(cfg.Agents)
	cfg.Filter = legacyFilter{inner: aggregate.CWTM{}}
	long := cfg
	long.Rounds = 101
	base := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	extended := testing.AllocsPerRun(5, func() {
		if _, err := Run(long); err != nil {
			t.Fatal(err)
		}
	})
	if extended-base == 0 {
		t.Fatal("legacy path reports zero allocs/round; the alloc-vs-into benchmark baseline is broken")
	}
}

// TestFaultyGradientAllocs bounds the allocating face, the one
// transport.ServeAgent calls: the report itself and nothing else, where the
// path it replaced allocated three times.
func TestFaultyGradientAllocs(t *testing.T) {
	cfg := allocConfig(t, 10, 16, 1)
	x := vecmath.Ones(16)
	honest, err := NewCollector(cfg.Agents[2:], len(x)).Collect(0, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range byzantine.Names() {
		behavior, err := byzantine.New(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := NewFaulty(cfg.Agents[0], behavior)
		if err != nil {
			t.Fatal(err)
		}
		for _, sees := range [][][]float64{nil, honest} {
			round := 0
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := agent.(Faulty).FaultyGradient(round, 0, x, sees); err != nil {
					t.Fatal(err)
				}
				round++
			}); allocs > 1 {
				t.Errorf("%s: FaultyGradient allocates %.2f times per report, want 1", name, allocs)
			}
		}
	}
}

// trajectoryOf runs the config and returns every recorded estimate.
func trajectoryOf(t *testing.T, cfg Config) [][]float64 {
	t.Helper()
	rec := &TraceRecorder{}
	cfg.Observer = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return rec.X
}

// TestIntoPathBitwiseMatchesLegacyPath pins the tentpole's determinism
// contract on the in-process engine: the Into path (arena + GradientInto +
// AggregateInto) and the legacy path (allocating Gradient/Aggregate) must
// produce bitwise-identical estimates at every round, for every registered
// filter, in fault-free and Byzantine (omniscient included) configurations.
func TestIntoPathBitwiseMatchesLegacyPath(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const n, d = 11, 6
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64()
		}
	}
	xstar := vecmath.Ones(d)
	for _, behaviorName := range []string{"", "gradient-reverse", "alie"} {
		for _, filterName := range aggregate.Names() {
			filter, err := aggregate.New(filterName)
			if err != nil {
				t.Fatal(err)
			}
			build := func(strip bool) Config {
				agents, _, _ := regressionAgents(t, rows, xstar)
				if behaviorName != "" {
					b, err := byzantine.New(behaviorName, 7)
					if err != nil {
						t.Fatal(err)
					}
					fa, err := NewFaulty(agents[0], b)
					if err != nil {
						t.Fatal(err)
					}
					agents[0] = fa
				}
				if strip {
					agents = stripInto(agents)
				}
				cfg := Config{
					Agents: agents,
					F:      1,
					Filter: filter,
					X0:     make([]float64, d),
					Rounds: 40,
				}
				if strip {
					cfg.Filter = stripFilterInto(filter)
				}
				return cfg
			}
			into := trajectoryOf(t, build(false))
			legacy := trajectoryOf(t, build(true))
			if len(into) != len(legacy) {
				t.Fatalf("%s/%s: trajectory lengths differ", filterName, behaviorName)
			}
			for round := range into {
				for j := range into[round] {
					if math.Float64bits(into[round][j]) != math.Float64bits(legacy[round][j]) {
						t.Fatalf("%s/%s: estimate diverges at round %d coord %d: into %v legacy %v",
							filterName, behaviorName, round, j, into[round][j], legacy[round][j])
					}
				}
			}
		}
	}
}

// TestCollectorFallbackMix runs a mixed pool — Into-capable honest agents,
// a legacy honest agent, an Into-capable Byzantine wrapper, and a legacy
// Byzantine wrapper — and checks the filter input is identical to the
// all-legacy collection, exercising the per-agent fallback dispatch.
func TestCollectorFallbackMix(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	fa, err := NewFaulty(agents[1], byzantine.GradientReverse{})
	if err != nil {
		t.Fatal(err)
	}
	agents[1] = fa
	fa2, err := NewFaulty(agents[2], byzantine.InnerProductManipulation{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	agents[2] = legacyFaultyAgent{inner: fa2.(Faulty)}
	agents[3] = legacyAgent{inner: agents[3]}

	x := []float64{0.4, -0.9}
	mixed, err := NewCollector(agents, len(x)).Collect(3, x)
	if err != nil {
		t.Fatal(err)
	}
	all, err := NewCollector(stripInto(agents), len(x)).Collect(3, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mixed {
		if !approxEqual(mixed[i], all[i], 0) {
			t.Errorf("agent %d: mixed collection %v differs from legacy %v", i, mixed[i], all[i])
		}
	}
}
