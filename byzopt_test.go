package byzopt

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// buildRegression constructs a 6-agent noisy regression through the public
// API only.
func buildRegression(t *testing.T) ([]Cost, []float64) {
	t.Helper()
	rows := [][]float64{
		{1, 0}, {0.8, 0.5}, {0.5, 0.8}, {0, 1}, {-0.5, 0.8}, {-0.8, 0.5},
	}
	xstar := []float64{1, 1}
	costs := make([]Cost, len(rows))
	for i, row := range rows {
		b := row[0]*xstar[0] + row[1]*xstar[1]
		c, err := SingleObservationCost(row, b)
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = c
	}
	return costs, xstar
}

func TestPublicAPIEndToEnd(t *testing.T) {
	costs, xstar := buildRegression(t)
	agents, err := HonestAgents(costs)
	if err != nil {
		t.Fatal(err)
	}
	behavior, err := NewBehavior("gradient-reverse", 0)
	if err != nil {
		t.Fatal(err)
	}
	agents[0], err = ByzantineAgent(agents[0], behavior)
	if err != nil {
		t.Fatal(err)
	}
	filter, err := NewFilter("cge")
	if err != nil {
		t.Fatal(err)
	}
	box, err := NewCube(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Agents:    agents,
		F:         1,
		Filter:    filter,
		Steps:     Diminishing{C: 1.5, P: 1},
		Box:       box,
		X0:        []float64{0, 0},
		Rounds:    400,
		Reference: xstar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Trace.Dist[len(res.Trace.Dist)-1]; d > 0.05 {
		t.Errorf("final distance = %v", d)
	}
}

// TestPublicBackendsAgree: one Config, all three public backends, identical
// trajectories — with a TraceRecorder observer riding along.
func TestPublicBackendsAgree(t *testing.T) {
	build := func() Config {
		costs, xstar := buildRegression(t)
		agents, err := HonestAgents(costs)
		if err != nil {
			t.Fatal(err)
		}
		filter, err := NewFilter("cge")
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Agents:    agents,
			F:         1,
			Filter:    filter,
			X0:        []float64{0, 0},
			Rounds:    80,
			Reference: xstar,
		}
	}
	ctx := context.Background()
	run := func(b Backend) (*Result, *TraceRecorder) {
		t.Helper()
		cfg := build()
		rec := &TraceRecorder{}
		cfg.Observer = rec
		res, err := b.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}
	inproc, inprocRec := run(InProcessBackend())
	for name, backend := range map[string]Backend{
		"cluster": ClusterBackend(time.Second),
		"p2p":     P2PBackend(),
	} {
		other, otherRec := run(backend)
		for i := range inproc.X {
			if inproc.X[i] != other.X[i] {
				t.Fatalf("%s backend disagrees on the estimate: %v vs %v", name, inproc.X, other.X)
			}
		}
		if len(inprocRec.Dist) != len(otherRec.Dist) {
			t.Fatalf("%s observer series lengths differ: %d vs %d", name, len(inprocRec.Dist), len(otherRec.Dist))
		}
		for i := range inprocRec.Dist {
			if inprocRec.Dist[i] != otherRec.Dist[i] {
				t.Fatalf("%s observer distance series diverges at round %d", name, i)
			}
		}
	}
}

// TestPublicRunContextCancellation: the public RunContext and SweepContext
// surface wrapped context errors.
func TestPublicRunContextCancellation(t *testing.T) {
	costs, _ := buildRegression(t)
	agents, err := HonestAgents(costs)
	if err != nil {
		t.Fatal(err)
	}
	filter, err := NewFilter("mean")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Config{
		Agents: agents, F: 0, Filter: filter, X0: []float64{0, 0}, Rounds: 10,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext: want context.Canceled, got %v", err)
	}
	if _, err := SweepContext(ctx, SweepSpec{
		Filters: []string{"cge"}, Behaviors: []string{"zero"}, Rounds: 10,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("SweepContext: want context.Canceled, got %v", err)
	}
}

func TestPublicTheoryRoundTrip(t *testing.T) {
	rows := [][]float64{
		{1, 0}, {0.8, 0.5}, {0.5, 0.8}, {0, 1}, {-0.5, 0.8}, {-0.8, 0.5},
	}
	b := []float64{0.9108, 1.3349, 1.3376, 1.0033, 0.2142, -0.3615}
	prob, err := RegressionProblem(rows, b)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MeasureRedundancy(prob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Epsilon-0.0890) > 5e-4 {
		t.Errorf("epsilon = %v, want 0.0890", rep.Epsilon)
	}
	ex, err := ExhaustiveResilient(prob, 1)
	if err != nil {
		t.Fatal(err)
	}
	honest := []int{0, 1, 2, 3, 4, 5}
	resil, err := MeasureResilience(prob, 1, honest, ex.X)
	if err != nil {
		t.Fatal(err)
	}
	if resil.MaxDistance > 2*rep.Epsilon+1e-9 {
		t.Errorf("Theorem 2 violated through public API: %v > %v", resil.MaxDistance, 2*rep.Epsilon)
	}
}

func TestPublicBoundsAndFeasibility(t *testing.T) {
	if Feasible(6, 3) {
		t.Error("f = n/2 must be infeasible")
	}
	if !Feasible(6, 1) {
		t.Error("f = 1, n = 6 must be feasible")
	}
	if _, err := CGEBoundTheorem5(6, 1, 2, 0.712); err != nil {
		t.Errorf("Theorem 5 on the paper instance: %v", err)
	}
	if _, err := CGEBoundTheorem4(6, 1, 2, 0.712); err == nil {
		t.Error("Theorem 4 should be inapplicable on the paper instance")
	}
	if _, err := CWTMBoundTheorem6(6, 1, 2, 2, 0.712, 0.1); err != nil {
		t.Errorf("Theorem 6: %v", err)
	}
}

func TestPublicRegistries(t *testing.T) {
	if len(FilterNames()) < 8 {
		t.Errorf("filter registry too small: %v", FilterNames())
	}
	for _, name := range FilterNames() {
		if _, err := NewFilter(name); err != nil {
			t.Errorf("NewFilter(%q): %v", name, err)
		}
	}
	if len(BehaviorNames()) < 4 {
		t.Errorf("behavior registry too small: %v", BehaviorNames())
	}
	for _, name := range BehaviorNames() {
		if _, err := NewBehavior(name, 1); err != nil {
			t.Errorf("NewBehavior(%q): %v", name, err)
		}
	}
}

func TestPublicCostConstructors(t *testing.T) {
	c, err := LeastSquaresCost([][]float64{{1, 0}, {0, 1}}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Eval([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-13) > 1e-12 {
		t.Errorf("eval = %v", v)
	}
	costs, _ := buildRegression(t)
	sum, err := SumCost(costs...)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Dim() != 2 {
		t.Errorf("sum dim = %d", sum.Dim())
	}
}

func TestPublicSweepAPI(t *testing.T) {
	spec := SweepSpec{
		Filters:   []string{"cge", "cwtm"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		Rounds:    40,
		Workers:   4,
	}
	scns, err := SweepScenarios(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) != 2 {
		t.Fatalf("expected 2 scenarios, got %d", len(scns))
	}
	results, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(scns) {
		t.Fatalf("expected %d results, got %d", len(scns), len(results))
	}
	var buf strings.Builder
	if err := WriteSweepJSON(&buf, results, false); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status() != "ok" {
			t.Errorf("%s: %s", r.Key(), r.Err)
		}
		if math.IsNaN(r.FinalDist) || r.FinalDist < 0 {
			t.Errorf("%s: bad distance %v", r.Key(), r.FinalDist)
		}
	}
	if !strings.Contains(buf.String(), `"filter": "cge"`) {
		t.Errorf("JSON export missing scenario axes:\n%s", buf.String())
	}
}

// TestPublicAsyncAPI exercises the asynchronous round model through the
// facade: a zero-latency wait-all AsyncConfig reproduces the synchronous
// run bitwise, a straggler configuration reports round stats through
// TraceRecorder, and the sweep's Asyncs axis expands and runs.
func TestPublicAsyncAPI(t *testing.T) {
	costs, _ := buildRegression(t)
	mkConfig := func(async *AsyncConfig, obs RoundObserver) Config {
		agents, err := HonestAgents(costs)
		if err != nil {
			t.Fatal(err)
		}
		filter, err := NewFilter("cge")
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Agents:   agents,
			Filter:   filter,
			Steps:    Diminishing{C: 1.5, P: 1},
			X0:       []float64{0, 0},
			Rounds:   80,
			Async:    async,
			Observer: obs,
		}
	}
	sync, err := Run(mkConfig(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	async, err := Run(mkConfig(&AsyncConfig{Policy: CollectWaitAll, Seed: 9}, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sync.X {
		if sync.X[i] != async.X[i] {
			t.Fatalf("zero-latency wait-all diverges from sync at coordinate %d", i)
		}
	}
	rec := &TraceRecorder{OmitEstimates: true}
	straggled, err := Run(mkConfig(&AsyncConfig{
		Latency: LatencyModel{Kind: LatencyUniform, Base: 0.2, Spread: 1, StragglerRate: 0.3, StragglerFactor: 8},
		Policy:  CollectFirstK,
		K:       4,
		Stale:   StaleReuse,
		Seed:    9,
	}, rec))
	if err != nil {
		t.Fatal(err)
	}
	if len(straggled.X) != 2 {
		t.Fatalf("bad async result: %+v", straggled)
	}
	if len(rec.Async) != 80 {
		t.Fatalf("recorded %d async rounds, want 80", len(rec.Async))
	}
	for tt, s := range rec.Async {
		if s.Round != tt || s.Arrived != 4 {
			t.Fatalf("round %d stats = %+v, want 4 fresh arrivals", tt, s)
		}
	}

	results, err := Sweep(SweepSpec{
		Filters:   []string{"cge"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		Rounds:    30,
		Asyncs: []AsyncSpec{
			{},
			{Latency: LatencyFixed, Base: 1, StragglerRate: 0.25, StragglerFactor: 5,
				Policy: CollectDeadline, Deadline: 2, Stale: StaleWeighted},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("async sweep expanded %d cells, want 2", len(results))
	}
	if results[0].Async != "" || results[1].Async == "" {
		t.Fatalf("async key components wrong: %q / %q", results[0].Async, results[1].Async)
	}
	for _, r := range results {
		if r.Status() != "ok" {
			t.Errorf("%s: %s", r.Key(), r.Err)
		}
	}
	if results[1].AsyncMeanArrived <= 0 {
		t.Errorf("async cell reported mean arrived %v", results[1].AsyncMeanArrived)
	}
}

// TestPublicProblemRegistry exercises the sweep-workload registry through
// the public API: the built-in names are listed, lookups resolve, a
// learning sweep runs with its accuracy metric, and a user problem
// registered at runtime is sweepable by name.
func TestPublicProblemRegistry(t *testing.T) {
	names := ProblemNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"paper", "synthetic", "learning", "learning-b", "learning-mlp", "sensing", "robustmean"} {
		if !have[want] {
			t.Fatalf("registry missing %q (have %v)", want, names)
		}
	}
	if _, err := LookupProblem("learning"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupProblem("definitely-not-registered"); err == nil {
		t.Error("unknown problem lookup should fail")
	}

	results, err := Sweep(SweepSpec{
		Problem:   "learning",
		Filters:   []string{"cwtm"},
		Behaviors: []string{"label-flip"},
		FValues:   []int{3},
		NValues:   []int{10},
		Dims:      []int{20},
		Steps:     []StepSchedule{ConstantStep{Eta: 0.01}},
		Rounds:    3,
		Baselines: []bool{false, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("expected faulted + baseline scenarios, got %d", len(results))
	}
	for _, r := range results {
		if r.Status() != "ok" {
			t.Fatalf("%s: %s", r.Key(), r.Err)
		}
		if r.MetricName != "test_accuracy" || r.MetricFinal <= 0 {
			t.Errorf("%s: metric not recorded (%q, %v)", r.Key(), r.MetricName, r.MetricFinal)
		}
	}

	custom := &LearningProblem{ProblemName: "public-api-learning", Preset: "b"}
	if err := RegisterProblem(custom); err != nil {
		t.Fatal(err)
	}
	if err := RegisterProblem(custom); err == nil {
		t.Error("duplicate registration should fail")
	}
	again, err := Sweep(SweepSpec{
		Problem: "public-api-learning",
		Filters: []string{"cge-avg"},
		FValues: []int{0},
		NValues: []int{10},
		Dims:    []int{20},
		Steps:   []StepSchedule{ConstantStep{Eta: 0.01}},
		Rounds:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0].Status() != "ok" || again[0].Problem != "public-api-learning" {
		t.Fatalf("registered problem did not sweep: %+v", again)
	}
}

// TestPublicFilterRegistry exercises the redesigned filter-registry facade:
// parameterized spellings resolve, the REDGRAF filters and their aliases are
// live, family prefixes are listed, extension registers work, and unknown
// names fail with the full vocabulary in the message.
func TestPublicFilterRegistry(t *testing.T) {
	fl, err := NewFilter("multikrum-7")
	if err != nil {
		t.Fatal(err)
	}
	if mk, ok := fl.(MultiKrum); !ok || mk.M != 7 {
		t.Fatalf("NewFilter(multikrum-7) = %#v", fl)
	}
	for _, name := range []string{"sdmmfd", "r-sdmmfd", "sdfd", "rvo"} {
		if _, err := NewFilter(name); err != nil {
			t.Errorf("NewFilter(%q): %v", name, err)
		}
	}
	var _ Filter = &SDMMFD{}
	var _ Filter = &RSDMMFD{}
	var _ Filter = &SDFD{}
	var _ Filter = RVO{}
	var _ SeedConfigurable = &SDMMFD{}

	prefixes := FilterFamilyPrefixes()
	haveFamily := map[string]bool{}
	for _, p := range prefixes {
		haveFamily[p] = true
	}
	if !haveFamily["multikrum"] || !haveFamily["gmom"] {
		t.Errorf("family prefixes missing built-ins: %v", prefixes)
	}

	if err := RegisterFilter("public-api-mean", func() Filter { return Mean{} }); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFilter("public-api-mean"); err != nil {
		t.Errorf("registered filter not constructible: %v", err)
	}
	if err := RegisterFilterParam("public-api-mk", func(m int) (Filter, error) {
		return MultiKrum{M: m}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if fl, err := NewFilter("public-api-mk-4"); err != nil {
		t.Errorf("registered family not constructible: %v", err)
	} else if mk, ok := fl.(MultiKrum); !ok || mk.M != 4 {
		t.Errorf("public-api-mk-4 = %#v", fl)
	}

	_, err = NewFilter("no-such-filter")
	if err == nil {
		t.Fatal("unknown filter accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "registered:") || !strings.Contains(msg, "parameterized:") {
		t.Errorf("unknown-filter error does not list the registry: %s", msg)
	}
}

// TestPublicTraceMetrics exercises the trace-metric facade end to end: the
// built-in convergence-geometry metrics are listed and resolvable, a sweep
// run through the facade reports them, and a custom registered metric shows
// up in the same export.
func TestPublicTraceMetrics(t *testing.T) {
	names := TraceMetricNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{TraceMetricConvergenceRate, TraceMetricConvergenceRadius, TraceMetricConsensusDiameter} {
		if !have[want] {
			t.Fatalf("trace-metric registry missing %q (have %v)", want, names)
		}
		if _, ok := LookupTraceMetric(want); !ok {
			t.Fatalf("LookupTraceMetric(%q) failed", want)
		}
	}
	if _, ok := LookupTraceMetric("no-such-metric"); ok {
		t.Error("unknown metric lookup should fail")
	}

	if err := RegisterTraceMetric(TraceMetric{
		Name: "public-api-final-dist",
		Eval: func(in TraceMetricInput) (float64, []float64, error) {
			return in.Dist[len(in.Dist)-1], nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	results, err := Sweep(SweepSpec{
		Filters:   []string{"cwtm", "sdmmfd"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		Rounds:    40,
		TraceMetrics: []string{
			TraceMetricConvergenceRate, TraceMetricConvergenceRadius,
			TraceMetricConsensusDiameter, "public-api-final-dist",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status() != "ok" {
			t.Fatalf("%s: %s", r.Key(), r.Err)
		}
		if len(r.TraceMetrics) != 4 {
			t.Fatalf("%s: got metrics %v, want 4 entries", r.Key(), r.TraceMetrics)
		}
		if got := r.TraceMetrics["public-api-final-dist"]; math.Float64bits(got) != math.Float64bits(r.FinalDist) {
			t.Errorf("%s: custom metric %v != FinalDist %v", r.Key(), got, r.FinalDist)
		}
		rate := r.TraceMetrics[TraceMetricConvergenceRate]
		if math.IsNaN(rate) || rate <= 0 {
			t.Errorf("%s: implausible convergence rate %v", r.Key(), rate)
		}
	}
}
