package sweep

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// geomDist builds the exact geometric distance series C·ρ^t.
func geomDist(c, rho float64, rounds int) []float64 {
	out := make([]float64, rounds+1)
	for t := range out {
		out[t] = c * math.Pow(rho, float64(t))
	}
	return out
}

// TestConvergenceRateRecoversGeometric: on an exactly geometric series the
// least-squares log-fit recovers ρ, and the per-round ratio series is
// constantly ρ after the leading 1.
func TestConvergenceRateRecoversGeometric(t *testing.T) {
	const rho = 0.93
	in := TraceInput{Dist: geomDist(2.5, rho, 40), Rounds: 40}
	final, series, err := convergenceRate(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(final-rho) > 1e-9 {
		t.Errorf("fitted rate %v, want %v", final, rho)
	}
	if len(series) != 41 || series[0] != 1 {
		t.Fatalf("series shape wrong: len=%d head=%v", len(series), series[0])
	}
	for _, v := range series[1:] {
		if math.Abs(v-rho) > 1e-9 {
			t.Fatalf("ratio %v, want %v", v, rho)
		}
	}
	// Zero-crossing distances: ratios after a zero are pinned to 1, the fit
	// uses only positive entries.
	withZero := TraceInput{Dist: []float64{1, 0.5, 0, 0, 0.25, 0.125}, Rounds: 5}
	if _, series, err = convergenceRate(withZero); err != nil {
		t.Fatal(err)
	}
	if series[3] != 1 {
		t.Errorf("ratio after zero distance = %v, want 1", series[3])
	}
}

// TestConvergenceRateRejects: too-short, NaN-bearing, and all-zero distance
// series mark the metric inapplicable (error), never a crash.
func TestConvergenceRateRejects(t *testing.T) {
	for name, dist := range map[string][]float64{
		"short":    {1},
		"nan":      {1, math.NaN(), 0.5},
		"allzero":  {0, 0, 0},
		"onepos":   {1, 0, 0},
		"infinity": {1, math.Inf(1), 2},
	} {
		if _, _, err := convergenceRate(TraceInput{Dist: dist}); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestConvergenceRadiusTailMax: the final value is the maximum over the
// trailing quarter of the series, and the per-round series is the running
// trailing-window maximum.
func TestConvergenceRadiusTailMax(t *testing.T) {
	dist := make([]float64, 20) // window = 5
	for i := range dist {
		dist[i] = 1
	}
	dist[14] = 9 // outside the final window [15,19]
	dist[17] = 3 // inside
	final, series, err := convergenceRadius(TraceInput{Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	if final != 3 {
		t.Errorf("radius %v, want 3 (trailing-window max)", final)
	}
	if series[14] != 9 || series[16] != 9 || series[19] != 3 {
		t.Errorf("running window wrong: s[14]=%v s[16]=%v s[19]=%v", series[14], series[16], series[19])
	}
}

// TestConsensusDiameterBoundingBox: on a trajectory whose trailing quarter
// spans a known box, the diameter is the box diagonal.
func TestConsensusDiameterBoundingBox(t *testing.T) {
	x := make([][]float64, 20) // window = 5
	for i := range x {
		x[i] = []float64{100, -100} // wild early transient, outside the tail
	}
	for i := 15; i < 20; i++ {
		x[i] = []float64{float64(i - 15), 0} // spans [0,4] × {0}
	}
	final, series, err := consensusDiameter(TraceInput{X: x})
	if err != nil {
		t.Fatal(err)
	}
	if final != 4 {
		t.Errorf("diameter %v, want 4", final)
	}
	if len(series) != 20 {
		t.Fatalf("series length %d", len(series))
	}
	if series[0] != 0 {
		t.Errorf("single-point window diameter %v, want 0", series[0])
	}
	if _, _, err := consensusDiameter(TraceInput{}); err == nil {
		t.Error("nil estimates: expected an error")
	}
}

// TestTraceTaskMetricCadence: the in-loop metricRecorder evaluates at
// t % Every == 0 and at the final round and carries the last value forward in
// between, and the test_accuracy trace metric is exactly the series it
// recorded.
func TestTraceTaskMetricCadence(t *testing.T) {
	var evals []int
	wl := &Workload{Metric: &Metric{
		Name:  "test_accuracy",
		Every: 3,
		Eval: func(x []float64) (float64, error) {
			evals = append(evals, int(x[0]))
			return x[0] * 10, nil
		},
	}}
	rec := &metricRecorder{metric: wl.Metric, rounds: 7}
	for round := 0; round <= 7; round++ {
		if err := rec.ObserveRound(round, []float64{float64(round)}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	final, series, err := traceTaskMetric("test_accuracy")(TraceInput{Workload: wl, Rounds: 7, task: rec.series})
	if err != nil {
		t.Fatal(err)
	}
	wantEvals := []int{0, 3, 6, 7}
	if len(evals) != len(wantEvals) {
		t.Fatalf("evaluated at %v, want %v", evals, wantEvals)
	}
	for i, e := range wantEvals {
		if evals[i] != e {
			t.Fatalf("evaluated at %v, want %v", evals, wantEvals)
		}
	}
	if final != 70 || len(series) != 8 {
		t.Errorf("final %v over %d rounds, want 70 over 8", final, len(series))
	}
	if series[4] != 30 { // carry-forward from t=3
		t.Errorf("series[4] = %v, want carry-forward 30", series[4])
	}
	if _, _, err := traceTaskMetric("test_accuracy")(TraceInput{Workload: &Workload{}, Rounds: 7, task: rec.series}); err == nil {
		t.Error("workload without the metric: expected an error")
	}
	if _, _, err := traceTaskMetric("test_accuracy")(TraceInput{Workload: wl, Rounds: 7}); err == nil {
		t.Error("nothing recorded: expected an error")
	}
}

// TestTraceMetricRegistry covers the registry faces: the built-ins resolve,
// names are sorted, and empty/nil/duplicate registrations are rejected.
func TestTraceMetricRegistry(t *testing.T) {
	for _, name := range []string{
		TraceMetricConvergenceRate, TraceMetricConvergenceRadius,
		TraceMetricConsensusDiameter, "test_accuracy",
	} {
		if _, ok := LookupTraceMetric(name); !ok {
			t.Errorf("built-in metric %q not registered", name)
		}
	}
	names := TraceMetricNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("TraceMetricNames not sorted: %v", names)
		}
	}
	if err := RegisterTraceMetric(TraceMetric{Name: ""}); !errors.Is(err, ErrSpec) {
		t.Errorf("empty name: %v", err)
	}
	if err := RegisterTraceMetric(TraceMetric{Name: "x"}); !errors.Is(err, ErrSpec) {
		t.Errorf("nil Eval: %v", err)
	}
	if err := RegisterTraceMetric(TraceMetric{
		Name: TraceMetricConvergenceRate,
		Eval: convergenceRate,
	}); !errors.Is(err, ErrSpec) {
		t.Errorf("duplicate: %v", err)
	}
}

// TestSpecRejectsUnknownTraceMetrics: validation fails fast on unknown or
// duplicated metric selections, naming the registered vocabulary.
func TestSpecRejectsUnknownTraceMetrics(t *testing.T) {
	_, err := Run(Spec{Filters: []string{"cge"}, Rounds: 5, TraceMetrics: []string{"nope"}})
	if !errors.Is(err, ErrSpec) {
		t.Fatalf("unknown metric: %v", err)
	}
	if !strings.Contains(err.Error(), TraceMetricConvergenceRate) {
		t.Errorf("error does not list the registry: %v", err)
	}
	_, err = Run(Spec{Filters: []string{"cge"}, Rounds: 5,
		TraceMetrics: []string{TraceMetricConvergenceRate, TraceMetricConvergenceRate}})
	if !errors.Is(err, ErrSpec) {
		t.Fatalf("duplicate metric: %v", err)
	}
}

// TestTraceMetricsPurePostProcessing pins the byte-stability contract:
// adding TraceMetrics to a spec changes neither scenario keys, seeds, nor
// any dynamics-derived field — FinalX, FinalDist, LossFinal are bitwise
// identical with and without the metrics — and without RecordTrace the
// per-round series stay out of the export.
func TestTraceMetricsPurePostProcessing(t *testing.T) {
	base := Spec{
		Filters:   []string{"cwtm", "sdmmfd"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		Rounds:    25,
		Seed:      7,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withMetrics := base
	withMetrics.TraceMetrics = []string{
		TraceMetricConvergenceRate, TraceMetricConvergenceRadius, TraceMetricConsensusDiameter,
	}
	metered, err := Run(withMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(metered) {
		t.Fatalf("grid sizes differ: %d vs %d", len(plain), len(metered))
	}
	for i := range plain {
		p, m := plain[i], metered[i]
		if p.Key() != m.Key() || p.Seed != m.Seed {
			t.Fatalf("cell %d: key/seed drifted: %s/%d vs %s/%d", i, p.Key(), p.Seed, m.Key(), m.Seed)
		}
		if math.Float64bits(p.FinalDist) != math.Float64bits(m.FinalDist) ||
			math.Float64bits(p.LossFinal) != math.Float64bits(m.LossFinal) {
			t.Fatalf("cell %d (%s): dynamics perturbed by trace metrics", i, p.Key())
		}
		for j := range p.FinalX {
			if math.Float64bits(p.FinalX[j]) != math.Float64bits(m.FinalX[j]) {
				t.Fatalf("cell %d (%s): FinalX perturbed", i, p.Key())
			}
		}
		if len(m.TraceMetrics) != 3 {
			t.Fatalf("cell %d (%s): got %d metrics, want 3: %v", i, m.Key(), len(m.TraceMetrics), m.TraceMetrics)
		}
		if m.TraceMetricSeries != nil {
			t.Fatalf("cell %d: series exported without RecordTrace", i)
		}
		if m.TraceLoss != nil || m.TraceDist != nil {
			t.Fatalf("cell %d: trace series exported without RecordTrace", i)
		}
	}
	// With RecordTrace the per-round metric series export too, aligned with
	// the trace.
	traced := withMetrics
	traced.RecordTrace = true
	rich, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rich {
		r := rich[i]
		if len(r.TraceMetricSeries) != 3 {
			t.Fatalf("cell %d: got %d metric series, want 3", i, len(r.TraceMetricSeries))
		}
		for name, series := range r.TraceMetricSeries {
			if len(series) != len(r.TraceDist) {
				t.Fatalf("cell %d: %s series length %d, trace length %d", i, name, len(series), len(r.TraceDist))
			}
		}
	}
}

// TestTraceMetricsSkipInapplicable: a metric that cannot apply (test_accuracy
// on a regression workload without the hook) is skipped per cell; the cell
// still completes and carries the applicable metrics.
func TestTraceMetricsSkipInapplicable(t *testing.T) {
	results, err := Run(Spec{
		Filters:      []string{"cge"},
		Behaviors:    []string{"gradient-reverse"},
		Rounds:       10,
		TraceMetrics: []string{TraceMetricConvergenceRate, "test_accuracy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status() != "ok" {
			t.Fatalf("%s: %s", r.Key(), r.Status())
		}
		if _, ok := r.TraceMetrics["test_accuracy"]; ok {
			t.Errorf("%s: inapplicable metric exported", r.Key())
		}
		if _, ok := r.TraceMetrics[TraceMetricConvergenceRate]; !ok {
			t.Errorf("%s: applicable metric missing", r.Key())
		}
	}
}

// TestTraceTaskMetricMatchesInLoopRecorder: on a learning cell, the post-hoc
// "test_accuracy" trace metric must reproduce the in-loop metricRecorder's
// final value and series exactly — same estimates, same pure function.
func TestTraceTaskMetricMatchesInLoopRecorder(t *testing.T) {
	results, err := Run(Spec{
		Problem:      ProblemLearning,
		Filters:      []string{"cwtm"},
		Behaviors:    []string{"gradient-reverse"},
		FValues:      []int{1},
		NValues:      []int{6},
		Dims:         []int{8},
		Rounds:       12,
		RecordTrace:  true,
		TraceMetrics: []string{"test_accuracy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status() != "ok" {
			t.Fatalf("%s: %s (%s)", r.Key(), r.Status(), r.Err)
		}
		got, ok := r.TraceMetrics["test_accuracy"]
		if !ok {
			t.Fatalf("%s: test_accuracy missing", r.Key())
		}
		if math.Float64bits(got) != math.Float64bits(r.MetricFinal) {
			t.Errorf("%s: post-hoc %v != in-loop %v", r.Key(), got, r.MetricFinal)
		}
		series := r.TraceMetricSeries["test_accuracy"]
		if len(series) != len(r.TraceMetric) {
			t.Fatalf("%s: series lengths differ: %d vs %d", r.Key(), len(series), len(r.TraceMetric))
		}
		for t2 := range series {
			if math.Float64bits(series[t2]) != math.Float64bits(r.TraceMetric[t2]) {
				t.Errorf("%s: series diverge at round %d: %v vs %v", r.Key(), t2, series[t2], r.TraceMetric[t2])
				break
			}
		}
	}
}

// TestFormatTableMetricColumns: metric columns appear only when some result
// carries them (like the ASYNC column), with "-" for rows lacking a value.
func TestFormatTableMetricColumns(t *testing.T) {
	plain := []Result{{Scenario: Scenario{Filter: "cge", Behavior: "zero", N: 6, Dim: 2}}}
	if table := FormatTable(plain); strings.Contains(table, "CONVERGENCE_RATE") {
		t.Error("metric column rendered for metric-free results")
	}
	mixed := []Result{
		{Scenario: Scenario{Filter: "cge", Behavior: "zero", N: 6, Dim: 2},
			TraceMetrics: map[string]float64{TraceMetricConvergenceRate: 0.97}},
		{Scenario: Scenario{Filter: "mean", Behavior: "zero", N: 6, Dim: 2}},
	}
	table := FormatTable(mixed)
	if !strings.Contains(table, "CONVERGENCE_RATE") {
		t.Fatalf("metric column missing:\n%s", table)
	}
	if !strings.Contains(table, "0.97") {
		t.Errorf("metric value missing:\n%s", table)
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines", len(lines))
	}
	if !strings.Contains(lines[2], " - ") {
		t.Errorf("metric-free row should render '-':\n%s", table)
	}
}
