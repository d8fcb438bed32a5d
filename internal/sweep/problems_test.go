package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"byzopt/internal/cluster"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
	"byzopt/internal/vecmath"
)

func TestProblemNamesCoverBuiltins(t *testing.T) {
	names := ProblemNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{
		ProblemPaper, ProblemSynthetic, ProblemLearning, ProblemLearningB,
		ProblemLearningMLP, ProblemSensing, ProblemRobustMean, ProblemSVM,
	} {
		if !have[want] {
			t.Errorf("registry missing built-in %q (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestRegisterErrorPaths(t *testing.T) {
	if err := Register(nil); !errors.Is(err, ErrSpec) {
		t.Errorf("nil problem: %v", err)
	}
	if err := Register(regressionProblem{name: ""}); !errors.Is(err, ErrSpec) {
		t.Errorf("empty name: %v", err)
	}
	if err := Register(regressionProblem{name: ProblemPaper}); !errors.Is(err, ErrSpec) {
		t.Errorf("duplicate name should be rejected, got %v", err)
	}
	if _, err := LookupProblem("no-such-problem"); !errors.Is(err, ErrSpec) {
		t.Errorf("unknown lookup: %v", err)
	}
}

func TestUnknownProblemNameFailsSweep(t *testing.T) {
	_, err := Run(Spec{Problem: "no-such-problem", Rounds: 1})
	if !errors.Is(err, ErrSpec) {
		t.Fatalf("want ErrSpec, got %v", err)
	}
	if !strings.Contains(err.Error(), "no-such-problem") {
		t.Errorf("error does not name the problem: %v", err)
	}
}

func TestLearningRejectsForeignBehaviorOnlyWhenUnknown(t *testing.T) {
	// label-flip is valid for learning problems...
	if _, err := Scenarios(Spec{
		Problem: ProblemLearning, Filters: []string{"cwtm"},
		Behaviors: []string{BehaviorLabelFlip}, FValues: []int{3},
		NValues: []int{10}, Dims: []int{20}, Rounds: 1,
	}); err != nil {
		t.Errorf("label-flip rejected for learning: %v", err)
	}
	// ...but not for regression problems, which know only the registry.
	if _, err := Scenarios(Spec{
		Behaviors: []string{BehaviorLabelFlip}, Rounds: 1,
	}); !errors.Is(err, ErrSpec) {
		t.Errorf("label-flip accepted for synthetic regression: %v", err)
	}
	// The svm problem's own scaled-reverse is no more portable, and a name
	// neither the problem nor the registry knows fails on svm too.
	if _, err := Scenarios(Spec{
		Behaviors: []string{BehaviorScaledReverse}, Rounds: 1,
	}); !errors.Is(err, ErrSpec) {
		t.Errorf("scaled-reverse accepted for synthetic regression: %v", err)
	}
	if _, err := Scenarios(Spec{
		Problem: ProblemSVM, Behaviors: []string{"label-flop"}, Rounds: 1,
	}); !errors.Is(err, ErrSpec) {
		t.Errorf("unknown behavior accepted for svm: %v", err)
	}
}

// svmSpec is the Section-5 SVM remark as abft-bench -exp svm runs it: plain
// averaging and the two filters against the problem's two faults and
// gradient reversal at n = 10, f = 3, plus the fault-free baseline cells.
func svmSpec(rounds int) Spec {
	return Spec{
		Problem:   ProblemSVM,
		Filters:   []string{"mean", "cge-avg", "cwtm"},
		Behaviors: []string{BehaviorScaledReverse, BehaviorLabelFlip, "gradient-reverse"},
		FValues:   []int{3},
		NValues:   []int{10},
		Dims:      []int{10},
		Baselines: []bool{false, true},
		Steps:     []dgd.StepSchedule{dgd.Constant{Eta: 0.1}},
		Rounds:    rounds,
	}
}

// TestSVMShape is the Section-5 claim on sweep cells: the filtered runs
// stay near the fault-free accuracy and loss under label flipping and
// gradient reversal, plain averaging under the scaled reversal collapses,
// and the export is the same bytes at any worker count.
func TestSVMShape(t *testing.T) {
	spec := svmSpec(300)
	spec.Workers = 1
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("%d cells, want 9 fault cells + 3 baselines", len(results))
	}
	cell := func(filter, behavior string, baseline bool) Result {
		t.Helper()
		for _, r := range results {
			if r.Filter == filter && r.Behavior == behavior && r.Baseline == baseline {
				if r.Status() != "ok" || r.MetricName != "test_accuracy" {
					t.Fatalf("%s: status %s (%s), metric %q", r.Key(), r.Status(), r.Err, r.MetricName)
				}
				return r
			}
		}
		t.Fatalf("no %s/%s cell", filter, behavior)
		return Result{}
	}
	faultFree := cell("mean", BehaviorNone, true)
	if faultFree.MetricFinal < 0.9 {
		t.Fatalf("fault-free SVM accuracy = %v; separable task should be easy", faultFree.MetricFinal)
	}
	for _, filter := range []string{"cge-avg", "cwtm"} {
		for _, behavior := range []string{BehaviorLabelFlip, "gradient-reverse"} {
			r := cell(filter, behavior, false)
			if r.MetricFinal < faultFree.MetricFinal-0.1 || r.LossFinal > faultFree.LossFinal+0.05 {
				t.Errorf("%s/%s: accuracy %v, loss %v far from fault-free %v, %v",
					filter, behavior, r.MetricFinal, r.LossFinal, faultFree.MetricFinal, faultFree.LossFinal)
			}
		}
	}
	if attacked := cell("mean", BehaviorScaledReverse, false); attacked.MetricFinal > faultFree.MetricFinal-0.2 {
		t.Errorf("plain averaging under scaled reversal (%v) should collapse well below fault-free (%v)",
			attacked.MetricFinal, faultFree.MetricFinal)
	}
	var seq bytes.Buffer
	if err := WriteJSON(&seq, results, false); err != nil {
		t.Fatal(err)
	}
	spec.Workers = 4
	if !bytes.Equal(encodeSweep(t, spec), seq.Bytes()) {
		t.Error("svm export differs between Workers=1 and Workers=4")
	}
}

// TestBehaviorTypoFailsFastForCustomProblems: behavior validation lives in
// the engine, so a Problem that does nothing in Validate still gets
// fail-fast typo detection instead of burying the error in per-scenario
// results.
func TestBehaviorTypoFailsFastForCustomProblems(t *testing.T) {
	_, err := Scenarios(Spec{
		ProblemDef: customProblem{name: "typo-check"},
		Filters:    []string{"cge"},
		Behaviors:  []string{"gradient-reverze"},
		NValues:    []int{6},
		Dims:       []int{2},
		Rounds:     1,
	})
	if !errors.Is(err, ErrSpec) {
		t.Fatalf("typo'd behavior should fail validation, got %v", err)
	}
	if !strings.Contains(err.Error(), "gradient-reverze") {
		t.Errorf("error does not name the bad behavior: %v", err)
	}
}

// customProblem is the external-registration fixture: a one-dimensional
// quadratic whose minimizer is known in closed form.
type customProblem struct{ name string }

func (p customProblem) Name() string              { return p.name }
func (p customProblem) Validate(spec *Spec) error { return nil }
func (p customProblem) Key(spec *Spec, scn Scenario) string {
	return fmt.Sprintf("%s n=%d d=%d f=%d", p.name, scn.N, scn.Dim, scn.F)
}

func (p customProblem) Build(spec *Spec, scn Scenario) (*Workload, error) {
	targets := make([][]float64, scn.N)
	for i := range targets {
		targets[i] = vecmath.Scale(float64(i), vecmath.Ones(scn.Dim))
	}
	xH, err := vecmath.Mean(targets[scn.F:])
	if err != nil {
		return nil, err
	}
	box, err := vecmath.NewCube(scn.Dim, spec.BoxRadius)
	if err != nil {
		return nil, err
	}
	return &Workload{
		NewAgents: func() ([]dgd.Agent, error) {
			agents := make([]dgd.Agent, scn.N)
			for i := range agents {
				target := targets[i]
				agents[i] = quadAgent{target: target}
			}
			return agents, nil
		},
		X0:  vecmath.Zeros(scn.Dim),
		XH:  xH,
		Box: box,
		Metric: &Metric{
			Name:  "dist_to_origin",
			Every: 1,
			Eval:  func(x []float64) (float64, error) { return vecmath.Norm(x), nil },
		},
	}, nil
}

type quadAgent struct{ target []float64 }

func (a quadAgent) Gradient(round int, x []float64) ([]float64, error) {
	g, err := vecmath.Sub(x, a.target)
	if err != nil {
		return nil, err
	}
	vecmath.ScaleInPlace(2/float64(len(a.target)+1), g)
	return g, nil
}

// TestCustomProblemViaProblemDefAndRegistry runs a user-defined workload
// both ways — handed directly through Spec.ProblemDef and registered under
// a name — and checks the two routes agree byte for byte.
func TestCustomProblemViaProblemDefAndRegistry(t *testing.T) {
	direct := Spec{
		ProblemDef: customProblem{name: "custom-quad"},
		Filters:    []string{"cge", "mean"},
		Behaviors:  []string{"zero"},
		NValues:    []int{8},
		Dims:       []int{3},
		Rounds:     40,
	}
	results, err := Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status() != "ok" {
			t.Fatalf("%s: %s", r.Key(), r.Err)
		}
		if r.Problem != "custom-quad" {
			t.Errorf("scenario problem %q, want custom-quad", r.Problem)
		}
		if r.MetricName != "dist_to_origin" || r.MetricFinal == 0 {
			t.Errorf("custom metric not recorded: %+v", r)
		}
	}
	var directJSON bytes.Buffer
	if err := WriteJSON(&directJSON, results, false); err != nil {
		t.Fatal(err)
	}

	if err := Register(customProblem{name: "custom-quad"}); err != nil {
		t.Fatal(err)
	}
	named := direct
	named.ProblemDef = nil
	named.Problem = "custom-quad"
	namedResults, err := Run(named)
	if err != nil {
		t.Fatal(err)
	}
	var namedJSON bytes.Buffer
	if err := WriteJSON(&namedJSON, namedResults, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directJSON.Bytes(), namedJSON.Bytes()) {
		t.Error("ProblemDef and registry routes disagree for the same workload")
	}
}

// mistrackedProblem is customProblem with its workload edited after the
// build: the tests below give it a loss or a reference point of another
// dimension than the estimate.
type mistrackedProblem struct {
	customProblem
	edit func(*Workload)
}

func (p mistrackedProblem) Build(spec *Spec, scn Scenario) (*Workload, error) {
	wl, err := p.customProblem.Build(spec, scn)
	if err != nil {
		return nil, err
	}
	p.edit(wl)
	return wl, nil
}

// TestTrackedDimensionMismatchFailsTheCell: the kernel no longer evaluates
// the honest loss or the distance to x_H of a sweep cell, but a workload
// whose loss or reference has another dimension than X0 still fails its
// cell, on every substrate, with the error the substrate's validation has
// always given.
func TestTrackedDimensionMismatchFailsTheCell(t *testing.T) {
	loss1, err := costfunc.NewObservation([]float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]struct {
		edit func(*Workload)
		text string
	}{
		"reference": {func(wl *Workload) { wl.XH = []float64{1} }, "reference dim 1 vs x0 dim 2"},
		"loss":      {func(wl *Workload) { wl.HonestLoss = loss1 }, "loss dim 1 vs x0 dim 2"},
	}
	backends := map[string]struct {
		backend  dgd.Backend
		sentinel error
	}{
		"in-process": {dgd.InProcess{}, dgd.ErrConfig},
		"cluster":    {&cluster.Backend{}, cluster.ErrConfig},
		"p2p":        {p2p.Backend{}, p2p.ErrArgs},
	}
	for field, e := range edits {
		for name, b := range backends {
			results, err := Run(Spec{
				ProblemDef: mistrackedProblem{customProblem{name: "mistracked"}, e.edit},
				Filters:    []string{"cge"},
				Behaviors:  []string{"zero"},
				NValues:    []int{4},
				Dims:       []int{2},
				Rounds:     5,
				Backend:    b.backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := e.text + ": " + b.sentinel.Error()
			if r := results[0]; r.Status() != "error" || r.Err != want {
				t.Errorf("%s on %s: status %s, error %q; want error %q", field, name, r.Status(), r.Err, want)
			}
		}
	}
}

func TestBaselineAxisCollapsesAndKeys(t *testing.T) {
	scns, err := Scenarios(Spec{
		Filters:   []string{"cge"},
		Behaviors: []string{"gradient-reverse", "zero"},
		FValues:   []int{0, 1},
		Baselines: []bool{false, true},
		Rounds:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// f=0: one cell (baseline dropped as duplicate); f=1: two behaviors
	// plus one baseline cell.
	if len(scns) != 4 {
		t.Fatalf("grid has %d scenarios, want 4: %+v", len(scns), scns)
	}
	var baselines, faulted int
	keys := map[string]bool{}
	for _, s := range scns {
		if keys[s.Key()] {
			t.Errorf("duplicate key %s", s.Key())
		}
		keys[s.Key()] = true
		if s.Baseline {
			baselines++
			if s.Behavior != BehaviorNone {
				t.Errorf("baseline cell kept behavior %q", s.Behavior)
			}
			if !strings.Contains(s.Key(), "baseline=true") {
				t.Errorf("baseline key not marked: %s", s.Key())
			}
			if s.F != 1 {
				t.Errorf("baseline at f=%d, want only f=1", s.F)
			}
		} else if s.Behavior != BehaviorNone {
			faulted++
			if strings.Contains(s.Key(), "baseline") {
				t.Errorf("non-baseline key mentions baseline: %s", s.Key())
			}
		}
	}
	if baselines != 1 || faulted != 2 {
		t.Errorf("got %d baseline and %d faulted cells, want 1 and 2", baselines, faulted)
	}
}

// TestBaselineRunMatchesHonestSubsetRun: a baseline scenario must execute
// exactly the run of the honest agents alone — same filter, f = 0 — which
// for the paper instance converges to x_H.
func TestBaselineRunMatchesHonestSubsetRun(t *testing.T) {
	results, err := Run(Spec{
		Problem:   ProblemPaper,
		Filters:   []string{"mean"},
		FValues:   []int{1},
		Baselines: []bool{true},
		Rounds:    400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 scenario, got %d", len(results))
	}
	r := results[0]
	if r.Status() != "ok" || !r.Baseline {
		t.Fatalf("unexpected result %+v", r)
	}
	if r.FinalDist > 0.01 {
		t.Errorf("baseline run did not converge to x_H: dist %v", r.FinalDist)
	}
}

func TestLearningSweepRecordsAccuracyTrace(t *testing.T) {
	const rounds = 12
	results, err := Run(Spec{
		Problem:     ProblemLearning,
		Filters:     []string{"cwtm"},
		Behaviors:   []string{BehaviorLabelFlip},
		FValues:     []int{3},
		NValues:     []int{10},
		Dims:        []int{20},
		Steps:       []dgd.StepSchedule{dgd.Constant{Eta: 0.01}},
		Rounds:      rounds,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Status() != "ok" {
		t.Fatalf("%s: %s", r.Key(), r.Err)
	}
	if r.MetricName != "test_accuracy" {
		t.Errorf("metric name %q", r.MetricName)
	}
	if len(r.TraceMetric) != rounds+1 || len(r.TraceLoss) != rounds+1 {
		t.Fatalf("trace lengths metric=%d loss=%d, want %d", len(r.TraceMetric), len(r.TraceLoss), rounds+1)
	}
	if len(r.TraceDist) != 0 {
		t.Errorf("learning has no reference point but exported %d distances", len(r.TraceDist))
	}
	if r.MetricFinal != r.TraceMetric[rounds] {
		t.Errorf("metric final %v vs trace end %v", r.MetricFinal, r.TraceMetric[rounds])
	}
	if r.MetricFinal <= 0.2 {
		t.Errorf("accuracy %v no better than chance", r.MetricFinal)
	}
}

func TestShardSlicesAndMergeRoundTrips(t *testing.T) {
	base := Spec{
		Filters:   []string{"cge", "cwtm", "mean"},
		Behaviors: []string{"gradient-reverse", "zero"},
		FValues:   []int{0, 1},
		Baselines: []bool{false, true},
		Rounds:    25,
	}
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	var fullJSON bytes.Buffer
	if err := WriteJSON(&fullJSON, full, false); err != nil {
		t.Fatal(err)
	}
	const count = 3
	var shards [][]Result
	var totalScns int
	for i := 0; i < count; i++ {
		spec := base
		spec.Shard = &Shard{Index: i, Count: count}
		part, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		totalScns += len(part)
		shards = append(shards, part)
	}
	if totalScns != len(full) {
		t.Fatalf("shards cover %d scenarios, full grid has %d", totalScns, len(full))
	}
	// Merge in scrambled shard order: grid indices restore the grid order.
	merged, err := MergeResults(shards[2], shards[0], shards[1])
	if err != nil {
		t.Fatal(err)
	}
	var mergedJSON bytes.Buffer
	if err := WriteJSON(&mergedJSON, merged, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullJSON.Bytes(), mergedJSON.Bytes()) {
		t.Error("merged shard export differs from the unsharded export")
	}
}

func TestMergeErrorPaths(t *testing.T) {
	if _, err := MergeResults(); !errors.Is(err, ErrSpec) {
		t.Errorf("empty merge: %v", err)
	}
	a := Result{Scenario: Scenario{Filter: "cge"}, GridIndex: 0, GridTotal: 3}
	b := Result{Scenario: Scenario{Filter: "cwtm"}, GridIndex: 1, GridTotal: 3}
	c := Result{Scenario: Scenario{Filter: "krum"}, GridIndex: 2, GridTotal: 3}
	// A missing shard — including a trailing one — is an error, never a
	// silently truncated "full" export.
	if _, err := MergeResults([]Result{a, b}); !errors.Is(err, ErrSpec) {
		t.Errorf("missing trailing shard: %v", err)
	}
	if _, err := MergeResults([]Result{a}, []Result{c}); !errors.Is(err, ErrSpec) {
		t.Errorf("missing middle shard: %v", err)
	}
	dup := Result{Scenario: Scenario{Filter: "mean"}, GridIndex: 0, GridTotal: 3}
	if _, err := MergeResults([]Result{a, dup}, []Result{b, c}); !errors.Is(err, ErrSpec) {
		t.Errorf("duplicate grid index: %v", err)
	}
	foreign := Result{Scenario: Scenario{Filter: "bulyan"}, GridIndex: 2, GridTotal: 9}
	if _, err := MergeResults([]Result{a, b}, []Result{foreign}); !errors.Is(err, ErrSpec) {
		t.Errorf("shards from different grids: %v", err)
	}
	if merged, err := MergeResults([]Result{c}, []Result{a, b}); err != nil || len(merged) != 3 {
		t.Errorf("valid out-of-order merge failed: %v (%d results)", err, len(merged))
	}
}

func TestShardValidation(t *testing.T) {
	for _, sh := range []Shard{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: 0}} {
		spec := Spec{Rounds: 1, Shard: &sh}
		if _, err := Scenarios(spec); !errors.Is(err, ErrSpec) {
			t.Errorf("shard %+v accepted: %v", sh, err)
		}
	}
}

// TestLongestFirstOrdering: the parallel dispatcher hands out the most
// expensive scenarios first, stable within equal cost.
func TestLongestFirstOrdering(t *testing.T) {
	jobs := []job{
		{scn: Scenario{Rounds: 10, N: 2, Dim: 2}, idx: 0},
		{scn: Scenario{Rounds: 1000, N: 10, Dim: 20}, idx: 1},
		{scn: Scenario{Rounds: 10, N: 2, Dim: 2}, idx: 2},
		{scn: Scenario{Rounds: 500, N: 6, Dim: 2}, idx: 3},
	}
	order := longestFirst(jobs)
	want := []int{1, 3, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestProgressReportsEveryScenario: the callback sees each completion
// exactly once with a monotone done count, at any worker count.
func TestProgressReportsEveryScenario(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls []int
		spec := smallSpec()
		spec.Workers = workers
		spec.Progress = func(done, total int) {
			if total != 16 {
				t.Errorf("total %d, want 16", total)
			}
			calls = append(calls, done)
		}
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 16 {
			t.Fatalf("workers=%d: %d progress calls, want 16", workers, len(calls))
		}
		for i, done := range calls {
			if done != i+1 {
				t.Fatalf("workers=%d: call %d reported done=%d", workers, i, done)
			}
		}
	}
}

// TestRegressionCellAllocsIndependentOfN: a regression workload's costs are
// views into its rows that its cells share, and a cell's agents are backed by
// one slice, so building and running a cell allocates the same count at
// n = 100 as at n = 200, where a copied one-row matrix, a cost and a wrapper
// per agent cost about six allocations each. A cell that exports no trace
// keeps no per-round series either, so it allocates the same at 5 rounds as
// at 500. Measured on one cell of the wide_grid shape, its workload built
// once; a paper_grid cell is pinned at its count.
func TestRegressionCellAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not repeat under the race detector")
	}
	cellAllocs := func(spec Spec) float64 {
		spec.Filters = []string{"cge"}
		spec.Behaviors = []string{"gradient-reverse"}
		spec.Workers = 1
		jobs, err := expand(&spec)
		if err != nil {
			t.Fatal(err)
		}
		prob, err := resolveProblem(&spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 1 {
			t.Fatalf("%d cells, want 1", len(jobs))
		}
		workloads := buildWorkloads(&spec, prob, jobs)
		return testing.AllocsPerRun(20, func() {
			res, err := runScenario(context.Background(), &spec, dgd.InProcess{}, jobs[0], workloads[0])
			if err != nil || res.Err != "" {
				t.Fatalf("%s: %v %s", jobs[0].scn.Key(), err, res.Err)
			}
		})
	}
	wide := func(n, rounds int) Spec {
		return Spec{Problem: ProblemSynthetic, FValues: []int{10}, NValues: []int{n}, Dims: []int{50}, Rounds: rounds}
	}
	small, large := cellAllocs(wide(100, 5)), cellAllocs(wide(200, 5))
	t.Logf("allocations a cell: %v at n = 100, %v at n = 200", small, large)
	if small != large {
		t.Errorf("a cell allocates %v times at n = 100 and %v at n = 200, want the same", small, large)
	}
	long := cellAllocs(wide(100, 500))
	t.Logf("allocations a cell: %v at 5 rounds, %v at 500", small, long)
	if small != long {
		t.Errorf("a cell allocates %v times at 5 rounds and %v at 500, want the same", small, long)
	}
	const paperCellAllocs = 16
	paper := cellAllocs(Spec{Problem: ProblemPaper, Rounds: 500})
	if paper != paperCellAllocs {
		t.Errorf("a paper cell allocates %v times, want %d", paper, paperCellAllocs)
	}
}
