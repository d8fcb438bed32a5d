package sweep

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/dgd"
)

// agreementRun runs spec with the agreement metric and its series recorded
// and returns the cells by "filter/sketch_dim".
func agreementRun(t *testing.T, spec Spec) map[string]Result {
	t.Helper()
	spec.TraceMetrics = []string{TraceMetricAgreement}
	spec.RecordTrace = true
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]Result, len(results))
	for _, r := range results {
		if r.Status() != "ok" {
			t.Fatalf("cell %s: %s %s", r.Key(), r.Status(), r.Err)
		}
		cells[fmt.Sprintf("%s/%d", r.Filter, r.SketchDim)] = r
	}
	return cells
}

// TestAgreementOfExactSettingsIsOne: a sketch of k ≥ d and a sample of
// m ≥ n−1 are their exact filters, so every call agrees with the twin. At
// d = 65 > DefaultSketchDim a twin left at its default projection would be
// approximate, and n − 1 = 69 > DefaultSamplePairs does the same for the
// sample, so the reading of 1 needs the twin set past both.
func TestAgreementOfExactSettingsIsOne(t *testing.T) {
	const rounds = 8
	cells := agreementRun(t, Spec{
		Filters:    []string{"krum-sketch", "krum-sampled"},
		Behaviors:  []string{"gradient-reverse"},
		FValues:    []int{1},
		NValues:    []int{70},
		Dims:       []int{65},
		SketchDims: []int{65, 69},
		Steps:      []dgd.StepSchedule{dgd.Constant{Eta: 0.1}},
		Rounds:     rounds,
	})
	for _, key := range []string{"krum-sketch/65", "krum-sketch/69", "krum-sampled/69"} {
		r, ok := cells[key]
		if !ok {
			t.Fatalf("no cell %s", key)
		}
		if got := r.TraceMetrics[TraceMetricAgreement]; got != 1 {
			t.Errorf("%s: agreement %v, want exactly 1", key, got)
		}
		series := r.TraceMetricSeries[TraceMetricAgreement]
		if len(series) != rounds+1 {
			t.Errorf("%s: agreement series has %d entries, want %d", key, len(series), rounds+1)
		}
	}
}

// TestAgreementOfANarrowSketch: krum-sketch at k = 2 in d = 32 picks another
// report than Krum in some rounds of this cell, and the series is the
// running share of the calls before each round.
func TestAgreementOfANarrowSketch(t *testing.T) {
	const rounds = 30
	cells := agreementRun(t, Spec{
		Filters:    []string{"krum-sketch"},
		Behaviors:  []string{"gradient-reverse"},
		FValues:    []int{1},
		NValues:    []int{40},
		Dims:       []int{32},
		SketchDims: []int{2},
		Steps:      []dgd.StepSchedule{dgd.Constant{Eta: 0.1}},
		Rounds:     rounds,
	})
	r := cells["krum-sketch/2"]
	got, ok := r.TraceMetrics[TraceMetricAgreement]
	if !ok || got >= 1 {
		t.Fatalf("%s: agreement %v (present %v), want below 1", r.Key(), got, ok)
	}
	series := r.TraceMetricSeries[TraceMetricAgreement]
	if len(series) != rounds+1 || series[0] != 1 || series[rounds] != got {
		t.Fatalf("%s: series %v does not run from 1 to the final %v", r.Key(), series, got)
	}
	for i := 1; i <= rounds; i++ {
		// The share over i calls is a count over i.
		if agreed := series[i] * float64(i); agreed != float64(int(agreed+0.5)) {
			t.Fatalf("%s: series[%d] = %v is no share of %d calls", r.Key(), i, series[i], i)
		}
	}
}

// TestAgreementNeedsAnExactTwin: an exact filter has no approximation to
// switch off, so its cell carries no agreement key and does not fail.
func TestAgreementNeedsAnExactTwin(t *testing.T) {
	cells := agreementRun(t, Spec{
		Filters:   []string{"krum", "mean"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		NValues:   []int{12},
		Dims:      []int{4},
		Rounds:    5,
	})
	for key, r := range cells {
		if _, ok := r.TraceMetrics[TraceMetricAgreement]; ok {
			t.Errorf("%s: exact cell has an agreement key", key)
		}
	}
}

// faceProbe is an in-process backend that records, by filter name, whether
// each run's observer carries the dgd.FilterObserver face.
type faceProbe struct {
	mu    sync.Mutex
	faced map[string]bool
}

func (p *faceProbe) Run(ctx context.Context, cfg dgd.Config) (*dgd.Result, error) {
	_, ok := cfg.Observer.(dgd.FilterObserver)
	p.mu.Lock()
	p.faced[cfg.Filter.Name()] = ok
	p.mu.Unlock()
	return dgd.InProcess{}.Run(ctx, cfg)
}

// TestFilterFaceOnlyForAgreement: a cell's kernel gets an observer with the
// filter face only when the cell requests agreement and its filter has an
// exact twin; every other cell's round never calls out after its filter.
func TestFilterFaceOnlyForAgreement(t *testing.T) {
	for _, metrics := range [][]string{nil, {TraceMetricConvergenceRate}, {TraceMetricAgreement}} {
		probe := &faceProbe{faced: map[string]bool{}}
		if _, err := Run(Spec{
			Filters:      []string{"krum", "krum-sketch"},
			Behaviors:    []string{"gradient-reverse"},
			FValues:      []int{1},
			NValues:      []int{12},
			Dims:         []int{4},
			Rounds:       3,
			TraceMetrics: metrics,
			Backend:      probe,
		}); err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{"krum": false, "krum-sketch": len(metrics) > 0 && metrics[0] == TraceMetricAgreement}
		for name, faced := range want {
			if got, ran := probe.faced[name]; !ran || got != faced {
				t.Errorf("metrics %v, filter %s: ran %v, filter face %v, want %v", metrics, name, ran, got, faced)
			}
		}
	}
}

// TestAgreementIsBitwiseUpToTheSignOfZero: a call agrees when every
// coordinate has the twin's bits, or both are zeros of either sign.
func TestAgreementIsBitwiseUpToTheSignOfZero(t *testing.T) {
	rec := &agreementRecorder{twin: aggregate.Mean{}, out: make([]float64, 2)}
	input := [][]float64{{0, 1}, {0, 2}} // the twin's mean: (+0, 1.5)
	for _, out := range [][]float64{
		{0, 1.5},                    // the same bits: agrees
		{math.Copysign(0, -1), 1.5}, // -0 for +0: agrees
		{0, math.Nextafter(1.5, 2)}, // one ulp off: disagrees
	} {
		if err := rec.ObserveFilter(0, 0, input, out); err != nil {
			t.Fatal(err)
		}
	}
	if rec.calls != 3 || rec.agreed != 2 {
		t.Errorf("%d of %d calls agreed, want 2 of 3", rec.agreed, rec.calls)
	}
}
