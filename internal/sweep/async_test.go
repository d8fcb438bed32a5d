package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"byzopt/internal/dgd"
	"byzopt/internal/simtime"
)

// asyncGridSpec is a straggler-rate × policy × filter grid (with the
// synchronous round model riding along as one axis point) used across the
// async sweep tests.
func asyncGridSpec() Spec {
	return Spec{
		Filters:   []string{"cge", "cwtm"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		Rounds:    40,
		Asyncs: []AsyncSpec{
			{}, // the synchronous round model
			{Latency: simtime.LatencyUniform, Base: 0.2, Spread: 1, StragglerRate: 0.25, StragglerFactor: 6,
				Policy: dgd.CollectFirstK, K: 4, Stale: dgd.StaleReuse},
			{Latency: simtime.LatencyPareto, Base: 0.3, Alpha: 1.4, StragglerRate: 0.4, StragglerFactor: 10,
				Policy: dgd.CollectDeadline, Deadline: 2.5, Stale: dgd.StaleWeighted},
		},
	}
}

func TestAsyncSpecStringAndIsSync(t *testing.T) {
	cases := []struct {
		spec AsyncSpec
		want string
	}{
		{AsyncSpec{}, ""},
		// Sync-equivalent spellings all collapse to the synchronous model.
		{AsyncSpec{Latency: simtime.LatencyFixed, Policy: dgd.CollectWaitAll}, ""},
		{AsyncSpec{Stale: dgd.StaleWeighted, MaxStale: 7}, ""},
		{AsyncSpec{Latency: simtime.LatencyFixed, Base: 2}, "fixed:2|wait-all|drop"},
		{AsyncSpec{StragglerRate: 0.25, StragglerFactor: 6}, "fixed:0+strag:0.25:6|wait-all|drop"},
		{AsyncSpec{Latency: simtime.LatencyUniform, Base: 0.5, Spread: 2, Policy: dgd.CollectFirstK, K: 3, Stale: dgd.StaleReuse, MaxStale: 2},
			"uniform:0.5:2|first-k:3|reuse-last:max2"},
		{AsyncSpec{Latency: simtime.LatencyPareto, Base: 1, Alpha: 1.5, Policy: dgd.CollectDeadline, Deadline: 2.5, Stale: dgd.StaleWeighted},
			"pareto:1:1.5|deadline:2.5|weighted"},
	}
	for _, c := range cases {
		if got := c.spec.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.spec, got, c.want)
		}
		if got, want := c.spec.IsSync(), c.want == ""; got != want {
			t.Errorf("IsSync(%+v) = %v, want %v", c.spec, got, want)
		}
	}
}

func TestAsyncSpecValidationRejectsBadSpecs(t *testing.T) {
	bad := []AsyncSpec{
		{Latency: "exponential", Base: 1},
		{Latency: simtime.LatencyUniform, Base: -1, Spread: 1},
		{Latency: simtime.LatencyPareto, Base: 1, Alpha: 0},
		{Base: 1, Policy: "quorum"},
		{Base: 1, Policy: dgd.CollectFirstK, K: 0},
		{Base: 1, Policy: dgd.CollectDeadline, Deadline: 0},
		{Base: 1, Stale: "interpolate"},
		{Base: 1, MaxStale: -1},
	}
	for _, a := range bad {
		spec := Spec{Asyncs: []AsyncSpec{a}}
		if _, err := Scenarios(spec); !errors.Is(err, ErrSpec) {
			t.Errorf("Scenarios with async %+v: error = %v, want ErrSpec", a, err)
		}
	}
}

// The async axis must expand innermost, dedupe sync-equivalent entries, and
// tag only genuinely asynchronous cells with an async key component.
func TestAsyncAxisExpansionAndKeys(t *testing.T) {
	spec := Spec{
		Filters:   []string{"cge"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		Rounds:    10,
		Asyncs: []AsyncSpec{
			{},
			{Latency: simtime.LatencyFixed, Policy: dgd.CollectWaitAll}, // sync duplicate
			{Base: 1, Policy: dgd.CollectFirstK, K: 3},
			{Base: 1, Policy: dgd.CollectFirstK, K: 3}, // verbatim duplicate
		},
	}
	scns, err := Scenarios(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) != 2 {
		t.Fatalf("got %d scenarios, want 2 (duplicates dropped): %+v", len(scns), scns)
	}
	if scns[0].Async != "" || strings.Contains(scns[0].Key(), "async=") {
		t.Errorf("sync cell key carries async component: %q", scns[0].Key())
	}
	if want := "fixed:1|first-k:3|drop"; scns[1].Async != want {
		t.Errorf("async cell = %q, want %q", scns[1].Async, want)
	}
	if !strings.HasSuffix(scns[1].Key(), " async=fixed:1|first-k:3|drop") {
		t.Errorf("async cell key missing component: %q", scns[1].Key())
	}
	if scns[0].DeriveSeed(0) == scns[1].DeriveSeed(0) {
		t.Error("sync and async cells derived the same seed")
	}
}

// A straggler grid must export byte-identically at any worker count, and the
// asynchronous cells must actually report partial arrivals.
func TestAsyncSweepDeterministicAtAnyWorkerCount(t *testing.T) {
	spec := asyncGridSpec()
	spec.Workers = 1
	serial, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec = asyncGridSpec()
	spec.Workers = 4
	parallel, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, serial), exportBytes(t, parallel)) {
		t.Error("async sweep exports differ across worker counts")
	}
	var asyncOK, syncOK bool
	for _, r := range serial {
		// A partial-aggregation cell may legitimately shrink its filter input
		// below the filter's tolerance and come back skipped — that is data,
		// not a failure — but nothing else may go wrong.
		if s := r.Status(); s != "ok" && s != "skipped" {
			t.Errorf("%s: status %s (%s)", r.Key(), s, r.Err)
		}
		if r.Async == "" {
			if r.Status() != "ok" {
				t.Errorf("sync cell %s: status %s (%s)", r.Key(), r.Status(), r.Err)
			}
			syncOK = true
			if r.AsyncMeanArrived != 0 || r.AsyncVirtualTime != 0 {
				t.Errorf("sync cell %s carries async stats: %+v", r.Key(), r)
			}
			continue
		}
		if r.Status() != "ok" {
			continue
		}
		asyncOK = true
		if r.AsyncMeanArrived <= 0 || r.AsyncMeanArrived > float64(r.N) {
			t.Errorf("%s: mean arrived %v outside (0, %d]", r.Key(), r.AsyncMeanArrived, r.N)
		}
		if r.AsyncVirtualTime <= 0 {
			t.Errorf("%s: virtual time %v, want > 0", r.Key(), r.AsyncVirtualTime)
		}
	}
	if !asyncOK || !syncOK {
		t.Fatalf("grid missing a completed sync or async cell (async=%v sync=%v)", asyncOK, syncOK)
	}
}

// Adding the async axis must not perturb the synchronous cells: their keys,
// seeds, and trajectories stay identical to a sweep without the axis.
func TestAsyncAxisLeavesSyncCellsUnchanged(t *testing.T) {
	base := asyncGridSpec()
	base.Asyncs = nil
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]Result, len(want))
	for _, r := range want {
		byKey[r.Key()] = r
	}
	mixed, err := Run(asyncGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, r := range mixed {
		if r.Async != "" {
			continue
		}
		w, ok := byKey[r.Key()]
		if !ok {
			t.Fatalf("sync cell %s absent from the async-free sweep", r.Key())
		}
		matched++
		if r.Seed != w.Seed {
			t.Errorf("%s: seed %d vs %d", r.Key(), r.Seed, w.Seed)
		}
		if len(r.FinalX) != len(w.FinalX) {
			t.Fatalf("%s: dim mismatch", r.Key())
		}
		for i := range r.FinalX {
			if r.FinalX[i] != w.FinalX[i] {
				t.Errorf("%s: FinalX[%d] differs bitwise", r.Key(), i)
			}
		}
	}
	if matched != len(want) {
		t.Errorf("matched %d sync cells, want %d", matched, len(want))
	}
}

// The async axis must survive the wire: sync specs keep their pre-async wire
// bytes, async specs round-trip to the identical grid.
func TestWireSpecAsyncRoundTrip(t *testing.T) {
	syncSpec := testGridSpec()
	ws, err := NewWireSpec(syncSpec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("asyncs")) {
		t.Errorf("sync wire spec mentions the async axis: %s", raw)
	}

	spec := asyncGridSpec()
	ws, err = NewWireSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err = json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	var decoded WireSpec
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Spec()
	if err != nil {
		t.Fatal(err)
	}
	wantScns, err := Scenarios(asyncGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	gotScns, err := Scenarios(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotScns) != len(wantScns) {
		t.Fatalf("round-tripped grid has %d cells, want %d", len(gotScns), len(wantScns))
	}
	for i := range gotScns {
		if gotScns[i] != wantScns[i] {
			t.Errorf("cell %d: %+v vs %+v", i, gotScns[i], wantScns[i])
		}
	}
}

// The fleet must distribute async grids byte-identically: a coordinator
// serving two TCP workers exports the same bytes as the single-process run.
func TestAsyncFleetParityWithSingleProcessRun(t *testing.T) {
	spec := asyncGridSpec()
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	addr, wait := startFleetCoordinator(t, ctx, CoordinatorSpec{Spec: spec, LeaseCells: 2}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := Work(ctx, addr, WorkerOptions{Name: "aw", Workers: 1}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	got, err := wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, got), exportBytes(t, want)) {
		t.Error("distributed async export differs from single-process export")
	}
}

// RecordTrace must export the per-round arrival and staleness series on
// asynchronous cells only.
func TestAsyncTraceSeries(t *testing.T) {
	spec := asyncGridSpec()
	spec.Filters = []string{"cge"}
	spec.RecordTrace = true
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Async == "" {
			if r.TraceArrived != nil || r.TraceMaxStale != nil {
				t.Errorf("sync cell %s carries async traces", r.Key())
			}
			continue
		}
		if r.Status() != "ok" {
			continue
		}
		if len(r.TraceArrived) != r.Rounds || len(r.TraceMaxStale) != r.Rounds {
			t.Errorf("%s: trace lengths %d/%d, want %d", r.Key(), len(r.TraceArrived), len(r.TraceMaxStale), r.Rounds)
		}
		if r.Async != "" && r.AsyncMaxStale > 0 {
			found := false
			for _, v := range r.TraceMaxStale {
				if v == r.AsyncMaxStale {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: summary max stale %d absent from series", r.Key(), r.AsyncMaxStale)
			}
		}
	}
}
