package sweep

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

// chaosGridSpec is a small grid carrying the fault-injection axis: the
// no-fault point plus an omission plan with retry budget and a crash plan.
func chaosGridSpec() Spec {
	return Spec{
		Filters:   []string{"cge", "cwtm"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		Rounds:    20,
		Chaoses: []ChaosSpec{
			{},
			{OmitRate: 0.2, Attempts: 2, RetryDelay: 0.05},
			{CrashRate: 0.3},
		},
	}
}

// TestChaosSpecStringCanonical pins the canonical identity of chaos points —
// the scenario-key component and the dedupe key.
func TestChaosSpecStringCanonical(t *testing.T) {
	cases := []struct {
		spec ChaosSpec
		want string
	}{
		{ChaosSpec{}, ""},
		{ChaosSpec{Attempts: 3}, ""}, // a retry budget alone injects nothing
		{ChaosSpec{CrashRate: 0.1}, "crash:0.1"},
		{ChaosSpec{OmitRate: 0.25, Attempts: 2, RetryDelay: 0.1}, "omit:0.25+retry:2:0.1"},
		{ChaosSpec{DelayRate: 0.1, Delay: 0.5}, "delay:0.1:0.5"},
		{
			ChaosSpec{CrashRate: 0.1, OmitRate: 0.2, CorruptRate: 0.05, DupRate: 0.1, DelayRate: 0.1, Delay: 1},
			"crash:0.1+omit:0.2+corrupt:0.05+dup:0.1+delay:0.1:1",
		},
	}
	for _, c := range cases {
		if got := c.spec.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.spec, got, c.want)
		}
		if c.spec.IsNone() != (c.want == "") {
			t.Errorf("IsNone(%+v) inconsistent with String %q", c.spec, c.want)
		}
	}
}

// TestScenarioKeyChaosComponentOnlyWhenSet pins the key-stability rule: the
// chaos axis widens the grid, but no-fault cells keep their exact pre-chaos
// scenario keys.
func TestScenarioKeyChaosComponentOnlyWhenSet(t *testing.T) {
	spec := chaosGridSpec()
	scenarios, err := Scenarios(spec)
	if err != nil {
		t.Fatal(err)
	}
	plain := spec
	plain.Chaoses = nil
	baseline, err := Scenarios(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 3*len(baseline) {
		t.Fatalf("chaos axis expanded to %d cells, want %d", len(scenarios), 3*len(baseline))
	}
	var none, faulted int
	for _, s := range scenarios {
		if s.Chaos == "" {
			none++
			if strings.Contains(s.Key(), "chaos=") {
				t.Errorf("no-fault cell key carries a chaos component: %s", s.Key())
			}
			continue
		}
		faulted++
		if want := " chaos=" + s.Chaos; !strings.HasSuffix(s.Key(), want) {
			t.Errorf("chaos cell key %q does not end with %q", s.Key(), want)
		}
	}
	if none != len(baseline) || faulted != 2*len(baseline) {
		t.Errorf("axis split %d none / %d faulted, want %d / %d", none, faulted, len(baseline), 2*len(baseline))
	}
	// The no-fault cells' keys are exactly the pre-chaos keys, in order.
	for i, s := range baseline {
		if got := scenarios[3*i].Key(); got != s.Key() {
			t.Errorf("no-fault key drifted: %q vs pre-chaos %q", got, s.Key())
		}
	}
}

// TestSweepNoChaosAxisBitwiseParity: an explicit no-fault axis must export
// byte-identically to a spec with no chaos axis at all — the sweep-level
// face of the chaos-disabled parity guarantee.
func TestSweepNoChaosAxisBitwiseParity(t *testing.T) {
	plain := chaosGridSpec()
	plain.Chaoses = nil
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	explicit := chaosGridSpec()
	explicit.Chaoses = []ChaosSpec{{}}
	got, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, got), exportBytes(t, want)) {
		t.Error("explicit no-fault axis changed the export bytes")
	}
	for _, r := range want {
		if r.Degraded || r.Faults != nil {
			t.Fatalf("fault counters on a fault-free cell: %+v", r)
		}
	}
}

// TestSweepChaosCellsDegradeDeterministically: chaos cells must replay bit
// for bit run over run, report the degraded status, and carry fault tallies —
// while the no-fault cells of the same grid stay clean.
func TestSweepChaosCellsDegradeDeterministically(t *testing.T) {
	spec := chaosGridSpec()
	first, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, first), exportBytes(t, second)) {
		t.Error("chaos grid is not deterministic run over run")
	}
	degraded := 0
	for _, r := range first {
		if r.Chaos == "" {
			if r.Degraded || r.Faults != nil {
				t.Errorf("no-fault cell %s carries fault state", r.Key())
			}
			continue
		}
		if r.Err != "" {
			t.Errorf("chaos cell %s failed instead of degrading: %s", r.Key(), r.Err)
		}
		if r.Degraded {
			degraded++
			if r.Faults == nil || r.Faults.IsZero() {
				t.Errorf("degraded cell %s has no fault tally", r.Key())
			}
			if r.Status() != "degraded" {
				t.Errorf("degraded cell %s has status %q", r.Key(), r.Status())
			}
		}
	}
	if degraded == 0 {
		t.Error("no chaos cell degraded; the grid exercises nothing")
	}
	if s := Summarize(first); !strings.Contains(s, "degraded") {
		t.Errorf("summary hides the degraded cells: %q", s)
	}
}

// TestSweepChaosFleetByteIdenticalAcrossWorkerCounts is the acceptance
// criterion for the sweep's chaos axis: with a fixed chaos seed, the fleet
// export at 1 and at 4 workers is byte-identical to the single-process run —
// including degraded statuses and fault counters.
func TestSweepChaosFleetByteIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := chaosGridSpec()
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := exportBytes(t, want)

	for _, workers := range []int{1, 4} {
		ctx := context.Background()
		addr, wait := startFleetCoordinator(t, ctx, CoordinatorSpec{Spec: spec, LeaseCells: 2}, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := Work(ctx, addr, WorkerOptions{Name: "w", Workers: 1}); err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}(i)
		}
		got, err := wait()
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(exportBytes(t, got), wantBytes) {
			t.Errorf("fleet export at %d workers differs from single-process export", workers)
		}
	}
}

// TestWireSpecChaosAxisTravels: a chaos axis must survive the coordinator →
// worker wire round trip, and a no-fault-only axis must leave the wire form
// entirely so pre-chaos wire bytes are reproduced.
func TestWireSpecChaosAxisTravels(t *testing.T) {
	spec := chaosGridSpec()
	wire, err := NewWireSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire.Chaoses) != 3 {
		t.Fatalf("wire spec carries %d chaos points, want 3", len(wire.Chaoses))
	}
	back, err := wire.Spec()
	if err != nil {
		t.Fatal(err)
	}
	wantScn, err := Scenarios(spec)
	if err != nil {
		t.Fatal(err)
	}
	gotScn, err := Scenarios(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotScn) != len(wantScn) {
		t.Fatalf("round-tripped grid has %d cells, want %d", len(gotScn), len(wantScn))
	}
	for i := range wantScn {
		if gotScn[i].Key() != wantScn[i].Key() {
			t.Fatalf("cell %d key drifted over the wire: %q vs %q", i, gotScn[i].Key(), wantScn[i].Key())
		}
	}

	plain := chaosGridSpec()
	plain.Chaoses = []ChaosSpec{{}}
	wire, err = NewWireSpec(plain)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Chaoses != nil {
		t.Errorf("no-fault axis must leave the wire form, got %+v", wire.Chaoses)
	}

	bad := chaosGridSpec()
	bad.Chaoses = []ChaosSpec{{OmitRate: 1.5}}
	if _, err := NewWireSpec(bad); err == nil {
		t.Error("out-of-range chaos rate accepted")
	}
}
