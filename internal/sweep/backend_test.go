package sweep

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"byzopt/internal/cluster"
	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
)

// encodeSweep runs the spec and returns the deterministic JSON export.
func encodeSweep(t *testing.T, spec Spec) []byte {
	t.Helper()
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBackendParityFaultFree is the cross-substrate acceptance guarantee:
// the same fault-free spec exports byte-identical JSON whether the
// scenarios execute in-process, over the cluster/transport stack, or over
// the Byzantine-broadcast p2p substrate — including the full per-round
// traces.
func TestBackendParityFaultFree(t *testing.T) {
	base := Spec{
		Filters:     []string{"mean", "cge", "cwtm", "krum"},
		FValues:     []int{0},
		Rounds:      50,
		RecordTrace: true,
	}
	inProcess := encodeSweep(t, base)

	for name, backend := range map[string]dgd.Backend{
		"cluster": &cluster.Backend{},
		"p2p":     p2p.Backend{},
	} {
		over := base
		over.Backend = backend
		if got := encodeSweep(t, over); !bytes.Equal(got, inProcess) {
			t.Errorf("%s-backed JSON differs from in-process JSON for a fault-free spec", name)
		}
	}
}

// TestBackendParityNonOmniscientFaults: index-aware serving extends the
// cross-substrate guarantee to Byzantine grids whose behaviors are not
// omniscient. "random" at f = 2 is the sharp case — its stream is derived
// per (seed, round, agentID), so a backend that collapsed faulty agents
// onto index 0 would emit perfectly correlated adversaries and a different
// trajectory.
func TestBackendParityNonOmniscientFaults(t *testing.T) {
	base := Spec{
		Filters:   []string{"cge", "cwtm", "mean"},
		Behaviors: []string{"gradient-reverse", "random", "zero"},
		FValues:   []int{1, 2},
		Rounds:    40,
	}
	inProcess := encodeSweep(t, base)

	overCluster := base
	overCluster.Backend = &cluster.Backend{}
	if got := encodeSweep(t, overCluster); !bytes.Equal(got, inProcess) {
		t.Error("cluster-backed JSON differs from in-process JSON for a non-omniscient Byzantine spec")
	}
}

// TestBackendParityP2PByzantine: the p2p substrate's parity envelope for
// Byzantine grids. Non-equivocating behaviors — the omniscient ipm/alie
// included, since the broadcast model's rushing adversary observes the
// honest round before choosing its report — must export byte-identical JSON
// to the in-process engine wherever the broadcast bound n > 3f holds
// (f = 1 at the paper's n = 6; "random" keeps the index-aware stream
// honest).
func TestBackendParityP2PByzantine(t *testing.T) {
	base := Spec{
		Filters:     []string{"cge", "cwtm", "mean"},
		Behaviors:   []string{"gradient-reverse", "random", "ipm", "alie"},
		FValues:     []int{1},
		Rounds:      40,
		RecordTrace: true,
	}
	inProcess := encodeSweep(t, base)

	overP2P := base
	overP2P.Backend = p2p.Backend{}
	if got := encodeSweep(t, overP2P); !bytes.Equal(got, inProcess) {
		t.Error("p2p-backed JSON differs from in-process JSON for a non-equivocating Byzantine spec")
	}
}

// TestBackendP2PInadmissibleCellsSkipped: grid cells violating the
// broadcast bound n > 3f are classified — status "skipped" with a
// deterministic reason — instead of failing the sweep, so mixed grids
// survive on the p2p backend.
func TestBackendP2PInadmissibleCellsSkipped(t *testing.T) {
	results, err := Run(Spec{
		Filters:   []string{"cge"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1, 2},
		Rounds:    10,
		Backend:   p2p.Backend{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("want 2 results, got %d", len(results))
	}
	byF := map[int]*Result{}
	for i := range results {
		byF[results[i].F] = &results[i]
	}
	if got := byF[1].Status(); got != "ok" {
		t.Errorf("admissible f=1 cell: status %q (%s)", got, byF[1].Err)
	}
	if got := byF[2].Status(); got != "skipped" {
		t.Errorf("inadmissible f=2 cell at n=6: status %q, want skipped", got)
	}
	if byF[2].Err != "p2p backend needs n > 3f, got n=6 f=2: dgd: configuration inadmissible for this backend" {
		t.Errorf("inadmissibility reason not deterministic: %q", byF[2].Err)
	}
}

// TestBackendP2PEquivocationAxis: the "equivocate" behavior is the axis
// only the p2p substrate can express — on the broadcast layer it garbles
// relays and changes the trajectory, while on the in-process engine it
// degrades to plain gradient reversal. Non-equivocating cells of the same
// grid stay identical across the two substrates.
func TestBackendP2PEquivocationAxis(t *testing.T) {
	base := Spec{
		Filters:   []string{"cge"},
		Behaviors: []string{"gradient-reverse", "equivocate"},
		FValues:   []int{1},
		Rounds:    40,
	}
	inProcess, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	overP2P := base
	overP2P.Backend = p2p.Backend{}
	p2pResults, err := Run(overP2P)
	if err != nil {
		t.Fatal(err)
	}
	if len(inProcess) != 2 || len(p2pResults) != 2 {
		t.Fatalf("want 2 results per backend, got %d/%d", len(inProcess), len(p2pResults))
	}
	for i := range inProcess {
		in, pp := inProcess[i], p2pResults[i]
		if in.Behavior != pp.Behavior {
			t.Fatalf("grid order differs: %s vs %s", in.Behavior, pp.Behavior)
		}
		switch in.Behavior {
		case "gradient-reverse":
			if in.FinalDist != pp.FinalDist {
				t.Errorf("non-equivocating cell drifted across substrates: %v vs %v", in.FinalDist, pp.FinalDist)
			}
		case "equivocate":
			if in.FinalDist == pp.FinalDist {
				t.Error("equivocation changed nothing — the distorter never reached the broadcast layer")
			}
			if pp.Status() != "ok" {
				t.Errorf("equivocating cell failed: %s", pp.Err)
			}
		}
	}
}

// TestBackendParityPerProblemKind extends the cross-substrate guarantee to
// every problem family the registry ships: for each kind, a grid mixing
// fault-free baseline cells with non-omniscient Byzantine cells (including
// the learning and svm problems' own faults and the index-aware "random"
// stream) must export byte-identical JSON in-process and over the
// cluster/transport stack.
func TestBackendParityPerProblemKind(t *testing.T) {
	specs := map[string]Spec{
		ProblemLearning: {
			Problem:     ProblemLearning,
			Filters:     []string{"cwtm", "cge-avg"},
			Behaviors:   []string{BehaviorLabelFlip, "gradient-reverse", "random"},
			FValues:     []int{3},
			NValues:     []int{10},
			Dims:        []int{20},
			Steps:       []dgd.StepSchedule{dgd.Constant{Eta: 0.01}},
			Rounds:      6,
			Baselines:   []bool{false, true},
			RecordTrace: true,
		},
		ProblemSensing: {
			Problem:   ProblemSensing,
			Filters:   []string{"cge", "cwtm"},
			Behaviors: []string{"gradient-reverse", "random"},
			FValues:   []int{1},
			NValues:   []int{8},
			Dims:      []int{4},
			Rounds:    30,
			Baselines: []bool{false, true},
		},
		ProblemRobustMean: {
			Problem:   ProblemRobustMean,
			Filters:   []string{"cge", "cwmedian"},
			Behaviors: []string{"random", "zero"},
			FValues:   []int{2},
			NValues:   []int{12},
			Dims:      []int{3},
			Rounds:    40,
			Baselines: []bool{false, true},
		},
		ProblemSVM: svmSpec(20),
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			inProcess := encodeSweep(t, spec)
			overCluster := spec
			overCluster.Backend = &cluster.Backend{}
			if got := encodeSweep(t, overCluster); !bytes.Equal(got, inProcess) {
				t.Errorf("%s: cluster-backed JSON differs from in-process JSON", name)
			}
		})
	}
}

// TestClusterBackendSweepParallel drives a multi-axis grid over the cluster
// backend on a parallel worker pool — under -race this is the probe for the
// transport/cluster stack running many concurrent servers, and it must
// still be byte-deterministic against a sequential cluster-backed run.
func TestClusterBackendSweepParallel(t *testing.T) {
	base := Spec{
		Filters:   []string{"cge", "cwtm"},
		Behaviors: []string{"gradient-reverse", "zero"},
		FValues:   []int{1, 2},
		Rounds:    25,
		Backend:   &cluster.Backend{},
		Workers:   1,
	}
	sequential := encodeSweep(t, base)
	parallel := base
	parallel.Workers = 8
	if got := encodeSweep(t, parallel); !bytes.Equal(got, sequential) {
		t.Error("cluster-backed sweep JSON differs between Workers=1 and Workers=8")
	}
}

// TestScenarioTimeoutClassifiedLikeDivergence: a scenario exceeding
// Spec.ScenarioTimeout is data — TimedOut with a deterministic reason —
// while fast scenarios in the same sweep stay ok, and the sweep itself
// succeeds.
func TestScenarioTimeoutClassifiedLikeDivergence(t *testing.T) {
	results, err := Run(Spec{
		Filters:         []string{"mean"},
		Behaviors:       []string{"zero"},
		NValues:         []int{48},
		Dims:            []int{24},
		Rounds:          1_000_000,
		ScenarioTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 result, got %d", len(results))
	}
	r := results[0]
	if r.Status() != "timeout" || !r.TimedOut {
		t.Fatalf("want timeout status, got %q (%+v)", r.Status(), r)
	}
	if r.Err != "scenario timed out after 20ms" {
		t.Errorf("timeout reason not normalized: %q", r.Err)
	}
}

func TestScenarioTimeoutOverClusterBackend(t *testing.T) {
	results, err := Run(Spec{
		Filters:         []string{"mean"},
		Behaviors:       []string{"zero"},
		NValues:         []int{48},
		Dims:            []int{24},
		Rounds:          1_000_000,
		ScenarioTimeout: 20 * time.Millisecond,
		Backend:         &cluster.Backend{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Status() != "timeout" {
		t.Fatalf("want one timeout result over the cluster backend, got %+v", results)
	}
}

// TestRunContextCancelReturnsPartialResults is the cancellation contract:
// a cancelled sweep stops within one scenario's duration and hands back the
// scenarios completed so far plus a context.Canceled-wrapped error, on
// every backend — the p2p loop checks its context once per broadcast round,
// so cancellation lands mid-round there too.
func TestRunContextCancelReturnsPartialResults(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend func() Spec
	}{
		{"inprocess", func() Spec { return Spec{} }},
		{"cluster", func() Spec { return Spec{Backend: &cluster.Backend{}} }},
		{"p2p", func() Spec { return Spec{Backend: p2p.Backend{}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.backend()
			// A grid big and slow enough that cancellation lands mid-sweep.
			spec.Filters = []string{"cge", "cwtm", "mean", "krum"}
			spec.Behaviors = []string{"gradient-reverse", "zero", "random"}
			spec.FValues = []int{1, 2}
			spec.NValues = []int{30}
			spec.Dims = []int{10}
			spec.Rounds = 3000
			spec.Workers = 2

			total, err := Scenarios(spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(100*time.Millisecond, cancel)
			start := time.Now()
			partial, err := RunContext(ctx, spec)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if len(partial) >= len(total) {
				t.Fatalf("cancellation returned %d of %d scenarios — sweep ran to completion", len(partial), len(total))
			}
			// "Within one scenario's duration": generous bound, far below
			// the uncancelled sweep's runtime.
			if elapsed > 30*time.Second {
				t.Errorf("cancelled sweep took %v", elapsed)
			}
			for _, r := range partial {
				if r.Status() == "error" {
					t.Errorf("partial result %s has error %q", r.Key(), r.Err)
				}
			}
		})
	}
}

// countingBackend counts the runs that start on the in-process engine.
type countingBackend struct{ started atomic.Int64 }

func (b *countingBackend) Run(ctx context.Context, cfg dgd.Config) (*dgd.Result, error) {
	b.started.Add(1)
	return dgd.InProcess{}.Run(ctx, cfg)
}

// TestRunCellsStopsOnEmitError: a worker whose coordinator is gone must not
// compute the rest of its lease. Once emit fails the pool starts no further
// cell beyond the ones its goroutines were already about to run, at any
// worker count, and returns emit's error rather than the cancellation it
// caused.
func TestRunCellsStopsOnEmitError(t *testing.T) {
	spec := smallSpec()
	spec.NValues = []int{10, 11, 12, 13}
	spec.Dims = []int{4}
	spec.Rounds = 200
	total, err := Scenarios(spec)
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]int, len(total))
	for i := range indices {
		indices[i] = i
	}
	if len(indices) != 64 {
		t.Fatalf("selection has %d cells, want 64", len(indices))
	}
	errGone := errors.New("coordinator gone")
	for _, workers := range []int{1, 4} {
		backend := &countingBackend{}
		spec.Workers, spec.Backend = workers, backend
		emits := 0
		err := RunCells(context.Background(), spec, indices, func(Result) error {
			emits++
			return errGone
		})
		if err != errGone {
			t.Errorf("workers=%d: RunCells returned %v, want emit's error", workers, err)
		}
		if emits != 1 {
			t.Errorf("workers=%d: emit called %d times after failing, want 1", workers, emits)
		}
		// One run reached emit, workers-1 were in flight beside it, and each
		// goroutine may have passed its cancellation check once more.
		if got := backend.started.Load(); got > int64(2*workers) {
			t.Errorf("workers=%d: %d backend runs started, want at most %d", workers, got, 2*workers)
		}
	}
}

// TestRunContextNilAndBackgroundEquivalent: Run is RunContext with a
// background context.
func TestRunContextNilAndBackgroundEquivalent(t *testing.T) {
	spec := Spec{Filters: []string{"cge"}, Behaviors: []string{"zero"}, Rounds: 15}
	direct, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(viaCtx) || direct[0].FinalDist != viaCtx[0].FinalDist {
		t.Error("Run and RunContext(Background) disagree")
	}
}

// TestRecordTraceExportsSeries: RecordTrace populates the per-round series
// with Rounds+1 points consistent with the summary fields.
func TestRecordTraceExportsSeries(t *testing.T) {
	const rounds = 30
	results, err := Run(Spec{
		Filters:     []string{"cge"},
		Behaviors:   []string{"gradient-reverse"},
		Rounds:      rounds,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Status() != "ok" {
		t.Fatalf("unexpected status %s: %s", r.Status(), r.Err)
	}
	if len(r.TraceLoss) != rounds+1 || len(r.TraceDist) != rounds+1 {
		t.Fatalf("trace lengths %d/%d, want %d", len(r.TraceLoss), len(r.TraceDist), rounds+1)
	}
	if r.TraceDist[rounds] != r.FinalDist {
		t.Errorf("trace end %v vs FinalDist %v", r.TraceDist[rounds], r.FinalDist)
	}
	if r.TraceLoss[0] != r.LossStart || r.TraceLoss[rounds] != r.LossFinal {
		t.Errorf("trace loss endpoints %v/%v vs summary %v/%v",
			r.TraceLoss[0], r.TraceLoss[rounds], r.LossStart, r.LossFinal)
	}
}
