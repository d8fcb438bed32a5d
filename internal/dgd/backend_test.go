package dgd

import (
	"context"
	"errors"
	"math"
	"testing"

	"byzopt/internal/aggregate"
)

// loggingFaulty is an external wrapper around a Byzantine agent — the kind
// of instrumentation layer a user might add. It forwards the Faulty marker,
// which is what keeps the engine collecting it in the Byzantine phase.
type loggingFaulty struct {
	inner Faulty
	calls int
}

func (w *loggingFaulty) Gradient(round int, x []float64) ([]float64, error) {
	return w.inner.Gradient(round, x)
}

func (w *loggingFaulty) FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error) {
	w.calls++
	return w.inner.FaultyGradient(round, agent, x, honest)
}

// TestFaultyMarkerSurvivesWrapping: a custom wrapper implementing Faulty
// must be collected in the Byzantine phase — its omniscient behavior sees
// exactly the honest gradients, not its own report. (Before the marker
// interface the engine type-asserted the concrete internal type, so any
// wrapper was silently mis-collected as honest.)
func TestFaultyMarkerSurvivesWrapping(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	seen := -1
	spy := &spyOmniscient{onApply: func(honest [][]float64) { seen = len(honest) }}
	fa, err := NewFaulty(agents[0], spy)
	if err != nil {
		t.Fatal(err)
	}
	wrapper := &loggingFaulty{inner: fa.(Faulty)}
	agents[0] = wrapper
	const rounds = 3
	if _, err := Run(Config{
		Agents: agents,
		F:      1,
		Filter: aggregate.CWTM{},
		X0:     []float64{0, 0},
		Rounds: rounds,
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(testRows)-1 {
		t.Errorf("omniscient behavior saw %d honest gradients through the wrapper, want %d", seen, len(testRows)-1)
	}
	if wrapper.calls != rounds {
		t.Errorf("wrapper collected through FaultyGradient %d times, want %d", wrapper.calls, rounds)
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{
		Agents: agents,
		F:      0,
		Filter: aggregate.Mean{},
		X0:     []float64{0, 0},
		Rounds: 10,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestRunContextCancelMidRun cancels from inside an observer: the run must
// stop within one round and surface the wrapped context error.
func TestRunContextCancelMidRun(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, _ := regressionAgents(t, testRows, xstar)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lastRound := -1
	_, err := RunContext(ctx, Config{
		Agents: agents,
		F:      0,
		Filter: aggregate.Mean{},
		X0:     []float64{0, 0},
		Rounds: 1000,
		Observer: ObserverFunc(func(t int, x []float64, loss, dist float64) error {
			lastRound = t
			if t == 3 {
				cancel()
			}
			return nil
		}),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if lastRound != 3 {
		t.Errorf("run continued to round %d after cancellation at 3", lastRound)
	}
}

// TestInProcessBackendMatchesRun: the Backend wrapper is the plain engine.
func TestInProcessBackendMatchesRun(t *testing.T) {
	xstar := []float64{1, 1}
	build := func() Config {
		agents, _, sum := regressionAgents(t, testRows, xstar)
		return Config{
			Agents:    agents,
			F:         0,
			Filter:    aggregate.Mean{},
			Box:       testBox(t),
			X0:        []float64{0, 0},
			Rounds:    100,
			TrackLoss: sum,
			Reference: xstar,
		}
	}
	direct, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	viaBackend, err := InProcess{}.Run(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(direct.X, viaBackend.X, 0) {
		t.Errorf("backend estimate %v differs from direct run %v", viaBackend.X, direct.X)
	}
}

// TestTraceRecorderRecordsSeries: the recorder captures every round with
// the tracked values, and NaN where tracking is off.
func TestTraceRecorderRecordsSeries(t *testing.T) {
	xstar := []float64{1, 1}
	agents, _, sum := regressionAgents(t, testRows, xstar)
	rec := &TraceRecorder{}
	const rounds = 25
	res, err := Run(Config{
		Agents:    agents,
		F:         0,
		Filter:    aggregate.Mean{},
		X0:        []float64{0, 0},
		Rounds:    rounds,
		TrackLoss: sum,
		Observer:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.X) != rounds+1 || len(rec.Loss) != rounds+1 || len(rec.Dist) != rounds+1 {
		t.Fatalf("recorded %d/%d/%d entries, want %d", len(rec.X), len(rec.Loss), len(rec.Dist), rounds+1)
	}
	for i, v := range rec.Loss {
		if v != res.Trace.Loss[i] {
			t.Fatalf("recorded loss[%d] = %v, trace has %v", i, v, res.Trace.Loss[i])
		}
	}
	for _, d := range rec.Dist {
		if !math.IsNaN(d) {
			t.Fatal("distance untracked (no Reference) but recorder saw a value")
		}
	}
	if !approxEqual(rec.X[rounds], res.X, 0) {
		t.Errorf("recorded final estimate %v, result has %v", rec.X[rounds], res.X)
	}
}
