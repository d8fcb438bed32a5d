package cluster

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
)

// TestBackendMatchesInProcessEngine: the Backend must reproduce the
// in-process trajectory exactly — same config, same deterministic fault —
// including the loss/distance traces. This is the determinism-parity
// guarantee the sweep engine's cross-backend exports rely on.
func TestBackendMatchesInProcessEngine(t *testing.T) {
	inst, agents := paperAgents(t, byzantine.GradientReverse{})
	honestSum, err := inst.HonestSum()
	if err != nil {
		t.Fatal(err)
	}
	build := func(agents []dgd.Agent) dgd.Config {
		return dgd.Config{
			Agents:    agents,
			F:         1,
			Filter:    aggregate.CGE{},
			Box:       inst.Box,
			X0:        inst.X0,
			Rounds:    150,
			TrackLoss: honestSum,
			Reference: inst.XH,
		}
	}
	engineRes, err := dgd.Run(build(agents))
	if err != nil {
		t.Fatal(err)
	}
	_, agents2 := paperAgents(t, byzantine.GradientReverse{})
	backendRes, err := (&Backend{}).Run(context.Background(), build(agents2))
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(engineRes.X, backendRes.X, 0) {
		t.Errorf("engine %v vs backend %v", engineRes.X, backendRes.X)
	}
	for i := range engineRes.Trace.Dist {
		if engineRes.Trace.Dist[i] != backendRes.Trace.Dist[i] ||
			engineRes.Trace.Loss[i] != backendRes.Trace.Loss[i] {
			t.Fatalf("traces diverge at round %d", i)
		}
	}
}

// externFaulty is an external instrumentation wrapper that forwards the
// dgd.Faulty marker, as the Faulty docs instruct.
type externFaulty struct{ inner dgd.Faulty }

func (w externFaulty) Gradient(round int, x []float64) ([]float64, error) {
	return w.inner.Gradient(round, x)
}

func (w externFaulty) FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error) {
	return w.inner.FaultyGradient(round, agent, x, honest)
}

// TestBackendServesWrappedFaultyIndexAware: a wrapped Byzantine agent must
// be served with its real index over the transport. The "random" behavior
// at f = 2 derives its stream per (seed, round, agentID), so a backend that
// collapsed wrapped faulty agents onto index 0 would emit perfectly
// correlated adversaries and silently diverge from the in-process engine.
func TestBackendServesWrappedFaultyIndexAware(t *testing.T) {
	build := func() []dgd.Agent {
		t.Helper()
		_, agents := paperAgents(t, nil)
		behavior, err := byzantine.New("random", 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			fa, err := dgd.NewFaulty(agents[i], behavior)
			if err != nil {
				t.Fatal(err)
			}
			agents[i] = externFaulty{inner: fa.(dgd.Faulty)}
		}
		return agents
	}
	inst, _ := paperAgents(t, nil)
	cfg := func(agents []dgd.Agent) dgd.Config {
		return dgd.Config{
			Agents: agents,
			F:      2,
			Filter: aggregate.CWTM{},
			Box:    inst.Box,
			X0:     inst.X0,
			Rounds: 60,
		}
	}
	engineRes, err := dgd.Run(cfg(build()))
	if err != nil {
		t.Fatal(err)
	}
	backendRes, err := (&Backend{}).Run(context.Background(), cfg(build()))
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(engineRes.X, backendRes.X, 0) {
		t.Errorf("wrapped faulty agents served index-unaware: engine %v vs backend %v", engineRes.X, backendRes.X)
	}
}

// TestBackendCancellationPrompt: cancelling the context mid-run aborts a
// long cluster execution promptly with a context.Canceled-wrapped error.
func TestBackendCancellationPrompt(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	_, err := (&Backend{}).Run(ctx, dgd.Config{
		Agents: agents,
		F:      1,
		Filter: aggregate.CGE{},
		Box:    inst.Box,
		X0:     inst.X0,
		Rounds: 50_000_000, // would take minutes without cancellation
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestBackendObserver: Config.Observer crosses the transport boundary —
// the cluster server feeds it the same (t, x, loss, dist) stream as the
// in-process engine, with NaN for untracked values.
func TestBackendObserver(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	const rounds = 20
	var seenRounds []int
	_, err := (&Backend{}).Run(context.Background(), dgd.Config{
		Agents:    agents,
		F:         1,
		Filter:    aggregate.CGE{},
		Box:       inst.Box,
		X0:        inst.X0,
		Rounds:    rounds,
		Reference: inst.XH,
		Observer: dgd.ObserverFunc(func(round int, x []float64, loss, dist float64) error {
			seenRounds = append(seenRounds, round)
			if !math.IsNaN(loss) {
				return errors.New("loss untracked but non-NaN")
			}
			if math.IsNaN(dist) {
				return errors.New("distance tracked but NaN")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seenRounds) != rounds+1 || seenRounds[0] != 0 || seenRounds[rounds] != rounds {
		t.Errorf("observer saw rounds %v, want 0..%d", seenRounds, rounds)
	}
}

// TestBackendObserverErrorAborts mirrors the in-process contract: an
// observer error stops the protocol.
func TestBackendObserverErrorAborts(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	sentinel := errors.New("abort")
	_, err := (&Backend{}).Run(context.Background(), dgd.Config{
		Agents: agents,
		F:      1,
		Filter: aggregate.CGE{},
		Box:    inst.Box,
		X0:     inst.X0,
		Rounds: 100,
		Observer: dgd.ObserverFunc(func(t int, x []float64, loss, dist float64) error {
			if t == 5 {
				return sentinel
			}
			return nil
		}),
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("want sentinel, got %v", err)
	}
}

func TestBackendRejectsNilAgent(t *testing.T) {
	if _, err := (&Backend{}).Run(context.Background(), dgd.Config{
		Agents: []dgd.Agent{nil},
		Filter: aggregate.Mean{},
		X0:     []float64{0},
		Rounds: 1,
	}); !errors.Is(err, ErrConfig) {
		t.Errorf("want ErrConfig, got %v", err)
	}
}
