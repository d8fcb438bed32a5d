package p2p

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
	"byzopt/internal/vecmath"
)

// paperConfig builds the paper's regression workload as a dgd.Config with
// the first agent wrapped in the given behavior (nil means fault-free).
func paperConfig(t *testing.T, behavior byzantine.Behavior, rounds int) (dgd.Config, *linreg.Instance) {
	t.Helper()
	inst, err := linreg.Paper()
	if err != nil {
		t.Fatal(err)
	}
	costs, err := inst.Costs()
	if err != nil {
		t.Fatal(err)
	}
	agents, err := dgd.HonestAgents(costs)
	if err != nil {
		t.Fatal(err)
	}
	f := 0
	if behavior != nil {
		fa, err := dgd.NewFaulty(agents[0], behavior)
		if err != nil {
			t.Fatal(err)
		}
		agents[0] = fa
		f = 1
	}
	honestSum, err := inst.HonestSum()
	if err != nil {
		t.Fatal(err)
	}
	return dgd.Config{
		Agents:    agents,
		F:         f,
		Filter:    aggregate.CGE{},
		Box:       inst.Box,
		X0:        inst.X0,
		Rounds:    rounds,
		TrackLoss: honestSum,
		Reference: inst.XH,
	}, inst
}

// TestBackendMatchesInProcessEngine: for fault-free configs and Byzantine
// configs that do not equivocate in the broadcast layer — omniscient
// behaviors included, since the broadcast model's rushing adversary sees the
// honest round too — the p2p backend must reproduce the in-process
// trajectory bit for bit, traces included.
func TestBackendMatchesInProcessEngine(t *testing.T) {
	behaviors := map[string]byzantine.Behavior{
		"fault-free":       nil,
		"gradient-reverse": byzantine.GradientReverse{},
		"ipm-omniscient":   byzantine.InnerProductManipulation{Epsilon: 0.5},
		"alie-omniscient":  byzantine.ALittleIsEnough{Z: 1.5},
	}
	for name, behavior := range behaviors {
		t.Run(name, func(t *testing.T) {
			cfg, _ := paperConfig(t, behavior, 120)
			engineRes, err := dgd.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg2, _ := paperConfig(t, behavior, 120)
			p2pRes, err := Backend{}.Run(context.Background(), cfg2)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEqual(engineRes.X, p2pRes.X, 0) {
				t.Errorf("engine %v vs p2p %v", engineRes.X, p2pRes.X)
			}
			for i := range engineRes.Trace.Dist {
				if engineRes.Trace.Dist[i] != p2pRes.Trace.Dist[i] ||
					engineRes.Trace.Loss[i] != p2pRes.Trace.Loss[i] {
					t.Fatalf("traces diverge at round %d", i)
				}
			}
		})
	}
}

// TestBackendEquivocateDetected: the "equivocate" behavior must reach the
// broadcast layer through the dgd.Faulty wrapper — the backend extracts its
// Relay as the peer's Distorter — and must therefore produce a different
// trajectory than plain gradient reversal, which is all the behavior can
// express on server-based substrates.
func TestBackendEquivocateDetected(t *testing.T) {
	equiv, err := byzantine.New("equivocate", 3)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := dgd.NewFaulty(nil, equiv)
	if err != nil {
		t.Fatal(err)
	}
	if AgentDistorter(fa) == nil {
		t.Fatal("equivocate behavior not surfaced as a broadcast distorter")
	}
	honest, err := dgd.NewFaulty(nil, byzantine.GradientReverse{})
	if err != nil {
		t.Fatal(err)
	}
	if AgentDistorter(honest) != nil {
		t.Error("gradient-reverse must not distort the broadcast layer")
	}

	cfgEquiv, _ := paperConfig(t, equiv, 80)
	equivRes, err := Backend{}.Run(context.Background(), cfgEquiv)
	if err != nil {
		t.Fatal(err)
	}
	cfgRev, _ := paperConfig(t, byzantine.GradientReverse{}, 80)
	revRes, err := Backend{}.Run(context.Background(), cfgRev)
	if err != nil {
		t.Fatal(err)
	}
	if approxEqual(equivRes.X, revRes.X, 0) {
		t.Error("equivocation did not change the trajectory — the distorter never reached the broadcast layer")
	}
	// The broadcast layer must still defeat the equivocation: the honest
	// peers agree and converge near x_H.
	_, inst := paperConfig(t, nil, 0)
	d, err := vecmath.Dist(equivRes.X, inst.XH)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.5 {
		t.Errorf("equivocating run ended %v from x_H", d)
	}
}

// TestEquivocatingWrapper: the explicit wrapper marks any agent Byzantine
// and carries the distorter, for agents built outside the behavior registry.
func TestEquivocatingWrapper(t *testing.T) {
	cfg, _ := paperConfig(t, nil, 0)
	wrapped, err := Equivocating(cfg.Agents[0], SplitLiar{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapped.(dgd.Faulty); !ok {
		t.Error("equivocating agent must be marked dgd.Faulty")
	}
	if AgentDistorter(wrapped) == nil {
		t.Error("wrapper lost its distorter")
	}
	if _, err := Equivocating(nil, SplitLiar{}); !errors.Is(err, ErrArgs) {
		t.Errorf("nil inner: %v", err)
	}
	if _, err := Equivocating(cfg.Agents[0], nil); !errors.Is(err, ErrArgs) {
		t.Errorf("nil distorter: %v", err)
	}
}

// TestBackendInadmissible: n <= 3f is a substrate admissibility failure, not
// a config error — it must wrap dgd.ErrInadmissible so the sweep engine can
// classify the cell as skipped.
func TestBackendInadmissible(t *testing.T) {
	cfg, _ := paperConfig(t, byzantine.GradientReverse{}, 10)
	cfg.F = 2 // n = 6 <= 3f
	if _, err := (Backend{}).Run(context.Background(), cfg); !errors.Is(err, dgd.ErrInadmissible) {
		t.Errorf("want dgd.ErrInadmissible, got %v", err)
	}
	// Three agents cannot tolerate one fault by broadcast either.
	cfg3, _ := paperConfig(t, nil, 1)
	cfg3.Agents, cfg3.F = cfg3.Agents[:3], 1
	if _, err := (Backend{}).Run(context.Background(), cfg3); !errors.Is(err, dgd.ErrInadmissible) {
		t.Errorf("n = 3, f = 1: want dgd.ErrInadmissible, got %v", err)
	}
}

// TestBackendObserverThreaded: the observer must see every consensus
// estimate t = 0..Rounds with the tracked values, exactly as on the other
// substrates.
func TestBackendObserverThreaded(t *testing.T) {
	const rounds = 25
	cfg, _ := paperConfig(t, byzantine.GradientReverse{}, rounds)
	rec := &dgd.TraceRecorder{}
	cfg.Observer = rec
	res, err := Backend{}.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.X) != rounds+1 || len(rec.Loss) != rounds+1 || len(rec.Dist) != rounds+1 {
		t.Fatalf("observer saw %d/%d/%d rounds, want %d", len(rec.X), len(rec.Loss), len(rec.Dist), rounds+1)
	}
	for i := range rec.Loss {
		if rec.Loss[i] != res.Trace.Loss[i] || rec.Dist[i] != res.Trace.Dist[i] {
			t.Fatalf("observer and trace disagree at round %d", i)
		}
	}
	if !approxEqual(rec.X[rounds], res.X, 0) {
		t.Error("observer's final estimate differs from the result")
	}
	if math.IsNaN(rec.Loss[0]) || math.IsNaN(rec.Dist[0]) {
		t.Error("tracked values reported as NaN")
	}
	// An aborting observer aborts the run.
	cfg2, _ := paperConfig(t, nil, rounds)
	boom := errors.New("boom")
	cfg2.Observer = dgd.ObserverFunc(func(t int, x []float64, loss, dist float64) error {
		if t == 3 {
			return boom
		}
		return nil
	})
	if _, err := (Backend{}).Run(context.Background(), cfg2); !errors.Is(err, boom) {
		t.Errorf("observer error not propagated: %v", err)
	}
}

// TestBackendCancellationPrompt mirrors the cluster backend's contract:
// cancelling the context mid-run aborts a long p2p execution within one
// round with a context.Canceled-wrapped error.
func TestBackendCancellationPrompt(t *testing.T) {
	cfg, _ := paperConfig(t, byzantine.GradientReverse{}, 50_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	_, err := Backend{}.Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}
