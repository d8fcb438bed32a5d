package sweep

// Cross-substrate contracts of the shared round kernel: one validation, one
// error taxonomy. The in-process engine, the cluster server, and the p2p
// engine must refuse the same bad configurations — each under its own
// package's sentinel, before any agent is asked for a gradient — and must
// report a run-time failure of the kernel in the same words.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/chaos"
	"byzopt/internal/cluster"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
	"byzopt/internal/transport"
	"byzopt/internal/vecmath"
)

// countedAgent counts the gradient queries it serves.
type countedAgent struct {
	dgd.Agent
	queries *atomic.Int64
}

func (a countedAgent) Gradient(round int, x []float64) ([]float64, error) {
	a.queries.Add(1)
	return a.Agent.Gradient(round, x)
}

// substrateConfig is a valid 7-agent, d=2 run every substrate admits at
// f <= 2, with every agent counting its queries.
func substrateConfig(t *testing.T) (dgd.Config, *atomic.Int64) {
	t.Helper()
	rows := [][]float64{{1, 0}, {0.8, 0.5}, {0.5, 0.8}, {0, 1}, {-0.5, 0.8}, {-0.8, 0.5}, {0.3, -0.9}}
	queries := new(atomic.Int64)
	agents := make([]dgd.Agent, len(rows))
	for i, row := range rows {
		cost, err := costfunc.NewObservation(row, row[0]+row[1])
		if err != nil {
			t.Fatal(err)
		}
		honest, err := dgd.NewHonest(cost)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = countedAgent{Agent: honest, queries: queries}
	}
	return dgd.Config{Agents: agents, F: 1, Filter: aggregate.CGE{}, X0: []float64{0, 0}, Rounds: 5}, queries
}

// substrateRuns are the four ways into the kernel: the three Backends and
// the cluster server's own configuration.
func substrateRuns(t *testing.T) map[string]func(dgd.Config) error {
	t.Helper()
	viaBackend := func(b dgd.Backend) func(dgd.Config) error {
		return func(cfg dgd.Config) error {
			_, err := b.Run(context.Background(), cfg)
			return err
		}
	}
	return map[string]func(dgd.Config) error{
		"in-process":      viaBackend(dgd.InProcess{}),
		"cluster-backend": viaBackend(&cluster.Backend{}),
		"p2p-backend":     viaBackend(p2p.Backend{}),
		"cluster": func(cfg dgd.Config) error {
			conns := make([]transport.AgentConn, len(cfg.Agents))
			for i, a := range cfg.Agents {
				c, err := transport.NewChannel(a)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = c.Close() }()
				conns[i] = c
			}
			srv, err := cluster.NewServer(cluster.Config{
				Conns: conns, F: cfg.F, Filter: cfg.Filter, Steps: cfg.Steps, Box: cfg.Box, X0: cfg.X0, Rounds: cfg.Rounds,
			})
			if err != nil {
				return err
			}
			_, err = srv.Run(context.Background())
			return err
		},
	}
}

func TestSubstrateConfigSentinels(t *testing.T) {
	sentinel := map[string]error{
		"in-process": dgd.ErrConfig, "cluster-backend": cluster.ErrConfig, "cluster": cluster.ErrConfig,
		"p2p-backend": p2p.ErrArgs,
	}
	cube3, err := vecmath.NewCube(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	loss1, err := costfunc.NewObservation([]float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*dgd.Config)
		// broadcast marks the rows the p2p substrate refuses first, as
		// inadmissible for its n > 3f broadcast bound.
		broadcast bool
		// kernelOnly marks the fields cluster.Config does not carry: the
		// bare server cannot be handed them (the cluster backend can).
		kernelOnly bool
	}{
		{name: "f at n/2", mutate: func(c *dgd.Config) { c.F = 4 }, broadcast: true},
		{name: "negative f", mutate: func(c *dgd.Config) { c.F = -1 }, broadcast: true},
		{name: "nil filter", mutate: func(c *dgd.Config) { c.Filter = nil }},
		{name: "empty x0", mutate: func(c *dgd.Config) { c.X0 = nil }},
		{name: "negative rounds", mutate: func(c *dgd.Config) { c.Rounds = -1 }},
		{name: "box dim", mutate: func(c *dgd.Config) { c.Box = cube3 }},
		{name: "reference dim", mutate: func(c *dgd.Config) { c.Reference = []float64{1} }, kernelOnly: true},
		{name: "loss dim", mutate: func(c *dgd.Config) { c.TrackLoss = loss1 }, kernelOnly: true},
		{name: "async policy", mutate: func(c *dgd.Config) { c.Async = &dgd.AsyncConfig{Policy: "eventually"} }, kernelOnly: true},
		{name: "chaos rate", mutate: func(c *dgd.Config) { c.Chaos = &chaos.Plan{OmitRate: 2} }, kernelOnly: true},
	}
	for _, tc := range cases {
		for name, run := range substrateRuns(t) {
			if tc.kernelOnly && name == "cluster" {
				continue
			}
			cfg, queries := substrateConfig(t)
			tc.mutate(&cfg)
			err := run(cfg)
			want := sentinel[name]
			if tc.broadcast && name == "p2p-backend" {
				want = dgd.ErrInadmissible
			}
			if !errors.Is(err, want) {
				t.Errorf("%s on %s: want %v, got %v", tc.name, name, want, err)
			}
			if q := queries.Load(); q != 0 {
				t.Errorf("%s on %s: %d agent queries before the configuration was refused", tc.name, name, q)
			}
		}
	}
	// The substrates do admit the unmutated configuration.
	for name, run := range substrateRuns(t) {
		cfg, queries := substrateConfig(t)
		if err := run(cfg); err != nil {
			t.Errorf("valid configuration on %s: %v", name, err)
		}
		if queries.Load() == 0 {
			t.Errorf("valid configuration on %s queried no agent", name)
		}
	}
}

// nanBehavior reports a NaN gradient.
type nanBehavior struct{}

func (nanBehavior) Name() string { return "nan" }

func (nanBehavior) Apply(_, _ int, trueGrad []float64) ([]float64, error) {
	out := vecmath.Clone(trueGrad)
	out[0] = math.NaN()
	return out, nil
}

// A failure inside the kernel reads the same wherever the reports came from:
// same sentinel, same text (the in-process wording, which is what sweep
// exports have always carried).
func TestSubstrateErrorParity(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*testing.T, *dgd.Config)
		want   error
		// skipP2P: the broadcast layer agrees on the zero vector for a
		// non-finite report (what DecodeVectorInto decodes its payload to),
		// so that report never reaches a peer's filter.
		skipP2P bool
	}{
		{name: "nan report", want: dgd.ErrDiverged, skipP2P: true, mutate: func(t *testing.T, c *dgd.Config) {
			fa, err := dgd.NewFaulty(c.Agents[0], nanBehavior{})
			if err != nil {
				t.Fatal(err)
			}
			c.Agents[0] = fa
		}},
		{name: "estimate overflows", want: dgd.ErrDiverged, mutate: func(_ *testing.T, c *dgd.Config) {
			c.X0 = []float64{1e3, 1e3}
			c.Steps = dgd.Constant{Eta: math.MaxFloat64}
		}},
		{name: "non-positive step", want: dgd.ErrConfig, mutate: func(_ *testing.T, c *dgd.Config) {
			c.Steps = dgd.Constant{Eta: 0}
		}},
	}
	for _, tc := range cases {
		cfg, _ := substrateConfig(t)
		tc.mutate(t, &cfg)
		_, err := dgd.Run(cfg)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s in-process: want %v, got %v", tc.name, tc.want, err)
		}
		for name, run := range substrateRuns(t) {
			if tc.skipP2P && name == "p2p-backend" {
				continue
			}
			cfg, _ := substrateConfig(t)
			tc.mutate(t, &cfg)
			got := run(cfg)
			if !errors.Is(got, tc.want) || got.Error() != err.Error() {
				t.Errorf("%s on %s: got %q, in-process says %q", tc.name, name, got, err)
			}
		}
	}
}

// meanWitness is a dgd.FilterObserver that recomputes the mean of each
// filter call's input and holds the call's output to it bit for bit. Its
// async face records which rounds the overlay left an input, stale rows
// included.
type meanWitness struct {
	fed, called map[int]bool
	stale       int // calls whose input holds a reused stale row
}

func (w *meanWitness) ObserveRound(int, []float64, float64, float64) error { return nil }

func (w *meanWitness) ObserveAsyncRound(s dgd.AsyncRoundStats) error {
	if s.Arrived+s.Reused > 0 {
		w.fed[s.Round] = true
	}
	if s.Reused > 0 {
		w.stale++
	}
	return nil
}

func (w *meanWitness) ObserveFilter(t, f int, input [][]float64, out []float64) error {
	want, err := aggregate.Mean{}.Aggregate(input, f)
	if err != nil {
		return err
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(out[i]) {
			return fmt.Errorf("round %d: filter output %v, mean of its input %v", t, out, want)
		}
	}
	w.called[t] = true
	return nil
}

// TestFilterObserverSeesTheFilterInput: on every substrate the kernel hands
// its filter face the rows the filter saw and what the filter returned, in
// each round the async/chaos overlay leaves an input (stale rows reused in
// some) and in no other (every round after the last agent crashed).
func TestFilterObserverSeesTheFilterInput(t *testing.T) {
	const rounds = 200
	for name, backend := range map[string]dgd.Backend{
		"in-process": dgd.InProcess{},
		"cluster":    &cluster.Backend{},
		"p2p":        p2p.Backend{},
	} {
		cfg, _ := substrateConfig(t)
		w := &meanWitness{fed: map[int]bool{}, called: map[int]bool{}}
		cfg.Filter, cfg.Rounds, cfg.Observer = aggregate.Mean{}, rounds, w
		cfg.Async = &dgd.AsyncConfig{Stale: dgd.StaleReuse, MaxStale: 1}
		cfg.Chaos = &chaos.Plan{Seed: 3, OmitRate: 0.6, CrashRate: 1, CrashWindow: rounds}
		if _, err := backend.Run(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.called) != len(w.fed) {
			t.Errorf("%s: %d filter calls observed in %d fed rounds", name, len(w.called), len(w.fed))
		}
		for r := range w.fed {
			if !w.called[r] {
				t.Errorf("%s: round %d fed the filter but was not observed", name, r)
			}
		}
		if len(w.fed) == rounds || w.stale == 0 {
			t.Errorf("%s: %d of %d rounds lost, %d with stale rows; want some of each", name, rounds-len(w.fed), rounds, w.stale)
		}
		t.Logf("%s: %d filter calls, %d of them with stale rows, %d rounds lost", name, len(w.called), w.stale, rounds-len(w.fed))
	}
}
