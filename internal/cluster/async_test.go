package cluster

import (
	"context"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/simtime"
	"byzopt/internal/transport"
)

func asyncPaperConfig(t *testing.T, async *dgd.AsyncConfig) dgd.Config {
	t.Helper()
	inst, agents := paperAgents(t, byzantine.GradientReverse{})
	return dgd.Config{
		Agents: agents,
		F:      1,
		Filter: aggregate.CGE{},
		Box:    inst.Box,
		X0:     inst.X0,
		Rounds: 120,
		Async:  async,
	}
}

func mustBitwise(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d differs bitwise: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// Zero-latency wait-all async over the cluster backend must be bitwise
// identical to the synchronous cluster path.
func TestClusterAsyncZeroLatencyWaitAllBitwiseMatchesSync(t *testing.T) {
	sync, err := (&Backend{}).Run(context.Background(), asyncPaperConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	async, err := (&Backend{}).Run(context.Background(), asyncPaperConfig(t, &dgd.AsyncConfig{
		Policy: dgd.CollectWaitAll,
		Seed:   17,
	}))
	if err != nil {
		t.Fatal(err)
	}
	mustBitwise(t, "X", async.X, sync.X)
}

// The same async configuration must produce the same trajectory on the
// cluster substrate as on the in-process engine: the overlay draws only
// from (seed, round, agent), never from reply timing.
func TestClusterAsyncMatchesInProcessEngine(t *testing.T) {
	async := &dgd.AsyncConfig{
		Latency: simtime.Latency{Kind: simtime.LatencyUniform, Base: 0.2, Spread: 1, StragglerRate: 0.25, StragglerFactor: 6},
		Policy:  dgd.CollectFirstK,
		K:       4,
		Stale:   dgd.StaleReuse,
		Seed:    23,
	}
	engine, err := dgd.Run(asyncPaperConfig(t, async))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := (&Backend{}).Run(context.Background(), asyncPaperConfig(t, async))
	if err != nil {
		t.Fatal(err)
	}
	mustBitwise(t, "X", cluster.X, engine.X)
}

// An agent eliminated by the step-S1 rule must leave the async overlay
// permanently: its banked gradient is forgotten, not replayed as stale
// input forever.
func TestClusterAsyncEliminationRemovesAgentFromOverlay(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	conns := make([]transport.AgentConn, len(agents))
	for i, a := range agents {
		c, err := transport.NewChannel(a)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		t.Cleanup(func() { _ = c.Close() })
	}
	// Crash agent 2 after round 3 by closing its transport.
	crashAfter := 3
	crashed := conns[2]
	rec := &dgd.TraceRecorder{OmitEstimates: true}
	obs := dgd.ObserverFunc(func(tt int, x []float64, loss, dist float64) error {
		if tt == crashAfter {
			_ = crashed.Close()
		}
		return nil
	})
	srv, err := newServer(Config{Conns: conns}, dgd.Config{
		F:      1,
		Filter: aggregate.CGE{},
		Box:    inst.Box,
		X0:     inst.X0,
		Rounds: 12,
		Async: &dgd.AsyncConfig{
			Latency: simtime.Latency{Kind: simtime.LatencyFixed, Base: 0.5},
			Policy:  dgd.CollectWaitAll,
			Stale:   dgd.StaleReuse,
			Seed:    5,
		},
		Observer: multiAsyncObserver{obs, rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eliminated) != 1 || res.Eliminated[0] != 2 {
		t.Fatalf("eliminated = %v, want [2]", res.Eliminated)
	}
	n := len(agents)
	for i, s := range rec.Async {
		want := n
		if i >= crashAfter {
			want = n - 1
		}
		// Wait-all with uniform fixed latency: everyone live arrives fresh;
		// the eliminated agent must not reappear as a stale substitution.
		if s.Arrived != want || s.Reused != 0 {
			t.Fatalf("round %d stats = %+v, want %d fresh arrivals", i, s, want)
		}
	}
}

// multiAsyncObserver fans ObserveRound out to both observers and forwards
// async stats to the recorder.
type multiAsyncObserver struct {
	hook dgd.RoundObserver
	rec  *dgd.TraceRecorder
}

func (m multiAsyncObserver) ObserveRound(t int, x []float64, loss, dist float64) error {
	if err := m.hook.ObserveRound(t, x, loss, dist); err != nil {
		return err
	}
	return m.rec.ObserveRound(t, x, loss, dist)
}

func (m multiAsyncObserver) ObserveAsyncRound(stats dgd.AsyncRoundStats) error {
	return m.rec.ObserveAsyncRound(stats)
}
