package p2p

import (
	"context"
	"testing"

	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/simtime"
)

func p2pBitwise(t *testing.T, label string, got, want []float64) {
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

// Zero-latency wait-all async over the p2p backend must be bitwise
// identical to the synchronous p2p path.
func TestP2PAsyncZeroLatencyWaitAllBitwiseMatchesSync(t *testing.T) {
	cfg, _ := paperConfig(t, byzantine.GradientReverse{}, 120)
	sync, err := Backend{}.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _ := paperConfig(t, byzantine.GradientReverse{}, 120)
	cfg2.Async = &dgd.AsyncConfig{Policy: dgd.CollectWaitAll, Seed: 41}
	async, err := Backend{}.Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	p2pBitwise(t, "X", async.X, sync.X)
	for i := range sync.Trace.Dist {
		if sync.Trace.Dist[i] != async.Trace.Dist[i] {
			t.Fatalf("dist trace diverges at round %d", i)
		}
	}
}

// A straggler configuration must reproduce the in-process engine's
// trajectory bit for bit: the honest peers' kernel runs the same overlay
// over the same reports, and the honest-agreement invariant holds
// throughout.
func TestP2PAsyncMatchesInProcessEngine(t *testing.T) {
	async := &dgd.AsyncConfig{
		Latency:  simtime.Latency{Kind: simtime.LatencyPareto, Base: 0.3, Alpha: 1.4, StragglerRate: 0.2, StragglerFactor: 4},
		Policy:   dgd.CollectDeadline,
		Deadline: 1.2,
		Stale:    dgd.StaleWeighted,
		Seed:     77,
	}
	cfg, _ := paperConfig(t, byzantine.GradientReverse{}, 120)
	cfg.Async = async
	engine, err := dgd.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _ := paperConfig(t, byzantine.GradientReverse{}, 120)
	cfg2.Async = async
	res, err := Backend{}.Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	p2pBitwise(t, "X", res.X, engine.X)
}
