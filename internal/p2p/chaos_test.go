package p2p

import (
	"context"
	"testing"

	"byzopt/internal/byzantine"
	"byzopt/internal/chaos"
	"byzopt/internal/dgd"
)

// A chaos plan over the p2p backend must reproduce the in-process engine bit
// for bit: the honest peers' kernel runs the same overlay with the same plan,
// so the injected faults — and with them the whole trajectory — are the
// engine's.
func TestP2PChaosMatchesInProcessEngine(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 31, OmitRate: 0.15, DupRate: 0.1,
		DelayRate: 0.1, Delay: 0.4, Attempts: 2, RetryDelay: 0.1,
	}
	async := &dgd.AsyncConfig{Policy: dgd.CollectFirstK, K: 4, Seed: 13}
	cfg, _ := paperConfig(t, byzantine.GradientReverse{}, 120)
	cfg.Async, cfg.Chaos = async, plan
	engine, err := dgd.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _ := paperConfig(t, byzantine.GradientReverse{}, 120)
	cfg2.Async, cfg2.Chaos = async, plan
	res, err := Backend{}.Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	p2pBitwise(t, "X", res.X, engine.X)
}

// Chaos must not break the honest-agreement invariant: the run completes
// (the backend fails a run whose honest peers decide differently) and the
// degradation reaches the observer's fault tally.
func TestP2PChaosPreservesAgreementAndReportsFaults(t *testing.T) {
	cfg, _ := paperConfig(t, nil, 80)
	rec := &dgd.TraceRecorder{}
	cfg.Chaos, cfg.Observer = &chaos.Plan{Seed: 5, OmitRate: 0.2}, rec
	if _, err := (Backend{}).Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	var faults chaos.Counters
	for _, round := range rec.Chaos {
		faults.Add(round.Faults)
	}
	if len(rec.Chaos) != 80 || faults.Omitted == 0 {
		t.Errorf("degradation not reported: %d rounds observed, faults %+v", len(rec.Chaos), faults)
	}
}
