package dgd

// The kernel seam: dgd.Round driven directly with hand-fed reports must
// reproduce RunContext bit for bit, since the substrates are nothing but
// different ways of gathering the reports it is handed.

import (
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/chaos"
	"byzopt/internal/simtime"
)

// handReports queries the agents with a plain loop, honest first — no
// Collector, no arena — the way a substrate outside this package would.
func handReports(t *testing.T, agents []Agent, round int, x []float64) [][]float64 {
	t.Helper()
	reports := make([][]float64, len(agents))
	var honest [][]float64
	for i, a := range agents {
		if _, isFaulty := a.(Faulty); isFaulty {
			continue
		}
		g, err := a.Gradient(round, x)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = g
		honest = append(honest, g)
	}
	for i, a := range agents {
		if fa, ok := a.(Faulty); ok {
			g, err := fa.FaultyGradient(round, i, x, honest)
			if err != nil {
				t.Fatal(err)
			}
			reports[i] = g
		}
	}
	return reports
}

// driveKernel runs cfg through a hand-fed kernel; shape edits the reports
// (and the fault budget they go with) before each Apply.
func driveKernel(t *testing.T, cfg Config, shape func(f int, reports [][]float64) (int, [][]float64)) *Round {
	t.Helper()
	round, err := NewRound(cfg, len(cfg.Agents))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cfg.Rounds; r++ {
		if err := round.Record(r); err != nil {
			t.Fatal(err)
		}
		f, reports := cfg.F, handReports(t, cfg.Agents, r, round.X())
		if shape != nil {
			f, reports = shape(f, reports)
		}
		if err := round.Apply(r, f, reports); err != nil {
			t.Fatal(err)
		}
	}
	if err := round.Record(cfg.Rounds); err != nil {
		t.Fatal(err)
	}
	return round
}

func sameRun(t *testing.T, label string, round *Round, want *Result) {
	t.Helper()
	bitwiseEqual(t, label+" X", round.X(), want.X)
	bitwiseEqual(t, label+" loss", round.Trace().Loss, want.Trace.Loss)
	bitwiseEqual(t, label+" dist", round.Trace().Dist, want.Trace.Dist)
}

func TestRoundKernelMatchesRunContext(t *testing.T) {
	firstK := &AsyncConfig{
		Latency: simtime.Latency{Kind: simtime.LatencyUniform, Base: 0.5, Spread: 2, StragglerRate: 0.3, StragglerFactor: 5},
		Policy:  CollectFirstK, K: 4, Stale: StaleWeighted, Seed: 11,
	}
	// An Into filter and one adapted by the kernel's asInto.
	robust := []aggregate.Filter{aggregate.CGE{}, stripFilterInto(aggregate.CWTM{})}
	cases := []struct {
		name      string
		filters   []aggregate.Filter
		async     *AsyncConfig
		plan      *chaos.Plan
		wantCoast bool
	}{
		{name: "sync", filters: robust},
		{name: "first-k+chaos", filters: robust, async: firstK,
			plan: &chaos.Plan{Seed: 5, OmitRate: 0.3, Attempts: 2, RetryDelay: 0.5, DupRate: 0.2, DelayRate: 0.2, Delay: 1.5}},
		// Many rounds lose all six reports and nothing stale is kept: the
		// estimate coasts through them. Mean admits the one-report rounds.
		{name: "coast", filters: []aggregate.Filter{aggregate.Mean{}, stripFilterInto(aggregate.Mean{})},
			plan: &chaos.Plan{Seed: 2, OmitRate: 0.85}, wantCoast: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, filter := range tc.filters {
				wantRec, gotRec := &TraceRecorder{}, &TraceRecorder{}
				cfg := chaosTestConfig(t, filter, tc.async, tc.plan)
				cfg.Observer = wantRec
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Observer = gotRec
				round := driveKernel(t, cfg, nil)
				sameRun(t, filter.Name(), round, want)
				if len(gotRec.X) != len(wantRec.X) || len(gotRec.Async) != len(wantRec.Async) || len(gotRec.Chaos) != len(wantRec.Chaos) {
					t.Fatalf("observer calls differ: %d/%d/%d vs %d/%d/%d", len(gotRec.X), len(gotRec.Async), len(gotRec.Chaos),
						len(wantRec.X), len(wantRec.Async), len(wantRec.Chaos))
				}
				for i := range wantRec.Async {
					if gotRec.Async[i] != wantRec.Async[i] {
						t.Fatalf("async stats differ at round %d: %+v vs %+v", i, gotRec.Async[i], wantRec.Async[i])
					}
				}
				var faults chaos.Counters
				for i := range wantRec.Chaos {
					if gotRec.Chaos[i] != wantRec.Chaos[i] {
						t.Fatalf("chaos stats differ at round %d: %+v vs %+v", i, gotRec.Chaos[i], wantRec.Chaos[i])
					}
					faults.Add(wantRec.Chaos[i].Faults)
				}
				if round.Faults() != faults {
					t.Errorf("fault tally %+v, observers saw %+v", round.Faults(), faults)
				}
				if tc.wantCoast && (faults.LostRounds == 0 || faults.LostRounds == cfg.Rounds) {
					t.Errorf("want some but not all rounds lost, got %d of %d", faults.LostRounds, cfg.Rounds)
				}
			}
		})
	}
}

// The cluster's step-S1 case: an agent eliminated for the whole run is a nil
// row, and the fault budget shrinks with it. The kernel must then step
// exactly as a run that never had the agent.
func TestRoundKernelNilRowShrunkenF(t *testing.T) {
	const gone = 2
	for _, filter := range []aggregate.Filter{aggregate.CGE{}, stripFilterInto(aggregate.CWTM{})} {
		cfg := asyncTestConfig(t, filter, nil)
		round := driveKernel(t, cfg, func(f int, reports [][]float64) (int, [][]float64) {
			reports[gone] = nil
			return f - 1, reports
		})
		without := cfg
		without.Agents = append(append([]Agent(nil), cfg.Agents[:gone]...), cfg.Agents[gone+1:]...)
		without.F = cfg.F - 1
		want, err := Run(without)
		if err != nil {
			t.Fatal(err)
		}
		// TrackLoss sums all six costs in both runs, so the series compare.
		sameRun(t, filter.Name(), round, want)
	}
}
