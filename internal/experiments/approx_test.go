package experiments

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// TestApproxComparisonSmall runs the exact-vs-approximate comparison on a
// small instance and checks the report's structural invariants plus full
// determinism (the artifact committed at the repo root must be
// reproducible).
func TestApproxComparisonSmall(t *testing.T) {
	cfg := ApproxConfig{N: 12, Dim: 32, F: 1, Rounds: 10, SketchDim: 8, SamplePairs: 4, Behavior: "gradient-reverse", Seed: 11}
	rows, err := ApproxComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d comparison rows, want 4", len(rows))
	}
	wantPairs := map[string]string{
		"krum":        "krum-sketch",
		"multikrum-3": "multikrum-sketch-3",
		"bulyan":      "bulyan-sketch",
	}
	sampledSeen := false
	for _, row := range rows {
		if row.Rounds != cfg.Rounds {
			t.Errorf("%s vs %s: %d rounds scored, want %d", row.Exact, row.Approx, row.Rounds, cfg.Rounds)
		}
		if row.AgreementRate < 0 || row.AgreementRate > 1 {
			t.Errorf("%s vs %s: agreement rate %v outside [0, 1]", row.Exact, row.Approx, row.AgreementRate)
		}
		if !isFiniteAll(row.ExactCost, row.ApproxCost, row.CostDelta) {
			t.Errorf("%s vs %s: non-finite costs %v/%v/%v", row.Exact, row.Approx, row.ExactCost, row.ApproxCost, row.CostDelta)
		}
		if row.CostDelta != row.ApproxCost-row.ExactCost {
			t.Errorf("%s vs %s: delta %v != approx - exact", row.Exact, row.Approx, row.CostDelta)
		}
		if row.Approx == "krum-sampled" && row.Exact == "krum" && row.Dim == cfg.SamplePairs {
			sampledSeen = true
			continue
		}
		if want, ok := wantPairs[row.Exact]; !ok || row.Approx != want {
			t.Errorf("unexpected pair %s vs %s", row.Exact, row.Approx)
		}
	}
	if !sampledSeen {
		t.Error("sampled-pairs comparison missing from the report")
	}

	again, err := ApproxComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rows)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Error("comparison is not deterministic for a fixed config")
	}
}

// TestApproxComparisonDegenerateExact: when the approximation parameters
// cover the full problem — sketch dimension >= d, sample size >= n-1 — the
// approximate filters delegate to the exact code path, so every round
// agrees and the independent runs land at the identical final cost.
func TestApproxComparisonDegenerateExact(t *testing.T) {
	cfg := ApproxConfig{N: 12, Dim: 16, F: 1, Rounds: 8, SketchDim: 16, SamplePairs: 11, Behavior: "gradient-reverse", Seed: 5}
	rows, err := ApproxComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.AgreementRate != 1 {
			t.Errorf("%s vs %s: degenerate regime agreement %v, want 1", row.Exact, row.Approx, row.AgreementRate)
		}
		if row.CostDelta != 0 {
			t.Errorf("%s vs %s: degenerate regime cost delta %v, want 0", row.Exact, row.Approx, row.CostDelta)
		}
	}
}

func isFiniteAll(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TestApproxComparisonRejectsNonPositive: the comparison runs the config it
// is given, so a zero or negative size is an error, not a default.
func TestApproxComparisonRejectsNonPositive(t *testing.T) {
	base := ApproxConfig{N: 12, Dim: 16, F: 1, Rounds: 8, SketchDim: 4, SamplePairs: 4, Behavior: "gradient-reverse", Seed: 5}
	for name, mutate := range map[string]func(*ApproxConfig){
		"n":            func(c *ApproxConfig) { c.N = 0 },
		"d":            func(c *ApproxConfig) { c.Dim = -1 },
		"rounds":       func(c *ApproxConfig) { c.Rounds = 0 },
		"sketch dim":   func(c *ApproxConfig) { c.SketchDim = 0 },
		"sample pairs": func(c *ApproxConfig) { c.SamplePairs = -2 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := ApproxComparison(cfg); !errors.Is(err, ErrArgs) {
			t.Errorf("non-positive %s: err = %v, want ErrArgs", name, err)
		}
	}
}
