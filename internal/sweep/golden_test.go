package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/baseline.json from the current engine output")

// baselineSpec is the checked-in regression sweep: a real multi-axis grid
// (including f = 0 cells, fault-free Baseline-axis cells, and a skipped
// infeasible filter) that runs in well under a second. Timings are stripped
// on export, so the JSON is a pure function of this spec and the engine.
func baselineSpec() Spec {
	return Spec{
		Filters:   []string{"mean", "cge", "cwtm", "krum", "bulyan"},
		Behaviors: []string{"gradient-reverse", "zero"},
		FValues:   []int{0, 1},
		Baselines: []bool{false, true},
		Rounds:    40,
		Seed:      7,
	}
}

// learningBaselineSpec is the checked-in learning-problem sweep: an
// Appendix-K-shaped grid (label-flip and gradient-reverse faults plus the
// fault-free baseline cell) with per-round loss and accuracy traces, small
// enough for CI but covering the metric path end to end.
func learningBaselineSpec() Spec {
	return Spec{
		Problem:     ProblemLearning,
		Filters:     []string{"cwtm", "cge-avg"},
		Behaviors:   []string{BehaviorLabelFlip, "gradient-reverse"},
		FValues:     []int{3},
		NValues:     []int{10},
		Dims:        []int{20},
		Steps:       []dgd.StepSchedule{dgd.Constant{Eta: 0.01}},
		Rounds:      8,
		Baselines:   []bool{false, true},
		Seed:        7,
		RecordTrace: true,
	}
}

// p2pBaselineSpec is the checked-in peer-to-peer sweep: the same engine
// grid served over the Byzantine-broadcast substrate, covering the
// broadcast-only equivocation axis, f = 0 cells, and inadmissible n <= 3f
// cells (classified "skipped" with a deterministic reason) in one small
// checked-in file.
func p2pBaselineSpec() Spec {
	return Spec{
		Filters:   []string{"mean", "cge", "cwtm"},
		Behaviors: []string{"gradient-reverse", "equivocate"},
		FValues:   []int{0, 1, 2},
		Rounds:    40,
		Seed:      7,
		Backend:   p2p.Backend{},
	}
}

// p2pGridSpec is the checked-in peer-to-peer sweep at n = 7, where f = 2 is
// admissible: its equivocate cells put two distorting peers in every
// broadcast, so each honest sender's EIG tree is built in full — the case
// p2pBaselineSpec (n = 6) skips.
func p2pGridSpec() Spec {
	return Spec{
		Problem:   ProblemSynthetic,
		Filters:   []string{"mean", "cge", "cwtm"},
		Behaviors: []string{"gradient-reverse", "equivocate"},
		FValues:   []int{1, 2},
		NValues:   []int{7},
		Dims:      []int{2},
		Rounds:    40,
		Seed:      7,
		Backend:   p2p.Backend{},
	}
}

// TestGoldenBaselineSweep re-runs the baseline spec and byte-compares the
// deterministic export against testdata/baseline.json — a sweep is a golden
// test once timings are stripped. Any intentional engine change that moves
// the numbers must regenerate the file with
//
//	go test ./internal/sweep -run TestGoldenBaselineSweep -update
//
// and justify the diff in review.
func TestGoldenBaselineSweep(t *testing.T) {
	checkGolden(t, baselineSpec(), "baseline.json")
}

// TestGoldenLearningSweep is the learning-problem counterpart, covering the
// problem registry, the Baseline axis, and the accuracy-trace export in one
// checked-in file.
func TestGoldenLearningSweep(t *testing.T) {
	checkGolden(t, learningBaselineSpec(), "baseline_learning.json")
}

// TestGoldenBaselineP2P is the peer-to-peer counterpart: the decentralized
// substrate is held to the same byte-for-byte reproducibility bar as the
// in-process engine, equivocating adversaries and inadmissible cells
// included.
func TestGoldenBaselineP2P(t *testing.T) {
	checkGolden(t, p2pBaselineSpec(), "baseline_p2p.json")
}

// TestGoldenP2PEquivocation pins p2pGridSpec: equivocation over Byzantine
// broadcast at f = 1 and at f = 2, which no n = 6 golden can hold.
func TestGoldenP2PEquivocation(t *testing.T) {
	checkGolden(t, p2pGridSpec(), "baseline_p2p_n7.json")
}

func checkGolden(t *testing.T, spec Spec, file string) {
	t.Helper()
	if runtime.GOARCH != "amd64" && !*updateGolden {
		// The checked-in baselines were generated on amd64. On arm64 the Go
		// compiler may contract a*b+c into FMA instructions, so trajectories
		// can differ in the last ulp — the run-vs-run parity tests still
		// hold everywhere, but a byte-compare against amd64 files does not.
		t.Skipf("golden baselines are amd64 artifacts; skipping byte-compare on %s", runtime.GOARCH)
	}
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("sweep output drifted from %s (%d vs %d bytes); if intentional, regenerate with -update",
			path, buf.Len(), len(want))
	}
}
