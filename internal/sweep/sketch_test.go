package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"byzopt/internal/cluster"
	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
)

// TestSketchKeyStability pins the sketch axis's compatibility rule: a zero
// SketchDim (every pre-existing scenario, and every cell of a
// non-configurable filter) adds no key component — so pre-sketch keys, and
// the seeds derived from them, are reproduced byte for byte — while a
// nonzero dimension appends one.
func TestSketchKeyStability(t *testing.T) {
	base := Scenario{
		Problem: ProblemSynthetic, Filter: "krum", Behavior: "gradient-reverse",
		F: 1, N: 6, Dim: 2, Step: "dim(1.5,1)", Rounds: 100,
	}
	if key := base.Key(); strings.Contains(key, "sketch") {
		t.Fatalf("zero SketchDim leaked into key %q", key)
	}
	sketched := base
	sketched.Filter = "krum-sketch"
	sketched.SketchDim = 16
	key := sketched.Key()
	if !strings.HasSuffix(key, " sketch=16") {
		t.Fatalf("nonzero SketchDim missing from key %q", key)
	}
	if base.DeriveSeed(7) == sketched.DeriveSeed(7) {
		t.Error("sketch cells must draw seeds independent of their unsketched siblings")
	}
}

// TestSketchAxisCollapse: the expanded grid carries the sketch axis only
// for sketch-configurable filters; everyone else collapses it to the single
// keyless value 0, so adding the axis to a mixed grid never duplicates (or
// re-seeds) the exact filters' cells.
func TestSketchAxisCollapse(t *testing.T) {
	spec := Spec{
		Filters:    []string{"mean", "krum", "krum-sketch"},
		Behaviors:  []string{"gradient-reverse"},
		SketchDims: []int{16, 64},
	}
	jobs, err := expand(&spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]map[int]int{}
	for _, jb := range jobs {
		if counts[jb.scn.Filter] == nil {
			counts[jb.scn.Filter] = map[int]int{}
		}
		counts[jb.scn.Filter][jb.scn.SketchDim]++
	}
	for _, exact := range []string{"mean", "krum"} {
		if len(counts[exact]) != 1 || counts[exact][0] != 1 {
			t.Errorf("filter %s: sketch axis not collapsed, cells by dim = %v", exact, counts[exact])
		}
	}
	if len(counts["krum-sketch"]) != 2 || counts["krum-sketch"][16] != 1 || counts["krum-sketch"][64] != 1 {
		t.Errorf("krum-sketch: want one cell per swept dim {16, 64}, got %v", counts["krum-sketch"])
	}
}

// TestWireSpecSketchDims: the default sketch axis leaves the wire form
// entirely — pre-sketch wire bytes are reproduced — while a swept axis
// round-trips into the identical grid.
func TestWireSpecSketchDims(t *testing.T) {
	plain := Spec{Filters: []string{"cge"}, Rounds: 10}
	w, err := NewWireSpec(plain)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("sketch_dims")) {
		t.Errorf("default sketch axis must be absent from wire bytes, got %s", raw)
	}

	swept := Spec{Filters: []string{"krum-sketch"}, SketchDims: []int{8, 32}, Rounds: 10}
	w2, err := NewWireSpec(swept)
	if err != nil {
		t.Fatal(err)
	}
	round, err := json.Marshal(w2)
	if err != nil {
		t.Fatal(err)
	}
	var back WireSpec
	if err := json.Unmarshal(round, &back); err != nil {
		t.Fatal(err)
	}
	spec2, err := back.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := expand(&swept)
	if err != nil {
		t.Fatal(err)
	}
	got, err := expand(&spec2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped grid has %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].scn.Key() != want[i].scn.Key() {
			t.Fatalf("cell %d: round-tripped key %q != original %q", i, got[i].scn.Key(), want[i].scn.Key())
		}
	}
}

// TestBackendParityApproxFilters extends the cross-substrate byte-parity
// guarantee to the approximate filters with the approximation genuinely
// engaged (d = 32 against a dimension-8 sketch and an 8-pair sample, with
// n − f ≥ d so that no cell is skipped as underdetermined): the
// counter-mode draws are keyed only on (seed, round), so in-process,
// cluster, and p2p runs — and any scenario worker-pool size — must export
// byte-identical JSON, the agreement metric that scores each call against
// the exact twin included.
func TestBackendParityApproxFilters(t *testing.T) {
	base := Spec{
		Filters:      []string{"krum-sketch", "bulyan-sketch", "krum-sampled"},
		Behaviors:    []string{"gradient-reverse", "random"},
		FValues:      []int{1},
		NValues:      []int{40},
		Dims:         []int{32},
		SketchDims:   []int{8},
		Rounds:       30,
		RecordTrace:  true,
		TraceMetrics: []string{TraceMetricAgreement},
	}
	results, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if _, ok := r.TraceMetrics[TraceMetricAgreement]; r.Status() != "ok" || !ok {
			t.Fatalf("cell %s: %s %s, agreement exported %v", r.Key(), r.Status(), r.Err, ok)
		}
	}
	inProcess := encodeSweep(t, base)

	for _, workers := range []int{1, 4} {
		pool := base
		pool.Workers = workers
		if got := encodeSweep(t, pool); !bytes.Equal(got, inProcess) {
			t.Errorf("%d-worker pool JSON differs from default pool for approximate filters", workers)
		}
	}
	for name, backend := range map[string]dgd.Backend{
		"cluster": &cluster.Backend{},
		"p2p":     p2p.Backend{},
	} {
		over := base
		over.Backend = backend
		if got := encodeSweep(t, over); !bytes.Equal(got, inProcess) {
			t.Errorf("%s-backed JSON differs from in-process JSON for approximate filters", name)
		}
	}
}
