package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// validName is the driver's rule for a metric name.
func validName(s string) bool {
	const ok = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
	return s != "" && len(s) <= 64 && strings.Trim(s, ok) == "" && !strings.ContainsAny(s[:1], "_.-")
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmokeEmitsDeclaredMetrics runs every workload at smoke scale, untraced
// and traced, and requires exactly the metric names, units and bounds that
// BENCHMARK.json declares: none missing, none extra.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for i, m := range d.EndToEnd {
		wantE2E[m.Name] = m.Unit
		if def := endToEnd[i]; def.Name != m.Name || def.Unit != m.Unit || def.Better != m.Better || def.Bound != m.Bound {
			t.Errorf("end_to_end[%d] is %+v in BENCHMARK.json, %+v in the program", i, m, def)
		}
	}
	for i, m := range d.PerLayer {
		wantLayer[m.Name] = m.Unit
		if def := perLayer[i]; def.Name != m.Name || def.Unit != m.Unit || def.Better != m.Better {
			t.Errorf("per_layer[%d] is %+v in BENCHMARK.json, %+v in the program", i, m, def)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d + %d metrics, the program %d + %d", len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	for name := range wantE2E {
		if !validName(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
	}
	for name := range wantLayer {
		if !validName(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
	}

	// BENCHMARK.json declares the workloads the driver gates on; the program
	// may run more (README.md says which and why).
	ws := workloads(true)
	for _, dw := range d.Workloads {
		if w := findWorkload(ws, dw.Name); w == nil || w.why != dw.Why {
			t.Errorf("workload %+v of BENCHMARK.json is not in the program under that name and why", dw)
		}
	}
	r := &runner{seed: 1, seconds: 1, smoke: true, tmp: t.TempDir()}
	for _, w := range ws {
		if rd := w.spec(0).Rounds; rd > 20 {
			t.Errorf("%s: %d rounds at smoke scale, want at most 20", w.name, rd)
		}
		plain := r.visit(w, 0, false)
		if len(plain.Passes) != 1 {
			t.Errorf("%s: %d timed passes at smoke scale, want 1", w.name, len(plain.Passes))
		}
		wr := poolVisits(w, []*visitReport{plain})
		traced := r.visit(w, 1, true)
		wr.addTraced(traced)
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, wr.Attempted, wr.Failed, wr.FailedChecks)
		}
		if got, want := keys(wr.Metrics), keys(wantE2E); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s end-to-end metrics:\n got %v\nwant %v", w.name, got, want)
		}
		if got, want := keys(traced.Layers), keys(wantLayer); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s per-layer metrics:\n got %v\nwant %v", w.name, got, want)
		}
		for name, mv := range wr.Metrics {
			if mv.Unit != wantE2E[name] || !(mv.Value > 0) || math.IsInf(mv.Value, 0) {
				t.Errorf("%s %s = %v %s, want a positive number of %s", w.name, name, mv.Value, mv.Unit, wantE2E[name])
			}
		}
		for name, mv := range wr.Layers {
			if mv.Unit != wantLayer[name] || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.Value < 0 {
				t.Errorf("%s %s = %v %s, want a number of %s", w.name, name, mv.Value, mv.Unit, wantLayer[name])
			}
		}
		// The spans of a traced grid pass account for all of it.
		if w.grid() {
			var total float64
			for _, l := range []string{"sweep.self_share", "dgd.self_share", "p2p.self_share", "aggregate.share", "costfunc.share", "byzantine.share"} {
				total += traced.Layers[l]
			}
			if math.Abs(total-1) > 0.05 {
				t.Errorf("%s: layer shares sum to %v, want 1 within 5 %%", w.name, total)
			}
		}
	}
}

// TestTracedExportIdentical: on every grid the traced pass exports the bytes
// of the untraced pass, and its allocations are within 2 %.
func TestTracedExportIdentical(t *testing.T) {
	for _, w := range workloads(true) {
		if !w.grid() {
			continue
		}
		o := passOpts{inProcess: true}
		mallocs := func(o passOpts) (passResult, float64) {
			t.Helper()
			// The smaller of two runs: a stray runtime allocation counts once.
			var res passResult
			best := math.Inf(1)
			for i := 0; i < 2; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				r, err := w.runPass(7, o)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				res, best = r, math.Min(best, float64(after.Mallocs-before.Mallocs))
			}
			return res, best
		}
		plain, plainAllocs := mallocs(o)
		o.trace = &tracer{}
		traced, tracedAllocs := mallocs(o)
		if err := sameExport(plain.cells, traced.cells); err != nil {
			t.Errorf("%s: traced against untraced: %v", w.name, err)
		}
		if rel := math.Abs(tracedAllocs-plainAllocs) / plainAllocs; rel > 0.02 {
			t.Errorf("%s: %v allocations traced, %v untraced: %.1f %% apart, want within 2 %%", w.name, tracedAllocs, plainAllocs, 100*rel)
		}
		if o.trace.calls[layerAggregate] == 0 || o.trace.calls[layerCostfunc] == 0 || o.trace.calls[layerByzantine] == 0 {
			t.Errorf("%s: the tracer saw calls %v, want every layer called", w.name, o.trace.calls)
		}
	}
}

// TestFailureAccounting: a wrong outcome, an errored pass and a visit that
// cannot run all land in failed with the attempted count beside them.
func TestFailureAccounting(t *testing.T) {
	ws := workloads(true)
	w := findWorkload(ws, "paper_grid")
	res, err := w.runPass(1, passOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if bad, first := checkCells(res.cells, len(res.cells), false); bad != 0 {
		t.Fatalf("clean pass: %d bad cells: %s", bad, first)
	}
	// At 20 rounds nothing has converged, so the paper oracle must object.
	if bad, first := checkCells(res.cells, len(res.cells), true); bad == 0 || !strings.Contains(first, "final_dist") {
		t.Errorf("oracle at smoke scale: %d bad cells (%q), want some over epsilon", bad, first)
	}
	res.cells[3].Skipped = true
	if bad, first := checkCells(res.cells, len(res.cells), false); bad != 1 || !strings.Contains(first, "status skipped, want ok") {
		t.Errorf("flipped status: %d bad cells (%q), want 1", bad, first)
	}
	if bad, _ := checkCells(res.cells[:10], len(res.cells), false); bad != len(res.cells) {
		t.Errorf("short pass: %d bad cells, want all %d", bad, len(res.cells))
	}

	v := &visit{w: w, want: 64, rep: &visitReport{}}
	v.account(1, &passResult{}, io.ErrUnexpectedEOF, new(passRecord))
	if v.rep.Attempted != 64 || v.rep.Failed != 64 || len(v.rep.FailedChecks) != 1 {
		t.Errorf("errored pass: attempted %d failed %d checks %v, want 64 64 and one check", v.rep.Attempted, v.rep.Failed, v.rep.FailedChecks)
	}

	r := &runner{seed: 1, seconds: 1, smoke: true, tmp: t.TempDir()}
	rep := r.visit(&workload{name: "no_such_workload"}, 0, false)
	wr := poolVisits(w, []*visitReport{rep})
	if wr.Failed != 1 || wr.Attempted != 1 || wr.FailedShare != 1 || len(wr.FailedChecks) != 1 {
		t.Errorf("visit that cannot run: %+v, want one attempted, one failed", wr)
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4), the
// rule the driver uses for spreads.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := quartileSpread(quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestCompareVerdicts: each verdict of -compare, and its exit status.
func TestCompareVerdicts(t *testing.T) {
	mk := func(cells, p50, setup float64, spreadQ [3]float64, failedShare float64) *results {
		wr := &workloadResult{Name: "paper_grid", FailedShare: failedShare,
			Metrics: map[string]metricValue{}, Quartiles: map[string][3]float64{}}
		for _, def := range endToEnd {
			wr.Metrics[def.Name] = metricValue{100, def.Unit}
			wr.Quartiles[def.Name] = [3]float64{99, 100, 101}
		}
		wr.Metrics["cells_per_s"] = metricValue{cells, "cells/s"}
		wr.Metrics["cell_ms_p50"] = metricValue{p50, "ms"}
		wr.Metrics["setup_s"] = metricValue{setup, "s"}
		wr.Quartiles["round_us_p50"] = spreadQ
		return &results{Schema: resultsSchema, Workloads: []*workloadResult{wr}}
	}
	dir := t.TempDir()
	write := func(name string, r *results) string {
		doc, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(100, 100, 0.2, [3]float64{99, 100, 101}, 0))
	// Throughput up 30 % is better, latency up 40 % is worse, set-up up 0.2 s
	// is inside the 0.25 s floor, and a metric whose visits disagree by 40 %
	// is unresolved.
	change := write("change.json", mk(130, 140, 0.4, [3]float64{80, 100, 120}, 0))
	var out strings.Builder
	worse, err := compareFiles(&out, base, change)
	if err != nil || !worse {
		t.Fatalf("compare: worse=%v err=%v, want a worse pair", worse, err)
	}
	for metric, verdict := range map[string]string{
		"cells_per_s": "better", "cell_ms_p50": "worse", "setup_s": "within",
		"round_us_p50": "unresolved", "peak_rss_mb": "within", "failed_share": "within",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %s, want %s\n%s", metric, f[len(f)-1], verdict, line)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in\n%s", metric, out.String())
		}
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, base); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
	failing := write("failing.json", mk(100, 100, 0.2, [3]float64{99, 100, 101}, 0.01))
	if worse, err := compareFiles(io.Discard, base, failing); err != nil || !worse {
		t.Errorf("more failures than the base: worse=%v err=%v, want worse", worse, err)
	}
}
