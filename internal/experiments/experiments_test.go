package experiments

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"byzopt/internal/linreg"
	"byzopt/internal/sweep"
)

// TestTable1MatchesGolden byte-compares the Table-1 sweep at the paper's 500
// rounds against testdata/table1.json. The file was generated at the last
// commit that still had the sequential Table1 driver, where
// TestTable1SweepMatchesExperiments proved the sweep and that driver agree;
// regenerate it (sweep.WriteJSON of sweep.Run(Table1Spec(0, 1)), timings off)
// only in a commit that declares the published table moved.
func TestTable1MatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/table1.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		results, err := sweep.Run(Table1Spec(0, workers))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := sweep.WriteJSON(&got, results, false); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("Workers=%d: Table-1 export differs from testdata/table1.json:\n%s", workers, got.Bytes())
		}
	}
}

// TestCGEWithinTheorem5BoundOnPaperCells checks the Theorem 3/5 guarantee
// lim ||x_t - x_H|| <= D epsilon on the two CGE cells of Table 1.
func TestCGEWithinTheorem5BoundOnPaperCells(t *testing.T) {
	rep, err := AppendixJ()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.Run(Table1Spec(400, 1))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range results {
		if r.Filter != "cge" {
			continue
		}
		checked++
		if r.Status() != "ok" || r.FinalDist > rep.Theorem5ErrorBound {
			t.Errorf("%s: status %s, distance %v exceeds the Theorem-5 bound %v",
				r.Key(), r.Status(), r.FinalDist, rep.Theorem5ErrorBound)
		}
	}
	if checked != 2 {
		t.Errorf("checked %d cge cells, want 2", checked)
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	rows, err := Table1Rows(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := linreg.Paper()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	// The paper's headline claim: every filtered run lands within epsilon
	// of x_H (Table 1 reports all four distances below 0.0890).
	for _, r := range rows {
		if r.Dist >= inst.Epsilon {
			t.Errorf("%s/%s: dist %v >= epsilon %v", r.Filter, r.Fault, r.Dist, inst.Epsilon)
		}
		if len(r.XOut) != 2 {
			t.Errorf("%s/%s: bad output %v", r.Filter, r.Fault, r.XOut)
		}
	}
	// Random faults are easier for CGE than gradient-reverse (huge-norm
	// gradients get eliminated almost surely): the paper reports 4.7e-5 vs
	// 2.4e-2. Check the ordering, not the exact magnitudes.
	var cgeGR, cgeRand float64
	for _, r := range rows {
		if r.Filter == "cge" && r.Fault == "gradient-reverse" {
			cgeGR = r.Dist
		}
		if r.Filter == "cge" && r.Fault == "random" {
			cgeRand = r.Dist
		}
	}
	if cgeRand >= cgeGR {
		t.Errorf("CGE: random fault dist %v should be far below gradient-reverse %v", cgeRand, cgeGR)
	}
}

func TestFigure2Shape(t *testing.T) {
	figs, inst, err := RegressionFigure(300, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("%d fault columns, want 2", len(figs))
	}
	for _, fd := range figs {
		if len(fd.Series) != 4 {
			t.Fatalf("fault %s: %d series, want 4", fd.Fault, len(fd.Series))
		}
		byName := map[string]Series{}
		for _, s := range fd.Series {
			if len(s.Loss) != 301 || len(s.Metric) != 301 {
				t.Fatalf("series %s has %d/%d points", s.Name, len(s.Loss), len(s.Metric))
			}
			byName[s.Name] = s
		}
		end := func(name string) float64 { return byName[name].Metric[300] }
		// Filtered runs behave like fault-free; plain GD does not.
		if end("cge") > 0.05 || end("cwtm") > 0.05 {
			t.Errorf("fault %s: filtered distances %v, %v too large", fd.Fault, end("cge"), end("cwtm"))
		}
		if end("plain-gd") < 5*end("cge") {
			t.Errorf("fault %s: plain GD dist %v should be far above CGE %v", fd.Fault, end("plain-gd"), end("cge"))
		}
		// Fault-free converges to x_H of the honest five, i.e. distance -> 0.
		if end("fault-free") > 0.01 {
			t.Errorf("fault-free distance %v", end("fault-free"))
		}
		_ = inst
	}
}

func TestFigure3IsShortHorizonFigure2(t *testing.T) {
	f3, _, err := RegressionFigure(80, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range f3 {
		for _, s := range fd.Series {
			if len(s.Loss) != 81 {
				t.Fatalf("zoomed series %s has %d points", s.Name, len(s.Loss))
			}
		}
	}
	if _, _, err := RegressionFigure(0, 1); !errors.Is(err, ErrArgs) {
		t.Errorf("rounds 0: %v", err)
	}
}

func TestAppendixJReport(t *testing.T) {
	rep, err := AppendixJ()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Theorem4Applicable {
		t.Error("Theorem 4 should be inapplicable on the paper instance (alpha < 0)")
	}
	if rep.Theorem5 == nil || rep.Theorem5.Alpha <= 0 {
		t.Fatal("Theorem 5 must apply")
	}
	if rep.ExhaustiveScore > rep.Epsilon+1e-9 {
		t.Errorf("exhaustive score %v exceeds epsilon %v", rep.ExhaustiveScore, rep.Epsilon)
	}
	if rep.ExhaustiveResilience > 2*rep.Epsilon+1e-9 {
		t.Errorf("exhaustive resilience %v exceeds 2 epsilon %v", rep.ExhaustiveResilience, 2*rep.Epsilon)
	}
	out := FormatAppendixJ(rep)
	for _, want := range []string{"epsilon", "Theorem 5", "Exhaustive"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestLearnFigureShapes(t *testing.T) {
	fig, err := Figure4(LearnConfig{Rounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 || !fig.Accuracy {
		t.Fatalf("%d series (accuracy %v), want 5 accuracy series", len(fig.Series), fig.Accuracy)
	}
	names := map[string]bool{}
	for _, s := range fig.Series {
		names[s.Name] = true
		if len(s.Loss) != 61 || len(s.Metric) != 61 {
			t.Fatalf("series %s has %d/%d points", s.Name, len(s.Loss), len(s.Metric))
		}
		// Loss must decrease from the zero-parameter baseline log(10).
		if s.Loss[len(s.Loss)-1] >= s.Loss[0] {
			t.Errorf("series %s loss did not decrease: %v -> %v", s.Name, s.Loss[0], s.Loss[len(s.Loss)-1])
		}
	}
	for _, want := range []string{"fault-free", "cwtm-lf", "cwtm-gr", "cge-lf", "cge-gr"} {
		if !names[want] {
			t.Errorf("missing series %s", want)
		}
	}
	if _, err := Figure4(LearnConfig{Rounds: -1}); !errors.Is(err, ErrArgs) {
		t.Errorf("negative rounds: %v", err)
	}
}

func TestLearnFilteredTracksFaultFree(t *testing.T) {
	// The Appendix-K claim at modest scale: filtered runs approach the
	// fault-free accuracy while the faults are active.
	fig, err := Figure4(LearnConfig{Rounds: 150})
	if err != nil {
		t.Fatal(err)
	}
	acc := map[string]float64{}
	for _, s := range fig.Series {
		acc[s.Name] = s.Metric[len(s.Metric)-1]
	}
	if acc["fault-free"] < 0.6 {
		t.Fatalf("fault-free accuracy %v too low for the test to be meaningful", acc["fault-free"])
	}
	for _, name := range []string{"cge-gr", "cwtm-gr", "cge-lf", "cwtm-lf"} {
		if acc[name] < acc["fault-free"]-0.25 {
			t.Errorf("%s accuracy %v far below fault-free %v", name, acc[name], acc["fault-free"])
		}
	}
}

func TestRenderers(t *testing.T) {
	rows := []Table1Row{{Filter: "cge", Fault: "random", XOut: []float64{1.07, 0.98}, Dist: 4.7e-5}}
	if s := FormatTable1(rows); !strings.Contains(s, "cge") || !strings.Contains(s, "4.7") {
		t.Errorf("table render:\n%s", s)
	}
	fd := FigureData{
		Fault: "random",
		Series: []Series{
			{Name: "cge", Loss: []float64{1, 0.5}, Metric: []float64{1, 0.2}},
		},
	}
	var sb strings.Builder
	if err := WriteFigureCSV(&sb, fd); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	if !strings.HasPrefix(csv, "t,cge_loss,cge_dist") || !strings.Contains(csv, "\n1,") {
		t.Errorf("figure csv:\n%s", csv)
	}
	if s := SummarizeFigure(fd); !strings.HasPrefix(s, "fault = random\n") || !strings.Contains(s, "dist[end]") {
		t.Errorf("figure summary:\n%s", s)
	}
	learn := FigureData{
		Accuracy: true,
		Series:   []Series{{Name: "cge-lf", Loss: []float64{2, 1}, Metric: []float64{0.1, 0.9}}},
	}
	sb.Reset()
	if err := WriteFigureCSV(&sb, learn); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "t,cge-lf_loss,cge-lf_acc\n0,2.000000e+00,0.1000\n1,1.000000e+00,0.9000\n" {
		t.Errorf("learn csv:\n%s", sb.String())
	}
	if s := SummarizeFigure(learn); !strings.HasPrefix(s, "series ") || !strings.Contains(s, "90.0%") {
		t.Errorf("learn summary:\n%s", s)
	}
}

// TestLearnFigureMLPVariant runs Figure 4's two sweeps on the registered
// learning-mlp problem, the MLP variant of the figure.
func TestLearnFigureMLPVariant(t *testing.T) {
	grid, baseline, err := LearnSpecs("a", LearnConfig{Rounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := sweep.LookupProblem(sweep.ProblemLearningMLP)
	if err != nil {
		t.Fatal(err)
	}
	var series []sweep.Result
	for _, spec := range []sweep.Spec{grid, baseline} {
		spec.ProblemDef = mlp
		res, err := sweep.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, res...)
	}
	if len(series) != 5 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if s.Status() != "ok" {
			t.Fatalf("%s: %s", s.Key(), s.Err)
		}
		if len(s.TraceLoss) != 61 {
			t.Fatalf("series %s has %d points", s.Key(), len(s.TraceLoss))
		}
		if s.TraceLoss[len(s.TraceLoss)-1] >= s.TraceLoss[0] {
			t.Errorf("MLP series %s loss did not decrease: %v -> %v", s.Key(), s.TraceLoss[0], s.TraceLoss[len(s.TraceLoss)-1])
		}
	}
}
