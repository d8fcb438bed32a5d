// Command abft-bench regenerates the paper's tables and figures, every one
// of them on the concurrent sweep engine: Table 1 and the full filter ×
// fault grid are summary sweeps, Figures 2-3 are RecordTrace sweeps over
// the paper instance plus the fault-free Baseline-axis scenario,
// Figures 4-5 are learning-problem sweeps (per-round test accuracy rides in
// the trace), the Section-5 SVM remark is a sweep of the registered "svm"
// problem, and the exact-vs-approximate filter comparison is a sweep with the
// agreement trace metric. Table 1 and the figures are Specs and layouts of
// internal/experiments; the grid, stepsweep, svm and approx Specs are here.
//
// Usage:
//
//	abft-bench -exp table1
//	abft-bench -exp grid -workers 8 -json grid.json
//	abft-bench -exp fig2 -rounds 1500 -csv fig2 -workers 8
//	abft-bench -exp fig4 -rounds 1000 -csv fig4
//	abft-bench -exp appj
//	abft-bench -exp approx -json approx.json
//	abft-bench -exp all
//	abft-bench -exp grid -workers 1 -cpuprofile cpu.prof -memprofile heap.prof
//
// With -csv PREFIX the full series are written to PREFIX-<exp>-<fault>.csv
// (PREFIX-<exp>.csv for the learning figures); summaries always go to stdout.
// -json PATH exports the grid, stepsweep or approx results; under -exp all, where both
// export, each writes PATH with -<exp> before the extension.
//
// The sweeps here run on the in-process engine; abft-sweep exposes the same
// grids over every substrate (-backend inprocess, cluster, or p2p). This
// command measures nothing: end-to-end speed, per-layer shares and regression
// bounds come from benchmark/ (BENCHMARK.json, `bash benchmark/run.sh`), and
// the `go test -bench` files at the repo root and in internal/aggregate hold
// kernel micro-benchmarks only.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"byzopt/internal/dgd"
	"byzopt/internal/experiments"
	"byzopt/internal/linreg"
	"byzopt/internal/prof"
	"byzopt/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "abft-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("abft-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1, grid, stepsweep, fig2, fig3, fig4, fig5, svm, approx, appj, all")
	rounds := fs.Int("rounds", 0, "override iteration count (0 = paper default)")
	csvPrefix := fs.String("csv", "", "write full series to CSV files with this prefix")
	workers := fs.Int("workers", 0, "sweep worker pool for grid experiments (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write grid/stepsweep/approx results JSON to this file (-exp all: one file per experiment, -<exp> before the extension)")
	etas := fs.String("etas", "0.005,0.02,0.05", "constant step sizes for the stepsweep experiment")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	// jsonFor keeps two exporting experiments of one run from overwriting
	// each other's file.
	jsonFor := func(name string) string {
		if *jsonPath == "" || *exp != "all" {
			return *jsonPath
		}
		ext := filepath.Ext(*jsonPath)
		return strings.TrimSuffix(*jsonPath, ext) + "-" + name + ext
	}
	runOne := func(name string) error {
		switch name {
		case "table1":
			return runTable1(*rounds, *workers)
		case "grid":
			return runGrid(*rounds, *workers, jsonFor(name))
		case "stepsweep":
			return runStepSweep(*rounds, *workers, jsonFor(name), *etas)
		case "fig2":
			r := *rounds
			if r == 0 {
				r = 1500
			}
			return runFigure(name, r, *workers, *csvPrefix)
		case "fig3":
			r := *rounds
			if r == 0 {
				r = 80
			}
			return runFigure(name, r, *workers, *csvPrefix)
		case "fig4", "fig5":
			return runLearn(name, *rounds, *csvPrefix)
		case "svm":
			return runSVM(*rounds)
		case "approx":
			return runApprox(*rounds, *workers, jsonFor(name))
		case "appj":
			return runAppendixJ()
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"appj", "table1", "grid", "stepsweep", "fig2", "fig3", "fig4", "fig5", "svm", "approx"} {
			fmt.Printf("==== %s ====\n", name)
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	return runOne(*exp)
}

// runTable1 regenerates Table 1 — CGE and CWTM against the paper's two
// faults on the Appendix-J instance — as a 4-scenario sweep.
func runTable1(rounds, workers int) error {
	rows, err := experiments.Table1Rows(rounds, workers)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTable1(rows))
	inst, err := linreg.Paper()
	if err != nil {
		return err
	}
	fmt.Printf("(instance epsilon = %.4f; paper reports every distance below it)\n", inst.Epsilon)
	return nil
}

// runGrid sweeps every registered filter against every registered behavior
// at f in {1, 2} on the paper instance — the full Section-5-shaped matrix
// the paper samples from.
func runGrid(rounds, workers int, jsonPath string) error {
	results, err := sweep.Run(sweep.Spec{
		Problem: sweep.ProblemPaper,
		FValues: []int{1, 2},
		Rounds:  rounds,
		Workers: workers,
	})
	if err != nil {
		return err
	}
	return printGrid(results, jsonPath)
}

// printGrid prints a summary sweep's table and status line and, with a path,
// exports it.
func printGrid(results []sweep.Result, jsonPath string) error {
	fmt.Print(sweep.FormatTable(results))
	fmt.Println(sweep.Summarize(results))
	if jsonPath != "" {
		if err := sweep.WriteJSONFile(jsonPath, results, false); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runStepSweep runs the REDGRAF-style filtering-dynamics grid: the four
// REDGRAF filters plus the paper's CWTM reference under constant step sizes
// on the paper instance, with the convergence-geometry metrics
// (convergence_rate, convergence_radius, consensus_diameter) evaluated
// post hoc on every cell's trace. The SDMMFD pair needs n > 3f, so at f = 2
// on the paper instance (n = 6) those cells report skipped — the grid shows
// exactly where each filter's resilience condition gives out.
func runStepSweep(rounds, workers int, jsonPath, etas string) error {
	steps, err := parseEtas(etas)
	if err != nil {
		return err
	}
	if rounds == 0 {
		rounds = 400
	}
	results, err := sweep.Run(sweep.Spec{
		Problem:   sweep.ProblemPaper,
		Filters:   []string{"cwtm", "sdmmfd", "r-sdmmfd", "sdfd", "rvo"},
		Behaviors: []string{"gradient-reverse", "random"},
		FValues:   []int{1, 2},
		Steps:     steps,
		Rounds:    rounds,
		Workers:   workers,
		TraceMetrics: []string{
			sweep.TraceMetricConvergenceRate,
			sweep.TraceMetricConvergenceRadius,
			sweep.TraceMetricConsensusDiameter,
		},
	})
	if err != nil {
		return err
	}
	return printGrid(results, jsonPath)
}

// parseEtas turns the -etas list into constant step schedules.
func parseEtas(etas string) ([]dgd.StepSchedule, error) {
	var steps []dgd.StepSchedule
	for _, part := range strings.Split(etas, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eta, err := strconv.ParseFloat(part, 64)
		if err != nil || eta <= 0 {
			return nil, fmt.Errorf("invalid step size %q (want a positive number)", part)
		}
		steps = append(steps, dgd.Constant{Eta: eta})
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("empty -etas list")
	}
	return steps, nil
}

// runFigure produces Figures 2-3 via the two sweep Specs of
// experiments.FigureSpecs (grid panel + Baseline-axis fault-free run).
func runFigure(name string, rounds, workers int, csvPrefix string) error {
	figs, inst, err := experiments.RegressionFigure(rounds, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%s: loss and distance series via the sweep engine, t = 0..%d (x_H = (%.4f, %.4f))\n",
		name, rounds, inst.XH[0], inst.XH[1])
	for _, fd := range figs {
		fmt.Print(experiments.SummarizeFigure(fd))
		if csvPrefix != "" {
			path := fmt.Sprintf("%s-%s-%s.csv", csvPrefix, name, fd.Fault)
			if err := writeCSV(path, func(f *os.File) error {
				return experiments.WriteFigureCSV(f, fd)
			}); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return nil
}

func runLearn(name string, rounds int, csvPrefix string) error {
	figure, dataset := experiments.Figure4, "A (MNIST stand-in)"
	if name == "fig5" {
		figure, dataset = experiments.Figure5, "B (Fashion-MNIST stand-in)"
	}
	fd, err := figure(experiments.LearnConfig{Rounds: rounds})
	if err != nil {
		return err
	}
	fmt.Printf("%s: D-SGD on synthetic dataset %s, n=10, f=3\n", name, dataset)
	fmt.Print(experiments.SummarizeFigure(fd))
	if csvPrefix != "" {
		path := fmt.Sprintf("%s-%s.csv", csvPrefix, name)
		if err := writeCSV(path, func(f *os.File) error {
			return experiments.WriteFigureCSV(f, fd)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// runSVM prints the Section-5 SVM remark (sweep.ProblemSVM) at n = 10, f = 3:
// the filters keep training on track under flipped labels and reversed
// gradients while plain averaging against the scaled reversal collapses.
func runSVM(rounds int) error {
	if rounds == 0 {
		rounds = 300
	}
	results, err := sweep.Run(sweep.Spec{
		Problem:   sweep.ProblemSVM,
		Filters:   []string{"mean", "cge-avg", "cwtm"},
		Behaviors: []string{sweep.BehaviorScaledReverse, sweep.BehaviorLabelFlip, "gradient-reverse"},
		FValues:   []int{3},
		NValues:   []int{10},
		Dims:      []int{10},
		Baselines: []bool{false, true},
		Steps:     []dgd.StepSchedule{dgd.Constant{Eta: 0.1}},
		Rounds:    rounds,
	})
	if err != nil {
		return err
	}
	fmt.Println("distributed SVM (hinge loss), n=10, f=3")
	fmt.Printf("%-12s %10s %10s\n", "variant", "loss", "accuracy")
	for _, v := range []struct{ name, filter, behavior string }{
		{"fault-free", "mean", sweep.BehaviorNone}, // the Baseline cell: the faulty three omitted
		{"mean-attack", "mean", sweep.BehaviorScaledReverse},
		{"cge-lf", "cge-avg", sweep.BehaviorLabelFlip},
		{"cwtm-lf", "cwtm", sweep.BehaviorLabelFlip},
		{"cge-gr", "cge-avg", "gradient-reverse"},
		{"cwtm-gr", "cwtm", "gradient-reverse"},
	} {
		for _, r := range results {
			if r.Filter == v.filter && r.Behavior == v.behavior {
				if r.Status() != "ok" {
					return fmt.Errorf("scenario %s: %s", r.Key(), r.Err)
				}
				fmt.Printf("%-12s %10.4f %9.1f%%\n", v.name, r.LossFinal, 100*r.MetricFinal)
			}
		}
	}
	return nil
}

// approxSpec is the exact-vs-approximate filter comparison: Krum,
// MultiKrum (M = 3) and Bulyan beside their sketched and sampled variants at
// k, m ∈ {16, 64}, on one synthetic least-squares instance with n − f ≥ d so
// that x_H is unique, against five gradient reversers. Every approximate
// cell scores each round's selection against its exact twin on the same
// input (the agreement trace metric); the exact cells carry no such score.
// rounds 0 takes 60.
func approxSpec(rounds, workers int) sweep.Spec {
	if rounds == 0 {
		rounds = 60
	}
	return sweep.Spec{
		Problem: sweep.ProblemSynthetic,
		Filters: []string{
			"krum", "krum-sketch", "krum-sampled",
			"multikrum-3", "multikrum-sketch-3", "multikrum-sampled-3",
			"bulyan", "bulyan-sketch", "bulyan-sampled",
		},
		Behaviors:    []string{"gradient-reverse"},
		FValues:      []int{5},
		NValues:      []int{100},
		Dims:         []int{80},
		Steps:        []dgd.StepSchedule{dgd.Constant{Eta: 0.1}},
		SketchDims:   []int{16, 64},
		Rounds:       rounds,
		Workers:      workers,
		TraceMetrics: []string{sweep.TraceMetricAgreement},
	}
}

// runApprox prints the approx comparison's grid, whose AGREEMENT column is
// the selection agreement and whose LOSS column compares the final honest
// cost of each filter's own trajectory.
func runApprox(rounds, workers int, jsonPath string) error {
	results, err := sweep.Run(approxSpec(rounds, workers))
	if err != nil {
		return err
	}
	return printGrid(results, jsonPath)
}

func runAppendixJ() error {
	rep, err := experiments.AppendixJ()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAppendixJ(rep))
	return nil
}

func writeCSV(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
