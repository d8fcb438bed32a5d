// Command abft-bench regenerates the paper's tables and figures, every one
// of them on the concurrent sweep engine: Table 1 and the full filter ×
// fault grid are summary sweeps, Figures 2-3 are RecordTrace sweeps over
// the paper instance plus the fault-free Baseline-axis scenario, and
// Figures 4-5 are learning-problem sweeps (per-round test accuracy rides in
// the trace). The retired sequential drivers survive only as test-only
// parity references.
//
// Usage:
//
//	abft-bench -exp table1
//	abft-bench -exp grid -workers 8 -json grid.json
//	abft-bench -exp fig2 -rounds 1500 -csv fig2 -workers 8
//	abft-bench -exp fig4 -rounds 1000 -csv fig4
//	abft-bench -exp appj
//	abft-bench -exp all
//
// With -csv PREFIX the full series are written to PREFIX-<fault>.csv (or
// PREFIX.csv for the learning figures); summaries always go to stdout.
//
// The sweeps here run on the in-process engine; abft-sweep exposes the same
// grids over every substrate (-backend inprocess, cluster, or p2p). This
// command measures nothing: end-to-end speed, per-layer shares and regression
// bounds come from benchmark/ (BENCHMARK.json, `bash benchmark/run.sh`), and
// the `go test -bench` files at the repo root and in internal/aggregate hold
// kernel micro-benchmarks only.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"byzopt/internal/dgd"
	"byzopt/internal/experiments"
	"byzopt/internal/linreg"
	"byzopt/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "abft-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("abft-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1, grid, stepsweep, fig2, fig3, fig4, fig5, svm, appj, all")
	rounds := fs.Int("rounds", 0, "override iteration count (0 = paper default)")
	csvPrefix := fs.String("csv", "", "write full series to CSV files with this prefix")
	workers := fs.Int("workers", 0, "sweep worker pool for grid experiments (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write grid results JSON to this file")
	etas := fs.String("etas", "0.005,0.02,0.05", "constant step sizes for the stepsweep experiment")
	if err := fs.Parse(args); err != nil {
		return err
	}

	runOne := func(name string) error {
		switch name {
		case "table1":
			return runTable1(*rounds, *workers)
		case "grid":
			return runGrid(*rounds, *workers, *jsonPath)
		case "stepsweep":
			return runStepSweep(*rounds, *workers, *jsonPath, *etas)
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
		case "appj":
			return runAppendixJ()
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"appj", "table1", "grid", "stepsweep", "fig2", "fig3", "fig4", "fig5", "svm"} {
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
// faults on the Appendix-J instance — as a 4-scenario sweep. The behavior
// seed is pinned to the harness's fixed "random" stream so the output
// matches experiments.Table1 row for row.
func runTable1(rounds, workers int) error {
	rows, err := table1Rows(rounds, workers)
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

// table1Rows produces the Table-1 rows via the sweep engine; at the
// paper's rounds the output matches experiments.Table1 row for row (a
// parity the command's tests pin).
func table1Rows(rounds, workers int) ([]experiments.Table1Row, error) {
	results, err := sweep.Run(sweep.Spec{
		Problem:         sweep.ProblemPaper,
		Filters:         []string{"cge", "cwtm"},
		Behaviors:       []string{"gradient-reverse", "random"},
		Rounds:          rounds,
		Seed:            experiments.RandomFaultSeed,
		PinBehaviorSeed: true,
		Workers:         workers,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]experiments.Table1Row, 0, len(results))
	for _, r := range results {
		if r.Status() != "ok" {
			return nil, fmt.Errorf("scenario %s: %s", r.Key(), r.Err)
		}
		rows = append(rows, experiments.Table1Row{
			Filter: r.Filter,
			Fault:  r.Behavior,
			XOut:   r.FinalX,
			Dist:   r.FinalDist,
		})
	}
	return rows, nil
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
// experiments.FigureSpecs (grid panel + Baseline-axis fault-free run),
// parity-pinned to the retired sequential driver by the experiments tests.
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
	cfg := experiments.LearnConfig{Rounds: rounds}
	var (
		series []experiments.LearnSeries
		err    error
	)
	if name == "fig4" {
		series, err = experiments.Figure4(cfg)
	} else {
		series, err = experiments.Figure5(cfg)
	}
	if err != nil {
		return err
	}
	dataset := "A (MNIST stand-in)"
	if name == "fig5" {
		dataset = "B (Fashion-MNIST stand-in)"
	}
	fmt.Printf("%s: D-SGD on synthetic dataset %s, n=10, f=3\n", name, dataset)
	fmt.Print(experiments.SummarizeLearn(series))
	if csvPrefix != "" {
		path := fmt.Sprintf("%s-%s.csv", csvPrefix, name)
		if err := writeCSV(path, func(f *os.File) error {
			return experiments.WriteLearnCSV(f, series)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

func runSVM(rounds int) error {
	results, err := experiments.SVM(rounds)
	if err != nil {
		return err
	}
	fmt.Println("distributed SVM (hinge loss), n=10, f=3")
	fmt.Printf("%-12s %10s %10s\n", "variant", "loss", "accuracy")
	for _, r := range results {
		fmt.Printf("%-12s %10.4f %9.1f%%\n", r.Name, r.Loss, 100*r.Accuracy)
	}
	return nil
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
