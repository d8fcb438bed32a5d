package experiments

import (
	"fmt"

	"byzopt/internal/linreg"
	"byzopt/internal/sweep"
)

// This file produces the regression figures (Figures 2-3): the filter panel
// is one RecordTrace sweep over the paper instance, and the fault-free curve
// — "the faulty agent is omitted" — is a second one-scenario sweep on the
// Baseline grid axis. FigureSpecs builds the two Specs, BuildFigureData
// reassembles their results into the paper's series layout.

// Series is one labeled pair of per-round curves, aligned at t = 0..T.
type Series struct {
	// Name identifies the algorithm variant (fault-free, cwtm, cge, plain-gd
	// in Figures 2-3; fault-free, cwtm-lf, cwtm-gr, cge-lf, cge-gr in
	// Figures 4-5, lf = label-flip, gr = gradient-reverse).
	Name string
	// Loss[t] is the honest aggregate cost at x_t (the cross-entropy on the
	// clean training set in Figures 4-5).
	Loss []float64
	// Metric[t] is the figure's second curve at x_t: a distance or an
	// accuracy, as FigureData.Accuracy says.
	Metric []float64
}

// FigureData is one panel: one column of Figure 2/3 (all series under one
// fault type) or the whole of Figure 4/5.
type FigureData struct {
	// Fault is the Byzantine behavior applied to agent 0 in Figures 2-3;
	// empty in Figures 4-5, where each series names its own fault.
	Fault string
	// Accuracy says what Series[i].Metric holds: the test-set accuracy as a
	// fraction in [0, 1] (Figures 4-5) when set, ||x_t - x_H|| (Figures 2-3)
	// otherwise.
	Accuracy bool
	// Series holds the curves in paper order.
	Series []Series
}

// FigureSpecs returns the sweep Specs whose results contain Figure 2 (and,
// at a shorter horizon, Figure 3): grid covers the cwtm, cge, and plain-gd
// (mean) variants under both Section-5 faults with the behavior stream
// pinned to the harness's fixed "random" execution; baseline is the single
// fault-free scenario omitting the faulty agent. Both record full per-round
// traces.
func FigureSpecs(rounds, workers int) (grid, baseline sweep.Spec) {
	grid = sweep.Spec{
		Problem:         sweep.ProblemPaper,
		Filters:         []string{"cwtm", "cge", "mean"},
		Behaviors:       FaultNames,
		Rounds:          rounds,
		Seed:            RandomFaultSeed,
		PinBehaviorSeed: true,
		Workers:         workers,
		RecordTrace:     true,
	}
	baseline = sweep.Spec{
		Problem:     sweep.ProblemPaper,
		Filters:     []string{"mean"},
		FValues:     []int{linreg.F},
		Baselines:   []bool{true},
		Rounds:      rounds,
		Workers:     workers,
		RecordTrace: true,
	}
	return grid, baseline
}

// BuildFigureData assembles the two sweeps' results into the paper's
// Figure-2/3 layout: one FigureData per fault, each holding the four series
// in paper order (fault-free, cwtm, cge, plain-gd). The fault-free series is
// the baseline scenario, shared by both fault columns exactly as in the
// paper.
func BuildFigureData(grid, baseline []sweep.Result) ([]FigureData, error) {
	bySeries := map[[2]string]sweep.Result{}
	for _, r := range grid {
		if r.Status() != "ok" {
			return nil, fmt.Errorf("scenario %s: %s: %w", r.Key(), r.Err, ErrArgs)
		}
		bySeries[[2]string{r.Behavior, r.Filter}] = r
	}
	var faultFree *sweep.Result
	for i := range baseline {
		r := &baseline[i]
		if r.Status() != "ok" {
			return nil, fmt.Errorf("baseline scenario %s: %s: %w", r.Key(), r.Err, ErrArgs)
		}
		if r.Baseline {
			faultFree = r
			break
		}
	}
	if faultFree == nil {
		return nil, fmt.Errorf("no baseline scenario in results: %w", ErrArgs)
	}
	// The paper's series names map onto filter registry names.
	variants := []struct{ name, filter string }{
		{"cwtm", "cwtm"},
		{"cge", "cge"},
		{"plain-gd", "mean"},
	}
	var out []FigureData
	for _, fault := range FaultNames {
		fd := FigureData{Fault: fault}
		fd.Series = append(fd.Series, Series{
			Name:   "fault-free",
			Loss:   faultFree.TraceLoss,
			Metric: faultFree.TraceDist,
		})
		for _, v := range variants {
			r, ok := bySeries[[2]string{fault, v.filter}]
			if !ok {
				return nil, fmt.Errorf("sweep produced no scenario for %s/%s: %w", fault, v.filter, ErrArgs)
			}
			fd.Series = append(fd.Series, Series{Name: v.name, Loss: r.TraceLoss, Metric: r.TraceDist})
		}
		out = append(out, fd)
	}
	return out, nil
}

// RegressionFigure runs both FigureSpecs sweeps and assembles the Figure-2
// series for the given horizon (1500 in the paper; Figure 3 is the first 80
// iterations). It is the one-call face the abft-bench command uses.
func RegressionFigure(rounds, workers int) ([]FigureData, *linreg.Instance, error) {
	if rounds < 1 {
		return nil, nil, fmt.Errorf("rounds = %d: %w", rounds, ErrArgs)
	}
	gridSpec, baselineSpec := FigureSpecs(rounds, workers)
	grid, err := sweep.Run(gridSpec)
	if err != nil {
		return nil, nil, err
	}
	baseline, err := sweep.Run(baselineSpec)
	if err != nil {
		return nil, nil, err
	}
	figs, err := BuildFigureData(grid, baseline)
	if err != nil {
		return nil, nil, err
	}
	inst, err := linreg.Paper()
	if err != nil {
		return nil, nil, err
	}
	return figs, inst, nil
}
