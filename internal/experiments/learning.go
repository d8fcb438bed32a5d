package experiments

import (
	"fmt"

	"byzopt/internal/dgd"
	"byzopt/internal/sweep"
)

// Appendix-K experiment constants.
const (
	// LearnAgents is n = 10.
	LearnAgents = 10
	// LearnFaults is f = 3.
	LearnFaults = 3
	// LearnBatch is the minibatch size b = 128.
	LearnBatch = 128
	// LearnStep is the constant step size η = 0.01.
	LearnStep = 0.01
	// LearnRounds is the plotted horizon (1000 iterations).
	LearnRounds = 1000
	// LearnFeatureDim is the synthetic datasets' feature dimension (the
	// Dims axis of the learning sweeps).
	LearnFeatureDim = 20
	// learnSeed pins dataset generation and minibatch sampling.
	learnSeed = 7
)

// LearnConfig tunes the Figure 4/5 drivers; zero values take the paper's
// settings (with the dataset sizes of the presets). The MLP variant, the
// non-convex extension closer in spirit to the paper's LeNet, is the
// registered learning-mlp problem.
type LearnConfig struct {
	// Rounds overrides the iteration count (default LearnRounds).
	Rounds int
}

// Figure4 reproduces Figure 4 on dataset A (the MNIST stand-in; package
// mlsim's comment carries the substitution argument).
func Figure4(cfg LearnConfig) (FigureData, error) {
	return learnFigure("a", cfg)
}

// Figure5 reproduces Figure 5 on dataset B (the Fashion-MNIST stand-in).
func Figure5(cfg LearnConfig) (FigureData, error) {
	return learnFigure("b", cfg)
}

// LearnSpecs builds the two sweep Specs behind Figures 4-5: grid covers
// CWTM and averaged CGE against the label-flip and gradient-reverse faults
// at n = 10, f = 3, and baseline is the fault-free run omitting the three
// would-be Byzantine shards (the paper's fault-free curve). Both record the
// per-round loss and test-accuracy traces. The returned problem carries the
// dataset preset and model configuration; it is handed to both Specs as
// ProblemDef, so no registry entry is consulted.
func LearnSpecs(preset string, cfg LearnConfig) (grid, baseline sweep.Spec, err error) {
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = LearnRounds
	}
	if rounds < 1 {
		return grid, baseline, fmt.Errorf("rounds = %d: %w", rounds, ErrArgs)
	}
	name := "learning"
	if preset != "a" {
		name = "learning-" + preset
	}
	prob := &sweep.LearningProblem{
		ProblemName: name,
		Preset:      preset,
		Batch:       LearnBatch,
		DataSeed:    learnSeed,
	}
	grid = sweep.Spec{
		ProblemDef:  prob,
		Filters:     []string{"cwtm", "cge-avg"},
		Behaviors:   []string{sweep.BehaviorLabelFlip, "gradient-reverse"},
		FValues:     []int{LearnFaults},
		NValues:     []int{LearnAgents},
		Dims:        []int{LearnFeatureDim},
		Steps:       []dgd.StepSchedule{dgd.Constant{Eta: LearnStep}},
		Rounds:      rounds,
		RecordTrace: true,
	}
	baseline = grid
	baseline.Filters = []string{"mean"}
	baseline.Behaviors = nil
	baseline.Baselines = []bool{true}
	return grid, baseline, nil
}

// learnFigure runs the five Appendix-K variants on one dataset as two
// sweeps and lays the series out in the paper's order.
func learnFigure(preset string, cfg LearnConfig) (FigureData, error) {
	fd := FigureData{Accuracy: true}
	gridSpec, baselineSpec, err := LearnSpecs(preset, cfg)
	if err != nil {
		return fd, err
	}
	grid, err := sweep.Run(gridSpec)
	if err != nil {
		return fd, err
	}
	baseline, err := sweep.Run(baselineSpec)
	if err != nil {
		return fd, err
	}
	if len(baseline) != 1 {
		return fd, fmt.Errorf("baseline sweep produced %d scenarios, want 1: %w", len(baseline), ErrArgs)
	}
	shortFault := map[string]string{sweep.BehaviorLabelFlip: "lf", "gradient-reverse": "gr"}
	shortFilter := map[string]string{"cwtm": "cwtm", "cge-avg": "cge"}
	byName := map[string]sweep.Result{"fault-free": baseline[0]}
	for _, r := range grid {
		byName[shortFilter[r.Filter]+"-"+shortFault[r.Behavior]] = r
	}
	for _, name := range []string{"fault-free", "cwtm-lf", "cwtm-gr", "cge-lf", "cge-gr"} {
		r, ok := byName[name]
		if !ok {
			return fd, fmt.Errorf("sweep produced no %s series: %w", name, ErrArgs)
		}
		if r.Status() != "ok" {
			return fd, fmt.Errorf("scenario %s: %s: %w", r.Key(), r.Err, ErrArgs)
		}
		fd.Series = append(fd.Series, Series{Name: name, Loss: r.TraceLoss, Metric: r.TraceMetric})
	}
	return fd, nil
}
