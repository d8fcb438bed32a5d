package sweep

import (
	"fmt"
	"strconv"
	"sync"

	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/matrix"
	"byzopt/internal/mlsim"
	"byzopt/internal/robustmean"
	"byzopt/internal/sensing"
	"byzopt/internal/vecmath"
)

// Registered problem names beyond the regression pair. Any further workload
// is one Register call away; see the Problem interface.
const (
	// ProblemLearning is the Appendix-K distributed-learning workload on
	// dataset preset A (the MNIST stand-in): softmax regression trained by
	// minibatch D-SGD over per-agent shards, with test accuracy as the
	// per-round task metric. Backs Figure 4.
	ProblemLearning = "learning"
	// ProblemLearningB is the same workload on preset B (the Fashion-MNIST
	// stand-in). Backs Figure 5.
	ProblemLearningB = "learning-b"
	// ProblemLearningMLP swaps the convex softmax model for the
	// one-hidden-layer MLP on preset A.
	ProblemLearningMLP = "learning-mlp"
	// ProblemSensing is the Section-2.4 state-estimation workload: n sensors
	// with partial Gaussian observations of a common state.
	ProblemSensing = "sensing"
	// ProblemRobustMean is the Section-2.3 robust mean estimation workload:
	// agent i holds the cost ||x - p_i||² over a deterministic point cloud.
	ProblemRobustMean = "robustmean"
)

// BehaviorLabelFlip is the learning problems' data-poisoning fault: the
// Byzantine agents' shard labels are flipped y -> (classes-1) - y, producing
// systematically wrong gradients that no gradient-space behavior can
// express. It is valid only for problems that declare it (the learning
// family); the generic byzantine registry never sees it.
const BehaviorLabelFlip = "label-flip"

// --- distributed learning (Appendix K) ---

const (
	// learnAccuracyEvery is the learning problems' test-accuracy cadence.
	learnAccuracyEvery = 10
	// learnHidden is the hidden width of the learning-mlp problem's MLP.
	learnHidden = 16
)

// LearningProblem is the Appendix-K workload as a sweep problem: a synthetic
// Gaussian-mixture classification task split into one shard per agent,
// trained by minibatch D-SGD. The scenario axes map as n = agents,
// d = feature dimension, f = Byzantine shards; the model dimension is
// Classes·(d+1) for softmax.
//
// The designated faulty shards are the last f (matching the legacy
// Appendix-K drivers, which pin shards 7-9 of 10), reordered to the front to
// meet the engine's first-f-are-Byzantine convention; each agent keeps the
// minibatch seed of its original shard index, so the fault-free baseline and
// every variant replay the legacy executions exactly.
//
// Test accuracy is computed every 10th round, intermediate rounds carrying
// the last value forward, and the MLP has 16 hidden units.
//
// The zero value is not registered directly; the registry holds configured
// instances under ProblemLearning, ProblemLearningB, and ProblemLearningMLP.
// Custom configurations (another preset, batch or data seed) can be
// registered under new names or handed to Spec.ProblemDef.
type LearningProblem struct {
	// ProblemName is the registry key this instance answers to.
	ProblemName string
	// Preset selects the dataset: "a" (MNIST stand-in) or "b" (the harder
	// Fashion-MNIST stand-in).
	Preset string
	// UseMLP swaps the convex softmax model for the one-hidden-layer MLP.
	UseMLP bool
	// Batch is the per-agent minibatch size b; 0 means 128 (the paper's).
	Batch int
	// DataSeed pins dataset generation and minibatch sampling; 0 means 7,
	// the legacy drivers' seed. It is deliberately independent of Spec.Seed:
	// the dataset is part of the problem identity, while Spec.Seed draws
	// behavior randomness.
	DataSeed int64

	// datasets memoizes generated (train, test) splits per feature
	// dimension: the expensive generation depends only on (preset, dim,
	// seed), while the cache key Build answers to also varies over the
	// cheap shard/flip axes (n, f, behavior). Guarded for concurrent
	// sweeps sharing one registered instance.
	datasetsMu sync.Mutex
	datasets   map[int]learnSplit
}

// learnSplit is one memoized dataset generation.
type learnSplit struct {
	train, test *mlsim.Dataset
}

// generate returns the (train, test) split for the feature dimension,
// generating it once per instance. The returned datasets are shared and
// read-only: shards copy their labels before any flipping.
func (p *LearningProblem) generate(gen mlsim.GenConfig) (*mlsim.Dataset, *mlsim.Dataset, error) {
	p.datasetsMu.Lock()
	defer p.datasetsMu.Unlock()
	if split, ok := p.datasets[gen.Dim]; ok {
		return split.train, split.test, nil
	}
	train, test, err := mlsim.Generate(gen)
	if err != nil {
		return nil, nil, err
	}
	if p.datasets == nil {
		p.datasets = map[int]learnSplit{}
	}
	p.datasets[gen.Dim] = learnSplit{train: train, test: test}
	return train, test, nil
}

var _ Problem = (*LearningProblem)(nil)

// Name implements Problem.
func (p *LearningProblem) Name() string { return p.ProblemName }

func (p *LearningProblem) dataSeed() int64 {
	if p.DataSeed != 0 {
		return p.DataSeed
	}
	return 7
}

func (p *LearningProblem) batch() int {
	if p.Batch > 0 {
		return p.Batch
	}
	return 128
}

// ExtraBehaviors implements BehaviorDeclarer: the learning family adds the
// data-level label-flip fault to the behavior vocabulary.
func (p *LearningProblem) ExtraBehaviors() []string { return []string{BehaviorLabelFlip} }

// Validate implements Problem: the preset must exist and every system size
// must be shardable.
func (p *LearningProblem) Validate(spec *Spec) error {
	gen, err := mlsim.Preset(p.Preset, p.dataSeed())
	if err != nil {
		return fmt.Errorf("%v: %w", err, ErrSpec)
	}
	for _, n := range spec.NValues {
		if n > gen.Train {
			return fmt.Errorf("n = %d exceeds the %d training points: %w", n, gen.Train, ErrSpec)
		}
	}
	return nil
}

// AppendKey implements Problem: the instance depends on the shard layout
// (n, f), the feature dimension, and whether the faulty shards are
// label-flipped.
func (p *LearningProblem) AppendKey(dst []byte, spec *Spec, scn Scenario) []byte {
	dst = appendSizes(append(dst, p.ProblemName...), scn)
	return strconv.AppendBool(append(dst, " flip="...), scn.Behavior == BehaviorLabelFlip)
}

// Build implements Problem.
func (p *LearningProblem) Build(spec *Spec, scn Scenario) (*Workload, error) {
	seed := p.dataSeed()
	gen, err := mlsim.Preset(p.Preset, seed)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrSpec)
	}
	gen.Dim = scn.Dim
	train, test, err := p.generate(gen)
	if err != nil {
		return nil, fmt.Errorf("learning dataset: %v: %w", err, ErrSpec)
	}
	var model mlsim.Model = mlsim.Softmax{Classes: gen.Classes, Dim: gen.Dim, Reg: 1e-4}
	x0 := vecmath.Zeros(model.ParamDim())
	if p.UseMLP {
		mlp := mlsim.MLP{Classes: gen.Classes, Dim: gen.Dim, Hidden: learnHidden, Reg: 1e-4}
		model = mlp
		x0, err = mlp.InitParams(seed)
		if err != nil {
			return nil, err
		}
	}
	shards, err := mlsim.Shard(train, scn.N)
	if err != nil {
		return nil, fmt.Errorf("sharding: %v: %w", err, ErrSpec)
	}
	// Designated-faulty shards are the last f; move them to the front (the
	// engine's Byzantine slots) while each agent keeps its original shard's
	// minibatch seed. CGE/CWTM aggregate in sorted order, so the reordering
	// is exact — the legacy drivers' trajectories reproduce bit for bit.
	order := make([]int, 0, scn.N)
	for i := scn.N - scn.F; i < scn.N; i++ {
		order = append(order, i)
	}
	for i := 0; i < scn.N-scn.F; i++ {
		order = append(order, i)
	}
	flip := scn.Behavior == BehaviorLabelFlip
	agents := make([]dgd.Agent, scn.N)
	for slot, i := range order {
		shard := shards[i]
		if flip && slot < scn.F {
			mlsim.FlipLabels(shard)
		}
		agents[slot] = &mlsim.SGDAgent{
			Model: model,
			Data:  shard,
			Batch: p.batch(),
			Seed:  seed + int64(i)*1009,
		}
	}
	metric := &Metric{
		Name:  "test_accuracy",
		Every: learnAccuracyEvery,
		Eval:  func(x []float64) (float64, error) { return model.Accuracy(x, test) },
	}
	return &Workload{
		// SGDAgent is stateless (minibatches derive from (Seed, round)), so
		// scenarios sharing the cached workload can share the agent values;
		// only the slice is fresh per call.
		NewAgents: func() ([]dgd.Agent, error) {
			out := make([]dgd.Agent, len(agents))
			copy(out, agents)
			return out, nil
		},
		X0:            x0,
		HonestLoss:    &mlsim.LossFunction{Model: model, Data: train},
		Metric:        metric,
		FaultsApplied: flip,
	}, nil
}

// --- distributed sensing (Section 2.4) ---

// sensingProblem is fault-tolerant state estimation as a sweep problem:
// n sensors make partial Gaussian observations of a d-dimensional state,
// each holding the induced cost ||y_i - C_i x||². Rows per sensor are sized
// as ceil(d / (n - 2f)) so every (n-2f)-subset stacks at least d rows — the
// generic-position face of 2f-sparse observability — and x_H is the honest
// sensors' stacked least-squares estimate.
type sensingProblem struct{}

var _ Problem = sensingProblem{}

// Name implements Problem.
func (sensingProblem) Name() string { return ProblemSensing }

// Validate implements Problem.
func (sensingProblem) Validate(spec *Spec) error { return nil }

// AppendKey implements Problem: the observation geometry depends on
// (n, d, f) through the rows-per-sensor sizing.
func (sensingProblem) AppendKey(dst []byte, spec *Spec, scn Scenario) []byte {
	return appendSizes(append(dst, ProblemSensing...), scn)
}

// Build implements Problem.
func (sensingProblem) Build(spec *Spec, scn Scenario) (*Workload, error) {
	obsPer := scn.N - 2*scn.F
	if obsPer < 1 {
		obsPer = 1
	}
	rowsPer := (scn.Dim + obsPer - 1) / obsPer
	seed := problemSeed(ProblemSensing, spec.Seed, scn.N, scn.Dim, spec.Noise) ^ int64(scn.F)
	sys, err := sensing.Synthetic(scn.N, scn.Dim, rowsPer, spec.Noise, seed)
	if err != nil {
		return nil, fmt.Errorf("sensing instance: %v: %w", err, ErrSpec)
	}
	honest := make([]int, 0, scn.N-scn.F)
	for i := scn.F; i < scn.N; i++ {
		honest = append(honest, i)
	}
	stacked, ys, err := sys.Stacked(honest)
	if err != nil {
		return nil, err
	}
	xH, err := matrix.LeastSquares(stacked, ys)
	if err != nil {
		return nil, fmt.Errorf("honest state estimate: %v: %w", err, ErrSpec)
	}
	honestSum, err := costfunc.NewLeastSquares(stacked, ys)
	if err != nil {
		return nil, err
	}
	box, err := vecmath.NewCube(scn.Dim, spec.BoxRadius)
	if err != nil {
		return nil, err
	}
	return &Workload{
		NewAgents: func() ([]dgd.Agent, error) {
			costs, err := sys.Costs()
			if err != nil {
				return nil, err
			}
			return dgd.HonestAgents(costs)
		},
		X0:         vecmath.Zeros(scn.Dim),
		XH:         xH,
		Box:        box,
		HonestLoss: honestSum,
	}, nil
}

// --- robust mean estimation (Section 2.3) ---

// robustMeanProblem is robust mean estimation as a sweep problem: agent i
// holds Q_i(x) = ||x - p_i||² over a deterministic Gaussian cloud around the
// all-ones mean with spread Spec.Noise, so x_H is exactly the honest points'
// sample mean and the behavior axis plays the outliers.
type robustMeanProblem struct{}

var _ Problem = robustMeanProblem{}

// Name implements Problem.
func (robustMeanProblem) Name() string { return ProblemRobustMean }

// Validate implements Problem.
func (robustMeanProblem) Validate(spec *Spec) error { return nil }

// AppendKey implements Problem: the cloud depends on (n, d); f fixes which
// points count as honest behind x_H.
func (robustMeanProblem) AppendKey(dst []byte, spec *Spec, scn Scenario) []byte {
	return appendSizes(append(dst, ProblemRobustMean...), scn)
}

// Build implements Problem.
func (robustMeanProblem) Build(spec *Spec, scn Scenario) (*Workload, error) {
	seed := problemSeed(ProblemRobustMean, spec.Seed, scn.N, scn.Dim, spec.Noise)
	points, err := robustmean.Cloud(scn.N, scn.Dim, spec.Noise, seed)
	if err != nil {
		return nil, fmt.Errorf("robust-mean cloud: %v: %w", err, ErrSpec)
	}
	if scn.F >= len(points) {
		return nil, fmt.Errorf("f=%d leaves no honest point at n=%d: %w", scn.F, len(points), ErrSpec)
	}
	xH, err := vecmath.Mean(points[scn.F:])
	if err != nil {
		return nil, err
	}
	honestCosts := make([]costfunc.Differentiable, 0, len(points)-scn.F)
	for _, p := range points[scn.F:] {
		c, err := robustmean.PointCost(p)
		if err != nil {
			return nil, err
		}
		honestCosts = append(honestCosts, c)
	}
	honestSum, err := costfunc.NewSum(honestCosts...)
	if err != nil {
		return nil, err
	}
	box, err := vecmath.NewCube(scn.Dim, spec.BoxRadius)
	if err != nil {
		return nil, err
	}
	return &Workload{
		NewAgents: func() ([]dgd.Agent, error) {
			costs := make([]costfunc.Differentiable, len(points))
			for i, p := range points {
				c, err := robustmean.PointCost(p)
				if err != nil {
					return nil, fmt.Errorf("agent %d cost: %w", i, err)
				}
				costs[i] = c
			}
			return dgd.HonestAgents(costs)
		},
		X0:         vecmath.Zeros(scn.Dim),
		XH:         xH,
		Box:        box,
		HonestLoss: honestSum,
	}, nil
}
