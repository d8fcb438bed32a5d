package sweep

// The banknote problem: a real-dataset-shaped classification workload after
// the REDGRAF banknote-authentication experiment. The container build is
// offline, so the UCI banknote-authentication table itself cannot be
// vendored; instead the dataset is reconstructed deterministically from the
// published class-conditional statistics of its four wavelet features —
// same size (1372 points: 762 genuine, 610 forged), same feature scales,
// same near-separable geometry that lets simple classifiers reach high
// nineties accuracy. The reconstruction is pinned by a fixed seed, so every
// process regenerates the identical dataset and sweep exports stay
// byte-identical everywhere.

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"byzopt/internal/dgd"
	"byzopt/internal/mlsim"
	"byzopt/internal/vecmath"
)

// ProblemBanknote is the registry name of the banknote-authentication
// classification problem (binary softmax over the four wavelet features;
// exposes the test_accuracy metric and the label-flip behavior). The
// feature dimension is fixed: specs must sweep Dims = {4}.
const ProblemBanknote = "banknote"

// banknoteDim is the UCI dataset's feature count: variance, skewness, and
// curtosis of the wavelet-transformed banknote image, plus image entropy.
const banknoteDim = 4

// banknoteSeed pins the deterministic reconstruction.
const banknoteSeed = 1372

// banknoteStats are the published per-class feature means and standard
// deviations of the UCI banknote-authentication table (class 0 = genuine,
// 762 rows; class 1 = forged, 610 rows), rounded to two decimals.
var banknoteStats = [2]struct {
	count     int
	mean, std [banknoteDim]float64
}{
	{count: 762, mean: [banknoteDim]float64{2.28, 4.26, 0.80, -1.15}, std: [banknoteDim]float64{2.02, 5.14, 3.24, 2.13}},
	{count: 610, mean: [banknoteDim]float64{-1.87, -1.00, 2.15, -1.25}, std: [banknoteDim]float64{1.88, 5.40, 5.26, 2.07}},
}

// banknoteProblem implements Problem for ProblemBanknote, following the
// LearningProblem shape: sharded SGD agents over a fixed classification
// dataset, a softmax model, and a test_accuracy metric hook.
type banknoteProblem struct {
	once  sync.Once
	train *mlsim.Dataset
	test  *mlsim.Dataset
}

var _ Problem = (*banknoteProblem)(nil)
var _ BehaviorDeclarer = (*banknoteProblem)(nil)

// Name implements Problem.
func (*banknoteProblem) Name() string { return ProblemBanknote }

// ExtraBehaviors implements BehaviorDeclarer: like the learning family, the
// banknote problem adds the data-level label-flip fault.
func (*banknoteProblem) ExtraBehaviors() []string { return []string{BehaviorLabelFlip} }

// Validate implements Problem: the feature dimension is the dataset's, and
// every system size must be shardable.
func (p *banknoteProblem) Validate(spec *Spec) error {
	for _, d := range spec.Dims {
		if d != banknoteDim {
			return fmt.Errorf("banknote has exactly %d features; sweep Dims = {%d}, got %d: %w",
				banknoteDim, banknoteDim, d, ErrSpec)
		}
	}
	train, _ := p.datasets()
	for _, n := range spec.NValues {
		if n > train.Len() {
			return fmt.Errorf("n = %d exceeds the %d training points: %w", n, train.Len(), ErrSpec)
		}
	}
	return nil
}

// AppendKey implements Problem: the workload depends on the shard layout and
// whether the faulty shards are label-flipped.
func (p *banknoteProblem) AppendKey(dst []byte, spec *Spec, scn Scenario) []byte {
	dst = strconv.AppendInt(append(append(dst, ProblemBanknote...), " n="...), int64(scn.N), 10)
	dst = strconv.AppendInt(append(dst, " f="...), int64(scn.F), 10)
	return strconv.AppendBool(append(dst, " flip="...), scn.Behavior == BehaviorLabelFlip)
}

// datasets returns the memoized (train, test) split of the reconstruction:
// every fifth point is held out, giving 1098 training and 274 test points.
func (p *banknoteProblem) datasets() (*mlsim.Dataset, *mlsim.Dataset) {
	p.once.Do(func() {
		full := banknoteGenerate()
		train := &mlsim.Dataset{Classes: 2, Dim: banknoteDim}
		test := &mlsim.Dataset{Classes: 2, Dim: banknoteDim}
		for i := range full.Points {
			if i%5 == 4 {
				test.Points = append(test.Points, full.Points[i])
				test.Labels = append(test.Labels, full.Labels[i])
			} else {
				train.Points = append(train.Points, full.Points[i])
				train.Labels = append(train.Labels, full.Labels[i])
			}
		}
		p.train, p.test = train, test
	})
	return p.train, p.test
}

// banknoteGenerate draws the pinned class-conditional Gaussian
// reconstruction and shuffles it so shards are class-mixed.
func banknoteGenerate() *mlsim.Dataset {
	r := rand.New(rand.NewSource(banknoteSeed))
	ds := &mlsim.Dataset{Classes: 2, Dim: banknoteDim}
	for class, st := range banknoteStats {
		for i := 0; i < st.count; i++ {
			x := make([]float64, banknoteDim)
			for j := range x {
				x[j] = st.mean[j] + r.NormFloat64()*st.std[j]
			}
			ds.Points = append(ds.Points, x)
			ds.Labels = append(ds.Labels, class)
		}
	}
	r.Shuffle(ds.Len(), func(a, b int) {
		ds.Points[a], ds.Points[b] = ds.Points[b], ds.Points[a]
		ds.Labels[a], ds.Labels[b] = ds.Labels[b], ds.Labels[a]
	})
	return ds
}

// Build implements Problem.
func (p *banknoteProblem) Build(spec *Spec, scn Scenario) (*Workload, error) {
	train, test := p.datasets()
	model := mlsim.Softmax{Classes: 2, Dim: banknoteDim, Reg: 1e-4}
	shards, err := mlsim.Shard(train, scn.N)
	if err != nil {
		return nil, fmt.Errorf("sharding: %v: %w", err, ErrSpec)
	}
	// Same slot layout as the learning family: the designated-faulty
	// shards are the last f, moved to the engine's leading Byzantine
	// slots while keeping their own minibatch seeds.
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
			Batch: 32,
			Seed:  banknoteSeed + int64(i)*1009,
		}
	}
	metric := &Metric{
		Name:  "test_accuracy",
		Every: 10,
		Eval:  func(x []float64) (float64, error) { return model.Accuracy(x, test) },
	}
	return &Workload{
		// SGDAgent is stateless (minibatches derive from (Seed, round)), so
		// cached workloads can share the agent values; only the slice is
		// fresh per call.
		NewAgents: func() ([]dgd.Agent, error) {
			out := make([]dgd.Agent, len(agents))
			copy(out, agents)
			return out, nil
		},
		X0:            vecmath.Zeros(model.ParamDim()),
		HonestLoss:    &mlsim.LossFunction{Model: model, Data: train},
		Metric:        metric,
		FaultsApplied: flip,
	}, nil
}
