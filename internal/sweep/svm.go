package sweep

import (
	"fmt"
	"math/rand"

	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/vecmath"
)

// ProblemSVM is the Section-5 remark that the same DGD + filter machinery
// trains a support vector machine under Byzantine faults: two Gaussian
// clouds (labels ±1) separated along a random direction, split into one
// soft-margin hinge cost per agent, with test accuracy as the task metric.
// abft-bench -exp svm runs it at n = 10, d = 10, f = 3.
const ProblemSVM = "svm"

// BehaviorScaledReverse is the svm problem's fault that breaks plain
// averaging: the Byzantine agents send -10x their gradient, so with 3 of 10
// faulty the mean points uphill. The factor is the problem's, which is why
// the byzantine registry does not carry the name.
const BehaviorScaledReverse = "scaled-reverse"

// The dataset is fixed, whatever the sweep's Seed: svmTrain + svmTest points
// off one pinned stream.
const (
	svmSeed  = 13
	svmTrain = 800
	svmTest  = 200
)

type svmProblem struct{}

var _ BehaviorDeclarer = svmProblem{}

// Name implements Problem.
func (svmProblem) Name() string { return ProblemSVM }

// ExtraBehaviors implements BehaviorDeclarer.
func (svmProblem) ExtraBehaviors() []string {
	return []string{BehaviorLabelFlip, BehaviorScaledReverse}
}

// Validate implements Problem: every agent needs a non-empty shard.
func (svmProblem) Validate(spec *Spec) error {
	for _, n := range spec.NValues {
		if n > svmTrain {
			return fmt.Errorf("n = %d exceeds the %d training points: %w", n, svmTrain, ErrSpec)
		}
	}
	return nil
}

// svmFault returns the behavior Build acts out itself, "" for the ones the
// engine applies.
func svmFault(behavior string) string {
	if behavior == BehaviorLabelFlip || behavior == BehaviorScaledReverse {
		return behavior
	}
	return ""
}

// AppendKey implements Problem: the instance depends on the shard layout
// (n, f), the feature dimension, and the fault Build applies.
func (svmProblem) AppendKey(dst []byte, spec *Spec, scn Scenario) []byte {
	return append(append(appendSizes(append(dst, ProblemSVM...), scn), " fault="...), svmFault(scn.Behavior)...)
}

// Build implements Problem. The designated-faulty shards are the last f,
// moved to the engine's leading Byzantine slots as in LearningProblem.
func (svmProblem) Build(spec *Spec, scn Scenario) (*Workload, error) {
	r := rand.New(rand.NewSource(svmSeed))
	dir := make([]float64, scn.Dim)
	for j := range dir {
		dir[j] = r.NormFloat64()
	}
	vecmath.ScaleInPlace(1/vecmath.Norm(dir), dir)
	xs, ys := make([][]float64, svmTrain+svmTest), make([]float64, svmTrain+svmTest)
	for i := range xs {
		ys[i] = 1 - 2*float64(i%2)
		xs[i] = make([]float64, scn.Dim)
		for j := range xs[i] {
			xs[i][j] = ys[i]*2*dir[j] + r.NormFloat64()
		}
	}
	testX, testY := xs[svmTrain:], ys[svmTrain:]
	fault := svmFault(scn.Behavior)
	costs := make([]costfunc.Differentiable, scn.N)
	for slot := range costs {
		shard := (slot + scn.N - scn.F) % scn.N
		lo, hi := shard*svmTrain/scn.N, (shard+1)*svmTrain/scn.N
		labels := ys[lo:hi]
		if fault == BehaviorLabelFlip && slot < scn.F {
			labels = vecmath.Neg(labels)
		}
		cost, err := costfunc.NewHinge(xs[lo:hi], labels, 1e-3)
		if err != nil {
			return nil, err
		}
		costs[slot] = cost
	}
	honestSum, err := costfunc.NewSum(costs[scn.F:]...)
	if err != nil {
		return nil, err
	}
	honestLoss, err := costfunc.NewScale(1/float64(scn.N-scn.F), honestSum)
	if err != nil {
		return nil, err
	}
	return &Workload{
		// Hinge costs hold no scratch, so scenarios sharing the cached
		// workload share them; the agents around them are fresh per call.
		NewAgents: func() ([]dgd.Agent, error) {
			agents, err := dgd.HonestAgents(costs)
			if err != nil || fault != BehaviorScaledReverse {
				return agents, err
			}
			for i := 0; i < scn.F; i++ {
				if agents[i], err = dgd.NewFaulty(agents[i], byzantine.ScaledReverse{Factor: 10}); err != nil {
					return nil, err
				}
			}
			return agents, nil
		},
		X0:         vecmath.Zeros(scn.Dim),
		HonestLoss: honestLoss,
		Metric: &Metric{
			Name:  "test_accuracy",
			Every: 10,
			Eval: func(w []float64) (float64, error) {
				correct := 0
				for i, x := range testX {
					s, err := vecmath.Dot(w, x)
					if err != nil {
						return 0, err
					}
					if (s >= 0) == (testY[i] > 0) {
						correct++
					}
				}
				return float64(correct) / svmTest, nil
			},
		},
		FaultsApplied: fault != "",
	}, nil
}
