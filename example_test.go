package byzopt_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"byzopt"
)

// temperature is a custom sweep workload: thermometer i holds the cost
// (x - reading_i)², so the honest aggregate minimizes at the honest mean —
// one-dimensional robust mean estimation with a known ground truth.
type temperature struct{}

// Name is the registry key; SweepSpec.Problem and abft-sweep -problem select
// the workload by it once it is registered with byzopt.RegisterProblem.
func (temperature) Name() string { return "temperature" }

// Validate vets the spec axes the problem consumes. The engine has already
// validated filters and behaviors (a problem with its own fault vocabulary
// would declare it via an ExtraBehaviors() []string method — see the
// learning family).
func (temperature) Validate(spec *byzopt.SweepSpec) error {
	for _, d := range spec.Dims {
		if d != 1 {
			return fmt.Errorf("temperature is one-dimensional, got d = %d", d)
		}
	}
	return nil
}

// Key identifies which scenarios share one built instance: the readings
// depend on the system size and the fault split, nothing else.
func (temperature) Key(spec *byzopt.SweepSpec, scn byzopt.SweepScenario) string {
	return fmt.Sprintf("temperature n=%d f=%d", scn.N, scn.F)
}

// trueTemp is the reading every thermometer measures with noise.
const trueTemp = 21.5

// Build materializes the instance. It must be deterministic in (spec,
// scenario) — scenario seeds, replay, and shard merging all assume the
// workload is a pure function of the grid axes.
func (temperature) Build(spec *byzopt.SweepSpec, scn byzopt.SweepScenario) (*byzopt.Workload, error) {
	r := rand.New(rand.NewSource(spec.Seed + int64(scn.N)<<16 + int64(scn.F)))
	readings := make([]float64, scn.N)
	for i := range readings {
		readings[i] = trueTemp + 0.3*r.NormFloat64()
	}
	// The first scn.F agents are the Byzantine slots; x_H is the honest
	// readings' mean, and the honest loss is their aggregate cost.
	var honestSum float64
	for _, v := range readings[scn.F:] {
		honestSum += v
	}
	xH := []float64{honestSum / float64(scn.N-scn.F)}
	// Each call builds its own costs: a cost keeps gradient scratch, and the
	// cells sharing this workload run concurrently.
	newCosts := func() ([]byzopt.Cost, error) {
		costs := make([]byzopt.Cost, scn.N)
		for i, v := range readings {
			cost, err := byzopt.SingleObservationCost([]float64{1}, v)
			if err != nil {
				return nil, err
			}
			costs[i] = cost
		}
		return costs, nil
	}
	costs, err := newCosts()
	if err != nil {
		return nil, err
	}
	honestLoss, err := byzopt.SumCost(costs[scn.F:]...)
	if err != nil {
		return nil, err
	}
	box, err := byzopt.NewCube(1, 1000)
	if err != nil {
		return nil, err
	}
	return &byzopt.Workload{
		NewAgents: func() ([]byzopt.Agent, error) {
			costs, err := newCosts()
			if err != nil {
				return nil, err
			}
			return byzopt.HonestAgents(costs)
		},
		X0:         []float64{0},
		XH:         xH,
		Box:        box,
		HonestLoss: honestLoss,
		// An optional task metric rides along in every result (and, with
		// RecordTrace, as a per-round series): here, the absolute error
		// against the ground truth the estimator never sees.
		Metric: &byzopt.Metric{
			Name:  "abs_error_vs_truth",
			Every: 1,
			Eval:  func(x []float64) (float64, error) { return math.Abs(x[0] - trueTemp), nil },
		},
	}, nil
}

// A workload of your own runs through the sweep engine like the built-in
// ones: implement Problem and hand it to SweepSpec.ProblemDef, or register
// it with RegisterProblem to name it in SweepSpec.Problem and abft-sweep
// -problem. Here n = 15 thermometers read one temperature, f = 2 of them
// Byzantine, swept across three filters and the fault-free baseline axis.
// The export is deterministic: same spec, same bytes, at any worker count.
func ExampleProblem() {
	results, err := byzopt.Sweep(byzopt.SweepSpec{
		ProblemDef: temperature{},
		Filters:    []string{"cge", "cwtm", "mean"},
		Behaviors:  []string{"gradient-reverse"},
		FValues:    []int{2},
		NValues:    []int{15},
		Dims:       []int{1},
		Rounds:     300,
		Baselines:  []bool{false, true}, // add the fault-free omit-them baseline
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-16s %9s %14s\n", "filter", "behavior", "|x - x_H|", "error vs truth")
	for _, r := range results {
		behavior := r.Behavior
		if r.Baseline {
			behavior = "(baseline)"
		}
		fmt.Printf("%-6s %-16s %9.4f %14.4f\n", r.Filter, behavior, r.FinalDist, r.MetricFinal)
	}
	// Output:
	// filter behavior         |x - x_H| error vs truth
	// cge    gradient-reverse    0.1303         0.0531
	// cge    (baseline)          0.0000         0.0772
	// cwtm   gradient-reverse    0.0659         0.0112
	// cwtm   (baseline)          0.0000         0.0772
	// mean   gradient-reverse    0.0167         0.0605
	// mean   (baseline)          0.0000         0.0772
}
