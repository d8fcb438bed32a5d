package byzopt_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"

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
	costs := make([]byzopt.Cost, scn.N)
	for i, v := range readings {
		cost, err := byzopt.SingleObservationCost([]float64{1}, v)
		if err != nil {
			return nil, err
		}
		costs[i] = cost
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
		// A single-observation cost keeps no scratch, so the cells sharing
		// this workload, which run concurrently, share its costs; each cell
		// gets agents of its own, since the engine wraps the first scn.F.
		NewAgents:  func() ([]byzopt.Agent, error) { return byzopt.HonestAgents(costs) },
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

// One Config runs on every substrate through the Backend interface: the
// in-process engine, the cluster stack (a trusted server talking to each
// agent over its own in-memory connection) and the peer-to-peer network,
// where every report reaches the others by EIG Byzantine broadcast. Six
// agents share a two-parameter linear regression with x* = (1, 1); agent 0 is
// Byzantine and reverses its gradient every round, and the CGE filter keeps
// the optimization on track. The three substrates run the same protocol and
// print the same estimate.
func ExampleBackend() {
	rows := [][]float64{{1, 0}, {0.8, 0.5}, {0.5, 0.8}, {0, 1}, {-0.5, 0.8}, {-0.8, 0.5}}
	agents := make([]byzopt.Agent, len(rows))
	for i, row := range rows {
		cost, err := byzopt.SingleObservationCost(row, row[0]+row[1]) // noise-free at x* = (1, 1)
		if err != nil {
			log.Fatal(err)
		}
		if agents[i], err = byzopt.HonestAgent(cost); err != nil {
			log.Fatal(err)
		}
	}
	reverse, err := byzopt.NewBehavior("gradient-reverse", 0)
	if err != nil {
		log.Fatal(err)
	}
	if agents[0], err = byzopt.ByzantineAgent(agents[0], reverse); err != nil {
		log.Fatal(err)
	}
	filter, err := byzopt.NewFilter("cge")
	if err != nil {
		log.Fatal(err)
	}
	box, err := byzopt.NewCube(2, 1000)
	if err != nil {
		log.Fatal(err)
	}
	cfg := byzopt.Config{
		Agents:    agents,
		F:         1, // tolerate up to one Byzantine agent
		Filter:    filter,
		Steps:     byzopt.Diminishing{C: 1.5, P: 1},
		Box:       box,
		X0:        []float64{0, 0},
		Rounds:    500,
		Reference: []float64{1, 1},
	}
	var first []float64
	same := true
	for _, b := range []struct {
		name    string
		backend byzopt.Backend
	}{
		{"in-process", byzopt.InProcessBackend()},
		{"cluster", byzopt.ClusterBackend(0)},
		{"p2p", byzopt.P2PBackend()},
	} {
		res, err := b.backend.Run(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		if first == nil {
			first = res.X
		}
		same = same && slices.Equal(res.X, first)
		fmt.Printf("%-10s estimate after %d rounds: (%.4f, %.4f), within 1e-9 of the honest optimum: %t\n",
			b.name, res.Rounds, res.X[0], res.X[1], res.Trace.Dist[len(res.Trace.Dist)-1] < 1e-9)
	}
	fmt.Println("the same estimate on all three:", same)
	// Output:
	// in-process estimate after 500 rounds: (1.0000, 1.0000), within 1e-9 of the honest optimum: true
	// cluster    estimate after 500 rounds: (1.0000, 1.0000), within 1e-9 of the honest optimum: true
	// p2p        estimate after 500 rounds: (1.0000, 1.0000), within 1e-9 of the honest optimum: true
	// the same estimate on all three: true
}

// logCosh is a cost of your own, Q(x) = sum_j log cosh(x_j - c_j): smooth,
// quadratic near its center c and linear far from it. A Cost needs three
// methods and no more.
type logCosh struct{ c []float64 }

func (q logCosh) Dim() int { return len(q.c) }

func (q logCosh) Eval(x []float64) (float64, error) {
	if len(x) != len(q.c) {
		return 0, fmt.Errorf("eval at dim %d, want %d", len(x), len(q.c))
	}
	var s float64
	for j, cj := range q.c {
		s += math.Log(math.Cosh(x[j] - cj))
	}
	return s, nil
}

// GradInto writes tanh(x - c) into dst; it leaves dst alone on a bad x.
func (q logCosh) GradInto(dst, x []float64) error {
	if len(x) != len(q.c) || len(dst) != len(q.c) {
		return fmt.Errorf("grad at dim %d into %d, want %d", len(x), len(dst), len(q.c))
	}
	for j, cj := range q.c {
		dst[j] = math.Tanh(x[j] - cj)
	}
	return nil
}

// Any type with Dim, Eval and GradInto is a Cost, and HonestAgent runs it
// through every engine. Here five honest agents hold log-cosh costs centered
// symmetrically about (1, -2), so their aggregate is minimized there, and a
// sixth agent reverses its gradient every round; CGE keeps the estimate on
// the honest optimum.
func ExampleCost() {
	centers := [][]float64{{0.5, -2.5}, {1.5, -1.5}, {0.8, -2.2}, {1.2, -1.8}, {1, -2}, {9, 9}}
	agents := make([]byzopt.Agent, len(centers))
	for i, c := range centers {
		var err error
		if agents[i], err = byzopt.HonestAgent(logCosh{c: c}); err != nil {
			log.Fatal(err)
		}
	}
	reverse, err := byzopt.NewBehavior("gradient-reverse", 0)
	if err != nil {
		log.Fatal(err)
	}
	last := len(agents) - 1
	if agents[last], err = byzopt.ByzantineAgent(agents[last], reverse); err != nil {
		log.Fatal(err)
	}
	filter, err := byzopt.NewFilter("cge")
	if err != nil {
		log.Fatal(err)
	}
	box, err := byzopt.NewCube(2, 100)
	if err != nil {
		log.Fatal(err)
	}
	res, err := byzopt.Run(byzopt.Config{
		Agents: agents,
		F:      1,
		Filter: filter,
		Steps:  byzopt.Diminishing{C: 1, P: 1},
		Box:    box,
		X0:     []float64{0, 0},
		Rounds: 500,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate: (%.4f, %.4f)\n", res.X[0], res.X[1])
	// Output:
	// estimate: (1.0000, -2.0000)
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

// ExampleExhaustiveResilient runs the Theorem-2 algorithm, then shows why
// Theorem 1 makes redundancy necessary.
//
// Part 1 plants a regression instance with approximate redundancy: each of
// seven agents observes x* = (2, -1) through a random row, and noise breaks
// exact 2f-redundancy. It measures ε, runs the exhaustive
// (f, 2ε)-resilient algorithm, and checks Definition 2 directly.
//
// Part 2 is Theorem 1's three agents: two minimise at 0 and one at 2c. With
// f = 1 the server cannot tell world (i), honest {0, 1} with optimum 0,
// from world (ii), honest {1, 2} with optimum c, so no deterministic output
// is within c/2 of both.
func ExampleExhaustiveResilient() {
	r := rand.New(rand.NewSource(7))
	const n, f = 7, 2
	rows := make([][]float64, n)
	b := make([]float64, n)
	for i := range rows {
		rows[i] = []float64{r.NormFloat64(), r.NormFloat64()}
		b[i] = 2*rows[i][0] - rows[i][1] + 0.05*r.NormFloat64()
	}
	prob, err := byzopt.RegressionProblem(rows, b)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := byzopt.MeasureRedundancy(prob, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eps = %.5f, worst pair S = %v, Shat = %v\n", rep.Epsilon, rep.WorstOuter, rep.WorstInner)
	ex, err := byzopt.ExhaustiveResilient(prob, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output (%.4f, %.4f) from S = %v, score %.5f <= eps\n", ex.X[0], ex.X[1], ex.Subset, ex.Score)
	resil, err := byzopt.MeasureResilience(prob, f, []int{0, 1, 2, 3, 4, 5, 6}, ex.X)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worst (n-f)-subset distance %.5f <= 2 eps = %.5f\n", resil.MaxDistance, 2*rep.Epsilon)

	const c = 5.0
	tie, err := byzopt.RegressionProblem([][]float64{{1}, {1}, {1}}, []float64{0, 0, 2 * c})
	if err != nil {
		log.Fatal(err)
	}
	ex, err = byzopt.ExhaustiveResilient(tie, 1)
	if err != nil {
		log.Fatal(err)
	}
	toI, toII := math.Abs(ex.X[0]), math.Abs(ex.X[0]-c)
	fmt.Printf("Theorem 1: the output is %.3f from world (i)'s optimum and %.3f from world (ii)'s;\n", toI, toII)
	fmt.Printf("max(%.3f, %.3f) >= c/2 = %.3f, as for any deterministic output\n", toI, toII, c/2)
	// Output:
	// eps = 0.21429, worst pair S = [1 3 4 5 6], Shat = [3 4 6]
	// output (1.9936, -0.9874) from S = [1 2 3 5 6], score 0.05868 <= eps
	// worst (n-f)-subset distance 0.09477 <= 2 eps = 0.42858
	// Theorem 1: the output is 0.000 from world (i)'s optimum and 5.000 from world (ii)'s;
	// max(0.000, 5.000) >= c/2 = 2.500, as for any deterministic output
}
