package sweep

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"

	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// Problem is one registered workload family — the axis that turns the sweep
// engine from a regression harness into a general scenario matrix. A Problem
// materializes a deterministic Workload (per-agent costs, the reference
// point x_H, the honest aggregate loss, the initial point, and optional task
// metrics) for every grid point that names it.
//
// Implementations must be pure: the same (spec, scenario) pair must always
// build the same instance, because scenario seeds — and therefore the whole
// engine's replay guarantee — assume the workload is a function of the grid
// axes alone.
type Problem interface {
	// Name returns the registry key (the value of Spec.Problem and
	// Scenario.Problem).
	Name() string
	// Validate vets the spec axes the problem consumes — system sizes,
	// dimensions — wrapping rejections in ErrSpec. The engine has already
	// validated the generic axes (filters, behaviors, f, rounds, workers);
	// problems with behaviors of their own declare them via ExtraBehaviors.
	Validate(spec *Spec) error
	// Key returns the cache key identifying the instance Build would
	// produce for the scenario: scenarios mapping to the same key share one
	// cached Workload, so the key must cover every axis the instance
	// depends on and no more.
	Key(spec *Spec, scn Scenario) string
	// Build materializes the workload for one scenario. The result may be
	// cached and shared by concurrently running scenarios, so everything it
	// holds must be safe for concurrent read-only use.
	Build(spec *Spec, scn Scenario) (*Workload, error)
}

// Workload is one materialized problem instance. Everything in it is
// read-only after Build; per-scenario mutable state (Byzantine behavior
// streams) is created by the engine around the agents NewAgents returns.
type Workload struct {
	// NewAgents returns the scenario's n agents in index order, a fresh
	// slice per call. The engine wraps the first scn.F of them with the
	// scenario's Byzantine behavior — unless FaultsApplied is set or the
	// scenario is a Baseline, which omits them entirely instead.
	NewAgents func() ([]dgd.Agent, error)
	// X0 is the initial estimate.
	X0 []float64
	// XH is the reference point (the honest aggregate minimizer); nil
	// disables the distance series and leaves Result.FinalDist zero.
	XH []float64
	// Box is the constraint set; nil disables projection.
	Box *vecmath.Box
	// HonestLoss is the tracked loss function (the paper's Q_H series); nil
	// disables the loss series.
	HonestLoss costfunc.Function
	// Metric, when non-nil, is an optional per-round task metric (e.g. test
	// accuracy) recorded alongside the loss/distance series.
	Metric *Metric
	// FaultsApplied reports that the problem consumed scn.Behavior itself —
	// data-level faults like label flipping that no gradient-space behavior
	// can express — so the engine must not wrap agents again.
	FaultsApplied bool
}

// Metric is an optional per-round task metric a Workload can expose, e.g.
// test-set accuracy for learning problems. Between evaluations the engine
// carries the last value forward, so the recorded series stays aligned with
// the loss series at every round.
type Metric struct {
	// Name labels the metric in exports (Result.MetricName).
	Name string
	// Every evaluates the metric at rounds t with t % Every == 0 and at the
	// final round; values below 1 mean every round.
	Every int
	// Eval computes the metric at the estimate x. It must not retain or
	// mutate x, and must be safe for concurrent use across scenarios.
	Eval func(x []float64) (float64, error)
}

// --- registry ---

var (
	problemsMu sync.RWMutex
	problems   = map[string]Problem{}
)

// Register adds a problem to the registry under p.Name(). It fails on empty
// or duplicate names, so built-ins cannot be silently shadowed.
func Register(p Problem) error {
	if p == nil {
		return fmt.Errorf("nil problem: %w", ErrSpec)
	}
	name := p.Name()
	if name == "" {
		return fmt.Errorf("problem with empty name: %w", ErrSpec)
	}
	problemsMu.Lock()
	defer problemsMu.Unlock()
	if _, ok := problems[name]; ok {
		return fmt.Errorf("problem %q already registered: %w", name, ErrSpec)
	}
	problems[name] = p
	return nil
}

// LookupProblem returns the problem registered under name.
func LookupProblem(name string) (Problem, error) {
	problemsMu.RLock()
	defer problemsMu.RUnlock()
	p, ok := problems[name]
	if !ok {
		return nil, fmt.Errorf("unknown problem %q (registered: %v): %w", name, problemNamesLocked(), ErrSpec)
	}
	return p, nil
}

// ProblemNames lists the registered problem names in sorted order.
func ProblemNames() []string {
	problemsMu.RLock()
	defer problemsMu.RUnlock()
	return problemNamesLocked()
}

func problemNamesLocked() []string {
	names := make([]string, 0, len(problems))
	for name := range problems {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func mustRegister(p Problem) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister(regressionProblem{name: ProblemPaper, paper: true})
	mustRegister(regressionProblem{name: ProblemSynthetic})
	mustRegister(&LearningProblem{ProblemName: ProblemLearning, Preset: "a"})
	mustRegister(&LearningProblem{ProblemName: ProblemLearningB, Preset: "b"})
	mustRegister(&LearningProblem{ProblemName: ProblemLearningMLP, Preset: "a", UseMLP: true})
	mustRegister(sensingProblem{})
	mustRegister(robustMeanProblem{})
	mustRegister(&banknoteProblem{})
	mustRegister(svmProblem{})
}

// BehaviorDeclarer is the optional Problem extension for workloads with
// fault modes of their own that the byzantine registry cannot express (the
// learning family's data-level label flipping, for example). The engine
// accepts a declared name on the Behaviors axis and hands it to Build via
// Scenario.Behavior; the problem is then responsible for acting it out
// (Workload.FaultsApplied).
type BehaviorDeclarer interface {
	// ExtraBehaviors lists the problem-specific behavior names.
	ExtraBehaviors() []string
}

// ValidateBehaviors vets behavior names against the byzantine registry plus
// any extras — the engine applies it to every spec with the problem's
// declared extras, so custom Problems get fail-fast typo detection without
// re-implementing it.
func ValidateBehaviors(names []string, extras ...string) error {
	if len(names) == 0 {
		return fmt.Errorf("empty behavior list: %w", ErrSpec)
	}
behaviors:
	for _, name := range names {
		if name == BehaviorNone {
			continue
		}
		for _, extra := range extras {
			if name == extra {
				continue behaviors
			}
		}
		if _, err := byzantine.New(name, 0); err != nil {
			return fmt.Errorf("behavior %q: %v: %w", name, err, ErrSpec)
		}
	}
	return nil
}

// --- regression problems (paper and synthetic) ---

// regressionProblem is the paper's distributed linear-regression workload:
// one single-observation least-squares cost per agent, with x_H solved
// exactly from the honest rows. The paper variant serves the Appendix-J
// instance verbatim; the synthetic variant generates a deterministic
// instance per (n, d).
type regressionProblem struct {
	name  string
	paper bool
}

var _ Problem = regressionProblem{}

// Name implements Problem.
func (p regressionProblem) Name() string { return p.name }

// Validate implements Problem: the paper instance only exists at its own
// size.
func (p regressionProblem) Validate(spec *Spec) error {
	if !p.paper {
		return nil
	}
	for _, n := range spec.NValues {
		if n != linreg.N {
			return fmt.Errorf("paper problem requires n = %d, got %d: %w", linreg.N, n, ErrSpec)
		}
	}
	for _, d := range spec.Dims {
		if d != linreg.Dim {
			return fmt.Errorf("paper problem requires d = %d, got %d: %w", linreg.Dim, d, ErrSpec)
		}
	}
	return nil
}

// Key implements Problem: the instance depends on the system size and the
// fault split (which fixes the honest set behind x_H), nothing else.
func (p regressionProblem) Key(spec *Spec, scn Scenario) string {
	return fmt.Sprintf("%s n=%d d=%d f=%d", p.name, scn.N, scn.Dim, scn.F)
}

// Build implements Problem. The first scn.F agents are the Byzantine ones
// (mirroring the paper's faulty agent 0), so the honest set is rows[scn.F:]
// and x_H minimizes the honest aggregate sum_{i >= f} (resp_i - rows_i · x)²
// exactly, by least squares.
func (p regressionProblem) Build(spec *Spec, scn Scenario) (*Workload, error) {
	var (
		rows [][]float64
		resp []float64
		x0   []float64
	)
	if p.paper {
		rows, resp, x0 = linreg.A(), linreg.B(), linreg.X0()
	} else {
		rows, resp = syntheticRegression(scn.N, scn.Dim, spec.Seed, spec.Noise)
		x0 = vecmath.Zeros(scn.Dim)
	}
	if scn.F >= len(rows) {
		return nil, fmt.Errorf("f=%d leaves no honest agent at n=%d: %w", scn.F, len(rows), ErrSpec)
	}
	honest, err := matrix.FromRows(rows[scn.F:])
	if err != nil {
		return nil, err
	}
	honestResp := resp[scn.F:]
	if honest.Rows() < honest.Cols() {
		return nil, fmt.Errorf("honest system underdetermined: %d agents for dim %d: %w",
			honest.Rows(), honest.Cols(), ErrSpec)
	}
	xH, err := matrix.LeastSquares(honest, honestResp)
	if err != nil {
		return nil, fmt.Errorf("honest minimizer: %w", err)
	}
	honestSum, err := costfunc.NewLeastSquares(honest, honestResp)
	if err != nil {
		return nil, err
	}
	box, err := vecmath.NewCube(scn.Dim, spec.BoxRadius)
	if err != nil {
		return nil, err
	}
	costs, err := costfunc.ObservationViews(rows, resp)
	if err != nil {
		return nil, err
	}
	return &Workload{
		// Observations keep no scratch and never write their rows, so the
		// cells sharing this workload share its costs; the agents around
		// them are fresh per call.
		NewAgents:  func() ([]dgd.Agent, error) { return dgd.HonestAgents(costs) },
		X0:         x0,
		XH:         xH,
		Box:        box,
		HonestLoss: honestSum,
	}, nil
}

// problemSeed derives the synthetic data stream from the axes the data may
// depend on — (label, n, d, base seed, noise) — and nothing else, so every
// scenario at the same system size optimizes the same instance.
func problemSeed(label string, base int64, n, d int, noise float64) int64 {
	h := fnv.New64a()
	io.WriteString(h, fmt.Sprintf("%s n=%d d=%d noise=%g", label, n, d, noise))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	return int64(h.Sum64())
}

// syntheticRegression generates the deterministic (n, d) regression
// instance: rows drawn Gaussian and scaled to unit norm (matching the
// conditioning of the paper's design, whose rows are unit vectors), and
// responses rows_i · x* + noise with generator x* = (1, ..., 1).
func syntheticRegression(n, d int, seed int64, noise float64) (rows [][]float64, resp []float64) {
	r := rand.New(rand.NewSource(problemSeed("problem", seed, n, d, noise)))
	xstar := vecmath.Ones(d)
	rows = make([][]float64, n)
	resp = make([]float64, n)
	for i := range rows {
		row := make([]float64, d)
		var normSq float64
		for j := range row {
			row[j] = r.NormFloat64()
			normSq += row[j] * row[j]
		}
		if normSq == 0 {
			row[i%d] = 1
			normSq = 1
		}
		vecmath.ScaleInPlace(1/math.Sqrt(normSq), row)
		rows[i] = row
		dot := 0.0
		for j := range row {
			dot += row[j] * xstar[j]
		}
		resp[i] = dot + noise*r.NormFloat64()
	}
	return rows, resp
}
