// Package dgd implements the distributed gradient-descent method of
// Section 4.1: in each synchronous iteration t, the server broadcasts its
// estimate x_t, every agent reports a gradient (honest agents report
// grad Q_i(x_t), Byzantine agents report anything), the server applies a
// gradient filter and takes a projected step
//
//	x_{t+1} = [ x_t - η_t GradFilter(g_1, ..., g_n) ]_W.
//
// That update exists once, in the Round kernel (round.go): overlay, filter,
// step, projection, finite check, and the per-round recording. A substrate
// only gathers a round's reports and hands them to Round.Apply. This
// package's RunContext is the deterministic in-process substrate (a
// Collector looping over agents); package cluster gathers over a transport
// (server-based, with step-S1 elimination) and package p2p through Byzantine
// broadcast (fully decentralized, one kernel for the honest peers, who hold
// the same agreed set).
package dgd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/chaos"
	"byzopt/internal/costfunc"
	"byzopt/internal/vecmath"
)

// ErrConfig is returned (wrapped) for invalid run configurations.
var ErrConfig = errors.New("dgd: invalid configuration")

// ErrDiverged is returned (wrapped) when an estimate leaves the space of
// finite vectors (a filter or behavior produced NaN/Inf).
var ErrDiverged = errors.New("dgd: estimate diverged to non-finite values")

// ErrInadmissible is returned (wrapped) by a Backend whose substrate cannot
// admit the configuration at all — the p2p backend's n > 3f broadcast
// requirement, for example. It marks an infeasible (config, substrate) pair
// rather than a failed execution, so the sweep engine classifies it as a
// skipped grid point instead of aborting the sweep.
var ErrInadmissible = errors.New("dgd: configuration inadmissible for this backend")

// Agent produces the gradient reported to the server each round. Honest
// agents report their true local gradient; Byzantine wrappers distort it.
type Agent interface {
	// Gradient returns the agent's report for round t at estimate x.
	// Implementations must not retain or mutate x.
	Gradient(round int, x []float64) ([]float64, error)
}

// IntoAgent is an optional Agent extension: GradientInto writes the round's
// report into dst (sized to the estimate dimension) instead of allocating
// it, with values bitwise identical to Gradient's. The Collector detects it
// per agent and hands every agent a dedicated row of a per-run gradient
// arena, which — together with an IntoFilter — makes the steady-state round
// loop allocation-free. An agent without the extension is adapted once
// (Gradient, then a copy into its row).
//
// Implementations may reuse internal scratch between calls (costfunc's
// LeastSquares and Sum do). The Collector calls GradientInto once per agent per round, on
// a row no other agent sees, one agent at a time. Agents still report
// concurrently elsewhere — a sweep runs its cells side by side, and the
// cluster substrate asks each agent from its connection's goroutine — so an
// agent's scratch (its cost, or the inner agent of a Byzantine wrapper) must
// not be shared with another agent.
type IntoAgent interface {
	Agent
	// GradientInto writes the agent's report for round t at estimate x into
	// dst. Implementations must not retain or mutate x, and must not retain
	// dst beyond the call.
	GradientInto(dst []float64, round int, x []float64) error
}

// Faulty marks an Agent as Byzantine for gradient collection. The engine
// collects reports from all non-Faulty agents first and then asks each
// Faulty agent through FaultyGradient, handing it the honest reports of the
// round so omniscient behaviors observe the complete honest set — the
// strongest adversary the literature assumes. Any wrapper around a
// Byzantine agent must implement Faulty too; otherwise the engine treats it
// as honest, collecting it in the first phase and exposing its report to
// omniscient adversaries as if it were truthful.
type Faulty interface {
	Agent
	// FaultyGradient returns the agent's report for round t at estimate x,
	// given the agent's own index and the honest gradients of the round in
	// agent-index order. A nil honest slice means the caller has no
	// visibility into the other agents' reports (the cluster backend serves
	// each agent behind its own connection); implementations must then
	// produce a non-omniscient report. Implementations must not retain or
	// mutate x or honest.
	FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error)
}

// IntoFaulty is the Into face of Faulty, mirroring IntoAgent: the report is
// written into dst so the engine's gradient arena also covers Byzantine
// agents. The built-in Faulty wrapper has the inner agent write the true
// gradient into dst and the behavior rewrite it there
// (byzantine.IntoBehavior), allocating nothing when both have their Into
// faces, as every built-in agent and behavior does. When several NewFaulty
// agents of a run hold equal behaviors marked byzantine.SharedReport, the
// Collector asks only the lowest-indexed of them and copies its report to the
// others, whose FaultyGradientInto — and inner agent — it does not call.
type IntoFaulty interface {
	Faulty
	// FaultyGradientInto is FaultyGradient writing into dst.
	FaultyGradientInto(dst []float64, round, agent int, x []float64, honest [][]float64) error
}

// --- honest agent ---

// honest is an Agent reporting the exact gradient of its local cost.
type honest struct {
	cost costfunc.Differentiable
}

// NewHonest wraps a cost function as a truthful agent.
func NewHonest(cost costfunc.Differentiable) (Agent, error) {
	if cost == nil {
		return nil, fmt.Errorf("nil cost: %w", ErrConfig)
	}
	return &honest{cost: cost}, nil
}

var _ IntoAgent = (*honest)(nil)

// Gradient implements Agent.
func (h *honest) Gradient(round int, x []float64) ([]float64, error) {
	return costfunc.Grad(h.cost, x)
}

// GradientInto implements IntoAgent: the cost writes straight into dst.
func (h *honest) GradientInto(dst []float64, round int, x []float64) error {
	return h.cost.GradInto(dst, x)
}

// copyInto is the tail of every adapter from an allocating face to its Into
// face: the report g, or the error it came with, lands in dst, and a report
// of the wrong dimension is a configuration error. Copying also keeps a slice
// the producer retains out of the caller's arena.
func copyInto(dst, g []float64, err error) error {
	if err != nil {
		return err
	}
	if len(g) != len(dst) {
		return fmt.Errorf("returned dim %d, want %d: %w", len(g), len(dst), ErrConfig)
	}
	copy(dst, g)
	return nil
}

// asIntoAgent adapts an agent without GradientInto, the way asInto adapts
// filters; the adapted agent still allocates its own report.
type asIntoAgent struct{ Agent }

func (a asIntoAgent) GradientInto(dst []float64, round int, x []float64) error {
	g, err := a.Gradient(round, x)
	return copyInto(dst, g, err)
}

// asIntoFaulty is asIntoAgent for the Faulty face.
type asIntoFaulty struct{ Faulty }

func (a asIntoFaulty) FaultyGradientInto(dst []float64, round, agent int, x []float64, honest [][]float64) error {
	g, err := a.FaultyGradient(round, agent, x, honest)
	return copyInto(dst, g, err)
}

// HonestAgents wraps each cost as a truthful agent, in order. The agents
// share one backing slice, so n of them cost two allocations.
func HonestAgents(costs []costfunc.Differentiable) ([]Agent, error) {
	backing := make([]honest, len(costs))
	out := make([]Agent, len(costs))
	for i, c := range costs {
		if c == nil {
			return nil, fmt.Errorf("agent %d: nil cost: %w", i, ErrConfig)
		}
		backing[i].cost = c
		out[i] = &backing[i]
	}
	return out, nil
}

// --- faulty agent ---

// faulty wraps an inner agent with a Byzantine behavior. An omniscient
// behavior also sees the honest gradients of the round (the engine collects
// honest reports first).
type faulty struct {
	inner    IntoAgent              // the inner agent's Into face, adapted if absent; nil reports zero
	behavior byzantine.Behavior     // as handed to NewFaulty
	into     byzantine.IntoBehavior // behavior's in-place face, adapted if absent
}

// NewFaulty builds a Byzantine agent: inner produces the gradient the agent
// would truthfully send (nil means a zero vector of the estimate's
// dimension), and behavior distorts it. Under a Collector that has honest
// reports to show, agents built with equal byzantine.SharedReport behaviors
// report once: inner is evaluated for the lowest-indexed of them only, since
// such a behavior ignores it (see IntoFaulty).
func NewFaulty(inner Agent, behavior byzantine.Behavior) (Agent, error) {
	agents := []Agent{inner}
	if err := wrapFaulty(agents, make([]faulty, 1), behavior); err != nil {
		return nil, err
	}
	return agents[0], nil
}

// asIntoBehavior adapts a behavior without the Into face, the way asInto
// adapts filters; the adapted behavior still allocates its own report.
type asIntoBehavior struct{ byzantine.Behavior }

func (a asIntoBehavior) ApplyInto(dst []float64, round, agentID int, trueGrad []float64, honest [][]float64) error {
	var g []float64
	var err error
	if omni, ok := a.Behavior.(byzantine.Omniscient); ok && honest != nil {
		g, err = omni.ApplyOmniscient(round, agentID, trueGrad, honest)
	} else {
		g, err = a.Apply(round, agentID, trueGrad)
	}
	return copyInto(dst, g, err)
}

var (
	_ Faulty     = (*faulty)(nil)
	_ IntoFaulty = (*faulty)(nil)
	_ IntoAgent  = (*faulty)(nil)
)

// Gradient implements Agent, the path for callers that know neither the
// agent's index nor the honest reports; index-aware callers use
// FaultyGradient instead.
func (f *faulty) Gradient(round int, x []float64) ([]float64, error) {
	return f.FaultyGradient(round, 0, x, nil)
}

// GradientInto implements IntoAgent, mirroring Gradient.
func (f *faulty) GradientInto(dst []float64, round int, x []float64) error {
	return f.FaultyGradientInto(dst, round, 0, x, nil)
}

// FaultyGradient implements Faulty on a fresh slice.
func (f *faulty) FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error) {
	dst := make([]float64, len(x))
	if err := f.FaultyGradientInto(dst, round, agent, x, honest); err != nil {
		return nil, err
	}
	return dst, nil
}

// FaultyGradientInto implements IntoFaulty, the wrapper's one path: the
// inner agent writes the true gradient into dst and the behavior rewrites it
// in place, seeing the honest set when it is omniscient and the caller has it
// (honest != nil); otherwise it degrades to the non-omniscient report.
func (f *faulty) FaultyGradientInto(dst []float64, round, agent int, x []float64, honest [][]float64) error {
	if f.inner == nil {
		clear(dst)
	} else if err := f.inner.GradientInto(dst, round, x); err != nil {
		return err
	}
	if err := f.into.ApplyInto(dst, round, agent, dst, honest); err != nil {
		return fmt.Errorf("behavior %s: %w", f.behavior.Name(), err)
	}
	return nil
}

// Behavior exposes the wrapped Byzantine behavior. Substrate backends use it
// to detect substrate-specific behavior extensions — the p2p backend
// inspects it for the broadcast-distorter contract, so one behavior value
// can act at the gradient level everywhere and additionally equivocate in
// the broadcast layer where one exists.
func (f *faulty) Behavior() byzantine.Behavior { return f.behavior }

// --- step-size schedules ---

// StepSchedule yields the step size η_t for each round.
type StepSchedule interface {
	// Name returns a short stable identifier.
	Name() string
	// At returns η_t; it must be positive.
	At(t int) float64
}

// Diminishing is η_t = C/(t+1)^P. With 1/2 < P <= 1 it satisfies the
// Theorem-3 conditions (sum η_t = ∞, sum η_t² < ∞); the paper's experiments
// use C = 1.5, P = 1.
type Diminishing struct {
	C, P float64
}

var _ StepSchedule = Diminishing{}

// Name implements StepSchedule.
func (d Diminishing) Name() string { return fmt.Sprintf("diminishing-%g-%g", d.C, d.P) }

// At implements StepSchedule.
func (d Diminishing) At(t int) float64 { return d.C / math.Pow(float64(t+1), d.P) }

// DefaultSteps returns the paper's default step-size schedule 1.5/(t+1),
// the value every substrate substitutes for a nil Config.Steps. Keeping one
// constructor is what guarantees the in-process engine, the cluster server,
// and the p2p loop cannot drift apart on the default.
func DefaultSteps() StepSchedule { return Diminishing{C: 1.5, P: 1} }

// Constant is the fixed step η_t = Eta, used by the learning experiments
// (η = 0.01 in Appendix K) and the step-size ablation.
type Constant struct {
	Eta float64
}

var _ StepSchedule = Constant{}

// Name implements StepSchedule.
func (c Constant) Name() string { return fmt.Sprintf("constant-%g", c.Eta) }

// At implements StepSchedule.
func (c Constant) At(int) float64 { return c.Eta }

// --- run configuration ---

// Config describes one DGD execution.
type Config struct {
	// Agents are the n participants, in agent-index order.
	Agents []Agent
	// F is the fault-tolerance parameter handed to the filter (the maximum
	// number of Byzantine agents the server defends against).
	F int
	// Filter is the gradient aggregation rule.
	Filter aggregate.Filter
	// Steps is the step-size schedule; nil means the paper's 1.5/(t+1).
	Steps StepSchedule
	// Box is the compact convex constraint set W; nil disables projection
	// (only sensible for well-conditioned fault-free runs).
	Box *vecmath.Box
	// X0 is the initial estimate.
	X0 []float64
	// Rounds is the number of iterations T; the result is x_T.
	Rounds int

	// TrackLoss, when non-nil, is evaluated at every estimate (typically
	// the honest aggregate cost, the paper's "loss" series) and recorded in
	// Result.Trace, Rounds+1 values. The sweep engine tracks through neither
	// it nor Reference: its observer evaluates both and keeps what a cell
	// exports.
	TrackLoss costfunc.Function
	// Reference, when non-nil, tracks ||x_t - Reference|| (the paper's
	// "distance" series, with Reference = x_H).
	Reference []float64
	// Observer, when non-nil, observes every estimate x_t for t = 0..T
	// together with the tracked loss and distance values. All Backend
	// implementations honor it, so instrumentation written against the
	// in-process engine works unchanged over the cluster stack. The kernel
	// checks it once per run for three optional faces: AsyncObserver and
	// ChaosObserver (the overlay's per-round stats) and FilterObserver (each
	// filter call's input and output).
	Observer RoundObserver

	// Async, when non-nil, switches the round loop from lockstep-synchronous
	// collection to the asynchronous model: per-agent arrival times drawn
	// from a seeded virtual-latency model, a collection policy closing each
	// round, and staleness handling for reports that miss the close. Timing
	// is simulated (virtual time, never the wall clock), so runs stay
	// deterministic. The zero-latency wait-all configuration is bitwise
	// identical to a nil Async.
	Async *AsyncConfig

	// Arena, when non-nil, lends the run its set-up tables (see Arena): the
	// round kernel with its filter scratch, the collector, and a substrate's
	// own tables. Result.X is then the arena's row, overwritten by the next
	// run over it. Nil gives the run a fresh arena.
	Arena *Arena

	// Chaos, when non-nil and enabled, injects deterministic system faults —
	// crash, omission, delay, duplication, detected corruption — into each
	// round's collection through the async overlay (a chaos-only run uses a
	// zero-latency wait-all overlay). Faults degrade rounds rather than fail
	// them: lost reports shrink the filter input under the usual effective-f
	// clamping, and a round losing every live report skips its descent step.
	// A nil or disabled plan is bitwise identical to no chaos layer at all.
	Chaos *chaos.Plan
}

// Trace records per-iteration series for t = 0..Rounds inclusive.
type Trace struct {
	// Loss[t] is TrackLoss(x_t); nil when TrackLoss was nil.
	Loss []float64
	// Dist[t] is ||x_t - Reference||; nil when Reference was nil.
	Dist []float64
}

// Result is the outcome of a run.
type Result struct {
	// X is the final estimate x_T.
	X []float64
	// Rounds echoes the configured iteration count.
	Rounds int
	// Trace holds the recorded series.
	Trace Trace
}

// --- observers ---

// RoundObserver observes every estimate of a run, t = 0..Rounds.
type RoundObserver interface {
	// ObserveRound is called once per recorded estimate x_t with the
	// tracked loss and distance values (NaN when the corresponding Config
	// field is nil). The estimate must not be retained or mutated.
	// Returning an error aborts the run.
	ObserveRound(t int, x []float64, loss, dist float64) error
}

// ObserverFunc adapts a function to the RoundObserver interface.
type ObserverFunc func(t int, x []float64, loss, dist float64) error

// ObserveRound implements RoundObserver.
func (f ObserverFunc) ObserveRound(t int, x []float64, loss, dist float64) error {
	return f(t, x, loss, dist)
}

// FilterObserver is an optional RoundObserver extension that sees every
// filter call of a run. The kernel detects it by type assertion on
// Config.Observer once per run; an observer without the face costs the
// round nothing.
type FilterObserver interface {
	// ObserveFilter is called right after round t's filter call and before
	// the step, with the rows and fault budget f the filter saw (after the
	// async/chaos overlay) and its output. A round that loses every report
	// calls no filter and so no observer. Neither input nor out may be
	// retained or mutated. Returning an error aborts the run.
	ObserveFilter(t, f int, input [][]float64, out []float64) error
}

// TraceRecorder is a RoundObserver recording the full per-round series —
// estimates, loss, and distance — for export (the sweep engine attaches one
// when Spec.RecordTrace is set). The zero value is ready to use.
type TraceRecorder struct {
	// OmitEstimates skips recording X. Estimate copies dominate the
	// recorder's memory at high dimension; set it when only the loss and
	// distance series are needed, as the sweep engine does.
	OmitEstimates bool
	// X[t] is a copy of the estimate x_t (nil when OmitEstimates is set).
	X [][]float64
	// Loss[t] and Dist[t] are the tracked values; NaN when untracked.
	Loss []float64
	Dist []float64
	// Async[t] is the round's asynchronous collection stats; nil unless the
	// run had Config.Async set.
	Async []AsyncRoundStats
	// Chaos[t] is the round's injected-fault stats; nil unless the run had
	// an enabled Config.Chaos plan.
	Chaos []ChaosRoundStats
}

var (
	_ RoundObserver = (*TraceRecorder)(nil)
	_ AsyncObserver = (*TraceRecorder)(nil)
	_ ChaosObserver = (*TraceRecorder)(nil)
)

// ObserveRound implements RoundObserver.
func (r *TraceRecorder) ObserveRound(t int, x []float64, loss, dist float64) error {
	if !r.OmitEstimates {
		r.X = append(r.X, vecmath.Clone(x))
	}
	r.Loss = append(r.Loss, loss)
	r.Dist = append(r.Dist, dist)
	return nil
}

// ObserveAsyncRound implements AsyncObserver.
func (r *TraceRecorder) ObserveAsyncRound(stats AsyncRoundStats) error {
	r.Async = append(r.Async, stats)
	return nil
}

// ObserveChaosRound implements ChaosObserver.
func (r *TraceRecorder) ObserveChaosRound(stats ChaosRoundStats) error {
	r.Chaos = append(r.Chaos, stats)
	return nil
}

// --- backends ---

// Backend is the uniform execution interface over the repo's substrates: a
// Backend runs one configured DGD execution to completion under a context.
// InProcess runs the deterministic simulation in this package; the cluster
// package's Backend serves the same Config over transport connections. The
// sweep engine accepts any Backend, so scenario grids run unchanged on
// either substrate. A Run handed a cfg.Arena returns only once nothing it
// started still reads cfg's agents or the arena (see Arena): the sweep lends
// the arena to the next cell as soon as Run returns.
type Backend interface {
	Run(ctx context.Context, cfg Config) (*Result, error)
}

// InProcess is the Backend executing runs on the in-process engine
// (RunContext). The zero value is ready to use.
type InProcess struct{}

var _ Backend = InProcess{}

// Run implements Backend.
func (InProcess) Run(ctx context.Context, cfg Config) (*Result, error) {
	return RunContext(ctx, cfg)
}

// Run executes the configured DGD simulation without cancellation, as
// RunContext with a background context.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the configured DGD simulation: each round the
// Collector gathers every agent's report in-process and the Round kernel
// takes them to the next estimate. The context is checked once per round, so
// cancellation or deadline expiry aborts the run within one round's duration
// with a wrapped ctx.Err().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cfg.Agents) == 0 {
		return nil, fmt.Errorf("no agents: %w", ErrConfig)
	}
	for i, a := range cfg.Agents {
		if a == nil {
			return nil, fmt.Errorf("nil agent %d: %w", i, ErrConfig)
		}
	}
	if cfg.Arena == nil {
		cfg.Arena = new(Arena)
	}
	round, err := NewRound(cfg, len(cfg.Agents))
	if err != nil {
		return nil, err
	}
	col := NewCollector(cfg.Agents, len(cfg.X0), cfg.Arena)
	for t := 0; t < cfg.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("run cancelled at round %d: %w", t, err)
		}
		if err := round.Record(t); err != nil {
			return nil, err
		}
		reports, err := col.Collect(t, round.X())
		if err != nil {
			return nil, err
		}
		if err := round.Apply(t, cfg.F, reports); err != nil {
			return nil, err
		}
	}
	if err := round.Record(cfg.Rounds); err != nil {
		return nil, err
	}
	return &Result{X: round.X(), Rounds: cfg.Rounds, Trace: round.Trace()}, nil
}

// Collector is the per-run gradient-collection state: the honest/faulty
// split (computed once — agent kinds cannot change mid-run), every agent's
// Into face, and the gradient arena whose rows receive the reports. Reports
// from agents not marked Faulty are collected first so omniscient Byzantine
// behaviors observe the complete honest set, matching the strongest
// adversary the literature assumes. Every report lands in its agent's own
// row and the honest set is ordered by agent index, so the filter input is
// identical for agents with or without their Into faces.
type Collector struct {
	honestIdx []int
	faultyIdx []int        // the Faulty agents that report: all but the followers
	followers [][2]int     // (agent, leader): the agent's report is a copy of the leader's; see sharedReports
	into      []IntoAgent  // per honest agent, adapted if the face is absent
	faulty    []IntoFaulty // per Faulty agent, likewise; nil for an honest one
	grads     [][]float64  // the arena rows, agent-index order: the filter input
	honest    [][]float64  // the honest agents' rows, agent-index order
}

// NewCollector builds the collection state for one run over agents reporting
// d-dimensional gradients, carving it from arena (nil: a fresh one). An agent
// that lacks GradientInto or FaultyGradientInto is adapted here, once, so
// that collection has a single face per agent kind whatever the agent
// implements.
func NewCollector(agents []Agent, d int, arena *Arena) *Collector {
	if arena == nil {
		arena = new(Arena)
	}
	n := len(agents)
	// Each pair of index lists, and of row tables, is carved from one
	// table; the capped halves cannot append into each other.
	idx := lend(&arena.idx, 2*n)
	rows := lend(&arena.rows, 2*n)
	c := &arena.col
	*c = Collector{
		honestIdx: idx[:0:n],
		faultyIdx: idx[n:n],
		followers: arena.followers[:0],
		into:      lend(&arena.into, n),
		faulty:    lend(&arena.faulty, n),
		grads:     rows[:n:n],
		honest:    rows[n:n],
	}
	grads := lend(&arena.grads, n*d)
	for i, a := range agents {
		c.grads[i] = grads[i*d : (i+1)*d : (i+1)*d]
		switch a := a.(type) {
		case IntoFaulty:
			c.faulty[i] = a
		case Faulty:
			c.faulty[i] = asIntoFaulty{a}
		case IntoAgent:
			c.into[i] = a
		default:
			c.into[i] = asIntoAgent{a}
		}
		if c.faulty[i] != nil {
			c.faultyIdx = append(c.faultyIdx, i)
		} else {
			c.honestIdx = append(c.honestIdx, i)
			c.honest = append(c.honest, c.grads[i])
		}
	}
	c.sharedReports()
	arena.followers = c.followers
	return c
}

// sharedReports finds, once per run, the coalitions that report one vector
// (sharesReport). The lowest index of a coalition stays in faultyIdx and
// reports for it; the others become its followers, and Collect copies the
// leader's row into theirs. The mark promises one vector only with honest
// reports in view, so a run without an honest agent shares nothing.
func (c *Collector) sharedReports() {
	if len(c.honest) == 0 {
		return
	}
	reporting := c.faultyIdx[:0]
next:
	for k, i := range c.faultyIdx {
		for _, l := range reporting {
			if sharesReport(c.faulty[l], c.faulty[i]) {
				if c.followers == nil {
					c.followers = make([][2]int, 0, len(c.faultyIdx)-k)
				}
				c.followers = append(c.followers, [2]int{i, l})
				continue next
			}
		}
		reporting = append(reporting, i)
	}
	c.faultyIdx = reporting
}

// sharesReport reports whether a and b are NewFaulty agents whose behaviors
// carry byzantine.SharedReport and are equal (==). A behavior whose value
// cannot be compared, one holding a slice for instance, shares with nobody.
func sharesReport(a, b IntoFaulty) bool {
	fa, ok := a.(*faulty)
	if !ok {
		return false
	}
	fb, ok := b.(*faulty)
	if !ok {
		return false
	}
	if _, marked := fa.into.(byzantine.SharedReport); !marked {
		return false
	}
	return reflect.ValueOf(fa.behavior).Comparable() && fa.behavior == fb.behavior
}

// Collect queries every agent for round t at estimate x and returns the
// reports in agent-index order. The table and its rows are owned by the
// collector and valid until the next Collect.
func (c *Collector) Collect(t int, x []float64) ([][]float64, error) {
	if err := c.phase(c.honestIdx, t, x); err != nil {
		return nil, err
	}
	if err := c.phase(c.faultyIdx, t, x); err != nil {
		return nil, err
	}
	for _, fl := range c.followers {
		copy(c.grads[fl[0]], c.grads[fl[1]])
	}
	return c.grads, nil
}

// phase collects the reports of the agents in idx, in index order.
func (c *Collector) phase(idx []int, t int, x []float64) error {
	for _, i := range idx {
		if err := c.report(i, t, x); err != nil {
			return err
		}
	}
	return nil
}

// report has agent i write its round-t report into its arena row: one
// interface call, with the honest rows in view when the agent is Faulty.
func (c *Collector) report(i, t int, x []float64) error {
	var err error
	if fa := c.faulty[i]; fa != nil {
		err = fa.FaultyGradientInto(c.grads[i], t, i, x, c.honest)
	} else {
		err = c.into[i].GradientInto(c.grads[i], t, x)
	}
	if err != nil {
		return fmt.Errorf("agent %d at round %d: %w", i, t, err)
	}
	return nil
}
