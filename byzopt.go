// Package byzopt is a Go library for approximate Byzantine fault-tolerant
// distributed optimization, reproducing "Approximate Byzantine
// Fault-Tolerance in Distributed Optimization" (Liu, Gupta, Vaidya,
// PODC 2021).
//
// The library covers both halves of the paper:
//
//   - the resilience theory of Section 3 — measuring (2f, ε)-redundancy of
//     a problem instance (MeasureRedundancy), checking a candidate output
//     against the (f, ε)-resilience definition (MeasureResilience), and the
//     exhaustive (f, 2ε)-resilient algorithm of Theorem 2
//     (ExhaustiveResilient);
//
//   - the algorithmic half of Section 4 — distributed gradient descent with
//     pluggable gradient filters (RunContext), including the paper's CGE and
//     CWTM filters plus literature baselines, Byzantine behavior models, and
//     the Theorem 4/5/6 resilience bounds.
//
// # One execution interface, several substrates
//
// Every execution goes through the context-first Backend interface:
//
//	type Backend interface {
//	        Run(ctx context.Context, cfg Config) (*Result, error)
//	}
//
// InProcessBackend runs the deterministic simulation in this process;
// ClusterBackend serves the same Config over the server/transport stack of
// Figure 1 (left), one in-memory connection per agent; and P2PBackend runs
// it fully decentralized over Byzantine broadcast (Figure 1, right; n > 3f).
// A fault-free Config produces the identical trajectory on all three, so
// code written against one substrate moves to the others unchanged. A
// minimal fault-tolerant run, cancellable through its context:
//
//	filter, _ := byzopt.NewFilter("cge")
//	res, err := byzopt.RunContext(ctx, byzopt.Config{
//	        Agents: agents, F: 1, Filter: filter,
//	        X0: []float64{0, 0}, Rounds: 500,
//	})
//
// Run is the context-free shorthand; both execute on the in-process
// backend. Cancellation takes effect within one round and surfaces as a
// wrapped ctx.Err().
//
// # Observing rounds
//
// Config.Observer receives every estimate x_t together with the tracked
// loss and distance values (NaN when the corresponding Config field is
// unset); returning an error aborts the run. ObserverFunc adapts a plain
// function, and TraceRecorder is the canonical observer, recording the full
// per-round series:
//
//	rec := &byzopt.TraceRecorder{}
//	res, err := byzopt.RunContext(ctx, byzopt.Config{
//	        Agents: agents, F: 1, Filter: filter,
//	        X0: x0, Rounds: 500, Reference: xH,
//	        Observer: rec,
//	})
//	// rec.Dist[t] is ||x_t - x_H|| for every round.
//
// All backends honor observers, so instrumentation is portable between the
// in-process engine and the cluster.
//
// # Asynchronous rounds
//
// Config.Async replaces the synchronous round with a deterministic
// virtual-time model: agents take latencies from a seeded distribution
// (AsyncConfig.Latency, optionally with persistent stragglers), the server
// closes each round per a collection policy (wait-all, first-k partial
// aggregation, or a virtual-time deadline), and late gradients are dropped,
// reused, or staleness-weighted (AsyncConfig.Stale). Time is simulated, so
// runs stay bitwise reproducible on every substrate — and a zero-latency
// wait-all AsyncConfig is bitwise identical to the synchronous path.
// SweepSpec.Asyncs sweeps such models as a grid axis (AsyncSpec), and
// observers implementing AsyncObserver (TraceRecorder does) receive each
// round's arrival count, staleness, and virtual time.
//
// # Fault injection
//
// Config.Chaos layers deterministic system faults — crash, omission,
// in-transit corruption (detected by CRC framing and reclassified as
// omission), duplication, and delay — over any run (ChaosPlan): every
// injection is a pure function of (seed, round, agent), so faulted runs
// replay bit for bit on every substrate, and a nil plan is bitwise
// identical to today's fault-free path. Honest agents hit by injected
// faults route into the partial-aggregation machinery (with bounded
// per-message retry) instead of failing the run; results report the
// absorbed faults as ChaosCounters. SweepSpec.Chaoses sweeps fault plans
// as a grid axis (ChaosSpec) whose faulted cells export the "degraded"
// status; the table abft-sweep prints for such a grid reads as degradation
// curves (each cell's distance over its fault-free sibling's).
//
// # Scenario sweeps
//
// The paper's evaluation is a grid — a workload × filters × Byzantine
// behaviors × fault counts — and the sweep engine runs such grids as one
// call, expanding a declarative spec into scenarios and executing them
// concurrently on a worker pool. Every scenario derives its random seed by
// hashing its own key, so results are identical at any worker count and a
// sweep replays exactly from its spec:
//
//	results, err := byzopt.SweepContext(ctx, byzopt.SweepSpec{
//	        Filters:   []string{"cge", "cwtm", "krum"},
//	        Behaviors: []string{"gradient-reverse", "random"},
//	        FValues:   []int{1, 2},
//	        Workers:   0, // 0 = GOMAXPROCS
//	})
//	// results[i].FinalDist is ||x_T - x_H|| for grid point i;
//	// byzopt.WriteSweepJSON(os.Stdout, results, false) exports them.
//
// Leaving SweepSpec fields zero selects the paper's defaults (every
// registered filter and behavior, n = 6, d = 2, 500 rounds).
// SweepSpec.Backend selects the substrate per sweep (nil means in-process;
// ClusterBackend turns the sweep into a distributed-system load generator),
// SweepSpec.ScenarioTimeout bounds each scenario (exceeding it yields a
// "timeout" result, like divergence — data, not failure), and cancelling
// the context of SweepContext returns the completed scenarios as partial
// results plus a wrapped context.Canceled. SweepSpec.RecordTrace exports
// the full per-round loss/distance series per scenario, which is how the
// figure series are produced. Scenarios are the unit of parallelism: each
// run collects its reports and filters them on one goroutine.
// The abft-sweep command is this API as a CLI.
//
// # Pluggable problems
//
// Workloads are first-class: SweepSpec.Problem names an entry in the
// problem registry, which ships every workload of the paper's evaluation —
// "paper" (the exact Appendix-J regression instance), "synthetic"
// (deterministic regression at any size), the "learning" family (Appendix-K
// minibatch D-SGD on softmax or MLP models, with per-round test accuracy as
// a task metric), "sensing" (Section-2.4 state estimation), and
// "robustmean" (Section-2.3 robust mean estimation). A Problem materializes
// per-agent costs, the reference point x_H, the honest loss, the initial
// point, and optional metrics for every grid point; implement the interface
// and RegisterProblem to sweep any workload you can express, or hand a
// one-off implementation to SweepSpec.ProblemDef without naming it (see
// ExampleProblem):
//
//	byzopt.RegisterProblem(myProblem{})             // name-keyed, CLI-reachable
//	results, err := byzopt.Sweep(byzopt.SweepSpec{Problem: "my-problem"})
//
// SweepSpec.Baselines adds the papers' fault-free baseline — the f would-be
// Byzantine agents omitted entirely — as a grid axis, which is how the
// fault-free curves of Figures 2-5 are produced. SweepSpec.Shard slices the
// expanded grid deterministically for multi-process runs, and MergeSweepJSON
// recombines shard exports into the byte-identical full export (abft-sweep
// -shard / -merge at the CLI). All of abft-bench's tables and figures run
// through these Specs.
//
// The deeper machinery (matrix solvers, transports, the EIG broadcast
// protocol behind P2PBackend, experiment drivers) lives in internal
// packages; the programs under cmd/ and the package examples show them in
// action.
package byzopt

import (
	"context"
	"io"
	"net"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/chaos"
	"byzopt/internal/cluster"
	"byzopt/internal/core"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/matrix"
	"byzopt/internal/p2p"
	"byzopt/internal/simtime"
	"byzopt/internal/sweep"
	"byzopt/internal/vecmath"
)

// --- filters ---

// Filter is a gradient aggregation rule ("gradient filter", Section 4).
type Filter = aggregate.Filter

// NewFilter returns the filter registered under the given name. Fixed names
// are listed by FilterNames; additionally, the parameterized families of
// FilterFamilyPrefixes resolve spellings like "multikrum-7" or "gmom-5" to a
// family member with that parameter. Unknown names fail with an error
// listing the full registry.
func NewFilter(name string) (Filter, error) { return aggregate.New(name) }

// FilterNames lists the built-in filters in registration order: the paper's
// cge and cwtm, the plain mean baseline, the literature baselines (cwmedian,
// krum, multikrum, bulyan, geomedian, gmom, centeredclip), their
// sub-quadratic sketch/sampled variants, and the REDGRAF family (sdmmfd,
// r-sdmmfd, sdfd, rvo) — plus anything added via RegisterFilter.
func FilterNames() []string { return aggregate.Names() }

// RegisterFilter adds a constructor to the filter registry under a fixed
// name, making it reachable from NewFilter, SweepSpec.Filters, and the CLIs'
// -filters flags. Empty and duplicate names are rejected, so built-ins
// cannot be silently shadowed.
func RegisterFilter(name string, ctor func() Filter) error { return aggregate.Register(name, ctor) }

// RegisterFilterParam adds a parameterized filter family under a name
// prefix: NewFilter("<prefix>-<k>") calls ctor(k) for any positive integer
// k. Fixed names always win over family spellings, so a family never
// shadows a registered name.
func RegisterFilterParam(prefix string, ctor func(param int) (Filter, error)) error {
	return aggregate.RegisterParam(prefix, ctor)
}

// FilterFamilyPrefixes lists the parameterized family prefixes in
// registration order (multikrum, gmom, multikrum-sketch, multikrum-sampled,
// plus anything added via RegisterFilterParam): each accepts "<prefix>-<k>"
// spellings in every place a filter name is accepted.
func FilterFamilyPrefixes() []string { return aggregate.FamilyPrefixes() }

// IntoFilter is the allocation-free face every built-in filter implements:
// AggregateInto writes the aggregate into a caller buffer and draws every
// temporary from a reusable FilterScratch, bitwise identical to Aggregate.
// The engines detect it automatically — see the README's performance
// section for when the zero-allocation round loop engages.
type IntoFilter = aggregate.IntoFilter

// FilterScratch owns a filter's reusable temporaries (pairwise-distance
// matrix, per-coordinate columns, Weiszfeld iterates, ...). The zero value
// is ready; hand the same one to successive AggregateInto calls from a
// single goroutine.
type FilterScratch = aggregate.Scratch

// CGE is the paper's comparative gradient elimination filter (eq. 23).
type CGE = aggregate.CGE

// CWTM is the paper's coordinate-wise trimmed mean filter (eq. 24).
type CWTM = aggregate.CWTM

// Mean is plain averaging, the fault-intolerant baseline.
type Mean = aggregate.Mean

// MultiKrum is the multi-Krum filter family; the registry resolves
// "multikrum" to the M = 3 default and "multikrum-<k>" to MultiKrum{M: k}.
type MultiKrum = aggregate.MultiKrum

// SDMMFD is the REDGRAF distance-then-mixmax filter adapted to server-side
// gradient filtering (registered as "sdmmfd"): a distance stage drops the f
// reports farthest from an auxiliary center carried across rounds, then a
// coordinate-wise f-trimmed mean aggregates the survivors. Requires
// n > 3f.
type SDMMFD = aggregate.SDMMFD

// RSDMMFD is the reduced, stateless SDMMFD variant (registered as
// "r-sdmmfd"): the per-round coordinate-wise median plays the auxiliary
// center. Requires n > 3f.
type RSDMMFD = aggregate.RSDMMFD

// SDFD is the REDGRAF distance-only filter (registered as "sdfd"): the
// SDMMFD distance stage followed by a plain mean of the survivors. Requires
// n > 2f.
type SDFD = aggregate.SDFD

// RVO is the REDGRAF resilient-vector-optimization filter (registered as
// "rvo"): the coordinate-wise trimmed midrange. Requires n > 2f.
type RVO = aggregate.RVO

// SeedConfigurable is the optional filter face for filters carrying
// cross-round auxiliary state (the stateful REDGRAF filters): the engines
// hand each run's scenario seed to ConfigureSeed so the state chain is keyed
// to the run and reproduces bitwise on every substrate and worker count.
type SeedConfigurable = aggregate.SeedConfigurable

// --- Byzantine behaviors ---

// Behavior models what a faulty agent reports instead of its gradient.
type Behavior = byzantine.Behavior

// NewBehavior returns the behavior registered under the given name; see
// BehaviorNames.
func NewBehavior(name string, seed int64) (Behavior, error) { return byzantine.New(name, seed) }

// BehaviorNames lists the built-in behaviors (gradient-reverse, random,
// zero, ipm, alie, equivocate). "equivocate" reverses its gradient like
// gradient-reverse and additionally lies while relaying other peers'
// broadcasts — a distinction only P2PBackend realizes; on the other
// substrates it behaves exactly like gradient-reverse.
func BehaviorNames() []string { return byzantine.Names() }

// --- costs ---

// Cost is a differentiable local cost function Q_i. Its method set is
// Dim() int, Eval(x) (float64, error) and GradInto(dst, x) error, which
// writes the (sub)gradient at x into dst (length Dim) and leaves dst
// untouched when x has the wrong dimension (see ExampleCost).
type Cost = costfunc.Differentiable

// LeastSquaresCost builds the regression cost ||b - A x||^2 from design
// rows and responses (one row per observation).
func LeastSquaresCost(rows [][]float64, b []float64) (Cost, error) {
	a, err := matrix.FromRows(rows)
	if err != nil {
		return nil, err
	}
	return costfunc.NewLeastSquares(a, b)
}

// SingleObservationCost builds one agent's cost (b - row.x)^2, the per-agent
// cost of the paper's regression experiments.
func SingleObservationCost(row []float64, b float64) (Cost, error) {
	return costfunc.NewObservation(row, b)
}

// SumCost aggregates costs: sum_i Q_i.
func SumCost(costs ...Cost) (Cost, error) { return costfunc.NewSum(costs...) }

// --- agents ---

// Agent produces the gradient reported to the server each round.
type Agent = dgd.Agent

// IntoAgent is the optional allocation-free face of Agent: GradientInto
// writes the report into an engine-owned arena row. Agents built by
// HonestAgent implement it (their cost's GradInto writes straight into the
// row); others fall back transparently.
type IntoAgent = dgd.IntoAgent

// HonestAgent wraps a cost as a truthful agent.
func HonestAgent(cost Cost) (Agent, error) { return dgd.NewHonest(cost) }

// HonestAgents wraps each cost as a truthful agent, in order.
func HonestAgents(costs []Cost) ([]Agent, error) { return dgd.HonestAgents(costs) }

// ByzantineAgent wraps an agent with a faulty behavior; inner may be nil
// (the behavior then sees a zero vector as the "true" gradient).
func ByzantineAgent(inner Agent, b Behavior) (Agent, error) { return dgd.NewFaulty(inner, b) }

// --- constraint set ---

// Box is the compact convex constraint set W of update rule (21).
type Box = vecmath.Box

// NewBox builds a box from per-coordinate bounds.
func NewBox(lo, hi []float64) (*Box, error) { return vecmath.NewBox(lo, hi) }

// NewCube builds the hypercube [-r, r]^d.
func NewCube(d int, r float64) (*Box, error) { return vecmath.NewCube(d, r) }

// --- the DGD engine ---

// Config describes one distributed gradient-descent execution (Section 4.1).
type Config = dgd.Config

// Result is the outcome of a run.
type Result = dgd.Result

// Trace holds per-iteration loss/distance series.
type Trace = dgd.Trace

// StepSchedule yields the step size per round.
type StepSchedule = dgd.StepSchedule

// Diminishing is the schedule c/(t+1)^p; the paper uses 1.5/(t+1).
type Diminishing = dgd.Diminishing

// ConstantStep is the fixed schedule used by the learning experiments.
type ConstantStep = dgd.Constant

// RoundObserver observes every estimate of a run (t = 0..Rounds) together
// with the tracked loss and distance values; see Config.Observer.
type RoundObserver = dgd.RoundObserver

// ObserverFunc adapts a function to the RoundObserver interface.
type ObserverFunc = dgd.ObserverFunc

// TraceRecorder is a RoundObserver recording the full per-round series
// (estimates, loss, distance) for export. It also implements AsyncObserver,
// collecting per-round AsyncRoundStats in its Async field when the run uses
// the asynchronous round model.
type TraceRecorder = dgd.TraceRecorder

// --- the asynchronous round model ---

// AsyncConfig enables the deterministic virtual-time asynchronous round
// model for a run (Config.Async): per-agent latencies drawn from a seeded
// LatencyModel, a collection policy deciding when the round closes, and a
// staleness policy deciding what happens to late gradients. A zero-latency
// wait-all AsyncConfig is bitwise identical to leaving Config.Async nil.
type AsyncConfig = dgd.AsyncConfig

// LatencyModel is the per-agent virtual-time delay distribution of the
// asynchronous round model: fixed, uniform, or heavy-tailed Pareto delays,
// with an optional fraction of agents designated persistent stragglers.
// Every draw is a pure function of (seed, round, agent), which is what
// keeps asynchronous runs bitwise reproducible on every substrate.
type LatencyModel = simtime.Latency

// The latency distribution kinds of LatencyModel.Kind.
const (
	LatencyFixed   = simtime.LatencyFixed
	LatencyUniform = simtime.LatencyUniform
	LatencyPareto  = simtime.LatencyPareto
)

// The collection policies of AsyncConfig.Policy: wait for every live agent,
// aggregate the k earliest arrivals (partial aggregation, with the
// effective fault bound adjusted to the input actually collected), or close
// the round on a virtual-time budget.
const (
	CollectWaitAll  = dgd.CollectWaitAll
	CollectFirstK   = dgd.CollectFirstK
	CollectDeadline = dgd.CollectDeadline
)

// The staleness policies of AsyncConfig.Stale: drop late gradients, reuse
// an agent's most recent banked gradient, or reuse it scaled by
// 1/(1 + staleness).
const (
	StaleDrop     = dgd.StaleDrop
	StaleReuse    = dgd.StaleReuse
	StaleWeighted = dgd.StaleWeighted
)

// AsyncRoundStats describes one asynchronous round: how many gradients
// arrived fresh, how many were substituted from stale banks or dropped, the
// worst staleness substituted, and the virtual time at the round's close.
type AsyncRoundStats = dgd.AsyncRoundStats

// AsyncObserver is the optional observer face receiving AsyncRoundStats
// each round; implement it alongside RoundObserver (TraceRecorder does) to
// instrument asynchronous runs.
type AsyncObserver = dgd.AsyncObserver

// AsyncSpec is one point on a sweep's asynchrony axis (SweepSpec.Asyncs) in
// declarative, JSON-serializable form. Sync-equivalent specs collapse to
// the synchronous path and leave scenario keys untouched, so adding the
// axis never perturbs existing grids.
type AsyncSpec = sweep.AsyncSpec

// --- deterministic fault injection ---

// ChaosPlan declares deterministic system-fault injection for a run
// (Config.Chaos): crash, omission, corruption, duplication, and delay
// faults, each a pure function of (seed, round, agent) — so any run under a
// plan replays bit for bit on every substrate. Honest agents hit by
// injected faults are ridden out through the partial-aggregation machinery
// (with an optional per-message retry budget) instead of failing the run;
// a nil plan is bitwise identical to no fault layer at all.
type ChaosPlan = chaos.Plan

// ChaosCounters tallies the injected faults a run absorbed, by kind.
type ChaosCounters = chaos.Counters

// ChaosRoundStats describes one round under fault injection: the faults
// injected that round and the number of gradients lost to them.
type ChaosRoundStats = dgd.ChaosRoundStats

// ChaosObserver is the optional observer face receiving ChaosRoundStats
// each round; implement it alongside RoundObserver to instrument runs
// under fault injection.
type ChaosObserver = dgd.ChaosObserver

// ChaosSpec is one point on a sweep's fault-injection axis
// (SweepSpec.Chaoses) in declarative, JSON-serializable form. No-fault
// specs run without the chaos layer and leave scenario keys untouched, so
// adding the axis never perturbs existing grids; faulted cells export the
// "degraded" status with their ChaosCounters tally.
type ChaosSpec = sweep.ChaosSpec

// Run executes the configured DGD simulation on the in-process backend,
// without cancellation (RunContext with a background context).
func Run(cfg Config) (*Result, error) { return dgd.Run(cfg) }

// RunContext executes the configured DGD simulation on the in-process
// backend. Cancellation or deadline expiry of ctx aborts the run within one
// round and returns a wrapped ctx.Err().
func RunContext(ctx context.Context, cfg Config) (*Result, error) { return dgd.RunContext(ctx, cfg) }

// --- execution backends ---

// Backend is the uniform execution interface over the repo's substrates: a
// Backend runs one configured DGD execution to completion under a context.
// SweepSpec.Backend accepts any implementation, so scenario grids run
// unchanged in-process or over the cluster stack.
type Backend = dgd.Backend

// InProcessBackend returns the Backend executing runs with the
// deterministic in-process engine — the substrate behind Run/RunContext.
func InProcessBackend() Backend { return dgd.InProcess{} }

// ClusterBackend returns a Backend executing each run over the
// server/transport stack of the paper's Figure 1: every agent is served by
// its own in-memory connection and a trusted server drives the synchronous
// protocol, eliminating agents that miss the per-round deadline
// (roundTimeout; zero selects a generous default). Fault-free runs and
// runs whose Byzantine behaviors are not omniscient reproduce the
// in-process trajectory exactly; omniscient behaviors degrade to their
// non-omniscient path, since an agent behind a connection cannot observe
// the other agents' reports.
func ClusterBackend(roundTimeout time.Duration) Backend {
	return &cluster.Backend{RoundTimeout: roundTimeout}
}

// P2PBackend returns the Backend executing each run over the fully
// decentralized peer-to-peer substrate of the paper's Figure 1 (right):
// every agent becomes a peer on a complete network, each round every
// report goes through an EIG Byzantine broadcast, and every honest peer
// applies the gradient filter locally to the agreed-upon report set — the
// Section-1.4 simulation of the server-based algorithm, requiring n > 3f
// (configurations violating the bound are rejected with a wrapped
// inadmissibility sentinel that sweeps classify as skipped cells).
// Fault-free runs and runs whose Byzantine agents do not equivocate in the
// broadcast layer — omniscient behaviors included — reproduce the
// in-process trajectory exactly; the "equivocate" behavior additionally
// lies while relaying other peers' broadcasts, the one adversary only this
// substrate can express.
func P2PBackend() Backend { return p2p.Backend{} }

// --- scenario sweeps ---

// SweepSpec declares a scenario matrix: filters × behaviors × f × n ×
// dimension × step schedules. Zero fields select the paper's defaults.
type SweepSpec = sweep.Spec

// SweepScenario identifies one expanded grid point of a sweep.
type SweepScenario = sweep.Scenario

// SweepResult is one scenario's outcome: final distance to x_H, loss
// summary, wall time, and divergence/skip classification.
type SweepResult = sweep.Result

// Sweep expands the spec and runs every scenario concurrently with
// deterministic per-scenario seeds; results are identical at any worker
// count (SweepContext with a background context).
func Sweep(spec SweepSpec) ([]SweepResult, error) { return sweep.Run(spec) }

// SweepContext runs the sweep under a context: cancellation stops the pool
// within one scenario's duration and returns the scenarios completed so far
// as partial results, in grid order, plus an error wrapping ctx.Err().
// Per-scenario deadlines (SweepSpec.ScenarioTimeout) never fail the sweep —
// an overrunning scenario is classified as a "timeout" result instead.
func SweepContext(ctx context.Context, spec SweepSpec) ([]SweepResult, error) {
	return sweep.RunContext(ctx, spec)
}

// SweepScenarios expands the spec without running it, in execution order.
func SweepScenarios(spec SweepSpec) ([]SweepScenario, error) { return sweep.Scenarios(spec) }

// SweepShard selects a contiguous slice of a sweep's expanded grid
// (SweepSpec.Shard), the unit of multi-process sharding.
type SweepShard = sweep.Shard

// MergeSweepResults recombines shard results into the full-grid list; see
// MergeSweepJSON for the file-level face.
func MergeSweepResults(shards ...[]SweepResult) ([]SweepResult, error) {
	return sweep.MergeResults(shards...)
}

// MergeSweepJSON reads shard JSON exports and recombines them into the
// full-grid result list — exporting it with WriteSweepJSON reproduces the
// unsharded run's bytes exactly.
func MergeSweepJSON(paths ...string) ([]SweepResult, error) {
	return sweep.MergeJSONFiles(paths...)
}

// --- the distributed sweep fabric ---

// SweepCoordinatorSpec configures CoordinateSweep: the grid to serve plus
// the lease TTL / batch size and checkpoint path of the dispatch fabric.
type SweepCoordinatorSpec = sweep.CoordinatorSpec

// SweepWorkerOptions configures one SweepWork worker process.
type SweepWorkerOptions = sweep.WorkerOptions

// CoordinateSweep serves the spec's scenario grid over ln to a fleet of
// SweepWork workers (or `abft-sweep -worker` processes) and returns the
// full grid in grid order — byte-identical, once exported, to a
// single-process Sweep of the same spec. Workers lease bounded cell
// batches; a crashed or wedged worker's cells are reassigned after its
// lease TTL, and with a checkpoint path set, a restarted coordinator
// resumes the grid running only the missing cells.
func CoordinateSweep(ctx context.Context, ln net.Listener, cs SweepCoordinatorSpec) ([]SweepResult, error) {
	return sweep.Coordinate(ctx, ln, cs)
}

// SweepWork runs one sweep worker against the coordinator at addr until
// the grid completes (nil) or ctx is cancelled (ctx's error).
func SweepWork(ctx context.Context, addr string, opts SweepWorkerOptions) error {
	return sweep.Work(ctx, addr, opts)
}

// --- the problem registry ---

// Problem is a pluggable sweep workload: it materializes per-agent costs,
// the reference point x_H, the honest aggregate loss, the initial point,
// and optional task metrics for every scenario that names it. Register
// implementations with RegisterProblem (or hand one to SweepSpec.ProblemDef
// for a one-off).
type Problem = sweep.Problem

// Workload is one materialized problem instance; Problem.Build returns it.
type Workload = sweep.Workload

// Metric is an optional per-round task metric a Workload can expose (e.g.
// test accuracy), recorded alongside the loss and distance series.
type Metric = sweep.Metric

// LearningProblem is the Appendix-K distributed-learning workload
// (registered as "learning", "learning-b", and "learning-mlp"); configure
// and register your own instance for a different preset, model, batch size
// or data seed.
type LearningProblem = sweep.LearningProblem

// RegisterProblem adds a problem to the sweep registry under its Name();
// duplicate and empty names are rejected.
func RegisterProblem(p Problem) error { return sweep.Register(p) }

// ProblemNames lists the registered problem names in sorted order — the
// values SweepSpec.Problem (and abft-sweep -problem) accept.
func ProblemNames() []string { return sweep.ProblemNames() }

// LookupProblem returns the problem registered under the given name.
func LookupProblem(name string) (Problem, error) { return sweep.LookupProblem(name) }

// --- trace metrics ---

// TraceMetric is a pluggable post-hoc metric evaluated on a scenario's
// recorded trace after the run completes (SweepSpec.TraceMetrics selects
// them by name). Metrics never influence the dynamics, scenario keys, or
// seeds — they are pure functions of the trace — so adding one to a sweep
// never perturbs its results. The built-ins are the REDGRAF
// convergence-geometry metrics (TraceMetricConvergenceRate,
// TraceMetricConvergenceRadius, TraceMetricConsensusDiameter), "agreement"
// for the approximate filters and "test_accuracy" for task-metric problems.
type TraceMetric = sweep.TraceMetric

// TraceMetricInput is the recorded material a TraceMetric evaluates: the
// per-round loss and distance series, the estimates (when the metric
// declares NeedEstimates), the workload, and the round count.
type TraceMetricInput = sweep.TraceInput

// The built-in REDGRAF convergence-geometry metric names.
const (
	// TraceMetricConvergenceRate is the per-round geometric contraction
	// rate of the distance series, fit by least squares on its log.
	TraceMetricConvergenceRate = sweep.TraceMetricConvergenceRate
	// TraceMetricConvergenceRadius is the radius of the ball the iterates
	// settle into: the maximum distance to x_H over the trailing quarter
	// of the run.
	TraceMetricConvergenceRadius = sweep.TraceMetricConvergenceRadius
	// TraceMetricConsensusDiameter is the diameter of the bounding box the
	// trailing-quarter estimates sweep — how tightly the dynamics have
	// contracted in space.
	TraceMetricConsensusDiameter = sweep.TraceMetricConsensusDiameter
)

// RegisterTraceMetric adds a metric to the trace-metric registry under
// m.Name, making it selectable from SweepSpec.TraceMetrics. Empty and
// duplicate names are rejected.
func RegisterTraceMetric(m TraceMetric) error { return sweep.RegisterTraceMetric(m) }

// LookupTraceMetric returns the metric registered under the given name.
func LookupTraceMetric(name string) (TraceMetric, bool) { return sweep.LookupTraceMetric(name) }

// TraceMetricNames lists the registered trace-metric names in sorted order.
func TraceMetricNames() []string { return sweep.TraceMetricNames() }

// WriteSweepJSON exports sweep results as indented JSON; wall-clock
// timings are stripped unless includeTiming is set, making the output a
// pure function of the spec.
func WriteSweepJSON(w io.Writer, results []SweepResult, includeTiming bool) error {
	return sweep.WriteJSON(w, results, includeTiming)
}

// --- resilience theory (Section 3) ---

// SubsetProblem is a multi-agent instance with quadratic costs, whose subset
// aggregates are minimised exactly: the structure the Section-3 theory
// quantifies over. (Sweep workloads are the separate Problem interface
// above.)
type SubsetProblem = core.Problem

// RegressionProblem builds a SubsetProblem from regression data (one row
// and response per agent).
func RegressionProblem(rows [][]float64, b []float64) (*SubsetProblem, error) {
	a, err := matrix.FromRows(rows)
	if err != nil {
		return nil, err
	}
	return core.NewLeastSquaresProblem(a, b)
}

// RedundancyReport is the result of measuring (2f, ε)-redundancy.
type RedundancyReport = core.RedundancyReport

// MeasureRedundancy computes the tight redundancy parameter ε of
// Definition 3 by one sequential subset enumeration (Appendix J.2
// procedure).
func MeasureRedundancy(p *SubsetProblem, f int) (*RedundancyReport, error) {
	return core.MeasureRedundancy(p, f, core.AtLeastSize)
}

// ResilienceReport quantifies a candidate output against Definition 2.
type ResilienceReport = core.ResilienceReport

// MeasureResilience evaluates the worst-case distance from x to any
// (n-f)-subset aggregate minimizer of the given honest agents.
func MeasureResilience(p *SubsetProblem, f int, honest []int, x []float64) (*ResilienceReport, error) {
	return core.MeasureResilience(p, f, honest, x)
}

// ExhaustiveResult is the output of the Theorem-2 algorithm.
type ExhaustiveResult = core.ExhaustiveResult

// ExhaustiveResilient runs the exhaustive (f, 2ε)-resilient algorithm from
// the proof of Theorem 2.
func ExhaustiveResilient(p *SubsetProblem, f int) (*ExhaustiveResult, error) {
	return core.ExhaustiveResilient(p, f)
}

// Feasible reports Lemma 1's feasibility condition f < n/2.
func Feasible(n, f int) bool { return core.Feasible(n, f) }

// --- resilience bounds (Section 4.2) ---

// CGEBound is a CGE resilience constant (Theorems 4 and 5).
type CGEBound = core.CGEBound

// CGEBoundTheorem4 evaluates Theorem 4: D = 4µf/(αγ) with
// α = 1 - (f/n)(1 + 2µ/γ).
func CGEBoundTheorem4(n, f int, mu, gamma float64) (*CGEBound, error) {
	return core.CGEResilienceTheorem4(n, f, mu, gamma)
}

// CGEBoundTheorem5 evaluates Theorem 5, the tighter bound exploiting
// 2f-redundancy: D = (1+2f)(n-2f)µ/(αnγ) with α = 1 - (f/n)(1 + µ/γ).
func CGEBoundTheorem5(n, f int, mu, gamma float64) (*CGEBound, error) {
	return core.CGEResilienceTheorem5(n, f, mu, gamma)
}

// CWTMBound is the CWTM resilience constant (Theorem 6).
type CWTMBound = core.CWTMBound

// CWTMBoundTheorem6 evaluates Theorem 6: D' = 2√d nµλ/(γ - √d µλ),
// requiring λ < γ/(µ√d).
func CWTMBoundTheorem6(n, f, dim int, mu, gamma, lambda float64) (*CWTMBound, error) {
	return core.CWTMResilienceTheorem6(n, f, dim, mu, gamma, lambda)
}
