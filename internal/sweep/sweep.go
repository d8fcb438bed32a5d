// Package sweep is the scenario-matrix engine behind the repo's empirical
// evaluation: it expands a declarative Spec — a registered Problem ×
// gradient filters × Byzantine behaviors × fault counts × system sizes ×
// dimensions × step schedules × the fault-free baseline axis — into
// concrete scenarios, runs them concurrently on a worker pool, and collects
// one structured Result per scenario (final distance to the reference point
// x_H, a loss-trace summary, optional task metrics, wall time, and
// divergence/skip/timeout flags), with deterministic JSON export via
// WriteJSON.
//
// Workloads are pluggable: the Problem interface materializes per-agent
// costs, the reference point, the honest loss, and optional metrics for any
// scenario, and the name-keyed registry (Register/LookupProblem) ships with
// the paper's regression instances, the Appendix-K learning workloads,
// distributed sensing, and robust mean estimation. Spec.Baselines adds the
// papers' fault-free omit-the-faulty-agents baseline as a grid axis, which
// is what lets every table and figure of the evaluation run as a sweep.
//
// Every scenario executes through a dgd.Backend (Spec.Backend): the
// in-process engine by default, or the transport-backed cluster stack,
// which makes the sweep a distributed-system load generator. On the
// default backend each scenario's round loop runs on the engine's
// zero-allocation scratch path (problems build costfunc-backed agents and
// registered filters, so dgd.IntoAgent and aggregate.IntoFilter engage
// automatically; see the README's performance section) — the sweep's
// steady-state garbage pressure is per scenario, not per round. RunContext
// threads a context through the pool — cancellation stops the sweep within
// one scenario and returns the completed scenarios (in grid order — under a
// parallel pool not necessarily a contiguous prefix) as partial results, while
// Spec.ScenarioTimeout bounds individual scenarios without failing the
// sweep. Spec.RecordTrace exports the full per-round loss/distance series
// of every run, the path the figure drivers use.
//
// Determinism is the design constraint: every scenario derives its random
// seed by hashing its own key, never from worker identity or completion
// order, so a sweep produces identical results at any worker count — byte
// for byte once exported without timings, on either backend for fault-free
// grids. The paper's Section-5 grid (filter × fault × f on the Appendix-J
// regression instance) is one small Spec; the engine exists so much larger
// grids are one call too.
package sweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
)

// ErrSpec is returned (wrapped) for invalid sweep specifications.
var ErrSpec = errors.New("sweep: invalid specification")

// The regression problem names (see problems.go for the rest of the
// built-in registry).
const (
	// ProblemSynthetic generates a deterministic distributed-regression
	// instance per (n, d): unit-scaled Gaussian design rows, responses from
	// a fixed generator plus Gaussian observation noise. The instance
	// depends only on (n, d, Seed, Noise), so scenarios that share a system
	// size also share their data and stay comparable.
	ProblemSynthetic = "synthetic"
	// ProblemPaper uses the Appendix-J regression data of the paper
	// (n = 6, d = 2, equation 132); other sizes are rejected.
	ProblemPaper = "paper"
)

// BehaviorNone marks scenarios with f = 0: no Byzantine behavior applies,
// and the expansion collapses the behavior axis to this single value.
const BehaviorNone = "none"

// Spec declares a scenario matrix. Zero values select the paper's
// defaults, so the zero Spec is the full filter × behavior grid on the
// Appendix-J-sized synthetic instance.
type Spec struct {
	// Problem names the workload in the problem registry:
	// ProblemSynthetic (default), ProblemPaper, the learning family,
	// ProblemSensing, ProblemRobustMean, or anything added via Register.
	Problem string
	// ProblemDef, when non-nil, supplies the workload directly, bypassing
	// the registry — the hook for one-off Problem configurations that are
	// not worth a global name. Scenario.Problem then records
	// ProblemDef.Name().
	ProblemDef Problem
	// Filters are aggregate registry names; nil means every registered
	// filter (aggregate.Names()).
	Filters []string
	// Behaviors are byzantine registry names; nil means every registered
	// behavior (byzantine.Names()).
	Behaviors []string
	// FValues are the fault-tolerance parameters to sweep; nil means {1}.
	// The first f agents act Byzantine in each scenario, mirroring the
	// paper's faulty agent 0. Values with 2f >= n yield Skipped results.
	FValues []int
	// Baselines adds the papers' fault-free baseline as a grid axis; nil
	// means {false}. A baseline scenario omits the f would-be Byzantine
	// agents entirely and runs the remaining honest agents with f = 0 —
	// "the faulty agent is omitted" of Figures 2-5 — so its behavior axis
	// collapses to BehaviorNone. Baseline cells at f = 0 are dropped as
	// duplicates of the ordinary f = 0 cells.
	Baselines []bool
	// NValues are the system sizes; nil means {6} (the paper's n).
	NValues []int
	// Dims are the optimization dimensions; nil means {2} (the paper's d).
	Dims []int
	// Steps are the step-size schedules; nil means the paper's diminishing
	// 1.5/(t+1).
	Steps []dgd.StepSchedule
	// Asyncs are the asynchronous round models to sweep; nil means the
	// synchronous round model only (the zero AsyncSpec). Entries that are
	// synchronous-equivalent (AsyncSpec.IsSync) run without the overlay and
	// add no async component to scenario keys, so adding this axis never
	// perturbs existing grids; duplicate canonical points are dropped.
	Asyncs []AsyncSpec
	// Chaoses are the deterministic fault-injection plans to sweep; nil
	// means no injected faults (the zero ChaosSpec). No-fault entries
	// (ChaosSpec.IsNone) run without the chaos layer and add no chaos
	// component to scenario keys, so adding this axis never perturbs
	// existing grids; duplicate canonical points are dropped. Each chaos
	// cell derives its plan from the scenario seed with the crash window
	// pinned to the cell's rounds, so exports are byte-identical at any
	// worker count and across the sweep fleet.
	Chaoses []ChaosSpec
	// SketchDims are the approximation-dimension values to sweep for the
	// sketch-configurable filters (krum-sketch and friends): the projection
	// dimension k for the sketched family, the neighbor sample size m for
	// the sampled family. nil means {0}, the filter's built-in default.
	// Filters that are not sketch-configurable collapse this axis to the
	// single value 0 and add no sketch component to their scenario keys, so
	// adding the axis never perturbs existing grids.
	SketchDims []int
	// Rounds is the iteration count T; 0 means 500 (the paper's x_out).
	Rounds int
	// Seed is the base seed mixed into every scenario hash; change it to
	// draw an independent replicate of the whole sweep.
	Seed int64
	// PinBehaviorSeed, when set, seeds every Byzantine behavior with Seed
	// directly instead of the per-scenario hash. Use it to replicate a
	// specific pinned execution (abft-bench pins the paper's Table-1
	// "random" stream this way); leave it unset for independent randomness
	// across grid points.
	PinBehaviorSeed bool
	// Noise is the synthetic observation-noise scale; 0 means 0.05.
	Noise float64
	// BoxRadius is the constraint-cube half-width W = [-r, r]^d; 0 means
	// 1000 (the paper's W).
	BoxRadius float64

	// Workers sizes the scenario worker pool; <= 0 means GOMAXPROCS.
	// Results are identical at any setting.
	Workers int

	// Backend executes each scenario's run; nil means the in-process
	// engine (dgd.InProcess). Handing a cluster.Backend here runs every
	// scenario over the transport/cluster stack instead, turning the sweep
	// into a distributed-system load generator; grids whose behaviors are
	// not omniscient (and all fault-free grids) produce byte-identical
	// exports on either substrate. A p2p.Backend runs every scenario over
	// the Byzantine-broadcast peer-to-peer substrate: grids whose behaviors
	// do not equivocate in the broadcast layer reproduce the in-process
	// bytes too (omniscient behaviors included), and cells violating the
	// broadcast bound n > 3f come back as skipped results
	// (dgd.ErrInadmissible), so mixed grids survive.
	Backend dgd.Backend
	// ScenarioTimeout bounds each scenario's wall-clock duration; zero
	// means unbounded. A scenario exceeding it is classified as data
	// (Result.TimedOut, status "timeout") rather than aborting the sweep,
	// mirroring the divergence classification.
	ScenarioTimeout time.Duration
	// RecordTrace attaches a dgd.TraceRecorder observer to every run and
	// exports the full per-round loss/distance series (and the problem's
	// task metric, if any) in each Result — the figure-series production
	// path. Traces grow with Rounds, so leave it unset for large
	// summary-only grids.
	RecordTrace bool
	// TraceMetrics names registered post-hoc trace metrics (see
	// RegisterTraceMetric; the built-ins are convergence_rate,
	// convergence_radius, consensus_diameter, and test_accuracy) to
	// evaluate for every successful cell. Finals land in
	// Result.TraceMetrics; the per-round series additionally land in
	// Result.TraceMetricSeries when RecordTrace is set. Selecting metrics
	// attaches the trace recorder internally even without RecordTrace, but
	// only the metric outputs are exported then. Metrics are
	// post-processing: they never affect the dynamics, the scenario keys,
	// or the derived seeds.
	TraceMetrics []string

	// Progress, when non-nil, is called after each scenario completes with
	// the number done and the grid total. Calls are serialized by the
	// engine, so the callback needs no locking; completion order is
	// nondeterministic under a parallel pool.
	Progress func(done, total int)
	// Shard, when non-nil, restricts the run to a deterministic contiguous
	// slice of the expanded grid — shard Index of Count — so one Spec can be
	// split across processes or machines and the exported shards merged back
	// (MergeResults) into the byte-identical full export.
	Shard *Shard
}

// Shard selects a contiguous index-range slice of the expanded scenario
// grid: shard Index of Count (0 <= Index < Count). Slicing happens after
// grid expansion, so every shard of the same Spec sees the same global
// ordering and GridIndex values.
type Shard struct {
	Index, Count int
}

// Scenario identifies one expanded grid point. Its Key doubles as the
// seed-derivation input, so two scenarios differing in any axis draw
// independent randomness while reruns of the same scenario replay exactly.
type Scenario struct {
	Problem  string `json:"problem"`
	Filter   string `json:"filter"`
	Behavior string `json:"behavior"`
	F        int    `json:"f"`
	N        int    `json:"n"`
	Dim      int    `json:"d"`
	Step     string `json:"step"`
	Rounds   int    `json:"rounds"`
	// Baseline marks the fault-free variant: the F would-be Byzantine
	// agents are omitted entirely and the run executes with f = 0.
	Baseline bool `json:"baseline,omitempty"`
	// Async is the canonical asynchronous round model of the cell
	// (AsyncSpec.String); empty for the synchronous round model.
	Async string `json:"async,omitempty"`
	// SketchDim is the approximation dimension handed to sketch-configurable
	// filters; 0 (also the value for every non-configurable filter) means
	// the filter default and adds no key component.
	SketchDim int `json:"sketch_dim,omitempty"`
	// Chaos is the canonical fault-injection plan of the cell
	// (ChaosSpec.String); empty for runs without injected faults.
	Chaos string `json:"chaos,omitempty"`
}

// Key returns the stable scenario identifier used for seeding, logging,
// and deduplication.
func (s Scenario) Key() string { return string(s.appendKey(nil)) }

// appendKey appends Key's bytes to dst: the eight axes every cell has, then
// each optional axis only when it is set, so the keys (and the seeds derived
// from them) of cells that predate an axis stay byte for byte what they were.
func (s Scenario) appendKey(dst []byte) []byte {
	dst = append(append(dst, "problem="...), s.Problem...)
	dst = append(append(dst, " filter="...), s.Filter...)
	dst = append(append(dst, " behavior="...), s.Behavior...)
	dst = strconv.AppendInt(append(dst, " f="...), int64(s.F), 10)
	dst = strconv.AppendInt(append(dst, " n="...), int64(s.N), 10)
	dst = strconv.AppendInt(append(dst, " d="...), int64(s.Dim), 10)
	dst = append(append(dst, " step="...), s.Step...)
	dst = strconv.AppendInt(append(dst, " rounds="...), int64(s.Rounds), 10)
	if s.Baseline {
		dst = append(dst, " baseline=true"...)
	}
	if s.Async != "" {
		dst = append(append(dst, " async="...), s.Async...)
	}
	if s.SketchDim != 0 {
		dst = strconv.AppendInt(append(dst, " sketch="...), int64(s.SketchDim), 10)
	}
	if s.Chaos != "" {
		dst = append(append(dst, " chaos="...), s.Chaos...)
	}
	return dst
}

// DeriveSeed hashes the scenario key together with the base seed: 64-bit
// FNV-1a over Key's bytes followed by the base seed's eight little-endian
// bytes. The result feeds every random draw of the scenario (behavior
// streams), so replay needs nothing but the Spec. The bytes are built in a
// stack buffer and hashed in place, so a seed allocates nothing unless the
// key outgrows the buffer.
func (s Scenario) DeriveSeed(base int64) int64 {
	var buf [256]byte
	h := uint64(14695981039346656037) // FNV-1a's 64-bit offset basis
	for _, c := range binary.LittleEndian.AppendUint64(s.appendKey(buf[:0]), uint64(base)) {
		h = (h ^ uint64(c)) * 1099511628211 // FNV's 64-bit prime
	}
	return int64(h)
}

// job pairs a scenario with its (non-serializable) step schedule and its
// position in (and the size of) the full expanded grid, both stable across
// sharding.
type job struct {
	scn   Scenario
	steps dgd.StepSchedule
	async AsyncSpec
	chaos ChaosSpec
	idx   int
	total int
}

// normalize fills in the documented defaults in place.
func (spec *Spec) normalize() {
	if spec.ProblemDef != nil {
		spec.Problem = spec.ProblemDef.Name()
	}
	if spec.Problem == "" {
		spec.Problem = ProblemSynthetic
	}
	if spec.Baselines == nil {
		spec.Baselines = []bool{false}
	}
	if spec.Filters == nil {
		spec.Filters = aggregate.Names()
	}
	if spec.Behaviors == nil {
		spec.Behaviors = byzantine.Names()
	}
	if spec.FValues == nil {
		spec.FValues = []int{1}
	}
	if spec.NValues == nil {
		spec.NValues = []int{linreg.N}
	}
	if spec.Dims == nil {
		spec.Dims = []int{linreg.Dim}
	}
	if spec.Steps == nil {
		spec.Steps = []dgd.StepSchedule{dgd.Diminishing{C: linreg.StepC, P: 1}}
	}
	if spec.Asyncs == nil {
		spec.Asyncs = []AsyncSpec{{}}
	}
	spec.Asyncs = dedupeByString(spec.Asyncs)
	if spec.Chaoses == nil {
		spec.Chaoses = []ChaosSpec{{}}
	}
	spec.Chaoses = dedupeByString(spec.Chaoses)
	if spec.SketchDims == nil {
		spec.SketchDims = []int{0}
	}
	if spec.Rounds == 0 {
		spec.Rounds = linreg.Rounds
	}
	if spec.Noise == 0 {
		spec.Noise = 0.05
	}
	if spec.BoxRadius == 0 {
		spec.BoxRadius = linreg.BoxRadius
	}
}

// dedupeByString collapses an axis to its distinct canonical points, keyed by
// String, preserving first-occurrence order — several default-equivalent
// entries (synchronous asyncs, no-fault chaoses) or verbatim duplicates must
// not duplicate grid cells.
func dedupeByString[T fmt.Stringer](axis []T) []T {
	seen := make(map[string]bool, len(axis))
	out := make([]T, 0, len(axis))
	for _, v := range axis {
		key := v.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, v)
	}
	return out
}

// resolveProblem returns the spec's workload: ProblemDef when set,
// otherwise the registry entry under spec.Problem. Callers must have
// normalized the spec.
func resolveProblem(spec *Spec) (Problem, error) {
	if spec.ProblemDef != nil {
		return spec.ProblemDef, nil
	}
	return LookupProblem(spec.Problem)
}

// validateSpec rejects unknown names and nonsensical values up front, so a
// sweep fails fast instead of burying a typo in per-scenario errors. The
// problem validates the axes it consumes (sizes, dimensions, behaviors)
// itself.
func validateSpec(spec *Spec) error {
	prob, err := resolveProblem(spec)
	if err != nil {
		return err
	}
	if len(spec.Filters) == 0 {
		return fmt.Errorf("empty filter list: %w", ErrSpec)
	}
	for _, name := range spec.Filters {
		if _, err := aggregate.New(name); err != nil {
			return fmt.Errorf("filter %q: %v: %w", name, err, ErrSpec)
		}
	}
	var extras []string
	if declarer, ok := prob.(BehaviorDeclarer); ok {
		extras = declarer.ExtraBehaviors()
	}
	if err := ValidateBehaviors(spec.Behaviors, extras...); err != nil {
		return err
	}
	for _, f := range spec.FValues {
		if f < 0 {
			return fmt.Errorf("negative f = %d: %w", f, ErrSpec)
		}
	}
	for _, n := range spec.NValues {
		if n < 1 {
			return fmt.Errorf("n = %d must be positive: %w", n, ErrSpec)
		}
	}
	for _, d := range spec.Dims {
		if d < 1 {
			return fmt.Errorf("dim = %d must be positive: %w", d, ErrSpec)
		}
	}
	if err := prob.Validate(spec); err != nil {
		return err
	}
	if spec.Shard != nil {
		if spec.Shard.Count < 1 || spec.Shard.Index < 0 || spec.Shard.Index >= spec.Shard.Count {
			return fmt.Errorf("shard %d/%d out of range: %w", spec.Shard.Index, spec.Shard.Count, ErrSpec)
		}
	}
	for i, s := range spec.Steps {
		if s == nil {
			return fmt.Errorf("nil step schedule %d: %w", i, ErrSpec)
		}
	}
	for _, a := range spec.Asyncs {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	for _, c := range spec.Chaoses {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	for _, k := range spec.SketchDims {
		if k < 0 {
			return fmt.Errorf("negative sketch dim %d: %w", k, ErrSpec)
		}
	}
	seenMetrics := make(map[string]bool, len(spec.TraceMetrics))
	for _, name := range spec.TraceMetrics {
		if _, ok := LookupTraceMetric(name); !ok {
			return fmt.Errorf("unknown trace metric %q (registered: %s): %w",
				name, strings.Join(TraceMetricNames(), ", "), ErrSpec)
		}
		if seenMetrics[name] {
			return fmt.Errorf("duplicate trace metric %q: %w", name, ErrSpec)
		}
		seenMetrics[name] = true
	}
	if spec.Rounds < 1 {
		return fmt.Errorf("rounds = %d must be positive: %w", spec.Rounds, ErrSpec)
	}
	if spec.Noise < 0 {
		return fmt.Errorf("negative noise %v: %w", spec.Noise, ErrSpec)
	}
	if spec.BoxRadius <= 0 {
		return fmt.Errorf("box radius %v must be positive: %w", spec.BoxRadius, ErrSpec)
	}
	if spec.ScenarioTimeout < 0 {
		return fmt.Errorf("negative scenario timeout %v: %w", spec.ScenarioTimeout, ErrSpec)
	}
	return nil
}

// expand normalizes the spec and enumerates the grid in a fixed order
// (filter, f, baseline, behavior, n, d, step, async, sketch, chaos).
// Scenarios with
// f = 0 — and baseline scenarios, whose would-be Byzantine agents are omitted
// — collapse the behavior axis to BehaviorNone, baseline cells at f = 0 are
// dropped as duplicates, and filters that are not sketch-configurable
// collapse the sketch axis to {0}, so the grid never contains the same
// scenario twice. When spec.Shard is set, the enumerated grid is sliced to
// the shard's contiguous index range after expansion; job indices always
// refer to the full grid.
func expand(spec *Spec) ([]job, error) {
	spec.normalize()
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	// Each axis value's name is formatted once, not once per cell.
	stepNames := axisNames(spec.Steps, dgd.StepSchedule.Name)
	asyncNames := axisNames(spec.Asyncs, AsyncSpec.String)
	chaosNames := axisNames(spec.Chaoses, ChaosSpec.String)
	var jobs []job
	for _, filter := range spec.Filters {
		sketchDims := spec.SketchDims
		if fl, err := aggregate.New(filter); err == nil {
			if _, ok := fl.(aggregate.SketchConfigurable); !ok {
				// The dimension never reaches a non-configurable filter; one
				// cell with the keyless value 0 stands for them all.
				sketchDims = []int{0}
			}
		}
		for _, f := range spec.FValues {
			for _, baseline := range spec.Baselines {
				if baseline && f == 0 {
					continue // identical to the ordinary f = 0 cell
				}
				behaviors := spec.Behaviors
				if f == 0 || baseline {
					behaviors = []string{BehaviorNone}
				}
				for _, behavior := range behaviors {
					for _, n := range spec.NValues {
						for _, d := range spec.Dims {
							for si, steps := range spec.Steps {
								for ai, async := range spec.Asyncs {
									for _, sk := range sketchDims {
										for ci, cs := range spec.Chaoses {
											jobs = append(jobs, job{
												scn: Scenario{
													Problem:   spec.Problem,
													Filter:    filter,
													Behavior:  behavior,
													F:         f,
													N:         n,
													Dim:       d,
													Step:      stepNames[si],
													Rounds:    spec.Rounds,
													Baseline:  baseline,
													Async:     asyncNames[ai],
													SketchDim: sk,
													Chaos:     chaosNames[ci],
												},
												steps: steps,
												async: async,
												chaos: cs,
												idx:   len(jobs),
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("empty scenario grid: %w", ErrSpec)
	}
	for i := range jobs {
		jobs[i].total = len(jobs)
	}
	if sh := spec.Shard; sh != nil {
		lo := sh.Index * len(jobs) / sh.Count
		hi := (sh.Index + 1) * len(jobs) / sh.Count
		jobs = jobs[lo:hi]
	}
	return jobs, nil
}

// axisNames returns name(v) for every value of one grid axis, in order.
func axisNames[T any](values []T, name func(T) string) []string {
	names := make([]string, len(values))
	for i, v := range values {
		names[i] = name(v)
	}
	return names
}

// Scenarios returns the expanded grid without running it, in grid order
// (respecting spec.Shard) — useful for sizing a sweep before committing to
// it.
func Scenarios(spec Spec) ([]Scenario, error) {
	jobs, err := expand(&spec)
	if err != nil {
		return nil, err
	}
	out := make([]Scenario, len(jobs))
	for i, jb := range jobs {
		out[i] = jb.scn
	}
	return out, nil
}
