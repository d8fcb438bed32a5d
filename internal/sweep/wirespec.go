package sweep

import (
	"fmt"

	"byzopt/internal/dgd"
)

// WireSpec is the JSON-serializable projection of a Spec: the grid axes and
// run parameters a sweep coordinator ships to its workers so every process
// expands the identical scenario grid. Process-local concerns — Backend,
// Workers, Progress, Shard, ProblemDef — deliberately have no wire form:
// workers always run the in-process engine on registry problems, which is
// exactly the regime whose exports are byte-identical everywhere.
type WireSpec struct {
	Problem   string     `json:"problem"`
	Filters   []string   `json:"filters"`
	Behaviors []string   `json:"behaviors"`
	FValues   []int      `json:"f_values"`
	Baselines []bool     `json:"baselines"`
	NValues   []int      `json:"n_values"`
	Dims      []int      `json:"dims"`
	Steps     []StepSpec `json:"steps"`
	// Asyncs is the asynchronous-round-model axis; omitted (and nil) for
	// purely synchronous sweeps, so their wire bytes are identical to
	// pre-async ones and old coordinators/workers interoperate unchanged.
	// AsyncSpec is already pure data, so it travels as is.
	Asyncs []AsyncSpec `json:"asyncs,omitempty"`
	// Chaoses is the fault-injection axis; omitted (and nil) for sweeps
	// without injected faults, so their wire bytes are identical to
	// pre-chaos ones and old coordinators/workers interoperate unchanged.
	// ChaosSpec is pure data (plans are derived per cell from the scenario
	// seed), so it travels as is.
	Chaoses []ChaosSpec `json:"chaoses,omitempty"`
	// SketchDims is the approximation-dimension axis of the
	// sketch-configurable filters; omitted (and nil) when every cell uses
	// the default dimension, so pre-sketch wire bytes are reproduced exactly
	// and old coordinators/workers interoperate unchanged.
	SketchDims []int `json:"sketch_dims,omitempty"`
	// TraceMetrics is the post-hoc trace-metric selection; omitted (and
	// nil) when no metrics are selected, reproducing pre-metric wire bytes
	// exactly. Metrics never affect cell dynamics or seeds, so workers
	// evaluating them produce the same FinalX/FinalDist bytes regardless.
	TraceMetrics    []string `json:"trace_metrics,omitempty"`
	Rounds          int      `json:"rounds"`
	Seed            int64    `json:"seed"`
	PinBehaviorSeed bool     `json:"pin_behavior_seed,omitempty"`
	Noise           float64  `json:"noise"`
	BoxRadius       float64  `json:"box_radius"`
	RecordTrace     bool     `json:"record_trace,omitempty"`
}

// StepSpec is the serializable form of the two built-in step schedules.
type StepSpec struct {
	// Kind is "diminishing" (C/(t+1)^P) or "constant" (Eta).
	Kind string  `json:"kind"`
	C    float64 `json:"c,omitempty"`
	P    float64 `json:"p,omitempty"`
	Eta  float64 `json:"eta,omitempty"`
}

// NewStepSpec captures a schedule in wire form; only the two built-in
// schedule types are expressible.
func NewStepSpec(s dgd.StepSchedule) (StepSpec, error) {
	switch sch := s.(type) {
	case dgd.Diminishing:
		return StepSpec{Kind: "diminishing", C: sch.C, P: sch.P}, nil
	case dgd.Constant:
		return StepSpec{Kind: "constant", Eta: sch.Eta}, nil
	default:
		return StepSpec{}, fmt.Errorf("step schedule %q has no wire form: %w", s.Name(), ErrSpec)
	}
}

// Schedule reconstructs the schedule.
func (s StepSpec) Schedule() (dgd.StepSchedule, error) {
	switch s.Kind {
	case "diminishing":
		return dgd.Diminishing{C: s.C, P: s.P}, nil
	case "constant":
		return dgd.Constant{Eta: s.Eta}, nil
	default:
		return nil, fmt.Errorf("unknown step kind %q: %w", s.Kind, ErrSpec)
	}
}

// NewWireSpec projects spec into its wire form, normalizing first so the
// defaults are pinned explicitly: a worker must expand the exact grid the
// coordinator expanded even if its binary's defaults ever drift. Specs
// carrying process-local machinery that cannot travel — a ProblemDef, a
// non-default Backend, a Shard — are rejected.
func NewWireSpec(spec Spec) (WireSpec, error) {
	if spec.ProblemDef != nil {
		return WireSpec{}, fmt.Errorf("unregistered ProblemDef workloads cannot be distributed (workers resolve problems by registry name): %w", ErrSpec)
	}
	if spec.Backend != nil {
		return WireSpec{}, fmt.Errorf("distributed sweeps run the in-process engine on each worker; Spec.Backend must be nil: %w", ErrSpec)
	}
	if spec.Shard != nil {
		return WireSpec{}, fmt.Errorf("the coordinator leases cells itself; Spec.Shard must be nil: %w", ErrSpec)
	}
	spec.normalize()
	if err := validateSpec(&spec); err != nil {
		return WireSpec{}, err
	}
	steps := make([]StepSpec, len(spec.Steps))
	for i, s := range spec.Steps {
		ss, err := NewStepSpec(s)
		if err != nil {
			return WireSpec{}, err
		}
		steps[i] = ss
	}
	asyncs := spec.Asyncs
	if len(asyncs) == 1 && asyncs[0].IsSync() {
		// A purely synchronous axis (the normalized default) leaves the wire
		// form, keeping sync sweeps' wire bytes identical to pre-async ones.
		asyncs = nil
	}
	sketchDims := spec.SketchDims
	if len(sketchDims) == 1 && sketchDims[0] == 0 {
		// Same rule as the async axis: the normalized default travels as an
		// absent field, reproducing pre-sketch wire bytes.
		sketchDims = nil
	}
	chaoses := spec.Chaoses
	if len(chaoses) == 1 && chaoses[0].IsNone() {
		// Same rule again: a no-fault axis leaves the wire form, keeping
		// fault-free sweeps' wire bytes identical to pre-chaos ones.
		chaoses = nil
	}
	return WireSpec{
		Problem:         spec.Problem,
		Filters:         spec.Filters,
		Behaviors:       spec.Behaviors,
		FValues:         spec.FValues,
		Baselines:       spec.Baselines,
		NValues:         spec.NValues,
		Dims:            spec.Dims,
		Steps:           steps,
		Asyncs:          asyncs,
		Chaoses:         chaoses,
		SketchDims:      sketchDims,
		TraceMetrics:    spec.TraceMetrics,
		Rounds:          spec.Rounds,
		Seed:            spec.Seed,
		PinBehaviorSeed: spec.PinBehaviorSeed,
		Noise:           spec.Noise,
		BoxRadius:       spec.BoxRadius,
		RecordTrace:     spec.RecordTrace,
	}, nil
}

// Spec reconstructs the runnable Spec. The result carries no Backend,
// Workers, Progress, or Shard — those stay the receiving process's choice.
func (w WireSpec) Spec() (Spec, error) {
	steps := make([]dgd.StepSchedule, len(w.Steps))
	for i, ss := range w.Steps {
		s, err := ss.Schedule()
		if err != nil {
			return Spec{}, err
		}
		steps[i] = s
	}
	return Spec{
		Problem:         w.Problem,
		Filters:         w.Filters,
		Behaviors:       w.Behaviors,
		FValues:         w.FValues,
		Baselines:       w.Baselines,
		NValues:         w.NValues,
		Dims:            w.Dims,
		Steps:           steps,
		Asyncs:          w.Asyncs,
		Chaoses:         w.Chaoses,
		SketchDims:      w.SketchDims,
		TraceMetrics:    w.TraceMetrics,
		Rounds:          w.Rounds,
		Seed:            w.Seed,
		PinBehaviorSeed: w.PinBehaviorSeed,
		Noise:           w.Noise,
		BoxRadius:       w.BoxRadius,
		RecordTrace:     w.RecordTrace,
	}, nil
}
