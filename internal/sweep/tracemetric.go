package sweep

// The trace-metric registry: named post-hoc metrics evaluated over a
// completed run's recorded per-round trace. Where a Problem's Metric hook
// rides along inside the round loop, a TraceMetric is pure post-processing
// — it sees the finished loss/distance/estimate series and condenses them
// into one scalar (plus an optional per-round series). The three REDGRAF
// convergence-geometry metrics register here, and so does test_accuracy, so
// every metric — built-in or user-registered — is selected the same way:
// list its name in Spec.TraceMetrics.

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Names of the built-in REDGRAF trace metrics.
const (
	// TraceMetricConvergenceRate is the fitted geometric contraction rate ρ
	// of the distance-to-reference series: the least-squares slope of
	// log ||x_t - x_H|| against t, exponentiated. Values below 1 mean the
	// trajectory contracts toward the reference; the per-round series holds
	// the raw ratios ||x_t - x_H|| / ||x_{t-1} - x_H||.
	TraceMetricConvergenceRate = "convergence_rate"
	// TraceMetricConvergenceRadius is the radius of the ball around the
	// reference that contains the steady-state trajectory: the maximum
	// distance-to-reference over the trailing quarter of the run. The
	// per-round series is the same trailing-window maximum ending at each t.
	TraceMetricConvergenceRadius = "convergence_radius"
	// TraceMetricConsensusDiameter measures the steady-state wander of the
	// estimate trajectory — the server-side analogue of REDGRAF's
	// approximate-consensus diameter: the Euclidean diagonal of the
	// per-coordinate bounding box of the estimates over the trailing
	// quarter of the run (per-round: the same window ending at each t).
	TraceMetricConsensusDiameter = "consensus_diameter"
	// TraceMetricAgreement is the share of a run's filter calls at which the
	// cell filter's exact twin, fed the same input and f, returned the
	// bitwise-equal aggregate (+0 equals -0): how often an approximate filter
	// (the -sketch and -sampled families) selected what its exact filter
	// would have. The per-round series is the share over the calls before
	// round t, 1 before the first. Cells whose filter has no exact twin skip
	// it.
	TraceMetricAgreement = "agreement"
)

// TraceInput is the recorded material a TraceMetric evaluates: the
// per-round series a dgd.TraceRecorder captured (indices 0..Rounds), the
// scenario's workload, and the round count. Loss and Dist entries are NaN
// when the workload tracks no loss or reference; X is nil unless the metric
// declared NeedEstimates.
type TraceInput struct {
	// Loss is the per-round tracked loss Q_H(x_t); NaN entries when untracked.
	Loss []float64
	// Dist is the per-round distance to the reference ||x_t - x_H||; NaN
	// entries when the workload has no reference.
	Dist []float64
	// X is the per-round estimate series; nil unless NeedEstimates.
	X [][]float64
	// Workload is the scenario's built workload (metric hooks, reference).
	Workload *Workload
	// Rounds is the scenario's round count; the series have Rounds+1 entries.
	Rounds int
	// task is the series of the workload's Metric hook as the run recorded
	// it (see metricRecorder); nil when the workload has none.
	task []float64
	// agreement is the series agreementRecorder recorded; nil when the cell
	// did not request the metric, its filter has no exact twin, or no round
	// called the filter.
	agreement []float64
}

// TraceMetric is a named post-hoc metric over a recorded trace. Eval
// returns the metric's final scalar and its per-round series (aligned with
// the trace, Rounds+1 entries); an error marks the metric inapplicable to
// this cell (for example a distance-based metric on a workload without a
// reference), which skips it without failing the cell.
type TraceMetric struct {
	// Name keys the registry and the Result.TraceMetrics map.
	Name string
	// NeedEstimates requests per-round estimate copies in TraceInput.X.
	// Estimate recording costs (Rounds+1)·d floats per cell, so only
	// metrics that read the trajectory itself set it.
	NeedEstimates bool
	// Eval computes the metric; see the type comment.
	Eval func(in TraceInput) (final float64, series []float64, err error)
}

var (
	traceMetricMu  sync.RWMutex
	traceMetricReg = map[string]TraceMetric{}
)

// RegisterTraceMetric adds a metric to the registry under m.Name, making it
// selectable by name in Spec.TraceMetrics (and from the CLIs). Registering
// an empty name, a nil Eval, or a taken name is an error.
func RegisterTraceMetric(m TraceMetric) error {
	if m.Name == "" {
		return fmt.Errorf("empty trace metric name: %w", ErrSpec)
	}
	if m.Eval == nil {
		return fmt.Errorf("trace metric %q has nil Eval: %w", m.Name, ErrSpec)
	}
	traceMetricMu.Lock()
	defer traceMetricMu.Unlock()
	if _, dup := traceMetricReg[m.Name]; dup {
		return fmt.Errorf("trace metric %q already registered: %w", m.Name, ErrSpec)
	}
	traceMetricReg[m.Name] = m
	return nil
}

// LookupTraceMetric returns the metric registered under name.
func LookupTraceMetric(name string) (TraceMetric, bool) {
	traceMetricMu.RLock()
	defer traceMetricMu.RUnlock()
	m, ok := traceMetricReg[name]
	return m, ok
}

// TraceMetricNames lists the registered trace metrics in sorted order — the
// vocabulary Spec.TraceMetrics accepts.
func TraceMetricNames() []string {
	traceMetricMu.RLock()
	defer traceMetricMu.RUnlock()
	names := make([]string, 0, len(traceMetricReg))
	for name := range traceMetricReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func mustRegisterTraceMetric(m TraceMetric) {
	if err := RegisterTraceMetric(m); err != nil {
		panic(err)
	}
}

func init() {
	mustRegisterTraceMetric(TraceMetric{
		Name: TraceMetricConvergenceRate,
		Eval: convergenceRate,
	})
	mustRegisterTraceMetric(TraceMetric{
		Name: TraceMetricConvergenceRadius,
		Eval: convergenceRadius,
	})
	mustRegisterTraceMetric(TraceMetric{
		Name:          TraceMetricConsensusDiameter,
		NeedEstimates: true,
		Eval:          consensusDiameter,
	})
	// The problems' task metric joins the same vocabulary: selecting
	// "test_accuracy" hands over the series the in-loop metricRecorder
	// recorded, so the hook runs once a cadence step and no estimate is kept.
	mustRegisterTraceMetric(TraceMetric{
		Name: "test_accuracy",
		Eval: traceTaskMetric("test_accuracy"),
	})
	mustRegisterTraceMetric(TraceMetric{
		Name: TraceMetricAgreement,
		Eval: agreement,
	})
}

// tailWindow is the trailing-window length of the steady-state metrics: a
// quarter of the series, at least one round.
func tailWindow(length int) int {
	w := length / 4
	if w < 1 {
		w = 1
	}
	return w
}

// requireDist rejects traces without a usable distance series.
func requireDist(in TraceInput) ([]float64, error) {
	if len(in.Dist) < 2 {
		return nil, fmt.Errorf("trace metric needs a recorded distance series: %w", ErrSpec)
	}
	for _, v := range in.Dist {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("trace metric needs a tracked, finite reference distance: %w", ErrSpec)
		}
	}
	return in.Dist, nil
}

// convergenceRate implements TraceMetricConvergenceRate.
func convergenceRate(in TraceInput) (float64, []float64, error) {
	dist, err := requireDist(in)
	if err != nil {
		return 0, nil, err
	}
	series := make([]float64, len(dist))
	series[0] = 1
	for t := 1; t < len(dist); t++ {
		if dist[t-1] > 0 {
			series[t] = dist[t] / dist[t-1]
		} else {
			series[t] = 1
		}
	}
	// Least-squares fit of log dist_t against t over the positive entries:
	// dist_t ~ C·ρ^t gives ρ = exp(slope).
	var sumT, sumY, sumTT, sumTY float64
	count := 0
	for t, v := range dist {
		if v <= 0 {
			continue
		}
		ft, fy := float64(t), math.Log(v)
		sumT += ft
		sumY += fy
		sumTT += ft * ft
		sumTY += ft * fy
		count++
	}
	if count < 2 {
		return 0, nil, fmt.Errorf("convergence rate needs at least two positive distances: %w", ErrSpec)
	}
	denom := float64(count)*sumTT - sumT*sumT
	if denom == 0 {
		return 0, nil, fmt.Errorf("convergence rate fit is degenerate: %w", ErrSpec)
	}
	slope := (float64(count)*sumTY - sumT*sumY) / denom
	return math.Exp(slope), series, nil
}

// convergenceRadius implements TraceMetricConvergenceRadius.
func convergenceRadius(in TraceInput) (float64, []float64, error) {
	dist, err := requireDist(in)
	if err != nil {
		return 0, nil, err
	}
	w := tailWindow(len(dist))
	series := make([]float64, len(dist))
	for t := range dist {
		lo := t - w + 1
		if lo < 0 {
			lo = 0
		}
		maxV := dist[lo]
		for _, v := range dist[lo+1 : t+1] {
			if v > maxV {
				maxV = v
			}
		}
		series[t] = maxV
	}
	return series[len(series)-1], series, nil
}

// consensusDiameter implements TraceMetricConsensusDiameter.
func consensusDiameter(in TraceInput) (float64, []float64, error) {
	if len(in.X) < 1 {
		return 0, nil, fmt.Errorf("consensus diameter needs recorded estimates: %w", ErrSpec)
	}
	d := len(in.X[0])
	w := tailWindow(len(in.X))
	series := make([]float64, len(in.X))
	for t := range in.X {
		lo := t - w + 1
		if lo < 0 {
			lo = 0
		}
		var sum float64
		for j := 0; j < d; j++ {
			minV, maxV := in.X[lo][j], in.X[lo][j]
			for _, x := range in.X[lo+1 : t+1] {
				if x[j] < minV {
					minV = x[j]
				}
				if x[j] > maxV {
					maxV = x[j]
				}
			}
			side := maxV - minV
			sum += side * side
		}
		series[t] = math.Sqrt(sum)
	}
	return series[len(series)-1], series, nil
}

// traceTaskMetric exposes a workload's in-loop Metric hook of the given name
// as a trace metric: the series the run recorded.
func traceTaskMetric(name string) func(TraceInput) (float64, []float64, error) {
	return func(in TraceInput) (float64, []float64, error) {
		if in.Workload == nil || in.Workload.Metric == nil || in.Workload.Metric.Name != name {
			return 0, nil, fmt.Errorf("workload provides no %q metric: %w", name, ErrSpec)
		}
		if len(in.task) == 0 {
			return 0, nil, fmt.Errorf("task metric %q was not recorded: %w", name, ErrSpec)
		}
		return in.task[len(in.task)-1], in.task, nil
	}
}

// agreement implements TraceMetricAgreement: the series the cell's
// agreementRecorder handed over.
func agreement(in TraceInput) (float64, []float64, error) {
	if len(in.agreement) == 0 {
		return 0, nil, fmt.Errorf("agreement needs a filter with an exact twin and a round that called it: %w", ErrSpec)
	}
	return in.agreement[len(in.agreement)-1], in.agreement, nil
}

// finiteSeries reports whether every entry is JSON-exportable.
func finiteSeries(series []float64) bool {
	for _, v := range series {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
