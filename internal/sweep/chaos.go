package sweep

import (
	"fmt"
	"strings"

	"byzopt/internal/chaos"
	"byzopt/internal/dgd"
)

// ChaosSpec is one point on the sweep's fault-injection axis, in the
// declarative form that travels over the wire: pure data, no seed. The
// runnable chaos.Plan is derived per scenario — seeded from the scenario key
// like every other random stream, with the crash window pinned to the cell's
// round count — so a chaos cell replays bit for bit at any worker count.
//
// The zero ChaosSpec is the no-fault point: String() returns "", the
// scenario key gains no chaos component, and the run executes without the
// chaos layer — which is what keeps pre-chaos sweeps (and their golden
// exports) byte-identical. The axis only exists on cells where it can matter.
type ChaosSpec struct {
	// CrashRate is the probability an agent is a crasher; its crash round is
	// drawn from the cell's full round window.
	CrashRate float64 `json:"crash_rate,omitempty"`
	// OmitRate is the per-attempt message-drop probability.
	OmitRate float64 `json:"omit_rate,omitempty"`
	// CorruptRate is the per-attempt in-transit corruption probability
	// (detected by CRC framing and reclassified as omission).
	CorruptRate float64 `json:"corrupt_rate,omitempty"`
	// DupRate is the per-message duplicate-delivery probability.
	DupRate float64 `json:"dup_rate,omitempty"`
	// DelayRate is the per-message probability of Delay extra virtual time.
	DelayRate float64 `json:"delay_rate,omitempty"`
	// Delay is the extra virtual time a delayed message takes.
	Delay float64 `json:"delay,omitempty"`
	// Attempts is the per-message delivery budget (0 means 1: no retry).
	Attempts int `json:"attempts,omitempty"`
	// RetryDelay is the virtual-time backoff each retry costs.
	RetryDelay float64 `json:"retry_delay,omitempty"`
}

// IsNone reports whether the spec injects nothing — the explicit no-chaos
// point that runs without the fault layer and adds no key component.
func (c ChaosSpec) IsNone() bool {
	return c.CrashRate == 0 && c.OmitRate == 0 && c.CorruptRate == 0 &&
		c.DupRate == 0 && c.DelayRate == 0
}

// String returns the canonical identity of the chaos point — fault kinds
// with their rates joined by '+', e.g. "crash:0.1+omit:0.2+delay:0.1:0.5"
// with an optional "+retry:3:0.1" budget suffix — or "" for the no-fault
// point. It is the scenario-key component, so two specs with the same
// semantics always collapse to the same string.
func (c ChaosSpec) String() string {
	if c.IsNone() {
		return ""
	}
	var parts []string
	if c.CrashRate > 0 {
		parts = append(parts, "crash:"+g(c.CrashRate))
	}
	if c.OmitRate > 0 {
		parts = append(parts, "omit:"+g(c.OmitRate))
	}
	if c.CorruptRate > 0 {
		parts = append(parts, "corrupt:"+g(c.CorruptRate))
	}
	if c.DupRate > 0 {
		parts = append(parts, "dup:"+g(c.DupRate))
	}
	if c.DelayRate > 0 {
		parts = append(parts, "delay:"+g(c.DelayRate)+":"+g(c.Delay))
	}
	if c.Attempts > 1 || c.RetryDelay > 0 {
		parts = append(parts, fmt.Sprintf("retry:%d:%s", c.Attempts, g(c.RetryDelay)))
	}
	return strings.Join(parts, "+")
}

// Config derives the runnable fault plan under the scenario's seed and round
// count (the crash window), or nil for the no-fault point.
func (c ChaosSpec) Config(seed int64, rounds int) *chaos.Plan {
	if c.IsNone() {
		return nil
	}
	return &chaos.Plan{
		Seed:        seed,
		CrashRate:   c.CrashRate,
		CrashWindow: rounds,
		OmitRate:    c.OmitRate,
		CorruptRate: c.CorruptRate,
		DupRate:     c.DupRate,
		DelayRate:   c.DelayRate,
		Delay:       c.Delay,
		Attempts:    c.Attempts,
		RetryDelay:  c.RetryDelay,
	}
}

// Validate checks the spec by building and validating its runnable form;
// the no-fault point is always valid.
func (c ChaosSpec) Validate() error {
	plan := c.Config(0, 1)
	if plan == nil {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("chaos %q: %v: %w", c.String(), err, ErrSpec)
	}
	return nil
}

// chaosStatsRecorder observes a run's injected faults for the sweep's Result
// summary: the whole-run fault tally, accumulated from the per-round stats
// every substrate's chaos observer channel delivers.
type chaosStatsRecorder struct {
	total chaos.Counters
}

// ObserveRound implements dgd.RoundObserver as a no-op: the recorder only
// consumes the chaos channel.
func (r *chaosStatsRecorder) ObserveRound(t int, x []float64, loss, dist float64) error {
	return nil
}

// ObserveChaosRound implements dgd.ChaosObserver.
func (r *chaosStatsRecorder) ObserveChaosRound(s dgd.ChaosRoundStats) error {
	r.total.Add(s.Faults)
	return nil
}
