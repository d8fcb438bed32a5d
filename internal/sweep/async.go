package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"byzopt/internal/dgd"
	"byzopt/internal/simtime"
)

// AsyncSpec is one point on the sweep's asynchrony axis: a latency model, a
// collection policy, and a staleness policy, in the declarative form that
// travels over the wire (it is pure data — the runnable dgd.AsyncConfig is
// derived per scenario, seeded from the scenario key like every other
// random stream).
//
// The zero AsyncSpec is the synchronous round model. More generally, any
// spec whose semantics are synchronous — wait-all collection under zero
// latency with no stragglers — canonicalizes to the synchronous path:
// String() returns "", the scenario key gains no async component, and the
// run executes without the overlay. That is what keeps pre-async sweeps
// (and their golden exports) byte-identical: the async axis only exists on
// cells where it can matter.
type AsyncSpec struct {
	// Latency selects the delay distribution: "" or simtime.LatencyFixed,
	// simtime.LatencyUniform, simtime.LatencyPareto.
	Latency string `json:"latency,omitempty"`
	// Base is the fixed delay, uniform minimum, or Pareto scale.
	Base float64 `json:"base,omitempty"`
	// Spread is the uniform range width.
	Spread float64 `json:"spread,omitempty"`
	// Alpha is the Pareto shape.
	Alpha float64 `json:"alpha,omitempty"`
	// StragglerRate is the fraction of agents designated persistent
	// stragglers.
	StragglerRate float64 `json:"straggler_rate,omitempty"`
	// StragglerFactor multiplies a straggler's every delay.
	StragglerFactor float64 `json:"straggler_factor,omitempty"`
	// Policy is the collection policy: "" or dgd.CollectWaitAll,
	// dgd.CollectFirstK, dgd.CollectDeadline.
	Policy string `json:"policy,omitempty"`
	// K is the first-k arrival count.
	K int `json:"k,omitempty"`
	// Deadline is the deadline policy's virtual-time budget.
	Deadline float64 `json:"deadline,omitempty"`
	// Stale is the staleness policy: "" or dgd.StaleDrop, dgd.StaleReuse,
	// dgd.StaleWeighted.
	Stale string `json:"stale,omitempty"`
	// MaxStale bounds reuse staleness in rounds; 0 means unbounded.
	MaxStale int `json:"max_stale,omitempty"`
}

func (a AsyncSpec) latency() string {
	if a.Latency == "" {
		return simtime.LatencyFixed
	}
	return a.Latency
}

func (a AsyncSpec) policy() string {
	if a.Policy == "" {
		return dgd.CollectWaitAll
	}
	return a.Policy
}

func (a AsyncSpec) stale() string {
	if a.Stale == "" {
		return dgd.StaleDrop
	}
	return a.Stale
}

// IsSync reports whether the spec's semantics are the synchronous round
// model: wait-all collection over a delay model that never makes anyone
// late (fixed zero delay, no stragglers). Such specs run without the
// overlay; their scenarios carry no async key component.
func (a AsyncSpec) IsSync() bool {
	return a.policy() == dgd.CollectWaitAll &&
		a.latency() == simtime.LatencyFixed &&
		a.Base == 0 && a.StragglerRate == 0
}

// g formats a float compactly and canonically for scenario keys.
func g(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// String returns the canonical identity of the async point —
// "latency|policy|staleness", e.g. "uniform:0.5:2+strag:0.25:6|first-k:3|
// reuse-last:max2" — or "" for synchronous-equivalent specs. It is the
// scenario-key component, so two specs with the same semantics always
// collapse to the same string.
func (a AsyncSpec) String() string {
	if a.IsSync() {
		return ""
	}
	var b strings.Builder
	b.WriteString(a.latency())
	b.WriteByte(':')
	b.WriteString(g(a.Base))
	switch a.latency() {
	case simtime.LatencyUniform:
		b.WriteByte(':')
		b.WriteString(g(a.Spread))
	case simtime.LatencyPareto:
		b.WriteByte(':')
		b.WriteString(g(a.Alpha))
	}
	if a.StragglerRate > 0 {
		fmt.Fprintf(&b, "+strag:%s:%s", g(a.StragglerRate), g(a.StragglerFactor))
	}
	b.WriteByte('|')
	b.WriteString(a.policy())
	switch a.policy() {
	case dgd.CollectFirstK:
		fmt.Fprintf(&b, ":%d", a.K)
	case dgd.CollectDeadline:
		b.WriteByte(':')
		b.WriteString(g(a.Deadline))
	}
	b.WriteByte('|')
	b.WriteString(a.stale())
	if a.MaxStale > 0 {
		fmt.Fprintf(&b, ":max%d", a.MaxStale)
	}
	return b.String()
}

// Config derives the runnable overlay configuration under the scenario's
// seed, or nil for synchronous-equivalent specs.
func (a AsyncSpec) Config(seed int64) *dgd.AsyncConfig {
	if a.IsSync() {
		return nil
	}
	return &dgd.AsyncConfig{
		Latency: simtime.Latency{
			Kind:            a.latency(),
			Base:            a.Base,
			Spread:          a.Spread,
			Alpha:           a.Alpha,
			StragglerRate:   a.StragglerRate,
			StragglerFactor: a.StragglerFactor,
		},
		Policy:   a.policy(),
		K:        a.K,
		Deadline: a.Deadline,
		Stale:    a.stale(),
		MaxStale: a.MaxStale,
		Seed:     seed,
	}
}

// Validate checks the spec by building and validating its runnable form;
// synchronous-equivalent specs are always valid.
func (a AsyncSpec) Validate() error {
	cfg := a.Config(0)
	if cfg == nil {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("async %q: %v: %w", a.String(), err, ErrSpec)
	}
	return nil
}

// asyncStatsRecorder observes a run's asynchronous rounds for the sweep's
// Result summary: the mean fresh-arrival count, the worst staleness ever
// substituted, the final virtual time, and (when tracing) the per-round
// arrival and staleness series.
type asyncStatsRecorder struct {
	trace       bool
	rounds      int
	sumArrived  int
	maxStale    int
	virtualTime float64
	arrived     []int
	maxStales   []int
}

// ObserveRound implements dgd.RoundObserver as a no-op: the recorder only
// consumes the async channel.
func (r *asyncStatsRecorder) ObserveRound(t int, x []float64, loss, dist float64) error {
	return nil
}

// ObserveAsyncRound implements dgd.AsyncObserver.
func (r *asyncStatsRecorder) ObserveAsyncRound(s dgd.AsyncRoundStats) error {
	r.rounds++
	r.sumArrived += s.Arrived
	if s.MaxStaleness > r.maxStale {
		r.maxStale = s.MaxStaleness
	}
	r.virtualTime = s.VirtualTime
	if r.trace {
		r.arrived = append(r.arrived, s.Arrived)
		r.maxStales = append(r.maxStales, s.MaxStaleness)
	}
	return nil
}

func (r *asyncStatsRecorder) meanArrived() float64 {
	if r.rounds == 0 {
		return 0
	}
	return float64(r.sumArrived) / float64(r.rounds)
}
