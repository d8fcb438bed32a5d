package dgd

import (
	"fmt"
	"math"
	"sort"

	"byzopt/internal/chaos"
	"byzopt/internal/simtime"
)

// Collection policies: when an asynchronous round stops waiting for
// gradients.
const (
	// CollectWaitAll closes the round when every live agent's report has
	// arrived — full synchrony in virtual time, the default.
	CollectWaitAll = "wait-all"
	// CollectFirstK closes at the k-th earliest arrival, aggregating over
	// the partial set (ties at the closing instant are included, so the
	// input can exceed k — with a fixed latency model all n arrive together).
	CollectFirstK = "first-k"
	// CollectDeadline closes at a fixed virtual-time budget past the round's
	// start, whatever has arrived by then. If nothing usable arrived, the
	// deadline is extended to the first fresh arrival so the round always
	// has input.
	CollectDeadline = "deadline"
)

// Staleness policies: what happens to an agent whose current-round gradient
// missed the close.
const (
	// StaleDrop excludes the agent from the round entirely; late arrivals
	// are discarded, never banked.
	StaleDrop = "drop"
	// StaleReuse substitutes the agent's most recent arrived gradient.
	StaleReuse = "reuse-last"
	// StaleWeighted substitutes the most recent arrived gradient scaled by
	// 1/(1+s), where s is its staleness in rounds — the standard
	// staleness-damped update.
	StaleWeighted = "weighted"
)

// AsyncConfig switches a run from lockstep-synchronous rounds to the
// asynchronous collection model: each round, every agent's report is
// assigned an arrival time drawn from a seeded virtual-latency model
// (simtime.Latency), the round closes per the collection Policy, and agents
// whose report missed the close are handled per the staleness policy. All
// timing is simulated — runs are deterministic functions of the
// configuration and Seed, bit-identical on any machine.
//
// The zero-latency wait-all configuration is exactly the synchronous path:
// every report arrives at the round's start instant and the filter sees the
// full gradient set, bitwise identical to a run without AsyncConfig.
type AsyncConfig struct {
	// Latency is the per-agent message-delay model; the zero value is zero
	// delay (the synchronous limit).
	Latency simtime.Latency
	// Policy is the collection policy; empty means CollectWaitAll.
	Policy string
	// K is the arrival count closing a CollectFirstK round; clamped to the
	// number of live agents.
	K int
	// Deadline is the CollectDeadline virtual-time budget per round.
	Deadline float64
	// Stale is the staleness policy; empty means StaleDrop.
	Stale string
	// MaxStale bounds the staleness (in rounds) a reused gradient may
	// carry; gradients older than MaxStale are dropped even under
	// StaleReuse/StaleWeighted. 0 means unbounded.
	MaxStale int
	// Seed keys every latency draw and the persistent-straggler
	// designation.
	Seed int64
}

func (a AsyncConfig) policy() string {
	if a.Policy == "" {
		return CollectWaitAll
	}
	return a.Policy
}

func (a AsyncConfig) stale() string {
	if a.Stale == "" {
		return StaleDrop
	}
	return a.Stale
}

// Validate checks the async configuration.
func (a AsyncConfig) Validate() error {
	if err := a.Latency.Validate(); err != nil {
		return err
	}
	switch a.policy() {
	case CollectWaitAll:
	case CollectFirstK:
		if a.K < 1 {
			return fmt.Errorf("first-k policy needs K >= 1, got %d", a.K)
		}
	case CollectDeadline:
		if !(a.Deadline > 0) || math.IsInf(a.Deadline, 1) {
			return fmt.Errorf("deadline policy needs a positive finite budget, got %v", a.Deadline)
		}
	default:
		return fmt.Errorf("unknown collection policy %q", a.Policy)
	}
	switch a.stale() {
	case StaleDrop, StaleReuse, StaleWeighted:
	default:
		return fmt.Errorf("unknown staleness policy %q", a.Stale)
	}
	if a.MaxStale < 0 {
		return fmt.Errorf("negative MaxStale %d", a.MaxStale)
	}
	return nil
}

// AsyncRoundStats summarizes one asynchronous round's collection: how many
// gradients made the close fresh, how many stale entries were substituted,
// how many agents contributed nothing, and the virtual time at which the
// round closed. Observers implementing AsyncObserver receive one per round.
type AsyncRoundStats struct {
	// Round is the round index t.
	Round int
	// VirtualTime is the virtual time at which the round closed.
	VirtualTime float64
	// Arrived counts current-round gradients that made the close.
	Arrived int
	// Reused counts stale gradients substituted into the filter input
	// (StaleReuse or StaleWeighted).
	Reused int
	// Dropped counts live agents that contributed nothing this round.
	Dropped int
	// MaxStaleness is the largest staleness (in rounds) among substituted
	// gradients; 0 when none were substituted.
	MaxStaleness int
}

// AsyncObserver is an optional RoundObserver extension receiving per-round
// asynchronous collection stats. The engine detects it by type assertion on
// Config.Observer, so synchronous observers work unchanged.
type AsyncObserver interface {
	// ObserveAsyncRound is called once per asynchronous round, after the
	// round's collection closes and before the estimate updates. Returning
	// an error aborts the run.
	ObserveAsyncRound(stats AsyncRoundStats) error
}

// AsyncState is the per-run state of the asynchronous collection overlay:
// the virtual clock, each agent's most recent arrived gradient, and the
// reusable buffers behind the filter input. The engine computes every
// agent's gradient value exactly as the synchronous collector does
// (honest-first, omniscient adversaries see the full honest set); the
// overlay then decides which of those values — fresh, stale, or
// staleness-weighted — reach the filter. That layering is what makes the
// zero-latency wait-all configuration bitwise identical to the synchronous
// path.
//
// AsyncState is exported for the other substrates: the cluster server keeps
// one per run (a nil gradient slot marks an eliminated agent, permanently
// removing it from the overlay), and so does the p2p engine, in the one
// kernel its honest peers share.
type AsyncState struct {
	cfg  AsyncConfig
	n, d int

	clock     simtime.Clock
	lastRound []int       // most recent arrived round per agent, -1 = none
	lastGrad  [][]float64 // the gradient that arrived in lastRound
	gone      []bool      // agent permanently removed (nil slot seen)

	input      [][]float64 // reused filter-input slice, agent-index order
	weightRows [][]float64 // per-agent arena for staleness-weighted copies
	delays     []float64   // per-round scratch for close-time selection
	pool       [][]float64 // free payload buffers

	chaos      *chaos.Plan     // injected fault plan (AttachChaos), nil = none
	chaosStats ChaosRoundStats // fault tally of the most recent Round
	omitNext   []bool          // one-round external omissions (OmitNext)
	omitUsed   bool            // whether any omitNext mark is pending
}

// NewAsyncState builds the overlay state for a run of n agents reporting
// d-dimensional gradients.
func NewAsyncState(cfg AsyncConfig, n, d int) (*AsyncState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrConfig)
	}
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("async state needs n > 0 and d > 0, got n=%d d=%d: %w", n, d, ErrConfig)
	}
	s := &AsyncState{
		cfg:       cfg,
		n:         n,
		d:         d,
		lastRound: make([]int, n),
		lastGrad:  make([][]float64, n),
		gone:      make([]bool, n),
		input:     make([][]float64, 0, n),
		delays:    make([]float64, 0, n),
	}
	for i := range s.lastRound {
		s.lastRound[i] = -1
	}
	if cfg.stale() == StaleWeighted {
		arena := make([]float64, n*d)
		s.weightRows = make([][]float64, n)
		for i := range s.weightRows {
			s.weightRows[i] = arena[i*d : (i+1)*d : (i+1)*d]
		}
	}
	return s, nil
}

func (s *AsyncState) getBuf() []float64 {
	if n := len(s.pool); n > 0 {
		b := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return b
	}
	return make([]float64, s.d)
}

func (s *AsyncState) putBuf(b []float64) {
	if b != nil {
		s.pool = append(s.pool, b)
	}
}

// apply banks an arrived event: the agent's latest-round gradient wins, and
// superseded buffers return to the pool.
func (s *AsyncState) apply(e simtime.Event) {
	i := e.Agent
	if s.gone[i] || e.Round <= s.lastRound[i] {
		s.putBuf(e.Payload)
		return
	}
	s.putBuf(s.lastGrad[i])
	s.lastGrad[i] = e.Payload
	s.lastRound[i] = e.Round
}

// buildInput assembles the round's filter input in agent-index order and
// tallies the stats. Fresh gradients (arrived this round) always enter;
// stale ones enter per the staleness policy and MaxStale bound.
func (s *AsyncState) buildInput(t int, stats *AsyncRoundStats) {
	s.input = s.input[:0]
	stats.Arrived, stats.Reused, stats.Dropped, stats.MaxStaleness = 0, 0, 0, 0
	stale := s.cfg.stale()
	for i := 0; i < s.n; i++ {
		if s.gone[i] {
			continue
		}
		if s.lastRound[i] == t {
			s.input = append(s.input, s.lastGrad[i])
			stats.Arrived++
			continue
		}
		if s.lastRound[i] < 0 {
			stats.Dropped++
			continue
		}
		age := t - s.lastRound[i]
		if stale == StaleDrop || (s.cfg.MaxStale > 0 && age > s.cfg.MaxStale) {
			stats.Dropped++
			continue
		}
		if age > stats.MaxStaleness {
			stats.MaxStaleness = age
		}
		if stale == StaleWeighted {
			w := 1 / (1 + float64(age))
			row := s.weightRows[i]
			for j, v := range s.lastGrad[i] {
				row[j] = w * v
			}
			s.input = append(s.input, row)
		} else {
			s.input = append(s.input, s.lastGrad[i])
		}
		stats.Reused++
	}
}

// Round runs one asynchronous collection round over the gradient values the
// substrate computed for round t: it schedules each live agent's report at
// a latency-model arrival time, closes the round per the collection policy,
// and returns the filter input (fresh and substituted-stale gradients in
// agent-index order), the effective fault parameter min(f, len(input)) — in
// the worst case every one of the f Byzantine agents rushes, so the bound
// cannot shrink further; whether a partial set is still admissible is the
// filter's own (m, f) check — and the round's stats.
//
// grads must have length n; a nil slot permanently removes that agent from
// the overlay (the cluster server's elimination). The returned slice and
// its rows are owned by the state and valid until the next Round call.
func (s *AsyncState) Round(t, f int, grads [][]float64) ([][]float64, int, AsyncRoundStats, error) {
	stats := AsyncRoundStats{Round: t}
	if len(grads) != s.n {
		return nil, 0, stats, fmt.Errorf("async round %d: got %d gradient slots, want %d: %w", t, len(grads), s.n, ErrConfig)
	}

	// Schedule this round's arrivals at start + per-agent delay; the values
	// are banked in pooled copies so substrate-owned rows may be reused.
	// With a chaos plan attached the delivery of each report passes through
	// the fault draws first: crashed agents leave permanently, omitted and
	// corrupted attempts retry up to the plan's budget (each retry costing
	// RetryDelay extra virtual time) and then drop for the round, delay
	// faults stretch the arrival, and duplicates schedule a second (pooled,
	// idempotently-banked) copy.
	start := s.clock.Now()
	s.delays = s.delays[:0]
	ch := s.chaos
	cs := ChaosRoundStats{Round: t}
	degradable := ch.Enabled() || s.omitUsed
	for i, g := range grads {
		if g == nil {
			if !s.gone[i] {
				s.gone[i] = true
				s.putBuf(s.lastGrad[i])
				s.lastGrad[i] = nil
				s.lastRound[i] = -1
			}
			continue
		}
		if s.gone[i] {
			continue
		}
		if len(g) != s.d {
			return nil, 0, stats, fmt.Errorf("async round %d: agent %d gradient dim %d, want %d: %w", t, i, len(g), s.d, ErrConfig)
		}
		if ch.Enabled() && ch.Crashed(t, i) {
			// Injected crash: the same permanent-removal path a nil slot
			// takes, so downstream semantics (fEff clamping, admissibility)
			// match an observed elimination exactly.
			s.gone[i] = true
			s.putBuf(s.lastGrad[i])
			s.lastGrad[i] = nil
			s.lastRound[i] = -1
			cs.Faults.Crashed++
			continue
		}
		attempt, lost := 0, false
		if s.omitNext != nil && s.omitNext[i] {
			// Externally-injected transient omission (a substrate degraded a
			// transport failure); no retry — the substrate already retried.
			lost = true
			cs.Faults.Omitted++
		} else if ch.Enabled() {
			for budget := ch.MaxAttempts(); ; {
				if ch.Omit(t, i, attempt) {
					cs.Faults.Omitted++
				} else if ch.Corrupt(t, i, attempt) {
					// CRC framing detects corruption at the receiver; the
					// delivery attempt is reclassified as an omission.
					cs.Faults.Corrupted++
				} else {
					break
				}
				if attempt++; attempt >= budget {
					lost = true
					break
				}
				cs.Faults.Retried++
			}
		}
		if lost {
			continue
		}
		delay := s.cfg.Latency.Sample(s.cfg.Seed, t, i)
		if attempt > 0 {
			delay += float64(attempt) * ch.RetryDelay
		}
		if ch.Enabled() {
			if ed := ch.ExtraDelay(t, i); ed > 0 {
				delay += ed
				cs.Faults.Delayed++
			}
		}
		buf := s.getBuf()
		copy(buf, g)
		if err := s.clock.Schedule(start+delay, i, t, buf); err != nil {
			return nil, 0, stats, fmt.Errorf("async round %d: %v: %w", t, err, ErrConfig)
		}
		s.delays = append(s.delays, delay)
		if ch.Enabled() && ch.Duplicate(t, i) {
			// A duplicate is the same message delivered twice, not a second
			// arrival: it gets its own pooled copy (banking recycles each
			// payload independently) but does not extend s.delays, so the
			// collection policies count the agent once.
			dup := s.getBuf()
			copy(dup, g)
			if err := s.clock.Schedule(start+delay, i, t, dup); err != nil {
				return nil, 0, stats, fmt.Errorf("async round %d: %v: %w", t, err, ErrConfig)
			}
			cs.Faults.Duplicated++
		}
	}
	if s.omitUsed {
		for i := range s.omitNext {
			s.omitNext[i] = false
		}
		s.omitUsed = false
	}
	if len(s.delays) == 0 {
		if !degradable {
			return nil, 0, stats, fmt.Errorf("async round %d: no live agents: %w", t, ErrConfig)
		}
		// Every live agent's report was lost this round — a gracefully lost
		// round rather than a dead run. Bank anything already in flight and
		// serve whatever the staleness policy allows; an empty input tells
		// the engine to skip the descent step.
		for {
			e, ok := s.clock.PopDue(start)
			if !ok {
				break
			}
			s.apply(e)
		}
		s.buildInput(t, &stats)
		stats.VirtualTime = s.clock.Now()
		cs.Faults.LostRounds++
		if s.cfg.stale() == StaleDrop {
			s.clock.DrainAll(s.putBuf)
		}
		s.chaosStats = cs
		fEff := f
		if fEff > len(s.input) {
			fEff = len(s.input)
		}
		return s.input, fEff, stats, nil
	}

	// Close time per policy, as an absolute virtual instant.
	var closeAt float64
	switch s.cfg.policy() {
	case CollectFirstK:
		sort.Float64s(s.delays)
		k := s.cfg.K
		if k > len(s.delays) {
			k = len(s.delays)
		}
		closeAt = start + s.delays[k-1]
	case CollectDeadline:
		closeAt = start + s.cfg.Deadline
	default: // wait-all: the slowest of this round's arrivals
		maxDelay := s.delays[0]
		for _, d := range s.delays[1:] {
			if d > maxDelay {
				maxDelay = d
			}
		}
		closeAt = start + maxDelay
	}

	// Bank everything due by the close — including stragglers from earlier
	// rounds still in flight — then assemble the input.
	for {
		e, ok := s.clock.PopDue(closeAt)
		if !ok {
			break
		}
		s.apply(e)
	}
	s.buildInput(t, &stats)

	// A deadline can close on nothing usable (everything stale and
	// dropped); extend it to the first fresh arrival — with live agents one
	// is always in flight — so the round has input, taking ties at the
	// extended instant too.
	if len(s.input) == 0 {
		for {
			e, ok := s.clock.PopDue(math.Inf(1))
			if !ok {
				return nil, 0, stats, fmt.Errorf("async round %d: no pending arrivals to extend to: %w", t, ErrConfig)
			}
			fresh := e.Round == t && !s.gone[e.Agent]
			closeAt = e.Time
			s.apply(e)
			if fresh {
				break
			}
		}
		for {
			at, ok := s.clock.PeekTime()
			if !ok || at > closeAt {
				break
			}
			e, _ := s.clock.PopDue(closeAt)
			s.apply(e)
		}
		s.buildInput(t, &stats)
	}

	s.clock.AdvanceTo(closeAt)
	stats.VirtualTime = s.clock.Now()

	// Under drop, a late gradient can never be used — clear the queue so
	// pending events don't accumulate across a long run.
	if s.cfg.stale() == StaleDrop {
		s.clock.DrainAll(s.putBuf)
	}

	s.chaosStats = cs
	fEff := f
	if fEff > len(s.input) {
		fEff = len(s.input)
	}
	return s.input, fEff, stats, nil
}
