// Package simtime is the deterministic discrete-event virtual clock behind
// the repo's asynchronous round model: simulated time that advances only
// when the simulation says so, never with the wall clock, so a straggler
// scenario replays bit for bit on any machine at any speed.
//
// Three pieces compose:
//
//   - Clock is a discrete-event queue over virtual time. Events are
//     scheduled at absolute virtual times and popped in (time, insertion)
//     order — the insertion sequence breaks ties, so two events at the same
//     instant always pop in the order they were scheduled and the simulation
//     never depends on heap internals.
//
//   - Latency is a seeded per-agent message-delay model: fixed, uniform, or
//     heavy-tailed (Pareto) delays, plus a persistent-straggler designation
//     that slows a deterministic subset of agents by a constant factor.
//     Every draw is a pure function of (seed, round, agent) — a counter-mode
//     hash generator rather than a shared stream — so the delay an agent
//     experiences in a round does not depend on who was sampled before it,
//     which is what keeps parallel sweeps byte-identical to sequential ones.
//
//   - U01/Mix are the underlying hash primitives (SplitMix64 finalizers),
//     exported for models that need more draws on the same keying scheme.
//
// The dgd package builds its asynchronous collection overlay on these
// pieces; nothing here knows about gradients.
package simtime

import (
	"container/heap"
	"fmt"
	"math"
)

// --- deterministic counter-mode randomness ---

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix whose
// output over a counter sequence passes standard randomness batteries. It is
// the entire generator here — no state, so draws are order-independent.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes a seed with two indices (typically round and agent) into a
// uniform 64-bit value. Each index is diffused through its own SplitMix64
// pass before combining, so neighboring (round, agent) pairs land far apart.
// A caller drawing many values can hoist its steps, MixSeed, MixIndex, MixIn.
func Mix(seed int64, a, b int) uint64 {
	return MixIn(MixIn(MixSeed(seed), MixIndex(a)), MixIndex(b))
}

// MixSeed is Mix's first step: the seed's own SplitMix64 pass.
func MixSeed(seed int64) uint64 { return splitmix64(uint64(seed)) }

// MixIndex is an index's own SplitMix64 pass, before MixIn folds it in.
func MixIndex(a int) uint64 { return splitmix64(uint64(int64(a))) }

// MixIn folds a diffused index into the running hash h.
func MixIn(h, index uint64) uint64 { return splitmix64(h ^ index) }

// U01 maps Mix(seed, a, b) to a float64 uniform on [0, 1), using the top 53
// bits so every representable value is equally likely.
func U01(seed int64, a, b int) float64 {
	return float64(Mix(seed, a, b)>>11) / (1 << 53)
}

// --- the discrete-event clock ---

// Event is one scheduled occurrence: an opaque (Agent, Round) pair due at a
// virtual Time, optionally carrying a payload the scheduler attached.
type Event struct {
	// Time is the absolute virtual time the event is due.
	Time float64
	// Agent and Round identify the event to the scheduler; the clock only
	// stores them.
	Agent, Round int
	// Payload is scheduler-owned data riding along (the async overlay hangs
	// in-flight gradient values here).
	Payload []float64

	seq uint64 // insertion order, the deterministic tie-break
}

// eventHeap orders events by (Time, seq).
type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Clock is a discrete-event virtual clock: Now never moves backwards, and
// events pop in deterministic (time, insertion) order. The zero value is a
// clock at time 0 with an empty queue. Clock is not safe for concurrent use;
// every simulation owns its own.
type Clock struct {
	now    float64
	events eventHeap
	seq    uint64
}

// Now returns the current virtual time.
func (c *Clock) Now() float64 { return c.now }

// Schedule enqueues an event at absolute virtual time at. Scheduling in the
// past (before Now) is a programming error and is reported rather than
// silently reordered.
func (c *Clock) Schedule(at float64, agent, round int, payload []float64) error {
	if math.IsNaN(at) || at < c.now {
		return fmt.Errorf("simtime: schedule at %v before now %v", at, c.now)
	}
	c.seq++
	heap.Push(&c.events, Event{Time: at, Agent: agent, Round: round, Payload: payload, seq: c.seq})
	return nil
}

// PeekTime returns the due time of the earliest pending event.
func (c *Clock) PeekTime() (float64, bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].Time, true
}

// PopDue pops the earliest pending event if it is due at or before t,
// advancing Now to its time. The second return is false when nothing is due.
func (c *Clock) PopDue(t float64) (Event, bool) {
	if len(c.events) == 0 || c.events[0].Time > t {
		return Event{}, false
	}
	e := heap.Pop(&c.events).(Event)
	if e.Time > c.now {
		c.now = e.Time
	}
	return e, true
}

// AdvanceTo moves Now forward to t; moving backwards is a no-op, so callers
// can advance to a round boundary without tracking whether a pop already
// passed it.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// DrainAll pops and discards every pending event without advancing Now,
// returning the payloads so a pooling caller can recycle them. Used by
// overlays whose policy never reuses late arrivals.
func (c *Clock) DrainAll(recycle func(payload []float64)) {
	for len(c.events) > 0 {
		e := heap.Pop(&c.events).(Event)
		if recycle != nil && e.Payload != nil {
			recycle(e.Payload)
		}
	}
}

// --- latency models ---

// Latency model kinds.
const (
	// LatencyFixed is a constant delay: every message takes Base.
	LatencyFixed = "fixed"
	// LatencyUniform draws uniformly from [Base, Base+Spread].
	LatencyUniform = "uniform"
	// LatencyPareto draws from a Pareto distribution with scale Base and
	// shape Alpha (delay = Base / U^(1/Alpha)): the heavy-tailed model, with
	// occasional extreme stragglers for Alpha near 1.
	LatencyPareto = "pareto"
)

// Latency is a seeded per-agent message-delay model in virtual time units.
// The zero value is a fixed zero delay — the synchronous limit. A fraction
// StragglerRate of agents (chosen deterministically from the seed, not per
// round) are persistent stragglers whose every delay is multiplied by
// StragglerFactor, modeling a chronically slow node rather than transient
// jitter.
type Latency struct {
	// Kind selects the distribution: LatencyFixed (default), LatencyUniform,
	// or LatencyPareto.
	Kind string
	// Base is the fixed delay, the uniform minimum, or the Pareto scale.
	Base float64
	// Spread is the uniform range width (Kind LatencyUniform only).
	Spread float64
	// Alpha is the Pareto shape (Kind LatencyPareto only); smaller is
	// heavier-tailed, and values at or below 1 have infinite mean.
	Alpha float64
	// StragglerRate is the fraction of agents designated persistent
	// stragglers, in [0, 1].
	StragglerRate float64
	// StragglerFactor multiplies every delay of a designated straggler;
	// must be >= 1 when StragglerRate > 0.
	StragglerFactor float64
}

// Validate checks the model's parameters.
func (l Latency) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"base", l.Base},
		{"spread", l.Spread},
		{"shape", l.Alpha},
		{"straggler rate", l.StragglerRate},
		{"straggler factor", l.StragglerFactor},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("simtime: latency %s %v must be finite", p.name, p.v)
		}
	}
	switch l.kind() {
	case LatencyFixed:
		if l.Base < 0 {
			return fmt.Errorf("simtime: fixed latency %v must be >= 0", l.Base)
		}
	case LatencyUniform:
		if l.Base < 0 || l.Spread < 0 {
			return fmt.Errorf("simtime: uniform latency [%v, %v+%v] must be nonnegative", l.Base, l.Base, l.Spread)
		}
	case LatencyPareto:
		if l.Base <= 0 {
			return fmt.Errorf("simtime: pareto scale %v must be positive", l.Base)
		}
		if l.Alpha <= 0 {
			return fmt.Errorf("simtime: pareto shape %v must be positive", l.Alpha)
		}
	default:
		return fmt.Errorf("simtime: unknown latency kind %q", l.Kind)
	}
	if l.StragglerRate < 0 || l.StragglerRate > 1 {
		return fmt.Errorf("simtime: straggler rate %v must be in [0, 1]", l.StragglerRate)
	}
	if l.StragglerRate > 0 && l.StragglerFactor < 1 {
		return fmt.Errorf("simtime: straggler factor %v must be >= 1", l.StragglerFactor)
	}
	return nil
}

func (l Latency) kind() string {
	if l.Kind == "" {
		return LatencyFixed
	}
	return l.Kind
}

// stragglerStream is the reserved round index keying the per-agent
// straggler designation draws; real rounds are nonnegative, so the streams
// never collide.
const stragglerStream = -1

// IsStraggler reports whether the model designates the agent a persistent
// straggler under the given seed. The designation is per agent, not per
// round: a straggler is slow in every round of a run.
func (l Latency) IsStraggler(seed int64, agent int) bool {
	if l.StragglerRate <= 0 {
		return false
	}
	return U01(seed, stragglerStream, agent) < l.StragglerRate
}

// Sample returns the agent's message delay for the round: a pure function
// of (model, seed, round, agent), so draws are independent of sampling
// order and a scenario replays exactly from its seed.
func (l Latency) Sample(seed int64, round, agent int) float64 {
	var d float64
	switch l.kind() {
	case LatencyUniform:
		d = l.Base + U01(seed, round, agent)*l.Spread
	case LatencyPareto:
		// Inverse-CDF with U mapped away from 0; U01 lies in [0, 1), so
		// 1-U lies in (0, 1] and the draw is always finite.
		d = l.Base / math.Pow(1-U01(seed, round, agent), 1/l.Alpha)
	default: // fixed
		d = l.Base
	}
	if l.IsStraggler(seed, agent) {
		d *= l.StragglerFactor
	}
	return d
}
