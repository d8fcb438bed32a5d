// Package chaos is the deterministic fault-injection layer: a Plan describes
// system faults — crash, omission, delay, duplication, payload corruption —
// as pure functions of (seed, round, agent, attempt) on simtime's
// counter-mode SplitMix64 streams, the same keying discipline the latency
// and sketch models use. No Plan holds state: whether a given message is
// dropped, duplicated, delayed, or corrupted is a hash of its coordinates,
// so a chaos scenario replays bit for bit on any machine, at any worker
// count, in any sampling order.
//
// The Plan deliberately models *system* faults, not Byzantine values: a
// faulty message here is lost or mangled in transit, never adversarially
// chosen. Byzantine behavior stays with the dgd Faulty producers and the
// aggregation filters; the chaos layer measures how gracefully those filters
// degrade when the substrate under them misbehaves too.
//
// Fault taxonomy (Liu et al., arXiv:2106.08545):
//
//   - crash: the agent stops responding from a designated round onward,
//     permanently. Equivalent to the cluster server's elimination, but
//     injected rather than observed.
//   - omission: one delivery attempt of one round's message is dropped.
//     Transient — the agent is back next round (or next attempt).
//   - delay: the message takes extra virtual time on top of its latency
//     draw, surfacing through the async collection policies.
//   - duplicate: the message is delivered twice; overlays must stay
//     idempotent.
//   - corrupt: the payload is bit-flipped in transit. CRC framing detects
//     this and the receiver reclassifies it as an omission — a corrupted
//     honest gradient must never reach a filter pretending to be honest
//     input.
//
// The zero Plan injects nothing and is the explicit no-chaos point: every
// consumer treats a disabled plan as bitwise-identical to running without
// the chaos layer at all.
package chaos

import (
	"fmt"
	"io"
	"math"
	"os"

	"byzopt/internal/simtime"
)

// Reserved stream indices keying each fault kind's draw family. simtime
// reserves -1 for the straggler designation; chaos continues the negative
// range so no stream ever collides with a real (round, agent) pair.
const (
	crashPickStream  = -2 // is this agent a crasher at all
	crashRoundStream = -3 // which round a crasher dies in
	omitStream       = -4 // per-attempt omission draws
	corruptStream    = -5 // per-attempt corruption draws
	dupStream        = -6 // per-message duplication draws
	delayStream      = -7 // per-message extra-delay draws
	corruptBitStream = -8 // which bit a corruption flips
)

// Plan is a deterministic fault-injection schedule: pure data, pure
// functions. The zero value injects no faults. Rates are per-draw
// probabilities in [0, 1]; every draw is keyed by the plan Seed, the fault
// kind's reserved stream, and the message's (round, agent, attempt)
// coordinates, so draws for different kinds, agents, and attempts are
// independent and order-free.
type Plan struct {
	// Seed keys every fault draw in the plan.
	Seed int64

	// CrashRate is the probability an agent is designated a crasher; a
	// crasher stops responding from its crash round onward, permanently.
	CrashRate float64
	// CrashWindow bounds the crash round: a crasher's death round is drawn
	// uniformly from [0, CrashWindow). Required positive when CrashRate > 0
	// (a sweep sets it to the run's round count).
	CrashWindow int

	// OmitRate is the per-attempt probability a delivery is dropped.
	OmitRate float64
	// CorruptRate is the per-attempt probability a delivery is corrupted in
	// transit; detected corruption is reclassified as omission by receivers.
	CorruptRate float64
	// DupRate is the per-message probability the delivered message arrives a
	// second time.
	DupRate float64
	// DelayRate is the per-message probability the delivery is slowed by
	// Delay extra virtual time.
	DelayRate float64
	// Delay is the extra virtual time a delayed message takes; must be
	// positive when DelayRate > 0.
	Delay float64

	// Attempts is the delivery-attempt budget per (round, agent) message:
	// after a dropped (omitted or corrupted) attempt the sender retries, up
	// to Attempts total tries, each retry costing RetryDelay extra virtual
	// time. 0 means 1 — no retry.
	Attempts int
	// RetryDelay is the virtual-time backoff added per retry attempt.
	RetryDelay float64
}

// Enabled reports whether the plan can inject any fault at all. A disabled
// plan is the explicit no-chaos point: consumers must behave bitwise
// identically to running without the plan.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.CrashRate > 0 || p.OmitRate > 0 || p.CorruptRate > 0 ||
		p.DupRate > 0 || p.DelayRate > 0
}

// attempts is the effective delivery budget.
func (p *Plan) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// MaxAttempts is the effective per-message delivery budget (at least 1).
func (p *Plan) MaxAttempts() int { return p.attempts() }

// Validate checks the plan's parameters.
func (p *Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"crash rate", p.CrashRate},
		{"omit rate", p.OmitRate},
		{"corrupt rate", p.CorruptRate},
		{"duplicate rate", p.DupRate},
		{"delay rate", p.DelayRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both
			return fmt.Errorf("chaos: %s %v must be in [0, 1]", r.name, r.v)
		}
	}
	for _, d := range []struct {
		name string
		v    float64
	}{
		{"delay", p.Delay},
		{"retry delay", p.RetryDelay},
	} {
		if math.IsNaN(d.v) || math.IsInf(d.v, 0) {
			return fmt.Errorf("chaos: %s %v must be finite", d.name, d.v)
		}
	}
	if p.CrashRate > 0 && p.CrashWindow <= 0 {
		return fmt.Errorf("chaos: crash rate %v needs a positive crash window, got %d", p.CrashRate, p.CrashWindow)
	}
	if p.DelayRate > 0 && !(p.Delay > 0) {
		return fmt.Errorf("chaos: delay rate %v needs a positive delay, got %v", p.DelayRate, p.Delay)
	}
	if p.Attempts < 0 {
		return fmt.Errorf("chaos: negative attempt budget %d", p.Attempts)
	}
	if p.RetryDelay < 0 {
		return fmt.Errorf("chaos: negative retry delay %v", p.RetryDelay)
	}
	return nil
}

// stream derives the per-agent sub-seed for one fault kind, so the draws of
// different kinds and agents come from disjoint counter families.
func (p *Plan) stream(kind, agent int) int64 {
	return int64(simtime.Mix(p.Seed, kind, agent))
}

// CrashRound returns the round the agent stops responding from, or -1 if
// this plan never crashes the agent. The designation and the round are per
// agent, not per round — a crasher is dead for the rest of the run.
func (p *Plan) CrashRound(agent int) int {
	if p == nil || p.CrashRate <= 0 {
		return -1
	}
	if simtime.U01(p.Seed, crashPickStream, agent) >= p.CrashRate {
		return -1
	}
	return int(simtime.U01(p.Seed, crashRoundStream, agent) * float64(p.CrashWindow))
}

// Crashed reports whether the agent has crashed by round t.
func (p *Plan) Crashed(t, agent int) bool {
	r := p.CrashRound(agent)
	return r >= 0 && t >= r
}

// Omit reports whether delivery attempt a of the agent's round-t message is
// dropped by an omission fault.
func (p *Plan) Omit(t, agent, attempt int) bool {
	if p == nil || p.OmitRate <= 0 {
		return false
	}
	return simtime.U01(p.stream(omitStream, agent), t, attempt) < p.OmitRate
}

// Corrupt reports whether delivery attempt a of the agent's round-t message
// is corrupted in transit. Receivers with CRC framing detect this and treat
// the delivery as omitted.
func (p *Plan) Corrupt(t, agent, attempt int) bool {
	if p == nil || p.CorruptRate <= 0 {
		return false
	}
	return simtime.U01(p.stream(corruptStream, agent), t, attempt) < p.CorruptRate
}

// Duplicate reports whether the agent's round-t message is delivered twice.
func (p *Plan) Duplicate(t, agent int) bool {
	if p == nil || p.DupRate <= 0 {
		return false
	}
	return simtime.U01(p.stream(dupStream, agent), t, 0) < p.DupRate
}

// ExtraDelay returns the extra virtual time the agent's round-t message
// takes: Delay when the delay fault fires, 0 otherwise.
func (p *Plan) ExtraDelay(t, agent int) float64 {
	if p == nil || p.DelayRate <= 0 {
		return 0
	}
	if simtime.U01(p.stream(delayStream, agent), t, 0) < p.DelayRate {
		return p.Delay
	}
	return 0
}

// CorruptFrame flips one deterministic bit of a wire frame in place,
// simulating transit corruption for a (round, agent) message. The flipped
// position is a hash of the plan seed and the message coordinates, so the
// damage replays exactly. Empty frames are left alone.
func (p *Plan) CorruptFrame(b []byte, t, agent int) {
	if len(b) == 0 {
		return
	}
	h := simtime.Mix(p.stream(corruptBitStream, agent), t, 0)
	b[h%uint64(len(b))] ^= 1 << ((h >> 32) % 8)
}

// Counters tallies injected faults over a run. The zero value is ready.
type Counters struct {
	// Crashed counts agents that crashed (each agent at most once).
	Crashed int `json:"crashed,omitempty"`
	// Omitted counts delivery attempts dropped by omission faults.
	Omitted int `json:"omitted,omitempty"`
	// Corrupted counts delivery attempts dropped as detected corruption.
	Corrupted int `json:"corrupted,omitempty"`
	// Duplicated counts doubly-delivered messages.
	Duplicated int `json:"duplicated,omitempty"`
	// Delayed counts messages slowed by a delay fault.
	Delayed int `json:"delayed,omitempty"`
	// Retried counts redelivery attempts made after a dropped one.
	Retried int `json:"retried,omitempty"`
	// LostRounds counts rounds where every live agent's message was lost and
	// the round proceeded with no fresh input (gracefully skipped or served
	// entirely from stale gradients).
	LostRounds int `json:"lost_rounds,omitempty"`
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Crashed += other.Crashed
	c.Omitted += other.Omitted
	c.Corrupted += other.Corrupted
	c.Duplicated += other.Duplicated
	c.Delayed += other.Delayed
	c.Retried += other.Retried
	c.LostRounds += other.LostRounds
}

// IsZero reports whether no fault was recorded.
func (c Counters) IsZero() bool { return c == Counters{} }

// --- torn-write injection for durability tests ---

// TornWriter is an io.Writer that silently stops persisting after Limit
// bytes, modeling a process killed mid-write: the prefix lands, the tail is
// lost, and the writer keeps reporting success the way a crashed process's
// page cache would have. Used by checkpoint-recovery tests.
type TornWriter struct {
	W       io.Writer
	Limit   int
	written int
}

// Write forwards at most Limit total bytes to the underlying writer and
// silently swallows the rest, always reporting full success.
func (t *TornWriter) Write(p []byte) (int, error) {
	remain := t.Limit - t.written
	if remain <= 0 {
		return len(p), nil
	}
	head := p
	if len(head) > remain {
		head = head[:remain]
	}
	n, err := t.W.Write(head)
	t.written += n
	if err != nil {
		return n, err
	}
	return len(p), nil
}

// TearFile truncates a file to keep bytes, injecting a torn write after the
// fact: the tool for tests that need a checkpoint log or snapshot to end
// mid-record exactly as a crash mid-flush would leave it.
func TearFile(path string, keep int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if keep < 0 || keep > info.Size() {
		return fmt.Errorf("chaos: tear %s at %d outside [0, %d]", path, keep, info.Size())
	}
	return os.Truncate(path, keep)
}
