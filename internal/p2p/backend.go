package p2p

import (
	"fmt"

	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
)

// Backend executes dgd configurations over the fully decentralized
// substrate, and is the only way to run it: every agent becomes a peer on a
// complete network, each round every peer's report reaches the others by EIG
// Byzantine broadcast (simulated where a peer can lie about it, decided by
// validity where none can), and the honest peers apply the gradient filter
// to the agreed-upon report set — the Section-1.4 simulation of the
// server-based algorithm. It implements dgd.Backend, so sweep.Spec.Backend
// accepts it directly and scenario grids run unchanged on the peer-to-peer
// architecture. The zero value is ready to use.
//
// Mapping semantics:
//
//   - Agents marked dgd.Faulty are served index-aware with honest-set
//     visibility (the rushing adversary of the synchronous broadcast model),
//     so fault-free grids AND Byzantine grids whose peers do not equivocate
//     in the broadcast layer — omniscient behaviors included — reproduce the
//     in-process trajectory bit for bit.
//   - A Faulty agent whose behavior also implements the broadcast Distorter
//     contract (a Relay method; see byzantine.Equivocate) additionally
//     equivocates while relaying other peers' broadcasts — the one adversary
//     only this substrate can express. Any other Distorter (SeededLiar,
//     SplitLiar, one of your own, pure as the Distorter contract asks) is
//     attached with Equivocating. Either way the peer is Faulty, so it is
//     collected as Byzantine too.
//   - Honest peers must stay in agreement: a run in which two of them decide
//     different values for a sender fails at that round. The broadcast layer
//     guarantees it, so this never fires with at most f distorting peers.
//   - Configurations with n <= 3f are rejected with a wrapped
//     dgd.ErrInadmissible — the EIG admissibility bound — which the sweep
//     engine classifies as a skipped grid point rather than a sweep failure.
//   - A round is one broadcast per distorting sender on one engine reused for
//     the whole run, plus a decode per sender and one kernel step. A sender
//     that does not distort is decided by EIG's validity, so with no
//     distorting peer (any grid but an equivocating one) a round broadcasts
//     nothing and is its gradient evaluations and filter call. A distorting
//     sender's broadcast builds the part of the MessageCost(n, f) tree whose
//     value another distorting peer can still make differ between processes —
//     the nodes liars relay and their children — n recipients a node: the
//     sender's row alone when it is the only one, 7 of the 37 nodes at n=7,
//     f=2 when another peer distorts too. A warm round allocates nothing
//     on any grid beyond what its agents and its filter allocate.
type Backend struct{}

var _ dgd.Backend = Backend{}

// AgentDistorter returns the broadcast-layer distorter an agent carries, or
// nil for agents honest in the broadcast layer. Two channels surface one:
// an explicit BroadcastDistorter method (the Equivocating wrapper), or a
// dgd.Faulty wrapper whose Byzantine behavior implements the Distorter
// contract structurally (byzantine.Equivocate) — which is how the sweep
// engine's behavior axis reaches the broadcast layer without the dgd engine
// ever knowing broadcasts exist.
func AgentDistorter(a dgd.Agent) Distorter {
	if p, ok := a.(interface{ BroadcastDistorter() Distorter }); ok {
		return p.BroadcastDistorter()
	}
	if h, ok := a.(interface{ Behavior() byzantine.Behavior }); ok {
		if d, ok := h.Behavior().(Distorter); ok {
			return d
		}
	}
	return nil
}

// equivocating pairs a Byzantine agent with an explicit broadcast distorter.
type equivocating struct {
	inner dgd.Agent
	d     Distorter
}

var _ dgd.Faulty = (*equivocating)(nil)

// Equivocating wraps an agent so the p2p substrate also equivocates on its
// behalf while relaying other peers' broadcasts. The result is marked
// dgd.Faulty — a peer lying in the broadcast layer is Byzantine everywhere —
// delegating to the inner agent's own Faulty implementation when it has one
// and to its truthful gradient otherwise (the pure broadcast-layer
// adversary). Other backends ignore the distorter: they have no relay step.
func Equivocating(inner dgd.Agent, d Distorter) (dgd.Agent, error) {
	if inner == nil {
		return nil, fmt.Errorf("nil inner agent: %w", ErrArgs)
	}
	if d == nil {
		return nil, fmt.Errorf("nil distorter: %w", ErrArgs)
	}
	return &equivocating{inner: inner, d: d}, nil
}

// Gradient implements dgd.Agent.
func (e *equivocating) Gradient(round int, x []float64) ([]float64, error) {
	return e.inner.Gradient(round, x)
}

// FaultyGradient implements dgd.Faulty.
func (e *equivocating) FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error) {
	if fa, ok := e.inner.(dgd.Faulty); ok {
		return fa.FaultyGradient(round, agent, x, honest)
	}
	return e.inner.Gradient(round, x)
}

var _ dgd.IntoFaulty = (*equivocating)(nil)

// FaultyGradientInto implements dgd.IntoFaulty, passing the Into request
// through to the inner agent's own Into face when it has one so the wrapper
// never blocks the zero-allocation path.
func (e *equivocating) FaultyGradientInto(dst []float64, round, agent int, x []float64, honest [][]float64) error {
	if fa, ok := e.inner.(dgd.IntoFaulty); ok {
		return fa.FaultyGradientInto(dst, round, agent, x, honest)
	}
	if ia, ok := e.inner.(dgd.IntoAgent); ok {
		if _, faulty := e.inner.(dgd.Faulty); !faulty {
			return ia.GradientInto(dst, round, x)
		}
	}
	g, err := e.FaultyGradient(round, agent, x, honest)
	if err != nil {
		return err
	}
	if len(g) != len(dst) {
		return fmt.Errorf("inner agent returned dim %d, want %d: %w", len(g), len(dst), dgd.ErrConfig)
	}
	copy(dst, g)
	return nil
}

// BroadcastDistorter exposes the distorter to AgentDistorter.
func (e *equivocating) BroadcastDistorter() Distorter { return e.d }
