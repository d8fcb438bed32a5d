package p2p

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"byzopt/internal/dgd"
	"byzopt/internal/vecmath"
)

// Run implements dgd.Backend, executing the decentralized simulation of cfg:
// each round every agent broadcasts its report via EIG, so all honest peers
// agree on the same n reported gradients, apply the same deterministic
// filter, and take the same projected step — reproducing the server-based
// algorithm without a server, exactly as Section 1.4 claims for f < n/3. The
// context is checked once per round, so cancellation or deadline expiry
// aborts the run within one round's duration with a wrapped ctx.Err().
//
// The substrate is only the gathering: a dgd.Collector computes the reports
// exactly as the in-process engine does — agents that are not dgd.Faulty
// first, then Faulty agents index-aware with the honest reports of the round,
// so omniscient behaviors see the complete honest set (the broadcast model's
// rushing adversary) — and the EIG exchange fixes what each peer decides
// every sender reported. A peer distorts relays when AgentDistorter finds a
// Distorter on its agent; both ways to attach one (an Equivocate behavior on
// a dgd.NewFaulty agent, or Equivocating) make the agent Faulty, so a peer
// lying in the broadcast layer is Byzantine in collection too.
//
// A round does only the work whose result the protocol leaves open. A sender
// that does not distort needs no exchange: with n > 3f and at most f
// distorting peers, both checked on entry, EIG's validity fixes what every
// honest peer decides for it — its own report. Only a distorting sender is
// broadcast, and the run fails unless every honest peer decided the same
// value for it. The honest peers then hold one agreed set, and each would
// step a kernel that is a deterministic function of the configuration, the
// seeds and that set (Definition 2 requires deterministic filters), so one
// dgd.Round kernel steps for all of them; it records and feeds the
// observers. Distorting peers take no protocol step and report from the
// honest consensus estimate — the strongest vantage point, matching the
// engine's shared-x semantics.
func (Backend) Run(ctx context.Context, cfg dgd.Config) (*dgd.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(cfg.Agents)
	if n == 0 {
		return nil, fmt.Errorf("no agents: %w", dgd.ErrConfig)
	}
	if cfg.F < 0 || n <= 3*cfg.F {
		return nil, fmt.Errorf("p2p backend needs n > 3f, got n=%d f=%d: %w", n, cfg.F, dgd.ErrInadmissible)
	}
	if cfg.Arena == nil {
		cfg.Arena = new(dgd.Arena)
	}
	// The liar table is the one table of Run's own the arena keeps, in its
	// Substrate slot, zeroed for each run and grown as dgd's own tables are.
	lent, ok := cfg.Arena.Substrate.(*[]Distorter)
	if !ok {
		lent = new([]Distorter)
		cfg.Arena.Substrate = lent
	}
	*lent = append((*lent)[:0], make([]Distorter, n)...)
	liars := *lent
	distorting := 0
	for i, a := range cfg.Agents {
		if a == nil {
			return nil, fmt.Errorf("nil agent %d: %w", i, dgd.ErrConfig)
		}
		if liars[i] = AgentDistorter(a); liars[i] != nil {
			distorting++
		}
	}
	if distorting > cfg.F {
		return nil, fmt.Errorf("%d distorting peers exceed budget f=%d: %w", distorting, cfg.F, ErrArgs)
	}
	if err := dgd.ValidateRound(cfg, n, ErrArgs); err != nil {
		return nil, err
	}
	r, err := dgd.NewRound(cfg, n)
	if err != nil {
		return nil, err
	}

	// Per-run state, reused every round: the collector, lent by the arena,
	// whose rows become the agreed set in place, and if a peer distorts the
	// EIG engine and an encoding buffer. The others' decisions are checked
	// against honest's, the first honest peer (n > 3f leaves one).
	honest := slices.Index(liars, nil)
	col := dgd.NewCollector(cfg.Agents, len(cfg.X0), cfg.Arena)
	var e *eig
	var payload []byte
	if distorting > 0 {
		e = newEIG(n, cfg.F)
	}

	for t := 0; t < cfg.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("run cancelled at round %d: %w", t, err)
		}
		if err := r.Record(t); err != nil {
			return nil, err
		}
		grads, err := col.Collect(t, r.X())
		if err != nil {
			return nil, err
		}
		// Each sender's row becomes what every honest peer agreed it sent.
		// The collector rewrites every row next round.
		for sender, g := range grads {
			if liars[sender] == nil {
				// What DecodeVectorInto reads back from g's encoding: g bit
				// for bit, or zero when a coordinate is not finite.
				if !vecmath.IsFinite(g) {
					clear(g)
				}
				continue
			}
			// Read in place: intern stores no sender's value, a Distorter keeps
			// no argument, and the clears below drop the rest before a rewrite.
			payload = vecmath.AppendLE(payload[:0], g)
			e.broadcast(sender, unsafe.String(unsafe.SliceData(payload), len(payload)), liars)
			id := e.decision(honest)
			for p, liar := range liars {
				if liar == nil && e.decision(p) != id {
					return nil, fmt.Errorf("p2p: honest estimates diverged at round %d — broadcast agreement violated", t)
				}
			}
			DecodeVectorInto(g, e.strs[id]) // payload holds the sent value
			clear(e.ids)
			clear(e.strs)
		}
		// All honest peers hold the identical set, so a failure is common and
		// reads exactly as the in-process engine's would.
		if err := r.Apply(t, cfg.F, grads); err != nil {
			return nil, err
		}
	}
	if err := r.Record(cfg.Rounds); err != nil {
		return nil, err
	}
	return &dgd.Result{X: r.X(), Rounds: cfg.Rounds, Trace: r.Trace()}, nil
}
