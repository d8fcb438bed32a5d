package p2p

import (
	"context"
	"fmt"
	"runtime"
	"slices"

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
// lying in the broadcast layer is Byzantine in collection too. Every honest
// peer then runs its own dgd.Round kernel over its decided set; the kernels
// share the configuration and seeds, so overlays draw identical arrivals and
// faults and the estimates stay in agreement, which the run verifies every
// round. Recording and observers hang off the first honest peer only.
// Distorting peers take no protocol step and report from the honest
// consensus estimate — the strongest vantage point, matching the engine's
// shared-x semantics.
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
	liars := make([]Distorter, n)
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

	// One kernel per honest peer (n > 3f leaves at least one); ref is the
	// first, and the only one that records and feeds observers.
	rounds := make([]*dgd.Round, n)
	var ref *dgd.Round
	for p := range liars {
		if liars[p] != nil {
			continue
		}
		kcfg := cfg
		if ref != nil {
			kcfg.TrackLoss, kcfg.Reference, kcfg.Observer = nil, nil, nil
		}
		r, err := dgd.NewRound(kcfg, n, false)
		if err != nil {
			return nil, err
		}
		rounds[p] = r
		if ref == nil {
			ref = r
		}
	}

	// Per-run state, allocated once and reused every round: the collector's
	// gradient arena, the EIG engine, the report encoding buffer, and the
	// decoded payloads. decided[p][sender] is what peer p decided the sender
	// reported; peers that decided the same payload share one decoded row, so
	// a sender costs one decode a round while the honest peers agree.
	dim := len(cfg.X0)
	col := dgd.NewCollector(cfg.Agents, dim, 1)
	e := newEIG(n, cfg.F)
	var payload []byte
	decided := make([][][]float64, n)
	for p := range decided {
		decided[p] = make([][]float64, n)
	}
	var rows [][]float64 // decode arena, grown on demand
	var ids []int32      // the value ids decided in the current broadcast

	for t := 0; t < cfg.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("run cancelled at round %d: %w", t, err)
		}
		// A scheduling point per round: this loop never blocks, and on one
		// processor a concurrent mark phase ends only once its worker is
		// scheduled again. A round allocates 0.5 KB at n=7 (a GC cycle every
		// 8,000 rounds); without the yield 3 cycles in 80 end 1 MB past the
		// 4 MB goal and p2p_grid's peak RSS spreads 0.37 MB between quartiles
		// over ten 25 s runs, with it none do and the spread is 0.19 MB.
		runtime.Gosched()
		if err := ref.Record(t); err != nil {
			return nil, err
		}
		grads, err := col.Collect(t, ref.X())
		if err != nil {
			return nil, err
		}
		// Each peer broadcasts its report via EIG.
		used := 0
		for sender := 0; sender < n; sender++ {
			payload = appendVector(payload[:0], grads[sender])
			e.broadcast(sender, string(payload), liars)
			ids = ids[:0]
			for p, r := range rounds {
				if r == nil {
					continue
				}
				id := e.decision(p)
				i := slices.Index(ids, id)
				if i < 0 {
					i = len(ids)
					ids = append(ids, id)
					if used+i == len(rows) {
						rows = append(rows, make([]float64, dim))
					}
					DecodeVectorInto(rows[used+i], e.strs[id])
				}
				decided[p][sender] = rows[used+i]
			}
			used += len(ids)
		}
		// Every honest peer steps its kernel over its agreed set. All hold
		// the identical set, so a failure is common and reads exactly as the
		// in-process engine's would.
		for p, r := range rounds {
			if r == nil {
				continue // distorting peers take no protocol step
			}
			if err := r.Apply(t, cfg.F, decided[p]); err != nil {
				return nil, err
			}
			if r == ref {
				continue
			}
			// Verify the agreement invariant against the reference peer,
			// which has already taken this round's step.
			d, err := vecmath.Dist(r.X(), ref.X())
			if err != nil {
				return nil, err
			}
			if d > 0 {
				return nil, fmt.Errorf("p2p: honest estimates diverged at round %d — broadcast agreement violated", t)
			}
		}
	}
	if err := ref.Record(cfg.Rounds); err != nil {
		return nil, err
	}
	return &dgd.Result{X: ref.X(), Rounds: cfg.Rounds, Trace: ref.Trace()}, nil
}
