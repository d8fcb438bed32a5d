package p2p

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"byzopt/internal/aggregate"
	"byzopt/internal/chaos"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/vecmath"
)

// Peer is one participant in the decentralized run.
type Peer struct {
	// Agent produces the gradient the peer injects into its own broadcast.
	// Honest peers hand a truthful agent; Byzantine peers hand any
	// dgd.Agent, and agents implementing dgd.Faulty are collected
	// index-aware after the honest phase, observing the honest reports of
	// the round — the same omniscient-adversary contract the in-process
	// engine serves.
	Agent dgd.Agent
	// Distorter, when non-nil, marks the peer Byzantine in the broadcast
	// layer as well: it may equivocate while relaying others' gradients.
	Distorter Distorter
}

// Config describes a decentralized DGD run.
type Config struct {
	// Peers are the n participants.
	Peers []Peer
	// F is the Byzantine budget; the broadcast layer requires n > 3f.
	F int
	// Filter is applied locally by every honest peer.
	Filter aggregate.Filter
	// Steps is the step-size schedule; nil means dgd.DefaultSteps().
	Steps dgd.StepSchedule
	// Box is the constraint set W; nil disables projection.
	Box *vecmath.Box
	// X0 is the shared initial estimate.
	X0 []float64
	// Rounds is the number of iterations.
	Rounds int
	// TrackLoss and Reference mirror dgd.Config, evaluated on the honest
	// peers' common estimate.
	TrackLoss costfunc.Function
	Reference []float64
	// Observer, when non-nil, observes every honest-consensus estimate x_t
	// for t = 0..Rounds with the tracked loss and distance values, exactly
	// as dgd.Config.Observer does on the other substrates (the shared
	// dgd.RecordRound path feeds it).
	Observer dgd.RoundObserver
	// Async mirrors dgd.Config.Async: a non-nil value layers the
	// virtual-time asynchronous collection model over every honest peer's
	// local aggregation. Each honest peer runs its own overlay instance
	// over its agreed gradient set; the overlays share the configuration
	// and seed, so they draw identical arrival times and the honest
	// estimates stay in agreement. Zero-latency wait-all is bitwise
	// identical to a nil Async.
	Async *dgd.AsyncConfig
	// Chaos mirrors dgd.Config.Chaos: an enabled plan injects deterministic
	// system faults into every honest peer's local collection. All peers
	// share the plan and seed, so they inject identical faults and the
	// agreement invariant survives — a crashed peer disappears from every
	// overlay at once. A chaos-only run gets the default zero-latency
	// wait-all overlay per peer.
	Chaos *chaos.Plan
}

// Result is the outcome of a decentralized run.
type Result struct {
	// X is the honest peers' common final estimate.
	X []float64
	// Trace holds the recorded series.
	Trace dgd.Trace
	// MaxEstimateSpread is the largest distance observed between any two
	// honest peers' estimates across the whole run; the broadcast layer
	// guarantees it is exactly zero.
	MaxEstimateSpread float64
	// Degraded reports that the run rode out at least one injected system
	// fault instead of failing.
	Degraded bool
	// Faults tallies the chaos plan's injections, counted once at the
	// reference honest peer (every peer injects the identical faults).
	Faults chaos.Counters
}

// kernel projects the configuration onto the round kernel's.
func (cfg Config) kernel() dgd.Config {
	return dgd.Config{
		F: cfg.F, Filter: cfg.Filter, Steps: cfg.Steps, Box: cfg.Box, X0: cfg.X0, Rounds: cfg.Rounds,
		TrackLoss: cfg.TrackLoss, Reference: cfg.Reference, Observer: cfg.Observer,
		Async: cfg.Async, Chaos: cfg.Chaos,
	}
}

// Run executes the decentralized simulation without cancellation, as
// RunContext with a background context.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the decentralized simulation: each round every peer
// broadcasts its gradient via EIG, so all honest peers agree on the same
// n reported gradients, apply the same deterministic filter, and take the
// same projected step — reproducing the server-based algorithm without a
// server, exactly as Section 1.4 claims for f < n/3. The context is checked
// once per round, so cancellation or deadline expiry aborts the run within
// one round's duration with a wrapped ctx.Err().
//
// The substrate is only the gathering: a dgd.Collector computes the reports
// exactly as the in-process engine does — peers whose agents are not
// dgd.Faulty first, then Faulty agents index-aware with the honest reports
// of the round, so omniscient behaviors see the complete honest set (the
// broadcast model's rushing adversary) — and the EIG exchange fixes what
// each peer decides every sender reported. Every honest peer then runs its
// own dgd.Round kernel over its decided set; the kernels share the
// configuration and seeds, so overlays draw identical arrivals and faults
// and the estimates stay in agreement, which the run verifies as it goes.
// Recording, observers, and the fault tally hang off the first honest peer
// only. Byzantine peers that equivocate in the broadcast layer (non-nil
// Distorter) take no protocol step and report from the honest consensus
// estimate — the strongest vantage point, matching the engine's shared-x
// semantics.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return run(ctx, cfg.Peers, cfg.kernel())
}

func run(ctx context.Context, peers []Peer, cfg dgd.Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(peers)
	if n == 0 {
		return nil, fmt.Errorf("no peers: %w", ErrArgs)
	}
	if cfg.F < 0 || n <= 3*cfg.F {
		return nil, fmt.Errorf("decentralized DGD needs n > 3f, got n=%d f=%d: %w: %w",
			n, cfg.F, ErrArgs, dgd.ErrInadmissible)
	}
	liars := make([]Distorter, n)
	distorting := 0
	agents := make([]dgd.Agent, n)
	for i, p := range peers {
		if p.Agent == nil {
			return nil, fmt.Errorf("peer %d has no agent: %w", i, ErrArgs)
		}
		agents[i] = p.Agent
		if p.Distorter != nil {
			liars[i] = p.Distorter
			distorting++
			if _, isFaulty := p.Agent.(dgd.Faulty); !isFaulty {
				agents[i] = zeroOnError{p.Agent}
			}
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
	for p := range peers {
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
	col := dgd.NewCollector(agents, dim, 1)
	e := newEIG(n, cfg.F)
	var payload []byte
	decided := make([][][]float64, n)
	for p := range decided {
		decided[p] = make([][]float64, n)
	}
	var rows [][]float64 // decode arena, grown on demand
	var ids []int32      // the value ids decided in the current broadcast

	res := &Result{}
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
			if d > res.MaxEstimateSpread {
				res.MaxEstimateSpread = d
			}
		}
	}
	if err := ref.Record(cfg.Rounds); err != nil {
		return nil, err
	}
	res.X = ref.X()
	res.Trace = ref.Trace()
	res.Faults = ref.Faults()
	res.Degraded = !res.Faults.IsZero()
	if res.MaxEstimateSpread > 0 {
		return res, errors.New("p2p: honest estimates diverged — broadcast agreement violated")
	}
	return res, nil
}

// zeroOnError serves a distorting peer whose agent is not dgd.Faulty: its
// own report failure is its problem — it injects zeros — where an honest
// peer's failure fails the run.
type zeroOnError struct{ dgd.Agent }

func (z zeroOnError) Gradient(round int, x []float64) ([]float64, error) {
	g, err := z.Agent.Gradient(round, x)
	if err != nil {
		return vecmath.Zeros(len(x)), nil
	}
	return g, nil
}
