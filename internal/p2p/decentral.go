package p2p

import (
	"context"
	"errors"
	"fmt"
	"runtime"

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
	byz := make(map[int]Distorter)
	agents := make([]dgd.Agent, n)
	for i, p := range peers {
		if p.Agent == nil {
			return nil, fmt.Errorf("peer %d has no agent: %w", i, ErrArgs)
		}
		agents[i] = p.Agent
		if p.Distorter != nil {
			byz[i] = p.Distorter
			if _, isFaulty := p.Agent.(dgd.Faulty); !isFaulty {
				agents[i] = zeroOnError{p.Agent}
			}
		}
	}
	if len(byz) > cfg.F {
		return nil, fmt.Errorf("%d distorting peers exceed budget f=%d: %w", len(byz), cfg.F, ErrArgs)
	}
	if err := dgd.ValidateRound(cfg, n, ErrArgs); err != nil {
		return nil, err
	}

	// One kernel per honest peer (n > 3f leaves at least one); ref is the
	// first, and the only one that records and feeds observers.
	rounds := make([]*dgd.Round, n)
	var ref *dgd.Round
	for p := range peers {
		if _, bad := byz[p]; bad {
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

	// Per-round buffers, allocated once and reused across the whole run: the
	// collector's gradient arena, the n×n agreed-broadcast table, and the
	// decode arena each peer reads its agreed gradients into.
	dim := len(cfg.X0)
	col := dgd.NewCollector(agents, dim, 1)
	agreed := make([][]string, n)
	for p := range agreed {
		agreed[p] = make([]string, n)
	}
	decodeArena := make([]float64, n*dim)
	decided := make([][]float64, n)
	for i := range decided {
		decided[i] = decodeArena[i*dim : (i+1)*dim : (i+1)*dim]
	}

	res := &Result{}
	for t := 0; t < cfg.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("run cancelled at round %d: %w", t, err)
		}
		// A scheduling point per round. The EIG exchange allocates some
		// 190 KB a round at n=7, and on one processor a concurrent mark
		// phase whose worker ran out of its time share ends only when the
		// worker is scheduled again; this loop never blocks, so that waited
		// for the runtime's 10 ms forced preemption while the heap ran 3 to
		// 15 MB past its goal, in some runs and not in others.
		runtime.Gosched()
		if err := ref.Record(t); err != nil {
			return nil, err
		}
		grads, err := col.Collect(t, ref.X())
		if err != nil {
			return nil, err
		}
		// Each peer broadcasts its report via EIG. agreed[p][sender] is peer
		// p's decided gradient string for the sender's broadcast.
		for sender := 0; sender < n; sender++ {
			decisions, err := Broadcast(n, cfg.F, sender, EncodeVector(grads[sender]), byz)
			if err != nil {
				return nil, fmt.Errorf("broadcast from %d at round %d: %w", sender, t, err)
			}
			for p := 0; p < n; p++ {
				agreed[p][sender] = decisions[p]
			}
		}
		// Every honest peer steps its kernel over its agreed set. All hold
		// the identical set, so a failure is common and reads exactly as the
		// in-process engine's would.
		for p, r := range rounds {
			if r == nil {
				continue // distorting peers take no protocol step
			}
			for sender := 0; sender < n; sender++ {
				DecodeVectorInto(decided[sender], agreed[p][sender])
			}
			if err := r.Apply(t, cfg.F, decided); err != nil {
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
