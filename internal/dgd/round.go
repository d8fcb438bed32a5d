package dgd

import (
	"errors"
	"fmt"
	"math"

	"byzopt/internal/aggregate"
	"byzopt/internal/chaos"
	"byzopt/internal/vecmath"
)

// Round is the round kernel shared by every substrate: it owns everything
// that happens once a round's reports are in — the async/chaos overlay, the
// gradient filter, the projected step x_{t+1} = [x_t - η_t·dir]_W, the
// finite check — together with the per-round recording of x_t. A substrate
// is only how reports are gathered: the in-process engine loops over agents,
// the cluster server fans out over a transport, the p2p engine runs an EIG
// exchange; each then hands the reports to Apply. With an IntoFilter the
// kernel performs no heap allocation per round.
type Round struct {
	cfg    Config
	filter aggregate.IntoFilter
	keyed  aggregate.RoundKeyed

	x, dir  []float64
	input   [][]float64 // the present reports of an overlay-free round
	scratch aggregate.Scratch
	trace   Trace

	overlay   *AsyncState
	asyncObs  AsyncObserver
	chaosObs  ChaosObserver
	filterObs FilterObserver
	faults    chaos.Counters
}

// asInto adapts a filter without the Into face, so the kernel has a single
// aggregation call; the adapted filter still allocates its own output.
type asInto struct{ aggregate.Filter }

func (a asInto) AggregateInto(dst []float64, grads [][]float64, f int, _ *aggregate.Scratch) error {
	out, err := a.Aggregate(grads, f)
	if err != nil {
		return err
	}
	if len(out) != len(dst) {
		return fmt.Errorf("returned dim %d, want %d: %w", len(out), len(dst), ErrConfig)
	}
	copy(dst, out)
	return nil
}

// ValidateRound checks everything the kernel consumes from cfg — every field
// but Agents — for a run over n agents. Failures wrap sentinel,
// so each substrate reports its own package's configuration error from the
// one set of checks.
func ValidateRound(cfg Config, n int, sentinel error) error {
	if cfg.F < 0 || 2*cfg.F >= n {
		return fmt.Errorf("need 0 <= f < n/2, got n=%d f=%d: %w", n, cfg.F, sentinel)
	}
	if cfg.Filter == nil {
		return fmt.Errorf("nil filter: %w", sentinel)
	}
	if len(cfg.X0) == 0 {
		return fmt.Errorf("empty initial estimate: %w", sentinel)
	}
	if cfg.Rounds < 0 {
		return fmt.Errorf("negative rounds %d: %w", cfg.Rounds, sentinel)
	}
	if cfg.Box != nil && cfg.Box.Dim() != len(cfg.X0) {
		return fmt.Errorf("box dim %d vs x0 dim %d: %w", cfg.Box.Dim(), len(cfg.X0), sentinel)
	}
	if cfg.Reference != nil && len(cfg.Reference) != len(cfg.X0) {
		return fmt.Errorf("reference dim %d vs x0 dim %d: %w", len(cfg.Reference), len(cfg.X0), sentinel)
	}
	if cfg.TrackLoss != nil && cfg.TrackLoss.Dim() != len(cfg.X0) {
		return fmt.Errorf("loss dim %d vs x0 dim %d: %w", cfg.TrackLoss.Dim(), len(cfg.X0), sentinel)
	}
	if cfg.Async != nil {
		if err := cfg.Async.Validate(); err != nil {
			return fmt.Errorf("async: %v: %w", err, sentinel)
		}
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return fmt.Errorf("%v: %w", err, sentinel)
		}
	}
	return nil
}

// NewRound validates cfg for a run over n agents (ValidateRound, wrapping
// ErrConfig) and builds the kernel: the estimate starts at the projected X0,
// and the overlay is built once when cfg.Async is set or cfg.Chaos is
// enabled (a chaos-only run gets a zero-latency wait-all overlay, whose
// fault-free path is bitwise synchronous). A substrate may call OmitNext
// only on a kernel whose chaos plan is enabled.
func NewRound(cfg Config, n int) (*Round, error) {
	if err := ValidateRound(cfg, n, ErrConfig); err != nil {
		return nil, err
	}
	if cfg.Steps == nil {
		cfg.Steps = DefaultSteps()
	}
	d := len(cfg.X0)
	xdir := make([]float64, 2*d)
	copy(xdir, cfg.X0)
	r := &Round{
		cfg:   cfg,
		x:     xdir[:d:d],
		dir:   xdir[d:],
		input: make([][]float64, 0, n),
	}
	if cfg.Box != nil {
		if err := cfg.Box.ProjectInPlace(r.x); err != nil {
			return nil, fmt.Errorf("projecting x0: %w", err)
		}
	}
	var ok bool
	if r.filter, ok = cfg.Filter.(aggregate.IntoFilter); !ok {
		r.filter = asInto{cfg.Filter}
	}
	r.keyed, _ = cfg.Filter.(aggregate.RoundKeyed)
	r.filterObs, _ = cfg.Observer.(FilterObserver)
	if cfg.TrackLoss != nil {
		r.trace.Loss = make([]float64, 0, cfg.Rounds+1)
	}
	if cfg.Reference != nil {
		r.trace.Dist = make([]float64, 0, cfg.Rounds+1)
	}

	// The overlay selects which of the round's report values reach the
	// filter; the values themselves are the substrate's either way, which is
	// what keeps zero-latency wait-all bitwise synchronous.
	if chaosOn := cfg.Chaos.Enabled(); cfg.Async != nil || chaosOn {
		acfg := AsyncConfig{}
		if cfg.Async != nil {
			acfg = *cfg.Async
			r.asyncObs, _ = cfg.Observer.(AsyncObserver)
		}
		var err error
		if r.overlay, err = NewAsyncState(acfg, n, len(r.x)); err != nil {
			return nil, err
		}
		if chaosOn {
			if err := r.overlay.AttachChaos(cfg.Chaos); err != nil {
				return nil, err
			}
			r.chaosObs, _ = cfg.Observer.(ChaosObserver)
		}
	}
	return r, nil
}

// X returns the current estimate x_t. The kernel owns it: callers must not
// mutate it, and Apply updates it in place.
func (r *Round) X() []float64 { return r.x }

// Trace returns the loss and distance series recorded so far.
func (r *Round) Trace() Trace { return r.trace }

// Faults returns the system faults the overlay has absorbed so far: the
// chaos plan's injections and the substrate's OmitNext omissions.
func (r *Round) Faults() chaos.Counters { return r.faults }

// OmitNext marks agent i's report of the next Apply as lost in transit (see
// AsyncState.OmitNext). It needs a kernel with an enabled chaos plan.
func (r *Round) OmitNext(i int) { r.overlay.OmitNext(i) }

// Record evaluates the tracked loss and distance at x_t, appends them to the
// trace, and notifies the observer (NaN stands in for untracked values).
// Substrates call it before gathering round t's reports and once more after
// the final round.
func (r *Round) Record(t int) error {
	loss, dist := math.NaN(), math.NaN()
	if r.cfg.TrackLoss != nil {
		v, err := r.cfg.TrackLoss.Eval(r.x)
		if err != nil {
			return fmt.Errorf("loss at round %d: %w", t, err)
		}
		loss = v
		r.trace.Loss = append(r.trace.Loss, v)
	}
	if r.cfg.Reference != nil {
		d, err := vecmath.Dist(r.x, r.cfg.Reference)
		if err != nil {
			return fmt.Errorf("distance at round %d: %w", t, err)
		}
		dist = d
		r.trace.Dist = append(r.trace.Dist, d)
	}
	if r.cfg.Observer != nil {
		if err := r.cfg.Observer.ObserveRound(t, r.x, loss, dist); err != nil {
			return fmt.Errorf("observer at round %d: %w", t, err)
		}
	}
	return nil
}

// Apply takes round t's reports to x_{t+1}. reports has one row per agent in
// agent-index order; a nil row is an agent absent from the run (the cluster
// server's step-S1 elimination), and f is the fault budget that goes with
// the rows present. When the overlay leaves the filter no input — every live
// report lost to faults and nothing stale to reuse — the round is lost
// gracefully: the estimate coasts and Apply returns nil.
func (r *Round) Apply(t, f int, reports [][]float64) error {
	input := r.input[:0]
	if r.overlay != nil {
		var stats AsyncRoundStats
		var err error
		input, f, stats, err = r.overlay.Round(t, f, reports)
		if err != nil {
			return err
		}
		if r.asyncObs != nil {
			if err := r.asyncObs.ObserveAsyncRound(stats); err != nil {
				return fmt.Errorf("observer at round %d: %w", t, err)
			}
		}
		cs := r.overlay.ChaosStats()
		r.faults.Add(cs.Faults)
		if r.chaosObs != nil {
			if err := r.chaosObs.ObserveChaosRound(cs); err != nil {
				return fmt.Errorf("observer at round %d: %w", t, err)
			}
		}
	} else {
		for _, g := range reports {
			if g != nil {
				input = append(input, g)
			}
		}
	}
	if len(input) == 0 {
		return nil
	}
	if r.keyed != nil {
		// Round-keyed filters (the approximate Krum variants, the stateful
		// REDGRAF dynamics) draw per round; the kernel owns the clock.
		r.keyed.SetRound(t)
	}
	if err := r.filter.AggregateInto(r.dir, input, f, &r.scratch); err != nil {
		if errors.Is(err, aggregate.ErrNonFinite) {
			// A NaN/Inf report is the gradient-level face of divergence;
			// surface it as such so callers need one sentinel.
			return fmt.Errorf("filter %s at round %d: %v: %w", r.cfg.Filter.Name(), t, err, ErrDiverged)
		}
		return fmt.Errorf("filter %s at round %d: %w", r.cfg.Filter.Name(), t, err)
	}
	if r.filterObs != nil {
		if err := r.filterObs.ObserveFilter(t, f, input, r.dir); err != nil {
			return fmt.Errorf("observer at round %d: %w", t, err)
		}
	}
	eta := r.cfg.Steps.At(t)
	if eta <= 0 {
		return fmt.Errorf("step size %v at round %d must be positive: %w", eta, t, ErrConfig)
	}
	if err := vecmath.AxpyInPlace(r.x, -eta, r.dir); err != nil {
		return err
	}
	if r.cfg.Box != nil {
		if err := r.cfg.Box.ProjectInPlace(r.x); err != nil {
			return err
		}
	}
	if !vecmath.IsFinite(r.x) {
		return fmt.Errorf("at round %d: %w", t, ErrDiverged)
	}
	return nil
}
