package aggregate

// The REDGRAF filter families — SDMMFD, R-SDMMFD, SDFD, and RVO — adapted
// from the REsilient Distributed GRadient-descent Algorithmic Framework
// (Kuwaranancharoen, Boomsma & Sundaram) to this repository's server-side
// gradient-filter interface. REDGRAF studies resilient consensus dynamics
// whose agents carry a main state and, for the two-stage families, an
// auxiliary state estimating the honest region; here the "states" being
// filtered are the n submitted gradients, and the auxiliary center is the
// server's cross-round estimate of the honest gradient cloud.
//
// Determinism contract: every stage is a deterministic function of the
// inputs and the (seed, round) pair. The stateful families keep their
// auxiliary center in the Scratch, content-keyed per (seed, round) exactly
// like the PR-8 SRHT plans, so an aggregation chain only ever continues its
// own trajectory: a Scratch recycled from a different scenario (different
// seed) or an interrupted run (round gap) misses the cache and the center
// re-initializes from the current gradients. Engines drive the chain by
// calling SetRound before each round's aggregation and the sweep engine
// hands each cell its per-scenario seed via ConfigureSeed — which is what
// makes sweeps byte-identical at any worker count and across substrates.

import (
	"fmt"

	"byzopt/internal/simtime"
	"byzopt/internal/vecmath"
)

// Auxiliary-state hash-stream domains, distinct from the sketch (-1) and
// pair-sampling (-2) domains and from each other so two stateful filters
// sharing a Scratch and a seed can never adopt each other's center.
const (
	sdmmfdKeyDomain = -3
	sdfdKeyDomain   = -4
)

// SeedConfigurable is implemented by filters whose cross-round auxiliary
// state is content-keyed by a scenario seed. The sweep engine calls
// ConfigureSeed with the per-scenario seed right after construction, the
// same way SketchConfigurable filters receive theirs; library callers that
// run several scenarios over one Scratch should do the same so the chains
// stay disjoint. Seed 0 is valid (the default for direct library use).
type SeedConfigurable interface {
	ConfigureSeed(seed int64)
}

// auxStep is the relaxation rate γ of the auxiliary-center update
// c' = c + γ·(x̄ - c), where x̄ is the round's filtered output.
const auxStep = 0.5

// AuxParams is what the stateful REDGRAF filters share: the (seed, round)
// keying of their auxiliary center and the round that advances it
// (auxCenterInto). Embedding it provides the RoundKeyed and SeedConfigurable
// faces: engines call SetRound before each round's aggregation; the sweep
// engine calls ConfigureSeed once per scenario.
type AuxParams struct {
	// Seed keys the auxiliary-state chain together with the round. Set it
	// via ConfigureSeed (the sweep engine does) when several scenarios may
	// share one Scratch.
	Seed int64

	round  int
	legacy *Scratch // allocating-face state; see aggregate
}

// SetRound implements RoundKeyed.
func (p *AuxParams) SetRound(t int) { p.round = t }

// ConfigureSeed implements SeedConfigurable.
func (p *AuxParams) ConfigureSeed(seed int64) { p.Seed = seed }

// aggregate is the allocating face of the stateful filter fl that embeds p.
// The auxiliary chain must advance identically through both API faces, so it
// keeps a private Scratch across calls instead of a throwaway one — stateless
// filters route through allocVia instead.
func (p *AuxParams) aggregate(fl IntoFilter, grads [][]float64, f int) ([]float64, error) {
	if len(grads) == 0 {
		return nil, fmt.Errorf("no gradients: %w", ErrInput)
	}
	if p.legacy == nil {
		p.legacy = new(Scratch)
	}
	out := make([]float64, len(grads[0]))
	if err := fl.AggregateInto(out, grads, f, p.legacy); err != nil {
		return nil, err
	}
	return out, nil
}

// auxCenterInto is one round of the two-stage dynamics SDMMFD and SDFD share,
// keyed in the hash domain of the filter: the auxiliary center, restored from
// s or initialised to the coordinate-wise median of grads; the distance stage
// keeping the n-f reports nearest it; the filter's second stage, which writes
// dst from the survivors; then the center relaxed toward dst by auxStep and
// committed under this round's key.
func (p *AuxParams) auxCenterInto(dst []float64, grads [][]float64, n, f, domain int, s *Scratch, stage func(keep []int) error) error {
	d := len(dst)
	aux, ok := s.redgrafAux(d, auxKey(p.Seed, p.round-1, d, domain))
	if p.round == 0 || !ok {
		cwMedianInto(aux, grads, n, s)
	}
	if err := stage(distanceKeep(grads, aux, n-f, s)); err != nil {
		return err
	}
	for j := range aux {
		aux[j] += auxStep * (dst[j] - aux[j])
	}
	s.commitRedgrafAux(auxKey(p.Seed, p.round, d, domain))
	return nil
}

// auxKey condenses (seed, round, d) and the filter's domain tag into the
// content key of an auxiliary-state fill, via the shared counter-mode hash.
func auxKey(seed int64, round, d, domain int) uint64 {
	return simtime.Mix(int64(simtime.Mix(seed, round, domain)), d, domain)
}

// --- shared stage kernels ---

// cwMedianInto fills center with the coordinate-wise median of grads —
// the auxiliary-center initialization of the stateful dynamics and the
// per-round center of the reduced (stateless) ones.
func cwMedianInto(center []float64, grads [][]float64, n int, s *Scratch) {
	s.col = grow(s.col, n)
	for k := range center {
		for i := 0; i < n; i++ {
			s.col[i] = grads[i][k]
		}
		center[k] = medianInPlace(s.col[:n])
	}
}

// distanceKeep is the distance-filtering stage: it selects the m gradients
// closest in squared Euclidean distance to center and returns their indices
// in ascending order. Ties at the cut are broken by index — the value at
// the cut is the m-th order statistic of the distances, so the survivor
// multiset matches a full sort's and the selection is deterministic.
func distanceKeep(grads [][]float64, center []float64, m int, s *Scratch) []int {
	n := len(grads)
	if m >= n {
		s.rgKeep = grow(s.rgKeep, n)
		for i := range s.rgKeep[:n] {
			s.rgKeep[i] = i
		}
		return s.rgKeep[:n]
	}
	s.scores = grow(s.scores, n)
	s.norms = grow(s.norms, n)
	for i, g := range grads {
		var sum float64
		for j, v := range g {
			dv := v - center[j]
			sum += dv * dv
		}
		s.scores[i] = sum
		s.norms[i] = sum
	}
	selectKth(s.norms[:n], m-1)
	thresh := s.norms[m-1]
	s.rgKeep = grow(s.rgKeep, m)
	keep := s.rgKeep[:0]
	for i := 0; i < n && len(keep) < m; i++ {
		if s.scores[i] < thresh {
			keep = append(keep, i)
		}
	}
	for i := 0; i < n && len(keep) < m; i++ {
		if s.scores[i] == thresh {
			keep = append(keep, i)
		}
	}
	return keep
}

// trimmedMeanRows is the mix-max filtering stage: the coordinate-wise
// f-trimmed mean over the selected rows, written into dst. Requires
// len(keep) > 2f (callers validate).
func trimmedMeanRows(dst []float64, grads [][]float64, keep []int, f int, s *Scratch) {
	m := len(keep)
	s.col = grow(s.col, m)
	col := s.col[:m]
	for k := range dst {
		for i, idx := range keep {
			col[i] = grads[idx][k]
		}
		trimMiddle(col, f, s)
		var sum float64
		for _, v := range col[f : m-f] {
			sum += v
		}
		dst[k] = sum / float64(m-2*f)
	}
}

// meanRowsInto writes the mean of the selected rows into dst using the
// Scratch's slice-header table.
func meanRowsInto(dst []float64, grads [][]float64, keep []int, s *Scratch) error {
	s.heads = grow(s.heads, len(keep))
	rows := s.heads[:len(keep)]
	for i, idx := range keep {
		rows[i] = grads[idx]
	}
	return vecmath.MeanInto(dst, rows)
}

// --- SDMMFD ---

// SDMMFD is REDGRAF's Simultaneous Distance-MixMax Filtering Dynamics: a
// two-stage filter that first removes the f gradients farthest from an
// auxiliary center (distance filtering), then takes the coordinate-wise
// f-trimmed mean of the n-f survivors (mix-max filtering). The auxiliary
// center is the cross-round state of the dynamics: it initializes to the
// coordinate-wise median of the first round's gradients and relaxes toward
// each round's filtered output by auxStep, anchoring the distance stage so
// Byzantine gradients cannot drag the acceptance region far between rounds.
// Requires n > 3f.
//
// SDMMFD is stateful: construct one per run (aggregate.New returns a fresh
// instance) and drive it with SetRound. Without SetRound every call is
// treated as round 0 and the filter degenerates to its stateless reduced
// form (see RSDMMFD).
type SDMMFD struct{ AuxParams }

var (
	_ IntoFilter       = (*SDMMFD)(nil)
	_ RoundKeyed       = (*SDMMFD)(nil)
	_ SeedConfigurable = (*SDMMFD)(nil)
)

// Name implements Filter.
func (*SDMMFD) Name() string { return "sdmmfd" }

// Aggregate implements Filter.
func (p *SDMMFD) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return p.aggregate(p, grads, f)
}

// AggregateInto implements IntoFilter.
func (p *SDMMFD) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	if n <= 3*f {
		return fmt.Errorf("SDMMFD needs n > 3f, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	s = orFresh(s)
	return p.auxCenterInto(dst, grads, n, f, sdmmfdKeyDomain, s, func(keep []int) error {
		trimmedMeanRows(dst, grads, keep, f, s)
		return nil
	})
}

// --- R-SDMMFD ---

// RSDMMFD is the reduced Simultaneous Distance-MixMax Filtering Dynamics:
// SDMMFD with the cross-round auxiliary state dropped. The distance stage
// centers on the coordinate-wise median of the current round's gradients,
// recomputed every call, so the filter is stateless (and trivially
// substrate- and worker-count-invariant); the mix-max stage is identical.
// Requires n > 3f.
type RSDMMFD struct{}

var _ IntoFilter = RSDMMFD{}

// Name implements Filter.
func (RSDMMFD) Name() string { return "r-sdmmfd" }

// Aggregate implements Filter.
func (r RSDMMFD) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(r, grads, f)
}

// AggregateInto implements IntoFilter.
func (r RSDMMFD) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	if n <= 3*f {
		return fmt.Errorf("R-SDMMFD needs n > 3f, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	s = orFresh(s)
	s.vecA = grow(s.vecA, len(dst))
	center := s.vecA[:len(dst)]
	cwMedianInto(center, grads, n, s)
	keep := distanceKeep(grads, center, n-f, s)
	trimmedMeanRows(dst, grads, keep, f, s)
	return nil
}

// --- SDFD ---

// SDFD is REDGRAF's Simultaneous Distance Filtering Dynamics: the distance
// stage of SDMMFD without the mix-max stage. Each round removes the f
// gradients farthest from the auxiliary center and averages the n-f
// survivors; the center carries across rounds exactly as in SDMMFD
// (initialize to the coordinate-wise median, relax toward the output by
// auxStep). Requires n > 2f. Stateful — see SDMMFD for the SetRound /
// ConfigureSeed contract.
type SDFD struct{ AuxParams }

var (
	_ IntoFilter       = (*SDFD)(nil)
	_ RoundKeyed       = (*SDFD)(nil)
	_ SeedConfigurable = (*SDFD)(nil)
)

// Name implements Filter.
func (*SDFD) Name() string { return "sdfd" }

// Aggregate implements Filter.
func (p *SDFD) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return p.aggregate(p, grads, f)
}

// AggregateInto implements IntoFilter.
func (p *SDFD) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	if n <= 2*f {
		return fmt.Errorf("SDFD needs n > 2f, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	s = orFresh(s)
	return p.auxCenterInto(dst, grads, n, f, sdfdKeyDomain, s, func(keep []int) error {
		return meanRowsInto(dst, grads, keep, s)
	})
}

// --- RVO ---

// RVO adapts REDGRAF's Resilient Vector Optimization dynamics (the
// centerpoint-based resilient vector consensus of Abbas, Tariq & Shabbir):
// the output must lie in the interior of the region any n-f subset of
// inputs can certify. This implementation uses the coordinate-wise safe
// box: per coordinate, drop the f smallest and f largest values and output
// the midpoint of the surviving range — a point of the box that every
// coordinate's honest-controlled interval contains. Requires n > 2f.
// Stateless and deterministic.
type RVO struct{}

var _ IntoFilter = RVO{}

// Name implements Filter.
func (RVO) Name() string { return "rvo" }

// Aggregate implements Filter.
func (r RVO) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(r, grads, f)
}

// AggregateInto implements IntoFilter.
func (r RVO) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	if n <= 2*f {
		return fmt.Errorf("RVO needs n > 2f, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	s = orFresh(s)
	s.col = grow(s.col, n)
	col := s.col[:n]
	for k := range dst {
		for i := 0; i < n; i++ {
			col[i] = grads[i][k]
		}
		// Two order statistics, no sorted window: the f-th smallest, then the
		// f-th largest among what selectKth left above it.
		selectKth(col, f)
		if hi := n - f - 1; hi > f {
			selectKth(col[f+1:], hi-f-1)
		}
		dst[k] = 0.5 * (col[f] + col[n-f-1])
	}
	return nil
}
