package aggregate

import (
	"fmt"

	"byzopt/internal/vecmath"
)

// centeredClipIters is the number of fixed-point iterations.
const centeredClipIters = 5

// CenteredClip is the centered-clipping aggregator of Karimireddy, He,
// Jaggi (2021) — reference [28] of the paper: starting from a center v
// (here the coordinate-wise median, an f-robust warm start), it repeats
//
//	v <- v + (1/n) sum_i clip(g_i - v, tau)
//
// where clip(x, tau) scales x down to norm tau, for centeredClipIters
// iterations. The radius tau is the median of the distances from the warm
// start, a scale the honest majority sets. Outliers can move the center by
// at most tau/n per iteration, bounding Byzantine influence without dropping
// any honest information.
type CenteredClip struct{}

var _ IntoFilter = CenteredClip{}

// Name implements Filter.
func (c CenteredClip) Name() string { return "centeredclip" }

// Aggregate implements Filter. It requires n > 2f (the warm start is the
// coordinate-wise median).
func (c CenteredClip) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(c, grads, f)
}

// AggregateInto implements IntoFilter.
func (c CenteredClip) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	return c.into(dst, grads, n, f, orFresh(s))
}

func (CenteredClip) into(dst []float64, grads [][]float64, n, f int, s *Scratch) error {
	if n <= 2*f {
		return fmt.Errorf("centered clipping needs n > 2f, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	// Warm start: the coordinate-wise median, computed straight into dst,
	// which then serves as the iterated center.
	center := dst
	if err := (CWMedian{}).into(center, grads, n, f, s); err != nil {
		return err
	}
	// Median distance from the warm-start center. Quickselect on the scratch
	// buffer replaces the full sort — the median is an order statistic
	// either way.
	s.norms = grow(s.norms, n)
	dists := s.norms
	for i, g := range grads {
		d, err := vecmath.Dist(g, center)
		if err != nil {
			return err
		}
		dists[i] = d
	}
	tau := medianInPlace(dists)
	if tau == 0 {
		return nil // all gradients coincide with the center
	}
	s.vecA = grow(s.vecA, len(dst))
	s.vecB = grow(s.vecB, len(dst))
	diff, update := s.vecA, s.vecB
	for it := 0; it < centeredClipIters; it++ {
		for i := range update {
			update[i] = 0
		}
		for _, g := range grads {
			if err := vecmath.SubInto(diff, g, center); err != nil {
				return err
			}
			if norm := vecmath.Norm(diff); norm > tau {
				vecmath.ScaleInPlace(tau/norm, diff)
			}
			if err := vecmath.AddInPlace(update, diff); err != nil {
				return err
			}
		}
		vecmath.ScaleInPlace(1/float64(n), update)
		if err := vecmath.AddInPlace(center, update); err != nil {
			return err
		}
	}
	return nil
}
