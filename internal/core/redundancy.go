package core

import (
	"fmt"
	"math"

	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// SubsetMode selects which inner subsets the redundancy measurement ranges
// over.
type SubsetMode int

const (
	// ExactSize enumerates inner subsets with |Ŝ| = n-2f exactly, matching
	// Definition 3 verbatim.
	ExactSize SubsetMode = iota + 1
	// AtLeastSize enumerates n-2f <= |Ŝ| <= n-f, matching the measurement
	// procedure of Appendix J.2 (and the necessity proof of Theorem 1,
	// which considers n-2f <= |Ŝ| < n-f).
	AtLeastSize
)

// maxOuterTable caps the outer minimiser table at C(n, f)·d entries (1 GiB
// of float64), so an enumeration too large to finish is refused before it
// allocates.
const maxOuterTable = 1 << 27

// RedundancyReport is the result of measuring the (2f, ε)-redundancy of a
// problem instance.
type RedundancyReport struct {
	// Epsilon is the smallest ε for which (2f, ε)-redundancy holds: the
	// maximum over subset pairs of the distance between minimizers.
	Epsilon float64
	// WorstOuter and WorstInner identify the (S, Ŝ) pair attaining Epsilon.
	WorstOuter, WorstInner []int
	// Pairs is the number of (S, Ŝ) pairs examined.
	Pairs int
}

// Measurement is what one enumeration of an instance's subsets yields.
type Measurement struct {
	// Redundancy is ε of Definition 3 and the pair attaining it.
	Redundancy RedundancyReport
	// Exhaustive is the output of the Theorem-2 algorithm; nil at f = 0.
	Exhaustive *ExhaustiveResult
	// Curvature is the smallest eigenvalue of an outer aggregate's Hessian
	// term, min over |S| = n-f of λ_min(Σ_{i∈S} H_i): γ of Assumption 3
	// times |S|, in the instance's scale of H_i.
	Curvature float64
	// failed is the first subset whose aggregate has no unique minimiser.
	failed error
}

// Measure runs the one enumeration behind ε, the exhaustive algorithm and γ.
// Subsets are named by the agents they remove: an outer S = V^c removes
// |V| = f, an inner Ŝ = U^c removes f <= |U| <= 2f (|U| = 2f only in
// ExactSize mode), and (S, Ŝ) is a pair when V ⊂ U.
//
//  1. Solve the C(n, f) outer minimisers x_V once, into a table indexed by
//     the combinatorial rank of V, taking λ_min of each outer Hessian on the
//     way.
//  2. Visit each U once, solve x_U, and score it against its C(|U|, f)
//     outers: the pair distance feeds ε, and at |U| = 2f the exhaustive
//     score r_S of equation (11), the largest distance from x_S to an inner
//     minimiser.
//
// The pairs are those of Appendix J.2 and the proof of Theorem 2, in
// another order; the reported worst pair and exhaustive winner are the ones
// the pair-by-pair enumeration in ForEachSubset order finds first. The
// problems this package works with have unique subset minimizers, so the
// Hausdorff distance of Definition 3 reduces to the point distance. It
// requires 0 <= f < n/2 (Lemma 1) and fails when any subset's aggregate has
// no unique minimiser.
func Measure(p *Problem, f int, mode SubsetMode) (*Measurement, error) {
	m, err := measure(p, f, mode)
	if err != nil {
		return nil, err
	}
	if m.failed != nil {
		return nil, m.failed
	}
	return m, nil
}

// MeasureRedundancy computes the tight redundancy parameter
//
//	ε = max_{|S| = n-f} max_{Ŝ ⊆ S} dist(argmin Q_S, argmin Q_Ŝ)
//
// following Appendix J.2: the Redundancy part of Measure.
func MeasureRedundancy(p *Problem, f int, mode SubsetMode) (*RedundancyReport, error) {
	m, err := Measure(p, f, mode)
	if err != nil {
		return nil, err
	}
	return &m.Redundancy, nil
}

// enumeration is the state of one measure call.
type enumeration struct {
	p      *Problem
	f      int
	choose [][]int   // choose[j][v] = C(v, j+1): the colex rank terms
	xs     []float64 // x_V at rank(V)·d
	solved []bool    // whether x_V exists
	score  []float64 // r_S² at rank(V)
	best   float64   // ε²
	bestV  []int     // removed sets of the worst pair
	bestU  []int
	m      Measurement
}

func measure(p *Problem, f int, mode SubsetMode) (*Measurement, error) {
	if p == nil {
		return nil, fmt.Errorf("nil problem: %w", ErrArgs)
	}
	n, d := p.n, p.d
	if f < 0 || 2*f >= n {
		return nil, fmt.Errorf("need 0 <= f < n/2, got n=%d f=%d: %w", n, f, ErrArgs)
	}
	if mode != ExactSize && mode != AtLeastSize {
		return nil, fmt.Errorf("unknown subset mode %d: %w", mode, ErrArgs)
	}
	outers, err := Binomial(n, f)
	if err != nil {
		return nil, err
	}
	if outers > maxOuterTable/int64(d) {
		return nil, fmt.Errorf("C(%d, %d) = %d outer minimisers of dimension %d exceed %d table entries: %w",
			n, f, outers, d, maxOuterTable, ErrArgs)
	}
	e := &enumeration{
		p:      p,
		f:      f,
		choose: colexTable(n, f),
		xs:     make([]float64, int(outers)*d),
		solved: make([]bool, outers),
		score:  make([]float64, outers),
		m:      Measurement{Curvature: math.Inf(1)},
	}
	err = p.forEachDowndate(f, func(v []int, a, x []float64) error {
		h, err := matrix.New(d, d, a)
		if err != nil {
			return err
		}
		lo, _, err := matrix.EigenBounds(h)
		if err != nil {
			return err
		}
		e.m.Curvature = math.Min(e.m.Curvature, lo)
		if err := p.solve(a, x); err != nil {
			e.fail("outer", v, err)
			return nil
		}
		r := e.rank(v)
		copy(e.xs[r*d:], x)
		e.solved[r] = true
		return nil
	})
	if err != nil {
		return nil, err
	}

	lo := 2 * f
	if mode == AtLeastSize {
		// |U| = f pairs each outer with itself, at distance 0.
		e.m.Redundancy.Pairs = int(outers)
		lo = f + 1
	}
	for k := lo; k <= 2*f; k++ {
		if err := e.scoreInners(k); err != nil {
			return nil, err
		}
	}
	if e.best > 0 {
		e.m.Redundancy.Epsilon = math.Sqrt(e.best)
		e.m.Redundancy.WorstOuter = complement(n, e.bestV)
		e.m.Redundancy.WorstInner = complement(n, e.bestU)
	}
	if f > 0 {
		e.exhaustive()
	}
	return &e.m, nil
}

// scoreInners solves every inner that removes k agents and scores it
// against the outers that remove f of them.
func (e *enumeration) scoreInners(k int) error {
	d, f := e.p.d, e.f
	var within [][]int // positions in U of each V ⊂ U
	if err := ForEachSubset(k, f, func(pos []int) error {
		within = append(within, append([]int(nil), pos...))
		return nil
	}); err != nil {
		return err
	}
	v := make([]int, f)
	return e.p.forEachDowndate(k, func(u []int, a, x []float64) error {
		failed := e.p.solve(a, x)
		if failed != nil {
			e.fail("inner", u, failed)
		}
		for _, pos := range within {
			for j, q := range pos {
				v[j] = u[q]
			}
			r := e.rank(v)
			switch {
			case failed != nil:
				// A degenerate inner aggregate is at unbounded distance,
				// so its outers cannot win the exhaustive algorithm.
				if k == 2*f {
					e.score[r] = math.Inf(1)
				}
				continue
			case !e.solved[r]:
				continue
			}
			dist := sqDist(e.xs[r*d:(r+1)*d], x)
			e.m.Redundancy.Pairs++
			if dist > e.best || dist == e.best && dist > 0 && pairBefore(v, u, e.bestV, e.bestU) {
				e.best = dist
				e.bestV = append(e.bestV[:0], v...)
				e.bestU = append(e.bestU[:0], u...)
			}
			if k == 2*f && dist > e.score[r] {
				e.score[r] = dist
			}
		}
		return nil
	})
}

// exhaustive picks the outer of least score (equation (12)). Removed sets in
// lexicographic order are outers in reverse ForEachSubset order, so the last
// minimum is the first outer attaining it. An outer whose aggregate, or one
// of whose inners', has no minimiser cannot win: a Byzantine agent can make
// some aggregates degenerate, and the honest-only outers minimise fine under
// Assumption 1.
func (e *enumeration) exhaustive() {
	n, d, f := e.p.n, e.p.d, e.f
	win, winScore := -1, math.Inf(1)
	var winV []int
	_ = ForEachSubset(n, f, func(v []int) error {
		r := e.rank(v)
		if e.solved[r] && e.score[r] <= winScore && !math.IsInf(e.score[r], 1) {
			win, winScore = r, e.score[r]
			winV = append(winV[:0], v...)
		}
		return nil
	})
	if win < 0 {
		return
	}
	e.m.Exhaustive = &ExhaustiveResult{
		X:      vecmath.Clone(e.xs[win*d : (win+1)*d]),
		Subset: complement(n, winV),
		Score:  math.Sqrt(winScore),
	}
}

// fail records the first subset whose aggregate has no unique minimiser.
func (e *enumeration) fail(kind string, removed []int, err error) {
	if e.m.failed == nil {
		e.m.failed = fmt.Errorf("%s subset %v: %w", kind, complement(e.p.n, removed), err)
	}
}

// rank is the colexicographic rank of a removed set of f agents, an index
// in [0, C(n, f)).
func (e *enumeration) rank(v []int) int {
	r := 0
	for j, x := range v {
		r += e.choose[j][x]
	}
	return r
}

// colexTable returns choose[j][v] = C(v, j+1) for j < f and v < n.
func colexTable(n, f int) [][]int {
	t := make([][]int, f)
	for j := range t {
		t[j] = make([]int, n)
		for v := 1; v < n; v++ {
			below := 1 // C(v-1, j)
			if j > 0 {
				below = t[j-1][v-1]
			}
			t[j][v] = t[j][v-1] + below
		}
	}
	return t
}

// pairBefore reports whether the pair removing (v, u) precedes the pair
// removing (bv, bu) in pair-by-pair enumeration order: outers in
// ForEachSubset order, then inner sizes ascending (larger removed sets
// first), then inners in ForEachSubset order.
func pairBefore(v, u, bv, bu []int) bool {
	if c := complementOrder(v, bv); c != 0 {
		return c < 0
	}
	if len(u) != len(bu) {
		return len(u) > len(bu)
	}
	return complementOrder(u, bu) < 0
}

// complementOrder compares the complements of two sorted removed sets of
// one size in ForEachSubset's lexicographic order, -1 when a's comes first.
// At the first index where the sets differ the smaller element belongs to
// one set alone, and the complement of the other holds it: that complement
// is the smaller.
func complementOrder(a, b []int) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return 1
		case a[i] > b[i]:
			return -1
		}
	}
	return 0
}

// complement returns the agents of [0, n) outside the sorted set removed.
func complement(n int, removed []int) []int {
	out := make([]int, 0, n-len(removed))
	j := 0
	for i := 0; i < n; i++ {
		if j < len(removed) && removed[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}

// sqDist returns the squared Euclidean distance between a and b.
func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		t := v - b[i]
		s += t * t
	}
	return s
}

// HasExactRedundancy reports whether the instance satisfies 2f-redundancy
// (Definition 1), i.e. (2f, 0)-redundancy, within numerical tolerance tol.
func HasExactRedundancy(p *Problem, f int, tol float64) (bool, error) {
	rep, err := MeasureRedundancy(p, f, AtLeastSize)
	if err != nil {
		return false, err
	}
	return rep.Epsilon <= tol, nil
}

// ResilienceReport quantifies how well an output point approximates every
// (n-f)-subset aggregate minimizer: the left-hand side of Definition 2.
type ResilienceReport struct {
	// MaxDistance is max over subsets S, |S| = n-f, of dist(x, argmin Q_S).
	// The output is (f, ε)-resilient in this execution iff MaxDistance <= ε.
	MaxDistance float64
	// WorstSubset attains MaxDistance.
	WorstSubset []int
	// Subsets is the number of (n-f)-subsets examined.
	Subsets int
}

// MeasureResilience evaluates Definition 2 for a candidate output x against
// the honest problem instance: the maximum distance from x to the aggregate
// minimizer of any (n-f)-subset of the given honest agents.
//
// honest lists the indices of the non-faulty agents (strictly increasing);
// they must number at least n-f.
func MeasureResilience(p *Problem, f int, honest []int, x []float64) (*ResilienceReport, error) {
	if p == nil {
		return nil, fmt.Errorf("nil problem: %w", ErrArgs)
	}
	n := p.N()
	if f < 0 || 2*f >= n {
		return nil, fmt.Errorf("need 0 <= f < n/2, got n=%d f=%d: %w", n, f, ErrArgs)
	}
	if len(honest) < n-f {
		return nil, fmt.Errorf("%d honest agents, need at least n-f = %d: %w", len(honest), n-f, ErrArgs)
	}
	if len(x) != p.Dim() {
		return nil, fmt.Errorf("output dim %d, want %d: %w", len(x), p.Dim(), ErrArgs)
	}
	report := &ResilienceReport{}
	err := ForEachSubset(len(honest), n-f, func(pos []int) error {
		subset := make([]int, len(pos))
		for i, pi := range pos {
			subset[i] = honest[pi]
		}
		xs, err := p.MinimizeSubset(subset)
		if err != nil {
			return fmt.Errorf("subset %v: %w", subset, err)
		}
		d, err := vecmath.Dist(x, xs)
		if err != nil {
			return err
		}
		report.Subsets++
		if d > report.MaxDistance {
			report.MaxDistance = d
			report.WorstSubset = subset
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}
