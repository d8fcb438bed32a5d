// Package aggregate implements gradient filters (the paper's "GradFilter"
// robust aggregation rules, Section 4): functions mapping the n gradients the
// server received — up to f of them Byzantine — to a single descent
// direction.
//
// The two filters the paper analyzes are CGE (comparative gradient
// elimination, eq. 23) and CWTM (coordinate-wise trimmed mean, eq. 24). The
// package also provides plain averaging (the non-robust baseline the paper
// plots as "plain GD") and the literature baselines the paper cites for
// comparison: coordinate-wise median, Krum, Multi-Krum, Bulyan, geometric
// median, geometric median-of-means, and centered clipping.
//
// Every filter implements both faces of the API: Aggregate, which allocates
// its result, and AggregateInto (the IntoFilter interface), which writes into
// a caller buffer and draws every temporary from a reusable Scratch. Both
// faces run the same core and produce bitwise-identical results; the Into
// face exists so a steady-state round loop allocates nothing (see Scratch).
package aggregate

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"byzopt/internal/vecmath"
)

// ErrInput is returned (wrapped) for structurally invalid inputs: no
// gradients, ragged dimensions, or negative f.
var ErrInput = errors.New("aggregate: invalid input")

// ErrTooManyFaults is returned (wrapped) when a filter's tolerance condition
// on (n, f) is violated (e.g. CWTM needs n > 2f, Krum needs n >= 2f+3).
var ErrTooManyFaults = errors.New("aggregate: too many Byzantine agents for this filter")

// ErrNonFinite is returned (wrapped) when any input gradient contains a NaN
// or Inf component. Every registered filter rejects such inputs up front:
// sorting and distance comparisons are meaningless on NaN, and a consistent
// sentinel lets the engine classify the run as diverged.
var ErrNonFinite = errors.New("aggregate: non-finite gradient (NaN or Inf)")

// Filter is a gradient aggregation rule GradFilter: R^{d x n} -> R^d.
// Implementations must be deterministic (the paper's resilience definition
// is stated for deterministic algorithms) and must not mutate the input.
type Filter interface {
	// Name returns a short stable identifier (used by the CLI and traces).
	Name() string
	// Aggregate combines n gradients, up to f of which may be Byzantine.
	Aggregate(grads [][]float64, f int) ([]float64, error)
}

// IntoFilter is the allocation-free face of a Filter: AggregateInto writes
// the aggregate of grads into dst (which must match the gradient dimension)
// and draws every temporary from s, so a warm Scratch makes the call
// heap-allocation-free on the sequential path. A nil s is allowed and
// behaves like a fresh Scratch. The result is bitwise identical to
// Aggregate's — the engines switch between the two faces freely without
// perturbing a single trajectory. Every filter in this package implements
// IntoFilter.
type IntoFilter interface {
	Filter
	AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error
}

// validate checks the common preconditions and returns (n, d).
func validate(grads [][]float64, f int) (n, d int, err error) {
	if len(grads) == 0 {
		return 0, 0, fmt.Errorf("no gradients: %w", ErrInput)
	}
	if f < 0 {
		return 0, 0, fmt.Errorf("negative f = %d: %w", f, ErrInput)
	}
	d = len(grads[0])
	if d == 0 {
		return 0, 0, fmt.Errorf("zero-dimensional gradients: %w", ErrInput)
	}
	for i, g := range grads {
		if len(g) != d {
			return 0, 0, fmt.Errorf("gradient %d has dim %d, want %d: %w", i, len(g), d, ErrInput)
		}
		if d >= finiteSumMinDim {
			if !finiteSum(g) {
				return 0, 0, fmt.Errorf("gradient %d: %w", i, ErrNonFinite)
			}
		} else if !vecmath.IsFinite(g) {
			return 0, 0, fmt.Errorf("gradient %d: %w", i, ErrNonFinite)
		}
	}
	return len(grads), d, nil
}

// finiteSumMinDim is the report length from which validate uses finiteSum
// instead of vecmath.IsFinite (BenchmarkValidate, six rotating reports, 2-core
// x86-64: 8,450 → 1,940 ns at d = 1000, 460 → 104 ns at d = 50). Shorter ones
// keep IsFinite, inlined; summing inside it would stop it inlining.
const finiteSumMinDim = 16

// finiteSum reports whether no entry of g is NaN or ±Inf, with no branch per
// entry: x*0 is ±0 for finite x and NaN otherwise, so the sum is 0 iff all are.
func finiteSum(g []float64) bool {
	var a0, a1, a2, a3 float64
	for ; len(g) >= 4; g = g[4:] {
		a0 += g[0] * 0
		a1 += g[1] * 0
		a2 += g[2] * 0
		a3 += g[3] * 0
	}
	for _, x := range g {
		a0 += x * 0
	}
	return a0+a1+a2+a3 == 0
}

// validateInto is validate plus the destination-dimension check shared by
// every AggregateInto implementation.
func validateInto(dst []float64, grads [][]float64, f int) (n int, err error) {
	n, d, err := validate(grads, f)
	if err != nil {
		return 0, err
	}
	if len(dst) != d {
		return 0, fmt.Errorf("destination has dim %d, want %d: %w", len(dst), d, ErrInput)
	}
	return n, nil
}

// orFresh substitutes a fresh Scratch for a nil one.
func orFresh(s *Scratch) *Scratch {
	if s == nil {
		return new(Scratch)
	}
	return s
}

// --- Mean ---

// Mean is plain gradient averaging: the classic fault-intolerant DGD
// aggregation, kept as the baseline the paper calls "plain GD".
type Mean struct{}

var _ IntoFilter = Mean{}

// Name implements Filter.
func (Mean) Name() string { return "mean" }

// Aggregate returns the arithmetic mean of all gradients; f is ignored
// because averaging makes no attempt at robustness.
func (m Mean) Aggregate(grads [][]float64, f int) ([]float64, error) {
	if _, _, err := validate(grads, f); err != nil {
		return nil, err
	}
	return vecmath.Mean(grads)
}

// AggregateInto implements IntoFilter.
func (m Mean) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	if _, err := validateInto(dst, grads, f); err != nil {
		return err
	}
	return vecmath.MeanInto(dst, grads)
}

// --- CGE ---

// CGE is the comparative gradient elimination filter (eq. 23): sort by
// Euclidean norm and return the SUM of the n-f gradients of smallest norm.
//
// Averaged controls normalization: the paper's definition sums the surviving
// gradients; setting Averaged divides by n-f, which leaves the descent
// direction unchanged but makes step sizes comparable across filters (used
// by the learning experiments).
type CGE struct {
	Averaged bool
}

var _ IntoFilter = CGE{}

// Name implements Filter.
func (c CGE) Name() string {
	if c.Averaged {
		return "cge-avg"
	}
	return "cge"
}

// Aggregate implements Filter. It requires n > f.
func (c CGE) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(c, grads, f)
}

// AggregateInto implements IntoFilter.
func (c CGE) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	return c.into(dst, grads, n, f, orFresh(s))
}

func (c CGE) into(dst []float64, grads [][]float64, n, f int, s *Scratch) error {
	if n <= f {
		return fmt.Errorf("CGE needs n > f, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	// Sort indices by gradient norm ascending (ties broken by index, which
	// keeps the filter deterministic as Definition 2 requires). The stable
	// sort over a scratch-owned index slice defines the same permutation as
	// any other stable sort on the same keys.
	s.idx = grow(s.idx, n)
	s.norms = grow(s.norms, n)
	idx, norms := s.idx, s.norms
	for i := range grads {
		idx[i] = i
		norms[i] = vecmath.Norm(grads[i])
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(norms[a], norms[b]) })

	for j := range dst {
		dst[j] = 0
	}
	for _, i := range idx[:n-f] {
		for j, v := range grads[i] {
			dst[j] += v
		}
	}
	if c.Averaged {
		vecmath.ScaleInPlace(1/float64(n-f), dst)
	}
	return nil
}

// --- CWTM ---

// CWTM is the coordinate-wise trimmed mean filter (eq. 24): per coordinate,
// drop the f smallest and f largest values and average the remaining n-2f.
type CWTM struct{}

var _ IntoFilter = CWTM{}

// Name implements Filter.
func (CWTM) Name() string { return "cwtm" }

// Aggregate implements Filter. It requires n > 2f.
func (c CWTM) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(c, grads, f)
}

// AggregateInto implements IntoFilter.
func (c CWTM) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	return c.into(dst, grads, n, f, orFresh(s))
}

func (CWTM) into(dst []float64, grads [][]float64, n, f int, s *Scratch) error {
	if n <= 2*f {
		return fmt.Errorf("CWTM needs n > 2f, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	if n < selectInsertionCutoff && len(dst) >= rowSortMinDim {
		trimMeanRows(dst, grads, f, s)
		return nil
	}
	s.col = grow(s.col, n)
	col := s.col
	for k := range dst {
		for i := range grads {
			col[i] = grads[i][k]
		}
		// Only the window col[f:n-f] is read, in ascending order — bitwise
		// the fully-sorted path on every route trimMiddle takes.
		trimMiddle(col, f, s)
		var sum float64
		for _, v := range col[f : n-f] {
			sum += v
		}
		dst[k] = sum / float64(n-2*f)
	}
	return nil
}

// --- coordinate-wise median ---

// CWMedian aggregates by taking the median of each coordinate independently;
// a classic robust baseline (e.g. Yin et al., 2018).
type CWMedian struct{}

var _ IntoFilter = CWMedian{}

// Name implements Filter.
func (CWMedian) Name() string { return "cwmedian" }

// Aggregate implements Filter. It requires n > 2f for the median to be
// controlled by honest values.
func (c CWMedian) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(c, grads, f)
}

// AggregateInto implements IntoFilter.
func (c CWMedian) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	return c.into(dst, grads, n, f, orFresh(s))
}

func (CWMedian) into(dst []float64, grads [][]float64, n, f int, s *Scratch) error {
	if n <= 2*f {
		return fmt.Errorf("median needs n > 2f, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	s.col = grow(s.col, n)
	col := s.col
	for k := range dst {
		for i := range grads {
			col[i] = grads[i][k]
		}
		// Quickselect replaces the full per-coordinate sort: the median is
		// an order statistic, so the selected value is the sorted one.
		dst[k] = medianInPlace(col)
	}
	return nil
}

// --- Krum ---

// Krum selects the single gradient whose summed squared distance to its
// n-f-2 nearest neighbors is smallest (Blanchard et al., 2017).
type Krum struct{}

var _ IntoFilter = Krum{}

// Name implements Filter.
func (Krum) Name() string { return "krum" }

// Aggregate implements Filter. It requires n >= 2f + 3.
func (kr Krum) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(kr, grads, f)
}

// AggregateInto implements IntoFilter.
func (kr Krum) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	return kr.into(dst, grads, n, f, orFresh(s))
}

func (Krum) into(dst []float64, grads [][]float64, n, f int, s *Scratch) error {
	scores, err := krumScores(grads, f, s)
	if err != nil {
		return err
	}
	copy(dst, grads[argMinScore(scores)])
	return nil
}

// MultiKrum averages the M gradients with the best Krum scores
// (Blanchard et al., 2017). M must be in [1, n-f].
type MultiKrum struct {
	M int
}

var _ IntoFilter = MultiKrum{}

// Name implements Filter.
func (m MultiKrum) Name() string { return fmt.Sprintf("multikrum-%d", m.M) }

// Aggregate implements Filter. It requires n >= 2f + 3 and 1 <= M <= n-f.
func (m MultiKrum) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(m, grads, f)
}

// AggregateInto implements IntoFilter.
func (m MultiKrum) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	return m.into(dst, grads, n, f, orFresh(s))
}

func (m MultiKrum) into(dst []float64, grads [][]float64, n, f int, s *Scratch) error {
	scores, err := krumScores(grads, f, s)
	if err != nil {
		return err
	}
	return meanOfBestScores(dst, grads, scores, m.M, n, f, s)
}

// krumScores fills s.scores with the Krum score of every gradient, computing
// the pairwise distance matrix in s's scratch. The returned slice aliases
// s.scores and stays valid until the next call that touches it.
// Callers must have validated grads already (Bulyan's iterated selection
// re-invokes this on subsets of an already-validated set, so only the
// tolerance condition needs rechecking per call).
func krumScores(grads [][]float64, f int, s *Scratch) ([]float64, error) {
	n := len(grads)
	if n < 2*f+3 {
		return nil, fmt.Errorf("krum needs n >= 2f+3, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	d2 := s.distMatrix(n)
	pairwiseDistSqInto(d2, grads)
	return scoreFromDists(d2, n, f, s), nil
}

// scoreFromDists fills s.scores with Krum scores from an already-filled
// n×n distance matrix (entries in [0, +Inf], never NaN): per point, the sum
// of the n-f-2 smallest distances to the others. The neighbor-scoring half
// of krumScores, shared with the sketched filters, which fill the matrix
// from projected rows instead. Callers must have checked n >= 2f+3.
//
// Callers read the order of the scores, ties by index, and that order is
// always the order of the sums taken ascending (ascendingScore). When
// 8(f+1) <= n a row is scored without sorting it (selectionScore) and the
// few rows whose place that leaves in doubt are scored again by the sort
// (rescoreUncertain); with more faults the selection buffer costs more than
// the sort, and every row — every row of an n <= 7 grid — is sorted.
func scoreFromDists(d2 [][]float64, n, f int, s *Scratch) []float64 {
	k := n - f - 2 // number of closest neighbors scored
	s.scores = grow(s.scores, n)
	s.row = grow(s.row, n)
	scores := s.scores
	if 8*(f+1) > n {
		for i := range scores {
			scores[i] = ascendingScore(d2[i], i, k, s)
		}
		return scores
	}
	for i := range scores {
		scores[i] = selectionScore(d2[i], i, k, s.row[:f+1])
	}
	rescoreUncertain(scores, d2, k, s)
	return scores
}

// ascendingScore is the exact Krum score of point i: row i of the distance
// matrix without its own entry, sorted, the k smallest summed ascending.
func ascendingScore(di []float64, i, k int, s *Scratch) float64 {
	row := s.row[:0]
	for j, v := range di {
		if j != i {
			row = append(row, v)
		}
	}
	sortFloats(row, s)
	var sum float64
	for _, v := range row[:k] {
		sum += v
	}
	return sum
}

// selectionScore sums the k terms of ascendingScore in O(n) and in another
// order: one pass keeps the len(top) = n-1-k largest entries of the row
// (descending, by insertion) to find the cut tau, the smallest entry dropped;
// a second adds every entry below tau in index order, then tau once for each
// tie at the cut that is kept.
func selectionScore(di []float64, i, k int, top []float64) float64 {
	for t := range top {
		top[t] = -1 // below any distance
	}
	last := len(top) - 1
	tau := top[last]
	halves := [2][]float64{di[:i], di[i+1:]}
	for _, part := range halves {
		for _, v := range part {
			if v > tau {
				at := last
				for at > 0 && top[at-1] < v {
					top[at] = top[at-1]
					at--
				}
				top[at] = v
				tau = top[last]
			}
		}
	}
	var sum float64
	below := 0
	for _, part := range halves {
		for _, v := range part {
			if v < tau {
				sum += v
				below++
			}
		}
	}
	for ; below < k; below++ {
		sum += tau
	}
	return sum
}

// rescoreUncertain replaces every selectionScore whose place in the order of
// the ascending sums is not certain by its ascendingScore, and returns how
// many it replaced. Sums of the same k non-negative terms in any two orders
// are each within gamma = (k-1)u/(1-(k-1)u), u = 2^-53, of the real sum, so a
// score more than 4·gamma (relative to the larger) from both its neighbours
// in score order compares to any other row's ascending sum as its own
// ascending sum does; tol is twice that. The rest — near-ties, bit-equal rows
// such as a coalition's identical reports, a zero, a score of +Inf or beside
// one (that gap is +Inf or NaN and fails the comparison; a finite score whose
// terms overflow in another order is within tol of MaxFloat64 and so beside
// every +Inf) — is summed by the sort, so ties still fall by index between
// exact scores.
func rescoreUncertain(scores []float64, d2 [][]float64, k int, s *Scratch) int {
	n := len(scores)
	s.col = grow(s.col, n)
	sorted := s.col
	copy(sorted, scores)
	sortFloats(sorted, s)
	tol := float64(n) * 0x1p-50
	exact := 0
	for i, v := range scores {
		p, _ := slices.BinarySearch(sorted, v) // leftmost: sorted[p+1] may equal v
		if v > 0 && v < math.Inf(1) &&
			(p == 0 || v-sorted[p-1] > tol*v) &&
			(p == n-1 || sorted[p+1]-v > tol*sorted[p+1]) {
			continue
		}
		scores[i] = ascendingScore(d2[i], i, k, s)
		exact++
	}
	return exact
}

// --- Bulyan ---

// Bulyan runs iterated Krum selection to pick theta = n-2f gradients, then
// applies a beta = theta-2f trimmed-mean around the coordinate-wise median
// (El Mhamdi et al., 2018).
type Bulyan struct{}

var _ IntoFilter = Bulyan{}

// Name implements Filter.
func (Bulyan) Name() string { return "bulyan" }

// Aggregate implements Filter. It requires n >= 4f + 3.
func (bl Bulyan) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(bl, grads, f)
}

// AggregateInto implements IntoFilter.
func (bl Bulyan) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	return bl.into(dst, grads, n, f, orFresh(s))
}

// into scores the shrinking candidate set from one distance table: filled
// once by the pairwise pass over grads, then trimmed of each selected
// candidate's row and column. The remaining rows keep their order and every
// entry is the sum pairwiseDistSqInto computes for that pair, so each
// iteration scores what krumScores would on the remaining rows, in O(r²)
// instead of O(r²·d).
func (Bulyan) into(dst []float64, grads [][]float64, n, f int, s *Scratch) error {
	return bulyanInto(dst, grads, n, f, s, func(remaining [][]float64, dropped int) ([]float64, error) {
		if dropped < 0 {
			d2 := s.distMatrix(len(remaining))
			pairwiseDistSqInto(d2, remaining)
			s.dists = append(s.dists[:0], d2...)
		} else {
			s.dists = dropCandidate(s.dists, dropped)
		}
		return scoreFromDists(s.dists, len(s.dists), f, s), nil
	})
}

// dropCandidate removes row and column i of the square table d2 in place
// and returns the smaller table: later rows move up one place and, in every
// row, later entries move left one place.
func dropCandidate(d2 [][]float64, i int) [][]float64 {
	d2 = append(d2[:i], d2[i+1:]...)
	for r, row := range d2 {
		d2[r] = append(row[:i], row[i+1:]...)
	}
	return d2
}

// bulyanInto is the Bulyan skeleton — iterated Krum selection of theta =
// n-2f gradients followed by the beta-trimmed mean around the
// coordinate-wise median — parameterized over the scoring function so the
// exact filter and its sketched/sampled variants share one selection and
// trimming sequence. scores is called on the shrinking candidate table and
// must return per-candidate Krum scores (lowest = best); dropped is the
// position, in the table of the previous call, of the candidate selected
// since (-1 on the first call).
func bulyanInto(dst []float64, grads [][]float64, n, f int, s *Scratch, scores func(remaining [][]float64, dropped int) ([]float64, error)) error {
	if n < 4*f+3 {
		return fmt.Errorf("bulyan needs n >= 4f+3, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	theta := n - 2*f
	s.heads = grow(s.heads, n)
	remaining := s.heads[:n]
	copy(remaining, grads)
	s.heads2 = grow(s.heads2, theta)
	selected := s.heads2[:0]
	dropped := -1
	for len(selected) < theta {
		if len(remaining) < 2*f+3 {
			// As gradients are removed the Krum condition tightens; fall
			// back to taking the rest in order, which preserves determinism.
			// (The tolerance condition is checked here rather than through
			// krumScores' error — it is the only error krumScores can return
			// on this already-validated input, and checking first keeps the
			// steady state from constructing error values.)
			selected = append(selected, remaining[:theta-len(selected)]...)
			break
		}
		sc, err := scores(remaining, dropped)
		if err != nil {
			return err
		}
		best := argMinScore(sc)
		selected = append(selected, remaining[best])
		// In-place removal: remaining owns its backing table (a scratch
		// copy), so shifting left cannot clobber the caller's slice.
		remaining = append(remaining[:best], remaining[best+1:]...)
		dropped = best
	}
	// Trimmed mean of the beta values closest to the median, per coordinate.
	// The column is sorted once (in scratch); the beta-window walk below then
	// enumerates values by increasing distance from the median — the exact
	// order the allocating path produced with its stable sort over (value,
	// distance) pairs — without building or sorting that pair table.
	beta := theta - 2*f
	s.col = grow(s.col, theta)
	col := s.col[:theta]
	for k := range dst {
		for i := range selected {
			col[i] = selected[i][k]
		}
		sortFloats(col, s)
		var med float64
		if theta%2 == 1 {
			med = col[theta/2]
		} else {
			med = 0.5 * (col[theta/2-1] + col[theta/2])
		}
		dst[k] = medianWindowSum(col, med, beta) / float64(beta)
	}
	return nil
}

// medianWindowSum sums the beta values of the ascending-sorted col closest
// to med, adding them in increasing-distance order with distance ties taken
// from the left — precisely the order a stable sort by |v - med| visits them
// (left-side ties are equal values, so their mutual order cannot change the
// sum; cross-side ties favor the lower index, which is always the left
// side). Two cursors walk outward from the median in O(beta) instead of
// stable-sorting a (value, distance) table.
func medianWindowSum(col []float64, med float64, beta int) float64 {
	// First index strictly greater than med; col[0] <= med always holds
	// because med is the median of col.
	lo, hi := 0, len(col)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid] <= med {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l, r := lo-1, lo
	var sum float64
	for t := 0; t < beta; t++ {
		switch {
		case l < 0:
			sum += col[r]
			r++
		case r >= len(col):
			sum += col[l]
			l--
		case med-col[l] <= col[r]-med:
			sum += col[l]
			l--
		default:
			sum += col[r]
			r++
		}
	}
	return sum
}

// --- geometric median ---

// GeoMedian returns the geometric median of the gradients, the point
// minimizing the sum of Euclidean distances to them: Weiszfeld's iteration
// with a secant step, an objective safeguard, and an exit that returns a
// report itself when it is the median (weiszfeldInto). A median that is not
// unique — collinear reports, even n — yields one minimiser.
type GeoMedian struct{}

var _ IntoFilter = GeoMedian{}

// Name implements Filter.
func (GeoMedian) Name() string { return "geomedian" }

// Aggregate implements Filter. It requires n > 2f for robustness.
func (g GeoMedian) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(g, grads, f)
}

// AggregateInto implements IntoFilter.
func (g GeoMedian) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	return g.into(dst, grads, n, f, orFresh(s))
}

func (GeoMedian) into(dst []float64, grads [][]float64, n, f int, s *Scratch) error {
	if n <= 2*f {
		return fmt.Errorf("geometric median needs n > 2f, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	return weiszfeldInto(dst, grads, s)
}

// GeoMedianOfMeans partitions the gradients into Groups buckets, averages
// each bucket, and returns the geometric median of the bucket means
// (Chen, Su, Xu, 2017) from GeoMedian's solver: the same stop rule and exit,
// and one minimiser when the median of the means is not unique. Groups must
// be in [1, n]; robustness requires Groups > 2f.
type GeoMedianOfMeans struct {
	Groups int
}

var _ IntoFilter = GeoMedianOfMeans{}

// Name implements Filter.
func (g GeoMedianOfMeans) Name() string { return fmt.Sprintf("gmom-%d", g.Groups) }

// Aggregate implements Filter.
func (g GeoMedianOfMeans) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(g, grads, f)
}

// AggregateInto implements IntoFilter.
func (g GeoMedianOfMeans) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	return g.into(dst, grads, n, f, orFresh(s))
}

func (g GeoMedianOfMeans) into(dst []float64, grads [][]float64, n, f int, s *Scratch) error {
	if g.Groups < 1 || g.Groups > n {
		return fmt.Errorf("gmom groups=%d out of [1, %d]: %w", g.Groups, n, ErrInput)
	}
	if g.Groups <= 2*f {
		return fmt.Errorf("gmom needs groups > 2f, got groups=%d f=%d: %w", g.Groups, f, ErrTooManyFaults)
	}
	// Contiguous deterministic partition; bucket means land in scratch rows.
	means := s.meanRows(g.Groups, len(dst))
	count := 0
	for b := 0; b < g.Groups; b++ {
		lo := b * n / g.Groups
		hi := (b + 1) * n / g.Groups
		if lo == hi {
			continue
		}
		if err := vecmath.MeanInto(means[count], grads[lo:hi]); err != nil {
			return err
		}
		count++
	}
	return weiszfeldInto(dst, means[:count], s)
}

// --- shared allocating wrapper ---

// allocVia runs a filter's Into face against a fresh destination and
// scratch: the one implementation serves both API faces, so they cannot
// drift apart.
func allocVia(fl IntoFilter, grads [][]float64, f int) ([]float64, error) {
	if len(grads) == 0 {
		return nil, fmt.Errorf("no gradients: %w", ErrInput)
	}
	out := make([]float64, len(grads[0]))
	if err := fl.AggregateInto(out, grads, f, nil); err != nil {
		return nil, err
	}
	return out, nil
}
