package aggregate

import (
	"math"
	"slices"
)

// Scratch owns every temporary a filter needs for one aggregation call:
// the n×n pairwise-distance matrix of the Krum family, index/score/norm
// buffers, per-coordinate column buffers, Weiszfeld iterates and weights, and
// the slice-header tables of Bulyan's iterated selection. A Scratch handed to
// AggregateInto (see IntoFilter) is (re)sized lazily and reused across calls,
// so a steady-state round loop performs zero heap allocations once the
// buffers are warm. Buffers grow monotonically: a Scratch that has served an
// (n, d) job serves any smaller job without touching the allocator, and sizes
// may change freely between calls.
//
// A Scratch is owned by one goroutine at a time — reuse it across sequential
// calls, never across concurrent ones.
//
// The zero value is ready to use.
type Scratch struct {
	// Pairwise distance matrix (Krum, MultiKrum, Bulyan): distRows[i] is a
	// stride-n window into distBuf. distN remembers the stride so reshaping
	// only happens when n changes.
	distBuf  []float64
	distRows [][]float64
	distN    int

	idx     []int     // index sorts (CGE, MultiKrum), sampled-pairs sample and kept candidates
	norms   []float64 // CGE norms, CenteredClip distances
	scores  []float64 // Krum scores
	row     []float64 // Krum per-point neighbor distances
	col     []float64 // per-coordinate columns (CWTM, CWMedian, Bulyan)
	weights []float64 // Weiszfeld weights
	vecA    []float64 // d-sized temporary (Weiszfeld iterate, CenteredClip diff)
	vecB    []float64 // d-sized temporary (Weiszfeld update, CenteredClip step)
	keys    []uint64  // sortFloats radix keys (both ping-pong halves), then sampled-pairs hashes past them

	heads  [][]float64 // Bulyan's shrinking candidate table
	heads2 [][]float64 // Bulyan's selected table

	meansBuf []float64   // GeoMedianOfMeans bucket-mean arena
	means    [][]float64 // rows into meansBuf

	// Sketch-filter state: the SRHT plan (per-column sign words and the k
	// sampled Hadamard coordinates), cached by content key so Bulyan's
	// iterated selection re-derives it only once per (seed, round), the
	// P-length padded transform buffer, plus the n×k sketched-row arena.
	srhtWords []uint64
	srhtIdx   []int
	srhtRank  []float64
	srhtTmp   []int
	srhtPad   []float64
	srhtK     int
	srhtD     int
	srhtKey   uint64 // content key of the current plan; see srhtPlan
	srhtValid bool

	skBuf  []float64
	skRows [][]float64

	// REDGRAF filter state: the d-sized auxiliary center the stateful
	// filtering dynamics (SDMMFD, SDFD) carry between rounds — cached by
	// content key like the SRHT plan, so a chain only ever continues its own
	// (seed, round) trajectory — plus the surviving-index table of the
	// distance-filtering stage.
	rgAux      []float64
	rgAuxKey   uint64
	rgAuxValid bool
	rgKeep     []int
}

// grow returns buf resliced to length n, reallocating only when the capacity
// is insufficient. The returned buffer's contents are unspecified.
func grow[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}

// distMatrix returns the n×n distance matrix, reshaping the row windows only
// when n changes. Entries are unspecified; pairwiseDistSqInto overwrites the
// full matrix including the diagonal.
func (s *Scratch) distMatrix(n int) [][]float64 {
	if s.distN == n && len(s.distRows) == n {
		return s.distRows
	}
	s.distBuf = grow(s.distBuf, n*n)
	s.distRows = grow(s.distRows, n)
	for i := 0; i < n; i++ {
		s.distRows[i] = s.distBuf[i*n : (i+1)*n : (i+1)*n]
	}
	s.distN = n
	return s.distRows
}

// srhtPlan returns the SRHT plan buffers — the per-column sign words and
// the k sampled Hadamard-coordinate indices — reshaping only when the shape
// changes. key identifies the contents the caller is about to fill (a hash
// of seed, round, and shape); the third return reports whether the buffers
// already hold that fill, letting Bulyan's iterated selection skip
// re-deriving the identical plan every iteration. Callers that fill must do
// so before the next srhtPlan call.
func (s *Scratch) srhtPlan(k, d int, key uint64) ([]uint64, []int, bool) {
	words := (d + 63) >> 6
	if s.srhtK != k || s.srhtD != d || len(s.srhtIdx) != k {
		s.srhtWords = grow(s.srhtWords, words)
		s.srhtIdx = grow(s.srhtIdx, k)
		s.srhtK, s.srhtD = k, d
		s.srhtValid = false
	}
	filled := s.srhtValid && s.srhtKey == key
	s.srhtKey, s.srhtValid = key, true
	return s.srhtWords, s.srhtIdx, filled
}

// sketchRowsBuf returns the n×k sketched-gradient table backed by one
// arena. Entries are unspecified; callers overwrite every row they use.
func (s *Scratch) sketchRowsBuf(n, k int) [][]float64 {
	s.skBuf = grow(s.skBuf, n*k)
	s.skRows = grow(s.skRows, n)
	for i := 0; i < n; i++ {
		s.skRows[i] = s.skBuf[i*k : (i+1)*k : (i+1)*k]
	}
	return s.skRows
}

// redgrafAux returns the d-sized auxiliary-state buffer of the stateful
// REDGRAF dynamics and whether it still holds the contents written under
// key (a hash of the filter's seed, the previous round, the dimension, and
// the filter's domain tag; see auxKey). A dimension change invalidates the
// cache; contents are unspecified on a miss.
func (s *Scratch) redgrafAux(d int, key uint64) ([]float64, bool) {
	if len(s.rgAux) != d {
		s.rgAux = grow(s.rgAux, d)
		s.rgAuxValid = false
	}
	hit := s.rgAuxValid && s.rgAuxKey == key
	return s.rgAux, hit
}

// commitRedgrafAux records the content key of the auxiliary state a filter
// just wrote into the buffer returned by redgrafAux.
func (s *Scratch) commitRedgrafAux(key uint64) {
	s.rgAuxKey, s.rgAuxValid = key, true
}

// meanRows returns a groups×d table of bucket-mean rows backed by one arena.
func (s *Scratch) meanRows(groups, d int) [][]float64 {
	s.meansBuf = grow(s.meansBuf, groups*d)
	s.means = grow(s.means, groups)
	for i := 0; i < groups; i++ {
		s.means[i] = s.meansBuf[i*d : (i+1)*d : (i+1)*d]
	}
	return s.means
}

// --- deterministic partial selection ---

// selectKth partially sorts a in place so that a[k] holds the value a full
// ascending sort would place at index k, every element before it is <= a[k],
// and every element after is >= a[k]. Because equal floats are
// interchangeable, any computation that consumes the k smallest (or largest)
// values as a multiset — or sorts a partition before consuming it — produces
// results bitwise identical to the fully-sorted path. The input must be
// NaN-free (validate guarantees that for filter inputs).
//
// Deterministic median-of-three quickselect with an insertion-sort tail:
// no randomness (Definition 2 requires deterministic filters), no
// allocation. Used where a filter needs order statistics rather than an
// ordered walk: the medians, distanceKeep's cut, RVO's two range ends, and
// the two cuts of trimMiddle on columns too short for the radix sort.
func selectKth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for hi-lo >= selectInsertionCutoff {
		mid := lo + (hi-lo)/2
		// Median-of-three: order a[lo], a[mid], a[hi].
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		// Hoare partition.
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] <= pivot <= a[i..hi]; anything strictly between equals
		// the pivot, so landing there means a[k] is already in place.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	insertionSort(a[lo : hi+1])
}

// selectInsertionCutoff is the subrange length below which selectKth falls
// back to a full insertion sort of the remaining window.
const selectInsertionCutoff = 12

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// medianInPlace returns the median of col — the value(s) a full sort would
// put at the middle position(s) — partially reordering col via selectKth.
// Bitwise identical to sorting and reading col[n/2] (odd) or averaging
// col[n/2-1] and col[n/2] (even), because equal floats are interchangeable.
func medianInPlace(col []float64) float64 {
	n := len(col)
	m := n / 2
	selectKth(col, m)
	hi := col[m]
	if n%2 == 1 {
		return hi
	}
	// Even: the (m-1)-th order statistic is the largest of the m smallest,
	// which selectKth left in col[:m].
	lo := col[0]
	for _, v := range col[1:m] {
		if v > lo {
			lo = v
		}
	}
	return 0.5 * (lo + hi)
}

// trimMiddle reorders col so that col[f:n-f] holds, in ascending order,
// exactly the values a full sort would place there. The path depends only on
// the column's length: below selectInsertionCutoff one insertion sort (all the
// first selectKth would do); from radixCutoff up one sortFloats of the whole
// column, whose cost does not depend on the data; in between, two selectKth
// calls cut away the f smallest and f largest values as multisets and only
// the middle window is sorted. Summing col[f:n-f] afterwards gives the same
// bits on every path: the same multiset in ascending order, equal floats
// interchangeable, and the mutual order of -0 and +0 invisible to a sum that
// starts at +0 (no partial sum is ever -0, and x + ±0 == x for any other x).
func trimMiddle(col []float64, f int, s *Scratch) {
	n := len(col)
	switch {
	case n < selectInsertionCutoff:
		insertionSort(col)
	case n >= radixCutoff:
		sortFloats(col, s)
	default:
		if f > 0 {
			selectKth(col, f)
			selectKth(col[f:], n-2*f)
		}
		slices.Sort(col[f : n-f])
	}
}

// rowSortMinDim is the dimension from which CWTM sorts fewer than
// selectInsertionCutoff reports as rows (trimMeanRows). Over rotating inputs
// at n = 3 to 11 the row path loses at d = 2 (n = 6: 140 against 66 ns,
// BenchmarkCWTM), crosses over between d = 4 and 6, and wins from d = 8 on
// (n = 6, d = 1000: 25 against 72 µs).
const rowSortMinDim = 8

// trimMeanRows is CWTM on n < selectInsertionCutoff reports: it copies them
// into s.col as n rows, sorts all d coordinates at once by an insertion
// network of compare-exchanges applied row against row (min and max, no
// branch), and sums rows f..n-f-1 per coordinate, ascending from +0. Each
// coordinate's window is trimMiddle's multiset in ascending order, and -0
// before +0 is invisible to the sum, so the bits are the column path's.
func trimMeanRows(dst []float64, grads [][]float64, f int, s *Scratch) {
	n, d := len(grads), len(dst)
	s.col = grow(s.col, n*d)
	row := func(i int) []float64 { return s.col[i*d : (i+1)*d : (i+1)*d] }
	for i, g := range grads {
		copy(row(i), g)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			lo, hi := row(j-1), row(j)
			for k, a := range lo {
				lo[k], hi[k] = min(a, hi[k]), max(a, hi[k])
			}
		}
	}
	clear(dst)
	for i := f; i < n-f; i++ {
		for k, v := range row(i) {
			dst[k] += v
		}
	}
	for k := range dst {
		dst[k] /= float64(n - 2*f)
	}
}

// radixCutoff is the length from which sortFloats runs its radix passes.
// Below it — every row and column of the paper's n = 6 grids — slices.Sort
// stays: a histogram costs more than it saves there.
const radixCutoff = 64

// sortFloats sorts a ascending: slices.Sort below radixCutoff, otherwise a
// byte-wise LSD radix sort on the order-preserving integer key of a float64
// (all bits of a negative flipped, the sign bit of anything else) over its
// top five bytes — sign, exponent, 28 mantissa bits — then one insertion pass
// orders runs sharing those 40 bits, n comparisons when there are none. Two
// distinct adjacent input keys sharing them mean converged values and long
// runs: then all eight bytes are sorted instead. Digits every key shares are
// skipped. A radix pass has no branch to mispredict, which is most of what a
// comparison sort costs when every call sees new data. The result, ordered
// by the full key, is slices.Sort's up to the mutual order of -0 and +0 (-0
// first here), which callers that sum or walk the values ascending cannot
// see. The input must be NaN-free; +Inf sorts last.
func sortFloats(a []float64, s *Scratch) {
	n := len(a)
	if n < radixCutoff {
		slices.Sort(a)
		return
	}
	s.keys = grow(s.keys, 2*n)
	src, dst := s.keys[:n], s.keys[n:]
	var count [8][256]uint32
	// closest < 2²⁴-1 iff two distinct adjacent keys agree above bit 24.
	closest, prev := uint64(math.MaxUint64), floatKey(a[0])
	for i, v := range a {
		k := floatKey(v)
		src[i] = k
		closest = min(closest, (k^prev)-1)
		prev = k
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	first := 3
	if closest < 1<<24-1 { // converged: all eight bytes
		first = 0
		for _, k := range src {
			count[0][byte(k)]++
			count[1][byte(k>>8)]++
			count[2][byte(k>>16)]++
		}
	}
	for d := first; d < len(count); d++ {
		c, shift := &count[d], 8*d
		if c[byte(src[0]>>shift)] == uint32(n) {
			continue
		}
		var at uint32
		for b, m := range c {
			c[b], at = at, at+m
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if first > 0 {
		for i := 1; i < n; i++ {
			k, j := src[i], i
			for ; j > 0 && k < src[j-1]; j-- {
				src[j] = src[j-1]
			}
			src[j] = k
		}
	}
	for i, k := range src {
		a[i] = math.Float64frombits(k ^ ((k>>63 - 1) | 1<<63))
	}
}

// floatKey is the order-preserving integer key of a non-NaN float64.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}
