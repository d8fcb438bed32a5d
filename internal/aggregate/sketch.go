// Approximate variants of the distance-based filters that cut the factor d
// (or n·d) out of the pairwise pass.
//
// The exact Krum family costs O(n²·d) per round: every pair of gradients
// meets in a full d-dimensional distance. Two explicitly approximate
// families trade controlled selection error for that factor:
//
//   - Sketched (KrumSketch, MultiKrumSketch, BulyanSketch): a deterministic
//     fast Johnson–Lindenstrauss transform — the subsampled randomized
//     Hadamard transform (SRHT): per-column Rademacher signs, a fast
//     Walsh–Hadamard transform, then k sampled coordinates scaled by 1/√k —
//     maps every gradient to k ≪ d dimensions before the pairwise pass,
//     dropping the distance stage to O(n·P·log P + n²·k) for P the
//     power-of-two padding of d. The transform is multiplication-free
//     (signs are XORs on the float sign bit, the Hadamard stage is pure
//     adds), so even the projection runs far below the dense-sketch cost.
//     JL sketches preserve pairwise distances to within (1±ε) for
//     k = O(log n / ε²), so neighbor rankings — all Krum consumes — survive
//     with high probability.
//
//   - Sampled (KrumSampled, MultiKrumSampled, BulyanSampled): each point is
//     scored against a deterministic pseudo-random sample of m ≪ n-1
//     neighbors (with the scored-neighbor count scaled proportionally),
//     dropping the distance arithmetic to O(n·m·d). Choosing the sample still
//     ranks all n(n-1) ordered pairs every call — one SplitMix64 pass a pair,
//     the seed, row and column passes of the hash computed once each — so the
//     stage is O(n²) hashes + O(n·m·d) distances: it wins over the exact
//     filter through the factor d, not by leaving the quadratic.
//
// Both draw their randomness from the same counter-mode SplitMix64 hashes
// as internal/simtime, keyed purely on (Seed, round) — no generator state —
// so results are byte-identical at any worker count and on every substrate,
// and a round replays exactly. Engines thread the round index through the
// RoundKeyed interface and sweep scenarios configure dimension and seed
// through SketchConfigurable. In the degenerate regimes (k ≥ d, or m ≥ n-1)
// the approximation is skipped entirely and the filters reproduce their
// exact counterparts bit for bit.
package aggregate

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"byzopt/internal/simtime"
	"byzopt/internal/vecmath"
)

// DefaultSketchDim is the projection dimension k a sketch filter uses when
// its Dim field is zero. 64 keeps the JL distortion small (ε ≈ 0.5 at
// n = 1000) while cutting d = 1000 workloads by ~15×.
const DefaultSketchDim = 64

// DefaultSamplePairs is the per-point neighbor sample size m a sampled
// filter uses when its Pairs field is zero.
const DefaultSamplePairs = 64

// Domain constants separating the two approximate families' hash streams
// from each other (and from any non-negative agent/round index).
const (
	sketchKeyDomain = -1
	sampleKeyDomain = -2
)

// RoundKeyed is implemented by filters whose computation is keyed on the
// round index — the approximate filters re-draw their projection or
// neighbor sample each round so a single unlucky draw cannot bias a whole
// trajectory. Engines call SetRound before each round's aggregation;
// repeated calls with the same round are idempotent. A filter that is never
// told the round behaves as round 0 throughout: still deterministic, just
// un-rotated.
type RoundKeyed interface {
	SetRound(t int)
}

// SketchConfigurable is implemented by the approximate filters so the sweep
// engine can thread a scenario's SketchDim axis value and derived seed
// through the registry: dim sets the projection dimension (sketch family)
// or the neighbor sample size (sampled family), 0 meaning the default; seed
// keys every hash draw.
type SketchConfigurable interface {
	ConfigureSketch(dim int, seed int64)
}

// --- shared sketch configuration ---

// SketchParams configures the JL-sketch filters and carries their round
// state. The zero value is ready: default dimension, seed 0.
type SketchParams struct {
	// Dim is the projection dimension k; 0 means DefaultSketchDim. When
	// Dim >= d the projection is skipped and the filter is exactly its
	// non-sketched counterpart.
	Dim int
	// Seed keys the projection draws together with the round (SetRound).
	Seed int64

	round int
}

// SetRound implements RoundKeyed.
func (p *SketchParams) SetRound(t int) { p.round = t }

// ConfigureSketch implements SketchConfigurable.
func (p *SketchParams) ConfigureSketch(dim int, seed int64) {
	p.Dim, p.Seed = dim, seed
}

func (p *SketchParams) dim() int {
	if p.Dim <= 0 {
		return DefaultSketchDim
	}
	return p.Dim
}

// krumScores is the sketched face of the package-level krumScores: project,
// then score pairwise distances in the k-dimensional image. In the identity
// regime (k >= d, where a sketch could only add distortion) it delegates to
// the exact scorer, which is what pins the parity guarantee.
func (p *SketchParams) krumScores(grads [][]float64, f int, s *Scratch) ([]float64, error) {
	n, d := len(grads), len(grads[0])
	if n < 2*f+3 {
		return nil, fmt.Errorf("krum needs n >= 2f+3, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	k := p.dim()
	if k >= d {
		return krumScores(grads, f, s)
	}
	rows := p.project(grads, k, s)
	d2 := s.distMatrix(n)
	pairwiseDistSqInto(d2, rows)
	return scoreFromDists(d2, n, f, s), nil
}

// project fills (and returns) the scratch's sketched-row table with the
// k-dimensional images of the gradients under the round's SRHT: per-column
// Rademacher signs, an in-place fast Walsh–Hadamard transform over the
// zero-padded power-of-two length P, then the plan's k sampled Hadamard
// coordinates scaled by 1/√k — O(P·log P) adds per row where a dense
// multiply sketch costs O(d·k).
func (p *SketchParams) project(grads [][]float64, k int, s *Scratch) [][]float64 {
	n, d := len(grads), len(grads[0])
	pq := nextPow2(d)
	key := projectionKey(p.Seed, p.round, k, d)
	words, idx, filled := s.srhtPlan(k, d, key)
	if !filled {
		fillSRHTPlan(words, idx, p.Seed, p.round, pq, s)
	}
	rows := s.sketchRowsBuf(n, k)
	scale := 1 / math.Sqrt(float64(k))
	s.srhtPad = grow(s.srhtPad, pq)
	for i := range grads {
		srhtProject(rows[i], grads[i], s.srhtPad, words, idx, scale)
	}
	return rows
}

// srhtProject writes the SRHT image of g: signed copy into the padded
// buffer (the sign of column c is bit c&63 of words[c>>6], applied by XOR
// on the float sign bit — the transform needs no multiplications at all),
// in-place Hadamard, then the sampled coordinates scaled by 1/√k.
func srhtProject(dst, g, pad []float64, words []uint64, idx []int, scale float64) {
	c := 0
	for _, w := range words {
		end := c + 64
		if end > len(g) {
			end = len(g)
		}
		for ; c < end; c++ {
			pad[c] = math.Float64frombits(math.Float64bits(g[c]) ^ (w << 63))
			w >>= 1
		}
	}
	for z := len(g); z < len(pad); z++ {
		pad[z] = 0
	}
	hadamard(pad)
	for j, p := range idx {
		dst[j] = pad[p] * scale
	}
}

// hadamard applies the unnormalized fast Walsh–Hadamard transform in place;
// len(v) must be a power of two. Butterflies at each level are independent,
// so the fixed iteration order below is both the bitwise contract and free
// instruction-level parallelism. The stride-1 and stride-2 levels are flat
// single passes (a generic segment loop would spend more time on loop
// bookkeeping than arithmetic there); levels of stride >= 4 run four
// butterflies per iteration on re-sliced, bounds-check-free segment pairs.
func hadamard(v []float64) {
	n := len(v)
	if n < 2 {
		return
	}
	for i := 1; i < n; i += 2 {
		x, y := v[i-1], v[i]
		v[i-1] = x + y
		v[i] = x - y
	}
	if n < 4 {
		return
	}
	for i := 3; i < n; i += 4 {
		x0, y0 := v[i-3], v[i-1]
		v[i-3] = x0 + y0
		v[i-1] = x0 - y0
		x1, y1 := v[i-2], v[i]
		v[i-2] = x1 + y1
		v[i] = x1 - y1
	}
	for h := 4; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			a := v[i : i+h : i+h]
			b := v[i+h : i+h+h : i+h+h]
			b = b[:len(a)]
			for j := 0; j < len(a); j += 4 {
				x0, y0 := a[j], b[j]
				a[j] = x0 + y0
				b[j] = x0 - y0
				x1, y1 := a[j+1], b[j+1]
				a[j+1] = x1 + y1
				b[j+1] = x1 - y1
				x2, y2 := a[j+2], b[j+2]
				a[j+2] = x2 + y2
				b[j+2] = x2 - y2
				x3, y3 := a[j+3], b[j+3]
				a[j+3] = x3 + y3
				b[j+3] = x3 - y3
			}
		}
	}
}

// nextPow2 returns the smallest power of two >= d (d >= 1).
func nextPow2(d int) int {
	return 1 << bits.Len(uint(d-1))
}

// projectionKey condenses (seed, round, k, d) into the content key of a
// filled SRHT plan, so scratch reuse within a call (Bulyan's iterated
// selection re-projects the shrinking candidate set under the same plan)
// skips identical refills.
func projectionKey(seed int64, round, k, d int) uint64 {
	return simtime.Mix(int64(simtime.Mix(seed, round, sketchKeyDomain)), k, d)
}

// fillSRHTPlan derives the round's transform plan: one sign word per
// 64-column block (hash stream (rowSeed, block, 0)) and the k sampled
// Hadamard coordinates — the k lowest hash ranks (stream (rowSeed, c, 1))
// among the pq transform outputs, kept in ascending coordinate order. Both
// streams are counter-mode SplitMix64 keyed only on (seed, round), no
// generator state, so every worker derives the identical plan.
func fillSRHTPlan(words []uint64, idx []int, seed int64, round, pq int, s *Scratch) {
	rowSeed := int64(simtime.Mix(seed, round, sketchKeyDomain))
	for b := range words {
		words[b] = simtime.Mix(rowSeed, b, 0)
	}
	s.srhtRank = grow(s.srhtRank, pq)
	s.srhtTmp = grow(s.srhtTmp, pq)
	rank := s.srhtRank
	for c := 0; c < pq; c++ {
		rank[c] = simtime.U01(rowSeed, c, 1)
		s.srhtTmp[c] = c
	}
	slices.SortStableFunc(s.srhtTmp, func(a, b int) int { return cmp.Compare(rank[a], rank[b]) })
	copy(idx, s.srhtTmp[:len(idx)])
	slices.Sort(idx)
}

// --- sketched filters ---

// KrumSketch is Krum over JL-sketched gradients: the argmin of the sketched
// Krum scores, returned as the ORIGINAL (unsketched) gradient of the winner
// — the sketch only ranks, it never distorts the output vector.
type KrumSketch struct{ SketchParams }

var _ IntoFilter = (*KrumSketch)(nil)
var _ RoundKeyed = (*KrumSketch)(nil)
var _ SketchConfigurable = (*KrumSketch)(nil)

// Name implements Filter.
func (*KrumSketch) Name() string { return "krum-sketch" }

// Aggregate implements Filter. It requires n >= 2f + 3.
func (kr *KrumSketch) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(kr, grads, f)
}

// AggregateInto implements IntoFilter.
func (kr *KrumSketch) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	if _, err := validateInto(dst, grads, f); err != nil {
		return err
	}
	scores, err := kr.SketchParams.krumScores(grads, f, orFresh(s))
	if err != nil {
		return err
	}
	copy(dst, grads[argMinScore(scores)])
	return nil
}

// MultiKrumSketch averages the M gradients with the best sketched Krum
// scores. M must be in [1, n-f], as for MultiKrum.
type MultiKrumSketch struct {
	M int
	SketchParams
}

var _ IntoFilter = (*MultiKrumSketch)(nil)

// Name implements Filter.
func (m *MultiKrumSketch) Name() string { return fmt.Sprintf("multikrum-sketch-%d", m.M) }

// Aggregate implements Filter.
func (m *MultiKrumSketch) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(m, grads, f)
}

// AggregateInto implements IntoFilter.
func (m *MultiKrumSketch) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	sc := orFresh(s)
	scores, err := m.SketchParams.krumScores(grads, f, sc)
	if err != nil {
		return err
	}
	return meanOfBestScores(dst, grads, scores, m.M, n, f, sc)
}

// BulyanSketch is Bulyan with every Krum scoring pass of the iterated
// selection running on sketched gradients; the final trimmed mean uses the
// original gradients of the selected set, so the sketch decides membership
// only. One projection per call serves every iteration (the matrix is keyed
// on the round, not the iteration).
type BulyanSketch struct{ SketchParams }

var _ IntoFilter = (*BulyanSketch)(nil)

// Name implements Filter.
func (*BulyanSketch) Name() string { return "bulyan-sketch" }

// Aggregate implements Filter. It requires n >= 4f + 3.
func (bl *BulyanSketch) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(bl, grads, f)
}

// AggregateInto implements IntoFilter.
func (bl *BulyanSketch) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	sc := orFresh(s)
	return bulyanInto(dst, grads, n, f, sc, func(remaining [][]float64) ([]float64, error) {
		return bl.SketchParams.krumScores(remaining, f, sc)
	})
}

// --- shared sampled-pairs configuration ---

// SampleParams configures the sampled-pairs filters and carries their round
// state. The zero value is ready: default sample size, seed 0. The sampled
// loop is sequential: O(n²) rank hashes plus O(n·m·d) distance arithmetic a
// call, the m best ranks of a point picked by a threshold pass (pickSample)
// rather than sorted; only the exact fallback fans out.
type SampleParams struct {
	// Pairs is the neighbor sample size m per point; 0 means
	// DefaultSamplePairs. When Pairs >= n-1 every pair is scored and the
	// filter is exactly its full-pairs counterpart.
	Pairs int
	// Seed keys the sample draws together with the round (SetRound).
	Seed int64

	round int
}

// SetRound implements RoundKeyed.
func (p *SampleParams) SetRound(t int) { p.round = t }

// ConfigureSketch implements SketchConfigurable; dim sets the sample size.
func (p *SampleParams) ConfigureSketch(dim int, seed int64) {
	p.Pairs, p.Seed = dim, seed
}

func (p *SampleParams) pairs() int {
	if p.Pairs <= 0 {
		return DefaultSamplePairs
	}
	return p.Pairs
}

// krumScores scores each point against a deterministic hash-ranked sample
// of m neighbors, summing the k·m/(n-1) closest (the exact scorer's
// neighbor fraction, scaled to the sample). With m >= n-1 it delegates to
// the exact scorer — full sampling is not merely equivalent, it is the
// identical code path.
func (p *SampleParams) krumScores(grads [][]float64, f int, s *Scratch) ([]float64, error) {
	n := len(grads)
	if n < 2*f+3 {
		return nil, fmt.Errorf("krum needs n >= 2f+3, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	m := p.pairs()
	if m >= n-1 {
		return krumScores(grads, f, s)
	}
	k := (n - f - 2) * m / (n - 1) // scaled neighbor count; k <= m since n-f-2 <= n-1
	if k < 1 {
		k = 1
	}
	key := int64(simtime.Mix(p.Seed, p.round, sampleKeyDomain))
	s.scores = grow(s.scores, n)
	s.row = grow(s.row, m)
	s.idx = grow(s.idx, m+n)
	// sortFloats(row, s) may use s.keys[:2m]; the hashes live past it.
	s.keys = grow(s.keys, 2*m+2*n)
	cols, rank := s.keys[2*m:2*m+n], s.keys[2*m+n:]
	seed := simtime.MixSeed(key)
	for j := range cols {
		cols[j] = simtime.MixIndex(j)
	}
	limit := sampleLimit(n, m)
	scores := s.scores
	for i := 0; i < n; i++ {
		// Every candidate neighbor gets a hash rank that depends only on
		// (key, i, j): Mix(key, i, j) >> 11, ordered as U01(key, i, j) is, ties
		// included. The sample is the m best-ranked.
		prefix := simtime.MixIn(seed, cols[i])
		for j, c := range cols {
			rank[j] = simtime.MixIn(prefix, c) >> 11
		}
		rank[i] = 1 << 53 // not a neighbor of itself
		row := s.row[:0]
		for _, j := range pickSample(s.idx[:0:m], s.idx[m:m+n], rank, m, limit) {
			row = append(row, vecmath.DistSqKernel(grads[i], grads[j]))
		}
		sortFloats(row, s)
		var sum float64
		for _, v := range row[:k] {
			sum += v
		}
		scores[i] = sum
	}
	return scores, nil
}

// sampleKeep is how many candidates per sampled neighbor pickSample's first
// pass keeps on average. At n = 200, m = 16 (BenchmarkKrumSampled) 2 keeps
// 32 of 199, falls back once in ~3,500 rows and reads 380–400 µs a call; 1.5
// falls back once in 37 rows for 370–390, and 3 reads 445–460.
const sampleKeep = 2

// sampleLimit is the rank threshold ⌊min(1, sampleKeep·m/(n−1))·2⁵³⌋.
func sampleLimit(n, m int) uint64 {
	share := float64(sampleKeep*m) / float64(n-1)
	if share >= 1 {
		return 1 << 53
	}
	return uint64(share * (1 << 53))
}

// pickSample returns in sel (capacity >= m) the m indices j of lowest
// (rank[j], j), ordered that way, among those with rank[j] < 2⁵³ (at least m
// of them). A first pass writes to kept (len >= len(rank)), in ascending j,
// every j whose rank is below limit, branch-free: the sign bit of
// rank[j]-limit advances the count. Every j it drops ranks above every j it
// keeps, so if it keeps m or more the m best of them are the m best of the
// row, and bestRanked runs over about sampleKeep·m rather than n−1; if not,
// the pass runs again with no threshold.
func pickSample(sel, kept []int, rank []uint64, m int, limit uint64) []int {
	for {
		c := 0
		for j, r := range rank {
			kept[c] = j
			c += int((r - limit) >> 63)
		}
		if c >= m {
			return bestRanked(sel, kept[:c], rank, m)
		}
		limit = 1 << 53
	}
}

// bestRanked appends to idx (capacity >= m) the m indices j of cand (in
// ascending order) of lowest rank[j], ordered by (rank[j], j): a bounded
// insertion buffer filled in one pass. j ascends and the comparisons are
// strict, so the lower index wins an equal rank, as in a stable sort.
func bestRanked(idx, cand []int, rank []uint64, m int) []int {
	for _, j := range cand {
		r := rank[j]
		at := len(idx)
		if at < m {
			idx = idx[:at+1]
		} else if at--; r >= rank[idx[at]] {
			continue
		}
		for at > 0 && r < rank[idx[at-1]] {
			idx[at] = idx[at-1]
			at--
		}
		idx[at] = j
	}
	return idx
}

// --- sampled filters ---

// KrumSampled is Krum with subsampled pairwise scoring.
type KrumSampled struct{ SampleParams }

var _ IntoFilter = (*KrumSampled)(nil)
var _ RoundKeyed = (*KrumSampled)(nil)
var _ SketchConfigurable = (*KrumSampled)(nil)

// Name implements Filter.
func (*KrumSampled) Name() string { return "krum-sampled" }

// Aggregate implements Filter. It requires n >= 2f + 3.
func (kr *KrumSampled) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(kr, grads, f)
}

// AggregateInto implements IntoFilter.
func (kr *KrumSampled) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	if _, err := validateInto(dst, grads, f); err != nil {
		return err
	}
	scores, err := kr.SampleParams.krumScores(grads, f, orFresh(s))
	if err != nil {
		return err
	}
	copy(dst, grads[argMinScore(scores)])
	return nil
}

// MultiKrumSampled averages the M gradients with the best sampled scores.
type MultiKrumSampled struct {
	M int
	SampleParams
}

var _ IntoFilter = (*MultiKrumSampled)(nil)

// Name implements Filter.
func (m *MultiKrumSampled) Name() string { return fmt.Sprintf("multikrum-sampled-%d", m.M) }

// Aggregate implements Filter.
func (m *MultiKrumSampled) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(m, grads, f)
}

// AggregateInto implements IntoFilter.
func (m *MultiKrumSampled) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	sc := orFresh(s)
	scores, err := m.SampleParams.krumScores(grads, f, sc)
	if err != nil {
		return err
	}
	return meanOfBestScores(dst, grads, scores, m.M, n, f, sc)
}

// BulyanSampled is Bulyan with sampled Krum scoring in the iterated
// selection.
type BulyanSampled struct{ SampleParams }

var _ IntoFilter = (*BulyanSampled)(nil)

// Name implements Filter.
func (*BulyanSampled) Name() string { return "bulyan-sampled" }

// Aggregate implements Filter. It requires n >= 4f + 3.
func (bl *BulyanSampled) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return allocVia(bl, grads, f)
}

// AggregateInto implements IntoFilter.
func (bl *BulyanSampled) AggregateInto(dst []float64, grads [][]float64, f int, s *Scratch) error {
	n, err := validateInto(dst, grads, f)
	if err != nil {
		return err
	}
	sc := orFresh(s)
	return bulyanInto(dst, grads, n, f, sc, func(remaining [][]float64) ([]float64, error) {
		return bl.SampleParams.krumScores(remaining, f, sc)
	})
}

// --- shared selection helpers ---

// argMinScore returns the index of the smallest score, first occurrence
// winning ties — the Krum family's deterministic tie-break.
func argMinScore(scores []float64) int {
	best := 0
	for i := 1; i < len(scores); i++ {
		if scores[i] < scores[best] {
			best = i
		}
	}
	return best
}

// meanOfBestScores writes the mean of the M best-scored gradients into dst,
// accumulated in score order — the exact MultiKrum selection and summation
// sequence, shared by the exact and approximate variants.
func meanOfBestScores(dst []float64, grads [][]float64, scores []float64, mVal, n, f int, s *Scratch) error {
	if mVal < 1 || mVal > n-f {
		return fmt.Errorf("multi-krum M=%d out of [1, n-f]=[1, %d]: %w", mVal, n-f, ErrInput)
	}
	s.idx = grow(s.idx, n)
	idx := s.idx
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(scores[a], scores[b]) })
	// Mean of the M best, accumulated in score order exactly as the
	// allocating path fed them to vecmath.Mean.
	for j := range dst {
		dst[j] = 0
	}
	for _, i := range idx[:mVal] {
		for j, v := range grads[i] {
			dst[j] += v
		}
	}
	vecmath.ScaleInPlace(1/float64(mVal), dst)
	return nil
}
