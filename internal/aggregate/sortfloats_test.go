package aggregate

// Bitwise gates at the sizes the radix and selection paths run at: sortFloats
// against slices.Sort, the filters that sort through it against sort-based
// references at n >= radixCutoff, the sampled scorer's bounded selection
// against the stable sort it replaced, and the size of Scratch.

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"byzopt/internal/simtime"
	"byzopt/internal/vecmath"
)

// TestScratchSize pins Scratch to the 704-byte Go size class it sits in
// today. dgd.Round embeds a Scratch and every run builds one, so one more
// slice header moves the struct to the 768-byte class (measured when a p2p
// cell built seven Rounds: +96 bytes read 32.28 -> 33.06 KB a cell, over
// p2p_grid's 2 % alloc_kb_per_cell bound). A new buffer has to share an
// existing field.
func TestScratchSize(t *testing.T) {
	if size := unsafe.Sizeof(Scratch{}); size > 704 {
		t.Errorf("Scratch is %d bytes, want <= 704 (the size class dgd.Round's allocation is measured at)", size)
	}
}

var negZero = math.Copysign(0, -1)

// signedZeroDraw draws from a pool that is two thirds zeros of either sign:
// the inputs on which a sort's tie order could show in a result's bits.
func signedZeroDraw(r *rand.Rand) float64 {
	return []float64{0, negZero, negZero, 0, 1, -1}[r.Intn(6)]
}

// checkSortFloats holds sortFloats to slices.Sort on one input: element-wise
// Float64bits equality, except inside a run of zeros, where slices.Sort's tie
// order decides the signs and only == can be asked (the radix path itself
// must put every -0 before every +0).
func checkSortFloats(t *testing.T, what string, in []float64) {
	t.Helper()
	want := slices.Clone(in)
	slices.Sort(want)
	got := slices.Clone(in)
	sortFloats(got, &Scratch{})
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] == 0 && want[i] == 0) {
			t.Fatalf("%s len %d: sorted[%d] = %v (%#x), slices.Sort has %v (%#x)",
				what, len(in), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
		if i > 0 && len(in) >= radixCutoff && got[i-1] == 0 && got[i] == 0 && math.Signbit(got[i]) && !math.Signbit(got[i-1]) {
			t.Fatalf("%s len %d: +0 at %d sorted before -0", what, len(in), i-1)
		}
	}
}

// below40 replaces the low 24 bits of v's key, which sortFloats' five radix
// passes do not look at, with bits of low: a value that shares v's top 40.
func below40(v float64, low uint64) float64 {
	return math.Float64frombits(math.Float64bits(v)&^(1<<24-1) | low&(1<<24-1))
}

// convergedDraw is within 2⁻³⁰ relative of c.
func convergedDraw(r *rand.Rand, c float64) float64 {
	return c * (1 + (2*r.Float64()-1)*0x1p-30)
}

func TestSortFloatsMatchesSlicesSort(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	special := []float64{0, negZero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1040, -0x1p-1040, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), 1, -1}
	draws := map[string]func(i, n int) float64{
		// Ties on the top 40 key bits that no two adjacent inputs share, so
		// the five-byte sort runs and its insertion pass has runs to order.
		"40-bit ties": func(i, _ int) float64 {
			if i%2 == 1 {
				return r.NormFloat64() * 3
			}
			return below40([]float64{-7.25, 0.1, 1e300}[r.Intn(3)], r.Uint64())
		},
		"converged": func(int, int) float64 { return convergedDraw(r, -3.3) },
		"gaussian":  func(int, int) float64 { return r.NormFloat64() * 3 },
		"positive":  func(int, int) float64 { return 100 + 20*r.Float64() }, // a Krum row: top digits agree
		"tie-heavy": func(int, int) float64 { return float64(r.Intn(5) - 2) },
		"all-equal": func(int, int) float64 { return -2.5 },
		"sorted":    func(i, _ int) float64 { return float64(i) - 30.5 },
		"reversed":  func(i, n int) float64 { return float64(n-i) - 30.5 },
		"zeros":     func(int, int) float64 { return signedZeroDraw(r) },
		"special":   func(int, int) float64 { return special[r.Intn(len(special))] },
		"wide-exp":  func(int, int) float64 { return math.Ldexp(r.NormFloat64(), r.Intn(2000)-1000) },
	}
	lengths := []int{0, 1, 2, 3, radixCutoff - 1, radixCutoff, radixCutoff + 1, 100, 199, 200, 257, 1000}
	for name, draw := range draws {
		for _, n := range lengths {
			for trial := 0; trial < 8; trial++ {
				in := make([]float64, n)
				for i := range in {
					in[i] = draw(i, n)
				}
				checkSortFloats(t, name, in)
			}
		}
	}
}

// FuzzSortFloats reads the input as little-endian float64s (NaNs, which no
// filter input or squared distance of finite inputs can be, become +Inf) and,
// so that short fuzz inputs still reach the radix passes, repeats them up to
// the length the second argument asks for.
func FuzzSortFloats(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{}, uint16(0))
	f.Add(le(1), uint16(1))
	f.Add(le(2, -1), uint16(2))
	f.Add(le(0, negZero, 0, negZero), uint16(radixCutoff))
	f.Add(le(3, 3, 3), uint16(radixCutoff+1))
	f.Add(le(math.MaxFloat64, -math.MaxFloat64, math.Inf(1), 5e-324, -5e-324), uint16(200))
	f.Add(le(1, 2, 3, 4, 5, 6, 7), uint16(radixCutoff-1))
	f.Add(le(7, 6, 5, 4, 3, 2, 1, 0, -1), uint16(257))
	r := rand.New(rand.NewSource(40))
	ties, converged := make([]float64, 2*radixCutoff), make([]float64, 2*radixCutoff)
	for i := range ties {
		ties[i] = below40(float64(i%3)-0.5, r.Uint64())
		if i%2 == 1 {
			ties[i] = r.NormFloat64()
		}
		converged[i] = convergedDraw(r, 12.5)
	}
	f.Add(le(ties...), uint16(0))
	f.Add(le(converged...), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, length uint16) {
		base := make([]float64, len(data)/8)
		for i := range base {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if v != v {
				v = math.Inf(1)
			}
			base[i] = v
		}
		in := base
		if n := int(length % 1024); len(base) > 0 && n > len(base) {
			in = make([]float64, n)
			for i := range in {
				// Vary the repeats so a long input is not one value n times.
				in[i] = base[i%len(base)] * float64(1+i/len(base))
			}
		}
		checkSortFloats(t, "fuzz", in)
	})
}

// --- sort-based references for the REDGRAF filters ---

func refSortedColumn(grads [][]float64, rows []int, k int) []float64 {
	col := make([]float64, len(rows))
	for i, idx := range rows {
		col[i] = grads[idx][k]
	}
	sort.Float64s(col)
	return col
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func refRVO(grads [][]float64, f int) []float64 {
	n := len(grads)
	out := make([]float64, len(grads[0]))
	for k := range out {
		col := refSortedColumn(grads, allRows(n), k)
		out[k] = 0.5 * (col[f] + col[n-f-1])
	}
	return out
}

// refDistanceMixMax is one SDMMFD round against center, by full sorts: keep
// the n-f gradients closest to center (stable by index), then the f-trimmed
// mean of the survivors per coordinate.
func refDistanceMixMax(grads [][]float64, center []float64, f int) []float64 {
	n := len(grads)
	dist := make([]float64, n)
	for i, g := range grads {
		for j, v := range g {
			dv := v - center[j]
			dist[i] += dv * dv
		}
	}
	order := allRows(n)
	sort.SliceStable(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })
	keep := order[:n-f]
	sort.Ints(keep)
	out := make([]float64, len(center))
	for k := range out {
		col := refSortedColumn(grads, keep, k)
		var sum float64
		for _, v := range col[f : len(col)-f] {
			sum += v
		}
		out[k] = sum / float64(len(col)-2*f)
	}
	return out
}

func refCWMedianCenter(grads [][]float64) []float64 {
	center, err := refCWMedian(grads, 0)
	if err != nil {
		panic(err)
	}
	return center
}

// wideGradients draws the three input kinds of the wide parity gate.
func wideGradients(r *rand.Rand, n, d int, kind string) [][]float64 {
	switch kind {
	case "gaussian":
		return fuzzGradients(r, n, d, 0)
	case "tie-heavy":
		return fuzzGradients(r, n, d, 2)
	}
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = make([]float64, d)
		for j := range grads[i] {
			grads[i][j] = signedZeroDraw(r)
		}
	}
	return grads
}

func requireBits(t *testing.T, what string, want, got []float64, zeroSignFree bool) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) == math.Float64bits(want[i]) {
			continue
		}
		if zeroSignFree && got[i] == 0 && want[i] == 0 {
			continue
		}
		t.Fatalf("%s: coordinate %d = %v (%#x), reference has %v (%#x)",
			what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// TestWideIntoMatchesReference is TestIntoMatchesAggregateAndReference at the
// sizes where rows and columns reach radixCutoff: every filter that sorts
// through sortFloats, trimMiddle's long-column path or RVO's two selections
// must reproduce its sort-based reference bit for bit, through both faces and
// one Scratch shared across every size. Only RVO may differ, and only in the
// sign of an exactly-zero coordinate: when both its order statistics are
// zeros of opposite sign, which of them is -0 was always left to the sort's
// tie order.
func TestWideIntoMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20261002))
	scratch := &Scratch{}
	const f = 10
	for _, n := range []int{64, 65, 100, 200, 257} {
		for _, d := range []int{1, 50} {
			for _, kind := range []string{"gaussian", "tie-heavy", "signed-zero"} {
				grads := wideGradients(r, n, d, kind)
				type wideCase struct {
					fl   IntoFilter
					want func() []float64 // nil: refAggregate
				}
				cases := []wideCase{
					{Krum{}, nil},
					{MultiKrum{M: 3}, nil},
					{CWTM{}, nil},
					{&RSDMMFD{}, func() []float64 { return refDistanceMixMax(grads, refCWMedianCenter(grads), f) }},
					{RVO{}, func() []float64 { return refRVO(grads, f) }},
				}
				if d == 1 || n <= 100 { // theta = n-2f full distance matrices per call, three times over
					cases = append(cases, wideCase{Bulyan{}, nil})
				}
				for _, tc := range cases {
					what := tc.fl.Name() + " " + kind
					var want []float64
					if tc.want != nil {
						want = tc.want()
					} else {
						var err error
						if want, err = refAggregate(tc.fl, grads, f); err != nil {
							t.Fatalf("%s n=%d d=%d: reference: %v", what, n, d, err)
						}
					}
					got, err := tc.fl.Aggregate(grads, f)
					if err != nil {
						t.Fatalf("%s n=%d d=%d: %v", what, n, d, err)
					}
					dst := make([]float64, d)
					if err := tc.fl.AggregateInto(dst, grads, f, scratch); err != nil {
						t.Fatalf("%s n=%d d=%d: %v", what, n, d, err)
					}
					_, isRVO := tc.fl.(RVO)
					requireBits(t, what+" Aggregate", want, got, isRVO)
					requireBits(t, what+" AggregateInto", want, dst, isRVO)
				}

				// SDMMFD carries its center across rounds: three rounds on
				// fresh draws, the reference relaxing its own center.
				sd, center := &SDMMFD{}, refCWMedianCenter(grads)
				for round := 0; round < 3; round++ {
					if round > 0 {
						grads = wideGradients(r, n, d, kind)
					}
					want := refDistanceMixMax(grads, center, f)
					for j := range center {
						center[j] += 0.5 * (want[j] - center[j])
					}
					sd.SetRound(round)
					dst := make([]float64, d)
					if err := sd.AggregateInto(dst, grads, f, scratch); err != nil {
						t.Fatalf("sdmmfd %s n=%d d=%d round %d: %v", kind, n, d, round, err)
					}
					requireBits(t, "sdmmfd "+kind, want, dst, false)
				}
			}
		}
	}
}

// TestTrimMiddleLongColumnsBitwise holds the radix path of trimMiddle to the
// three-step path it replaced on the window the callers read, bits and all,
// and CWTM's sum over it.
func TestTrimMiddleLongColumnsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	s := &Scratch{}
	for _, n := range []int{radixCutoff, radixCutoff + 1, 100, 200, 257} {
		for _, f := range []int{0, 1, 10, (n - 1) / 2} {
			for _, kind := range []string{"gaussian", "tie-heavy", "signed-zero"} {
				col := make([]float64, n)
				for i, g := range wideGradients(r, n, 1, kind) {
					col[i] = g[0]
				}
				want := slices.Clone(col)
				trimMiddleThreeStep(want, f)
				got := slices.Clone(col)
				trimMiddle(got, f, s)
				var wantSum, gotSum float64
				for i := f; i < n-f; i++ {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d f=%d: window[%d] = %v, three-step path has %v", kind, n, f, i, got[i], want[i])
					}
					wantSum += want[i]
					gotSum += got[i]
				}
				if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
					t.Fatalf("%s n=%d f=%d: window sum %v (%#x), three-step path gives %v (%#x)",
						kind, n, f, gotSum, math.Float64bits(gotSum), wantSum, math.Float64bits(wantSum))
				}
			}
		}
	}
}

// --- the sampled scorer's selection ---

// refSampledKrumScores is SampleParams.krumScores as it was before selection
// replaced the sort: stable-sort all n-1 neighbor indices of a point by hash
// rank, keep the first m.
func refSampledKrumScores(p *SampleParams, grads [][]float64, f int) []float64 {
	n, m := len(grads), p.pairs()
	k := max((n-f-2)*m/(n-1), 1)
	key := int64(simtime.Mix(p.Seed, p.round, sampleKeyDomain))
	u := make([]float64, n)
	scores := make([]float64, n)
	for i := range scores {
		var idx []int
		for j := 0; j < n; j++ {
			if j != i {
				u[j] = simtime.U01(key, i, j)
				idx = append(idx, j)
			}
		}
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(u[a], u[b]) })
		var row []float64
		for _, j := range idx[:m] {
			row = append(row, vecmath.DistSqKernel(grads[i], grads[j]))
		}
		slices.Sort(row)
		for _, v := range row[:k] {
			scores[i] += v
		}
	}
	return scores
}

// TestSampledSelectionMatchesStableSort holds the scorer to that reference bit
// for bit, with m on both sides of radixCutoff (from 64 the row's sortFloats
// writes the front of the Scratch's key buffer, behind which the scorer keeps
// its hashes) and one Scratch shared by every size.
func TestSampledSelectionMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	scratch := &Scratch{}
	for _, n := range []int{20, 100, 200, 257} {
		for _, m := range []int{1, 8, 16, radixCutoff - 1, radixCutoff, radixCutoff + 1, n - 2} {
			if m >= n-1 {
				continue // the exact scorer's path
			}
			for mode := 0; mode < 3; mode++ {
				grads := fuzzGradients(r, n, 5, mode)
				p := &SampleParams{Pairs: m, Seed: int64(n*1000 + m)}
				for round := 0; round < 3; round++ {
					p.SetRound(round)
					want := refSampledKrumScores(p, grads, 3)
					got, err := p.krumScores(grads, 3, scratch)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("n=%d m=%d mode=%d round=%d: score[%d] = %v, stable-sort scorer has %v",
								n, m, mode, round, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSamplePick holds pickSample to a stable sort of the row by rank cut at
// m, on crafted ranks: a threshold that keeps fewer than m (the fallback over
// every rank), equal ranks (which the 53-bit hash never produces by itself;
// the lower index must win), m = n-1, and random rows at random thresholds.
// The scored point skip gets rank 2⁵³, as the scorer gives it.
func TestSamplePick(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	check := func(what string, rank []uint64, skip, m int, limit uint64) {
		t.Helper()
		var want []int
		for j := range rank {
			if j != skip {
				want = append(want, j)
			}
		}
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(rank[a], rank[b]) })
		rank = slices.Clone(rank)
		rank[skip] = 1 << 53
		got := pickSample(make([]int, 0, m), make([]int, len(rank)), rank, m, limit)
		if !slices.Equal(got, want[:m]) {
			t.Fatalf("%s: ranks %v skip %d m %d limit %d: picked %v, stable sort keeps %v",
				what, rank, skip, m, limit, got, want[:m])
		}
	}
	uniform := func(n int) []uint64 {
		rank := make([]uint64, n)
		for j := range rank {
			rank[j] = r.Uint64() >> 11
		}
		return rank
	}

	// Fallback: the threshold keeps m-1 of the row, and the m-th best lies
	// above it, so only the pass over every rank finds it.
	const n, m = 40, 10
	rank := uniform(n)
	for j := range rank {
		rank[j] |= 1 << 52
	}
	for j := 0; j < m; j++ {
		rank[3*j+1] = uint64(j) << 40
	}
	limit := uint64(m-1) << 40
	kept := 0
	for j, v := range rank {
		if j != 3 && v < limit {
			kept++
		}
	}
	if kept != m-1 {
		t.Fatalf("crafted row has %d ranks under the threshold, want %d", kept, m-1)
	}
	check("fallback", rank, 3, m, limit)
	check("fallback, nothing kept", rank, 0, m, 0)

	// Equal ranks across the threshold and inside the kept set.
	for j := range rank {
		rank[j] = uint64(j%4) << 50
	}
	check("equal ranks", rank, 5, m, 2<<50)
	check("equal ranks, cut inside a tie", rank, 5, m+3, 2<<50)
	check("equal ranks, exactly m kept", rank, 5, m, 1<<50)

	// m = n-1: every rank is the sample.
	check("m = n-1", uniform(n), 7, n-1, sampleLimit(n, n-1))

	for trial := 0; trial < 3000; trial++ {
		n := 2 + r.Intn(80)
		m := 1 + r.Intn(n-1)
		rank := uniform(n)
		if trial%2 == 0 {
			for j := range rank {
				rank[j] = uint64(r.Intn(4)) << 51
			}
		}
		limit := sampleLimit(n, m)
		switch trial % 3 {
		case 1:
			limit = uint64(r.Int63n(1<<53 + 1))
		case 2:
			limit = rank[r.Intn(n)]
		}
		check("random", rank, r.Intn(n), m, limit)
	}
}
