package aggregate

// The order of the Krum scores, which is all Krum, MultiKrum and Bulyan read
// of them, must be the order of the sums taken ascending (ties by index)
// whichever way scoreFromDists scored a row: by selection when 8(f+1) <= n,
// by the sort otherwise and for every row rescoreUncertain sends back.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"byzopt/internal/byzantine"
	"byzopt/internal/vecmath"
)

// stableArgsort is the order MultiKrum reads: ascending by score, ties by index.
func stableArgsort(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(scores[a], scores[b]) })
	return idx
}

// refScoresFromDists gathers each row without its own entry, sorts it with
// slices.Sort and sums the n-f-2 smallest ascending.
func refScoresFromDists(d2 [][]float64, f int) []float64 {
	n := len(d2)
	scores := make([]float64, n)
	for i, di := range d2 {
		row := append(slices.Clone(di[:i]), di[i+1:]...)
		slices.Sort(row)
		for _, v := range row[:n-f-2] {
			scores[i] += v
		}
	}
	return scores
}

func requireSameOrder(t *testing.T, what string, d2 [][]float64, f int, s *Scratch) {
	t.Helper()
	want := refScoresFromDists(d2, f)
	got := scoreFromDists(d2, len(d2), f, s)
	wantOrder, gotOrder := stableArgsort(want), stableArgsort(got)
	for p := range wantOrder {
		if wantOrder[p] != gotOrder[p] {
			w, g := wantOrder[p], gotOrder[p]
			t.Fatalf("%s n=%d f=%d: place %d holds row %d (score %v, ascending sum %v), the ascending sums put row %d there (score %v, ascending sum %v)",
				what, len(d2), f, p, g, got[g], want[g], w, got[w], want[w])
		}
	}
}

// rowOrders returns grads in three row orders: as given, reversed, shuffled.
func rowOrders(r *rand.Rand, grads [][]float64) [3][][]float64 {
	rev := slices.Clone(grads)
	slices.Reverse(rev)
	shuf := slices.Clone(grads)
	r.Shuffle(len(shuf), func(a, b int) { shuf[a], shuf[b] = shuf[b], shuf[a] })
	return [3][][]float64{grads, rev, shuf}
}

// requireKrumFamilyBits holds the score order and the outputs of Krum,
// MultiKrum (M = 1 and M = n-f) and, when asked, Bulyan to the sort-based
// references of into_test.go on grads in three row orders.
func requireKrumFamilyBits(t *testing.T, r *rand.Rand, what string, grads [][]float64, f int, bulyan bool, s *Scratch) {
	t.Helper()
	n, d := len(grads), len(grads[0])
	filters := []IntoFilter{Krum{}, MultiKrum{M: 1}, MultiKrum{M: n - f}}
	if bulyan && n >= 4*f+3 {
		filters = append(filters, Bulyan{})
	}
	for p, table := range rowOrders(r, grads) {
		what := fmt.Sprintf("%s n=%d f=%d order %d", what, n, f, p)
		requireSameOrder(t, what, refPairwiseDistSq(table), f, s)
		for _, fl := range filters {
			want, err := refAggregate(fl, table, f)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", what, fl.Name(), err)
			}
			dst := make([]float64, d)
			if err := fl.AggregateInto(dst, table, f, s); err != nil {
				t.Fatalf("%s %s: %v", what, fl.Name(), err)
			}
			requireBits(t, what+" "+fl.Name(), want, dst, false)
		}
	}
}

// alieTable is the table ALIE gives a round: n-f Gaussian reports and f
// copies of the vector byzantine.ALittleIsEnough derives from them.
func alieTable(t testing.TB, r *rand.Rand, n, d, f int) [][]float64 {
	t.Helper()
	grads := fuzzGradients(r, n, d, 0)
	report := make([]float64, d)
	if err := (byzantine.ALittleIsEnough{Z: 1.5}).ApplyInto(report, 0, 0, report, grads[:n-f]); err != nil {
		t.Fatal(err)
	}
	for i := n - f; i < n; i++ {
		grads[i] = slices.Clone(report)
	}
	return grads
}

func scaleRows(rows [][]float64, by float64) {
	for _, g := range rows {
		vecmath.ScaleInPlace(by, g)
	}
}

func TestScoreOrderMatchesAscendingSums(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	s := &Scratch{}

	// Gaussian, with f on both sides of the 8(f+1) <= n rule and on it.
	for _, n := range []int{64, 65, 100, 200, 257} {
		for _, f := range []int{n/8 - 2, n/8 - 1, n / 8} {
			requireKrumFamilyBits(t, r, "gaussian", fuzzGradients(r, n, 5, 0), f, n <= 100, s)
		}
	}

	const n, d, f = 100, 5, 10
	// Every distance between two reports is 2: each row is a tie at the cut.
	oneHot := make([][]float64, n)
	for i := range oneHot {
		oneHot[i] = make([]float64, n)
		oneHot[i][i] = 1
	}
	// Squared distances of about 1e300 in one row and column, of +Inf
	// everywhere, and of +Inf in f+1 rows and columns only: finite scores
	// beside infinite ones.
	outlier := fuzzGradients(r, n, d, 0)
	scaleRows(outlier[3:4], 1e150)
	allHuge := fuzzGradients(r, n, d, 0)
	scaleRows(allHuge, 1e160)
	someHuge := fuzzGradients(r, n, d, 0)
	scaleRows(someHuge[n-f-1:], 1e160)
	families := []struct {
		name  string
		grads [][]float64
	}{
		{"alie-shaped", alieTable(t, r, n, d, f)},
		{"tie-heavy", wideGradients(r, n, d, "tie-heavy")},
		{"signed zeros", wideGradients(r, n, d, "signed-zero")},
		{"all reports identical", constGrads(n, d, 1.25)},
		{"equal distances", oneHot},
		{"one outlier at 1e150", outlier},
		{"scaled by 1e160", allHuge},
		{"f+1 reports scaled by 1e160", someHuge},
	}
	for _, fam := range families {
		requireKrumFamilyBits(t, r, fam.name, fam.grads, f, true, s)
	}
}

// closeRows describes a 64×64 table of distances for f = 7 (55 entries of a
// row kept, 8 dropped) whose rows 0 and 1 are built so that their real sums
// are known: row 0 keeps big and then count times small, in that index order,
// row 1 keeps the single entry lone. Every other kept entry of the two rows
// is 0, every dropped one is dropped, and rows 2.. are uniform in [2, 3), far
// from both. swap exchanges rows 0 and 1.
type closeRows struct {
	name             string
	big, small       float64
	count            int
	lone, dropped    float64
	swap             bool
	exact            int // rows the selection side must send back to the sort
	selectionInverts bool
}

func (c closeRows) matrix(r *rand.Rand) [][]float64 {
	const n, f = 64, 7
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
		for j := range d2[i] {
			switch {
			case j == i:
			case i < 2 && j >= n-(f+1):
				d2[i][j] = c.dropped
			case i >= 2:
				d2[i][j] = 2 + r.Float64()
			}
		}
	}
	d2[0][2] = c.big
	for j := 3; j < 3+c.count; j++ {
		d2[0][j] = c.small
	}
	d2[1][2] = c.lone
	if c.swap {
		d2[0], d2[1] = d2[1], d2[0]
	}
	return d2
}

func TestScoreOrderOfNearTies(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s := &Scratch{}
	const n, f = 64, 7
	tol := float64(n) * 0x1p-50
	for _, tc := range []closeRows{
		// In index order 1 + 2^-53 is 1 every time: row 0 scores 1 by
		// selection. Ascending, the small terms add up first: 1+2^-51 with
		// four of them, after row 1's 1+2^-52 and not before it.
		{name: "one ulp apart, selection order inverted", big: 1, small: 0x1p-53, count: 4, lone: 1 + 0x1p-52, dropped: 4, exact: 2, selectionInverts: true},
		{name: "one ulp apart", big: 1, small: 0x1p-53, count: 2, lone: 1 + 0x1p-51, dropped: 4, exact: 2},
		{name: "bit-equal sums, tie by index", big: 1, small: 0x1p-53, count: 2, lone: 1 + 0x1p-52, dropped: 4, exact: 2},
		{name: "tol/2 apart", big: 1, lone: 1 + tol/2, dropped: 4, exact: 2},
		{name: "2 tol apart", big: 1, lone: 1 + 2*tol, dropped: 4, exact: 0},
		// MaxFloat64 + 2^969 is MaxFloat64 every time, but four of them first
		// are one ulp and the sum overflows: both rows sum to +Inf ascending
		// and tie by index, while the selection score of one is finite.
		{name: "overflows in ascending order only", big: math.MaxFloat64, small: 0x1p969, count: 4, lone: math.Inf(1), dropped: math.Inf(1), swap: true, exact: 2, selectionInverts: true},
	} {
		d2 := tc.matrix(r)
		requireSameOrder(t, tc.name, d2, f, s)
		if got := exactRows(d2, f, s); got != tc.exact {
			t.Errorf("%s: %d rows took the exact path, want %d", tc.name, got, tc.exact)
		}
		// The case is only a test of rescoreUncertain if selection alone
		// gets it wrong.
		if tc.selectionInverts {
			sel := make([]float64, n)
			for i := range sel {
				sel[i] = selectionScore(d2[i], i, n-f-2, make([]float64, f+1))
			}
			if slices.Equal(stableArgsort(sel), stableArgsort(refScoresFromDists(d2, f))) {
				t.Errorf("%s: the selection scores alone are already in the order of the ascending sums", tc.name)
			}
		}
	}
}

// exactRows counts the rows of d2 that scoreFromDists' selection side sends
// back to the sort: its two steps, with rescoreUncertain's count kept.
func exactRows(d2 [][]float64, f int, s *Scratch) int {
	n := len(d2)
	k := n - f - 2
	scores := make([]float64, n)
	s.row = grow(s.row, n)
	for i := range scores {
		scores[i] = selectionScore(d2[i], i, k, s.row[:f+1])
	}
	return rescoreUncertain(scores, d2, k, s)
}

// TestExactPathIsRare: on a Gaussian table no row needs the sort, on an
// ALIE-shaped one only the coalition's f identical reports do.
func TestExactPathIsRare(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	s := &Scratch{}
	const n, d, f = 200, 50, 10
	if got := exactRows(refPairwiseDistSq(fuzzGradients(r, n, d, 0)), f, s); got != 0 {
		t.Errorf("gaussian: %d of %d rows took the exact path, want 0", got, n)
	}
	if got := exactRows(refPairwiseDistSq(alieTable(t, r, n, d, f)), f, s); got > n/20 {
		t.Errorf("alie-shaped: %d of %d rows took the exact path, want at most %d", got, n, n/20)
	}
}

// FuzzScoreOrder reads the input as a pool of little-endian float64 distances
// (NaN, which no squared distance of finite reports can be, becomes +Inf; a
// sign is dropped) and fills a symmetric n×n table from it, repeats scaled by
// 1, 2, 3 so that a short pool still gives rows that differ.
func FuzzScoreOrder(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	flat := func(grads [][]float64) []byte {
		var b []byte
		for _, row := range refPairwiseDistSq(grads) {
			b = append(b, le(row...)...)
		}
		return b
	}
	r := rand.New(rand.NewSource(25))
	f.Add(flat(fuzzGradients(r, 16, 3, 0)), uint8(16), uint8(1))
	f.Add(flat(fuzzGradients(r, 16, 3, 0)), uint8(16), uint8(6))
	f.Add(flat(alieTable(f, r, 24, 3, 2)), uint8(24), uint8(2))
	f.Add(flat(wideGradients(r, 16, 2, "tie-heavy")), uint8(16), uint8(1))
	f.Add(flat(wideGradients(r, 16, 2, "signed-zero")), uint8(16), uint8(1))
	f.Add(le(2), uint8(64), uint8(7))
	f.Add(le(0), uint8(32), uint8(3))
	f.Add(le(1, 0x1p-53, 0x1p-53, 0, 4), uint8(40), uint8(4))
	f.Add(le(1e300, math.Inf(1), 3, 1e-300), uint8(100), uint8(10))
	f.Add(le(math.MaxFloat64, 1, 5e-324), uint8(200), uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, nRaw, fRaw uint8) {
		pool := make([]float64, len(data)/8)
		for i := range pool {
			v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
			if v != v {
				v = math.Inf(1)
			}
			pool[i] = v
		}
		if len(pool) == 0 {
			return
		}
		n := 8 + int(nRaw)
		fv := int(fRaw) % ((n-3)/2 + 1) // n >= 2f+3
		d2 := make([][]float64, n)
		for i := range d2 {
			d2[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				at := i*n + j
				v := pool[at%len(pool)] * float64(1+at/len(pool)%3)
				d2[i][j], d2[j][i] = v, v
			}
		}
		requireSameOrder(t, "fuzz", d2, fv, &Scratch{})
	})
}
