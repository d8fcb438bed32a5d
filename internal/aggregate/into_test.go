package aggregate

// Parity and allocation gates for the scratch-space API: every filter's
// AggregateInto must be bitwise identical to Aggregate AND to a frozen copy
// of the pre-scratch implementations (full per-coordinate sorts,
// sort.SliceStable index sorts, allocating Weiszfeld) — the goldens were
// produced by those, so this file is what pins the quickselect and
// window-sum rewrites to the exact old float semantics.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"byzopt/internal/vecmath"
)

// --- frozen reference implementations (the pre-scratch code paths) ---

func refPairwiseDistSq(grads [][]float64) [][]float64 {
	n := len(grads)
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for k, v := range grads[i] {
				dv := v - grads[j][k]
				s += dv * dv
			}
			d2[i][j] = s
			d2[j][i] = s
		}
	}
	return d2
}

func refKrumScores(grads [][]float64, f int) ([]float64, int, error) {
	n, _, err := validate(grads, f)
	if err != nil {
		return nil, 0, err
	}
	if n < 2*f+3 {
		return nil, 0, fmt.Errorf("krum needs n >= 2f+3, got n=%d f=%d: %w", n, f, ErrTooManyFaults)
	}
	d2 := refPairwiseDistSq(grads)
	k := n - f - 2
	scores := make([]float64, n)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, d2[i][j])
			}
		}
		sort.Float64s(row)
		var s float64
		for _, v := range row[:k] {
			s += v
		}
		scores[i] = s
	}
	return scores, n, nil
}

func refCGE(c CGE, grads [][]float64, f int) ([]float64, error) {
	n, d, err := validate(grads, f)
	if err != nil {
		return nil, err
	}
	if n <= f {
		return nil, fmt.Errorf("CGE needs n > f: %w", ErrTooManyFaults)
	}
	idx := make([]int, n)
	norms := make([]float64, n)
	for i := range grads {
		idx[i] = i
		norms[i] = vecmath.Norm(grads[i])
	}
	sort.SliceStable(idx, func(a, b int) bool { return norms[idx[a]] < norms[idx[b]] })
	out := make([]float64, d)
	for _, i := range idx[:n-f] {
		for j, v := range grads[i] {
			out[j] += v
		}
	}
	if c.Averaged {
		vecmath.ScaleInPlace(1/float64(n-f), out)
	}
	return out, nil
}

func refCWTM(grads [][]float64, f int) ([]float64, error) {
	n, d, err := validate(grads, f)
	if err != nil {
		return nil, err
	}
	if n <= 2*f {
		return nil, fmt.Errorf("CWTM needs n > 2f: %w", ErrTooManyFaults)
	}
	out := make([]float64, d)
	col := make([]float64, n)
	for k := 0; k < d; k++ {
		for i := range grads {
			col[i] = grads[i][k]
		}
		sort.Float64s(col)
		var s float64
		for _, v := range col[f : n-f] {
			s += v
		}
		out[k] = s / float64(n-2*f)
	}
	return out, nil
}

func refCWMedian(grads [][]float64, f int) ([]float64, error) {
	n, d, err := validate(grads, f)
	if err != nil {
		return nil, err
	}
	if n <= 2*f {
		return nil, fmt.Errorf("median needs n > 2f: %w", ErrTooManyFaults)
	}
	out := make([]float64, d)
	col := make([]float64, n)
	for k := 0; k < d; k++ {
		for i := range grads {
			col[i] = grads[i][k]
		}
		sort.Float64s(col)
		if n%2 == 1 {
			out[k] = col[n/2]
		} else {
			out[k] = 0.5 * (col[n/2-1] + col[n/2])
		}
	}
	return out, nil
}

func refKrum(grads [][]float64, f int) ([]float64, error) {
	scores, _, err := refKrumScores(grads, f)
	if err != nil {
		return nil, err
	}
	best := 0
	for i := 1; i < len(scores); i++ {
		if scores[i] < scores[best] {
			best = i
		}
	}
	return vecmath.Clone(grads[best]), nil
}

func refMultiKrum(m MultiKrum, grads [][]float64, f int) ([]float64, error) {
	scores, n, err := refKrumScores(grads, f)
	if err != nil {
		return nil, err
	}
	if m.M < 1 || m.M > n-f {
		return nil, fmt.Errorf("multi-krum M out of range: %w", ErrInput)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	chosen := make([][]float64, m.M)
	for i := 0; i < m.M; i++ {
		chosen[i] = grads[idx[i]]
	}
	return vecmath.Mean(chosen)
}

func refBulyan(grads [][]float64, f int) ([]float64, error) {
	n, d, err := validate(grads, f)
	if err != nil {
		return nil, err
	}
	if n < 4*f+3 {
		return nil, fmt.Errorf("bulyan needs n >= 4f+3: %w", ErrTooManyFaults)
	}
	theta := n - 2*f
	remaining := make([][]float64, n)
	copy(remaining, grads)
	selected := make([][]float64, 0, theta)
	for len(selected) < theta {
		scores, _, err := refKrumScores(remaining, f)
		if err != nil {
			selected = append(selected, remaining[:theta-len(selected)]...)
			break
		}
		best := 0
		for i := 1; i < len(scores); i++ {
			if scores[i] < scores[best] {
				best = i
			}
		}
		selected = append(selected, remaining[best])
		remaining = append(remaining[:best:best], remaining[best+1:]...)
	}
	beta := theta - 2*f
	out := make([]float64, d)
	col := make([]float64, theta)
	type valDist struct {
		v, dist float64
	}
	vd := make([]valDist, theta)
	for k := 0; k < d; k++ {
		for i := range selected {
			col[i] = selected[i][k]
		}
		sort.Float64s(col)
		var med float64
		if theta%2 == 1 {
			med = col[theta/2]
		} else {
			med = 0.5 * (col[theta/2-1] + col[theta/2])
		}
		for i, v := range col {
			vd[i] = valDist{v: v, dist: math.Abs(v - med)}
		}
		sort.SliceStable(vd, func(a, b int) bool { return vd[a].dist < vd[b].dist })
		var s float64
		for _, p := range vd[:beta] {
			s += p.v
		}
		out[k] = s / float64(beta)
	}
	return out, nil
}

// refWeiszfeld is the fixed-point loop weiszfeldInto ran until it gained its
// secant step and its median-at-a-report exit. It is an oracle, not a twin: the
// solver's result must have an objective no larger than this loop's.
func refWeiszfeld(points [][]float64) ([]float64, error) {
	y, err := vecmath.Mean(points)
	if err != nil {
		return nil, err
	}
	n, d := len(points), len(y)
	const eps = 1e-12
	weights := make([]float64, n)
	for iter := 0; iter < weiszfeldMaxIter; iter++ {
		for i := 0; i < n; i++ {
			dist, err := vecmath.Dist(points[i], y)
			if err != nil {
				return nil, err
			}
			weights[i] = 1 / math.Max(dist, eps)
		}
		var den float64
		for _, w := range weights {
			den += w
		}
		num := make([]float64, d)
		for j := 0; j < d; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += weights[i] * points[i][j]
			}
			num[j] = s
		}
		vecmath.ScaleInPlace(1/den, num)
		moved, err := vecmath.Dist(num, y)
		if err != nil {
			return nil, err
		}
		y = num
		if moved < weiszfeldTol {
			break
		}
	}
	return y, nil
}

func refGeoMedian(grads [][]float64, f int) ([]float64, error) {
	n, _, err := validate(grads, f)
	if err != nil {
		return nil, err
	}
	if n <= 2*f {
		return nil, fmt.Errorf("geomedian needs n > 2f: %w", ErrTooManyFaults)
	}
	return refWeiszfeld(grads)
}

// refGMoMMeans is the point set GeoMedianOfMeans hands its solver: the means of
// the contiguous buckets.
func refGMoMMeans(g GeoMedianOfMeans, grads [][]float64, f int) ([][]float64, error) {
	n, _, err := validate(grads, f)
	if err != nil {
		return nil, err
	}
	if g.Groups < 1 || g.Groups > n {
		return nil, fmt.Errorf("gmom groups out of range: %w", ErrInput)
	}
	if g.Groups <= 2*f {
		return nil, fmt.Errorf("gmom needs groups > 2f: %w", ErrTooManyFaults)
	}
	means := make([][]float64, 0, g.Groups)
	for b := 0; b < g.Groups; b++ {
		lo := b * n / g.Groups
		hi := (b + 1) * n / g.Groups
		if lo == hi {
			continue
		}
		m, err := vecmath.Mean(grads[lo:hi])
		if err != nil {
			return nil, err
		}
		means = append(means, m)
	}
	return means, nil
}

func refGMoM(g GeoMedianOfMeans, grads [][]float64, f int) ([]float64, error) {
	means, err := refGMoMMeans(g, grads, f)
	if err != nil {
		return nil, err
	}
	return refWeiszfeld(means)
}

func refCenteredClip(grads [][]float64, f int) ([]float64, error) {
	n, _, err := validate(grads, f)
	if err != nil {
		return nil, err
	}
	if n <= 2*f {
		return nil, fmt.Errorf("centered clipping needs n > 2f: %w", ErrTooManyFaults)
	}
	center, err := refCWMedian(grads, f)
	if err != nil {
		return nil, err
	}
	dists := make([]float64, n)
	for i, g := range grads {
		d, err := vecmath.Dist(g, center)
		if err != nil {
			return nil, err
		}
		dists[i] = d
	}
	sort.Float64s(dists)
	tau := dists[n/2]
	if n%2 == 0 {
		tau = 0.5 * (dists[n/2-1] + dists[n/2])
	}
	if tau == 0 {
		return center, nil
	}
	for it := 0; it < centeredClipIters; it++ {
		update := vecmath.Zeros(len(center))
		for _, g := range grads {
			diff, err := vecmath.Sub(g, center)
			if err != nil {
				return nil, err
			}
			if norm := vecmath.Norm(diff); norm > tau {
				vecmath.ScaleInPlace(tau/norm, diff)
			}
			if err := vecmath.AddInPlace(update, diff); err != nil {
				return nil, err
			}
		}
		vecmath.ScaleInPlace(1/float64(n), update)
		if err := vecmath.AddInPlace(center, update); err != nil {
			return nil, err
		}
	}
	return center, nil
}

func refMean(grads [][]float64, f int) ([]float64, error) {
	if _, _, err := validate(grads, f); err != nil {
		return nil, err
	}
	return vecmath.Mean(grads)
}

// refAggregate dispatches to the frozen reference for any filter under test.
func refAggregate(fl Filter, grads [][]float64, f int) ([]float64, error) {
	switch v := fl.(type) {
	case Mean:
		return refMean(grads, f)
	case CGE:
		return refCGE(v, grads, f)
	case CWTM:
		return refCWTM(grads, f)
	case CWMedian:
		return refCWMedian(grads, f)
	case Krum:
		return refKrum(grads, f)
	case MultiKrum:
		return refMultiKrum(v, grads, f)
	case Bulyan:
		return refBulyan(grads, f)
	case GeoMedian:
		return refGeoMedian(grads, f)
	case GeoMedianOfMeans:
		return refGMoM(v, grads, f)
	case CenteredClip:
		return refCenteredClip(grads, f)
	}
	return nil, fmt.Errorf("no reference for %s", fl.Name())
}

// parityFilters is the filter set under bitwise test; every registered
// filter plus parameter variants.
func parityFilters() []IntoFilter {
	return []IntoFilter{
		Mean{},
		CGE{},
		CGE{Averaged: true},
		CWTM{},
		CWMedian{},
		Krum{},
		MultiKrum{M: 3},
		Bulyan{},
		GeoMedian{},
		GeoMedianOfMeans{Groups: 3},
		CenteredClip{},
	}
}

// bitwiseEqual reports exact float64 identity, except that +0 and -0 are
// treated as equal: the legacy sort-based paths ordered equal-comparing
// signed zeros by sort-algorithm internals (sort.Float64s gives -0 < 0 no
// meaning), so the sign of an exactly-zero output was never part of the
// filter contract; numerically the two are equal and a ±0 descent-direction
// coordinate steps identically.
func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(a[i] == 0 && b[i] == 0) {
			return false
		}
	}
	return true
}

// fuzzGradients draws a gradient set; mode 0 is plain Gaussian, mode 1
// forces heavy value ties (small integer grid), mode 2 plants exact
// symmetric pairs around coordinate medians to stress the Bulyan
// equal-distance tie-break and quickselect duplicate handling.
func fuzzGradients(r *rand.Rand, n, d, mode int) [][]float64 {
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = make([]float64, d)
		for j := range grads[i] {
			switch mode {
			case 1:
				grads[i][j] = float64(r.Intn(5) - 2)
			case 2:
				v := float64(r.Intn(3))
				if r.Intn(2) == 0 {
					v = -v
				}
				grads[i][j] = v
			default:
				grads[i][j] = r.NormFloat64() * 3
			}
		}
	}
	if mode == 2 && n > 2 {
		// Duplicate a couple of whole gradients: Krum score ties.
		grads[n-1] = vecmath.Clone(grads[0])
		grads[n-2] = vecmath.Clone(grads[1])
	}
	return grads
}

// TestIntoMatchesAggregateAndReference is the fuzz-style parity gate of the
// scratch-space API: over randomized (n, d, f) grids — including tie-heavy
// adversarial draws — every filter's AggregateInto output (through one
// continuously reused Scratch) and Aggregate output must be bitwise
// identical to the frozen pre-scratch reference implementation. Error cases
// must agree on the sentinel too. The two geometric-median filters are held to
// their frozen loop as an oracle instead (refWeiszfeld stops short of the
// median, see TestWeiszfeldReachesTheMedian): the sum of distances at their
// result is at most the frozen loop's times 1 + 10⁻¹², Aggregate (a fresh
// Scratch) and AggregateInto on the shared warm Scratch agree bit for bit,
// and both are the bits weiszfeldInto gives on the reports or on the
// reference's bucket means.
func TestIntoMatchesAggregateAndReference(t *testing.T) {
	r := rand.New(rand.NewSource(20260726))
	scratch := &Scratch{} // deliberately shared across every size and filter
	for _, n := range []int{3, 4, 5, 7, 8, 11, 12, 23} {
		for _, d := range []int{1, 2, 7, 33} {
			for _, f := range []int{0, 1, 2, 4} {
				for mode := 0; mode < 3; mode++ {
					grads := fuzzGradients(r, n, d, mode)
					for _, fl := range parityFilters() {
						want, refErr := refAggregate(fl, grads, f)
						got, aggErr := fl.Aggregate(grads, f)
						dst := make([]float64, d)
						for i := range dst {
							dst[i] = math.NaN() // canary: must be overwritten
						}
						intoErr := fl.AggregateInto(dst, grads, f, scratch)

						if (refErr == nil) != (aggErr == nil) || (refErr == nil) != (intoErr == nil) {
							t.Fatalf("%s n=%d d=%d f=%d mode=%d: error mismatch ref=%v agg=%v into=%v",
								fl.Name(), n, d, f, mode, refErr, aggErr, intoErr)
						}
						if refErr != nil {
							for _, e := range []error{aggErr, intoErr} {
								if !errors.Is(e, ErrTooManyFaults) && !errors.Is(e, ErrInput) {
									t.Fatalf("%s n=%d f=%d: unexpected sentinel %v (ref %v)", fl.Name(), n, f, e, refErr)
								}
							}
							continue
						}
						var medianOf [][]float64
						switch v := fl.(type) {
						case GeoMedian:
							medianOf = grads
						case GeoMedianOfMeans:
							medianOf, _ = refGMoMMeans(v, grads, f)
						}
						if medianOf != nil {
							if ref, obj := sumDist(t, medianOf, want), sumDist(t, medianOf, got); !(obj <= ref*(1+1e-12)) {
								t.Fatalf("%s n=%d d=%d f=%d mode=%d: sum of distances %v at %v, the frozen loop reaches %v at %v",
									fl.Name(), n, d, f, mode, obj, got, ref, want)
							}
							// Aggregate runs on a fresh Scratch, dst came from the warm one.
							kernel := make([]float64, d)
							if err := weiszfeldInto(kernel, medianOf, new(Scratch)); err != nil {
								t.Fatal(err)
							}
							for j := range got {
								if math.Float64bits(got[j]) != math.Float64bits(dst[j]) {
									t.Fatalf("%s n=%d d=%d f=%d mode=%d: Aggregate %v, AggregateInto on the warm Scratch %v",
										fl.Name(), n, d, f, mode, got, dst)
								}
								if math.Float64bits(got[j]) != math.Float64bits(kernel[j]) {
									t.Fatalf("%s n=%d d=%d f=%d mode=%d: Aggregate %v, weiszfeldInto on its points %v",
										fl.Name(), n, d, f, mode, got, kernel)
								}
							}
							continue
						}
						if !bitwiseEqual(want, got) {
							t.Fatalf("%s n=%d d=%d f=%d mode=%d: Aggregate diverges from reference\nref  %v\ngot  %v",
								fl.Name(), n, d, f, mode, want, got)
						}
						if !bitwiseEqual(want, dst) {
							t.Fatalf("%s n=%d d=%d f=%d mode=%d: AggregateInto diverges from reference\nref  %v\ngot  %v",
								fl.Name(), n, d, f, mode, want, dst)
						}
					}
				}
			}
		}
	}
}

// TestIntoNilScratchAndDstChecks covers the convenience and error paths of
// AggregateInto: nil Scratch behaves like a fresh one, and a wrong-sized
// destination is rejected with ErrInput before any work happens.
func TestIntoNilScratchAndDstChecks(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	grads := fuzzGradients(r, 9, 5, 0)
	for _, fl := range parityFilters() {
		want, err := fl.Aggregate(grads, 1)
		if err != nil {
			t.Fatalf("%s: %v", fl.Name(), err)
		}
		dst := make([]float64, 5)
		if err := fl.AggregateInto(dst, grads, 1, nil); err != nil {
			t.Fatalf("%s nil scratch: %v", fl.Name(), err)
		}
		if !bitwiseEqual(want, dst) {
			t.Errorf("%s: nil-scratch result differs", fl.Name())
		}
		if err := fl.AggregateInto(make([]float64, 4), grads, 1, nil); !errors.Is(err, ErrInput) {
			t.Errorf("%s: short dst got %v, want ErrInput", fl.Name(), err)
		}
		if err := fl.AggregateInto(dst, [][]float64{{math.NaN(), 0, 0, 0, 0}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}}, 0, nil); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: NaN input got %v, want ErrNonFinite", fl.Name(), err)
		}
	}
}

// TestSelectKth fuzzes the deterministic quickselect against a full sort:
// a[k] must be the k-th order statistic, the partition property must hold,
// and the buffer must remain a permutation of the input.
func TestSelectKth(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(60)
		a := make([]float64, n)
		for i := range a {
			if trial%3 == 1 {
				a[i] = float64(r.Intn(4)) // heavy duplicates
			} else {
				a[i] = r.NormFloat64()
			}
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		k := r.Intn(n)
		got := append([]float64(nil), a...)
		selectKth(got, k)
		if got[k] != sorted[k] {
			t.Fatalf("trial %d: selectKth(%d) = %v, want %v", trial, k, got[k], sorted[k])
		}
		for i := 0; i < k; i++ {
			if got[i] > got[k] {
				t.Fatalf("trial %d: partition violated left of %d", trial, k)
			}
		}
		for i := k + 1; i < n; i++ {
			if got[i] < got[k] {
				t.Fatalf("trial %d: partition violated right of %d", trial, k)
			}
		}
		check := append([]float64(nil), got...)
		sort.Float64s(check)
		for i := range check {
			if check[i] != sorted[i] {
				t.Fatalf("trial %d: selectKth lost elements", trial)
			}
		}
	}
}

// TestTrimMiddleMatchesSort pins trimMiddle's window — the exact basis of
// CWTM's bitwise contract — to the fully sorted column.
func TestTrimMiddleMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 3 + r.Intn(40)
		f := r.Intn(n / 2)
		if n-2*f <= 0 {
			continue
		}
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(6)) - 2.5
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		got := append([]float64(nil), a...)
		trimMiddle(got, f, &Scratch{})
		for i := f; i < n-f; i++ {
			if got[i] != sorted[i] {
				t.Fatalf("trial %d n=%d f=%d: window[%d] = %v, want %v", trial, n, f, i, got[i], sorted[i])
			}
		}
	}
}

// trimMiddleThreeStep is trimMiddle as it was before short columns got their
// single insertion sort, kept as the reference the shortcut is held to.
func trimMiddleThreeStep(col []float64, f int) {
	n := len(col)
	if f > 0 {
		selectKth(col, f)
		selectKth(col[f:], n-2*f)
	}
	slices.Sort(col[f : n-f])
}

// TestTrimMiddleShortColumnsBitwise holds the short-column path of trimMiddle
// to the three-step path bit for bit — the whole column, and CWTM's output on
// it — for every n below the cutoff and every admissible f, on random,
// tie-heavy and signed-zero columns.
func TestTrimMiddleShortColumnsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	kinds := map[string]func() float64{
		"random":       r.NormFloat64,
		"tie-heavy":    func() float64 { return float64(r.Intn(3)) - 1 },
		"signed zeros": func() float64 { return signedZeroDraw(r) },
	}
	for n := 1; n < selectInsertionCutoff; n++ {
		for f := 0; 2*f < n; f++ {
			for name, draw := range kinds {
				for trial := 0; trial < 200; trial++ {
					col := make([]float64, n)
					for i := range col {
						col[i] = draw()
					}
					want := slices.Clone(col)
					trimMiddleThreeStep(want, f)
					got := slices.Clone(col)
					trimMiddle(got, f, &Scratch{})
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s n=%d f=%d %v: col[%d] = %v, three-step path has %v", name, n, f, col, i, got[i], want[i])
						}
					}
					var sum float64
					for _, v := range want[f : n-f] {
						sum += v
					}
					grads := make([][]float64, n)
					for i := range grads {
						grads[i] = []float64{col[i]}
					}
					out, err := CWTM{}.Aggregate(grads, f)
					if err != nil {
						t.Fatal(err)
					}
					if ref := sum / float64(n-2*f); math.Float64bits(out[0]) != math.Float64bits(ref) {
						t.Fatalf("%s n=%d f=%d %v: CWTM = %v (%#x), three-step path gives %v (%#x)", name, n, f, col, out[0], math.Float64bits(out[0]), ref, math.Float64bits(ref))
					}
				}
			}
		}
	}
}

// trimMeanColumns is CWTM's column path at any d: per coordinate, gather the
// column, cut it with trimMiddle and sum the window. TestTrimMeanRowsBitwise
// holds it to the filter below rowSortMinDim and the row path to it above.
func trimMeanColumns(dst []float64, grads [][]float64, f int, s *Scratch) {
	n := len(grads)
	s.col = grow(s.col, n)
	for k := range dst {
		for i := range grads {
			s.col[i] = grads[i][k]
		}
		trimMiddle(s.col, f, s)
		var sum float64
		for _, v := range s.col[f : n-f] {
			sum += v
		}
		dst[k] = sum / float64(n-2*f)
	}
}

// TestTrimMeanRowsBitwise holds CWTM's row path to its column path bit for
// bit, for every n below selectInsertionCutoff, every f with 2f < n and d on
// both sides of rowSortMinDim, on TestTrimMiddleShortColumnsBitwise's random,
// tie-heavy and signed-zero draws; the filter itself must give the column
// path's bits at every d.
func TestTrimMeanRowsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	kinds := map[string]func() float64{
		"random":       r.NormFloat64,
		"tie-heavy":    func() float64 { return float64(r.Intn(3)) - 1 },
		"signed zeros": func() float64 { return signedZeroDraw(r) },
	}
	s := &Scratch{}
	for n := 1; n < selectInsertionCutoff; n++ {
		for f := 0; 2*f < n; f++ {
			for _, d := range []int{1, rowSortMinDim - 1, rowSortMinDim, 61} {
				for name, draw := range kinds {
					for trial := 0; trial < 20; trial++ {
						grads := make([][]float64, n)
						for i := range grads {
							grads[i] = make([]float64, d)
							for k := range grads[i] {
								grads[i][k] = draw()
							}
						}
						want := make([]float64, d)
						trimMeanColumns(want, grads, f, s)
						rows := make([]float64, d)
						trimMeanRows(rows, grads, f, s)
						filter := make([]float64, d)
						if err := (CWTM{}).AggregateInto(filter, grads, f, s); err != nil {
							t.Fatal(err)
						}
						for k := range want {
							if math.Float64bits(rows[k]) != math.Float64bits(want[k]) || math.Float64bits(filter[k]) != math.Float64bits(want[k]) {
								t.Fatalf("%s n=%d f=%d d=%d: coordinate %d is %v by rows, %v by the filter, %v by columns",
									name, n, f, d, k, rows[k], filter[k], want[k])
							}
						}
					}
				}
			}
		}
	}
}

// TestAggregateIntoAllocs pins the scratch-space contract: with a warm
// Scratch, AggregateInto performs zero heap
// allocations for every registered filter — at a size where every row and
// column stays on the comparison sorts, and at one where they reach the radix
// path and its key buffer.
func TestAggregateIntoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, size := range []struct{ n, d, f, runs int }{{11, 32, 1, 50}, {100, 8, 10, 5}} {
		grads := fuzzGradients(r, size.n, size.d, 0)
		for _, fl := range parityFilters() {
			scratch := &Scratch{}
			dst := make([]float64, size.d)
			if err := fl.AggregateInto(dst, grads, size.f, scratch); errors.Is(err, ErrTooManyFaults) && size.n > 11 {
				continue // gmom-3 cannot take f = 10
			} else if err != nil {
				t.Fatalf("%s n=%d warmup: %v", fl.Name(), size.n, err)
			}
			allocs := testing.AllocsPerRun(size.runs, func() {
				if err := fl.AggregateInto(dst, grads, size.f, scratch); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s n=%d: %v allocs/op with warm scratch, want 0", fl.Name(), size.n, allocs)
			}
		}
	}
}

// TestWideIntoAllocsOnFourProcs is the scratch-space contract at the wide
// grid's shape (n = 200, d = 50, f = 10) with four processors: a filter call
// runs on its caller's goroutine whatever GOMAXPROCS is, so a warm call
// allocates nothing there either. testing.AllocsPerRun pins GOMAXPROCS to 1,
// so the mallocs are counted here around the calls; the runtime's own
// background work can add a rare one, so the fewest of three counts decides.
// geomedian and cwtm are controls: their kernels never reached for more
// goroutines.
func TestWideIntoAllocsOnFourProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, d, f, calls = 200, 50, 10, 100
	grads := fuzzGradients(rand.New(rand.NewSource(31)), n, d, 0)
	for _, name := range []string{"krum", "multikrum-3", "krum-sketch", "geomedian", "cwtm"} {
		fl, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		into := fl.(IntoFilter)
		scratch, dst := &Scratch{}, make([]float64, d)
		if err := into.AggregateInto(dst, grads, f, scratch); err != nil {
			t.Fatalf("%s warmup: %v", name, err)
		}
		fewest := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				if err := into.AggregateInto(dst, grads, f, scratch); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		if fewest != 0 {
			t.Errorf("%s: %v mallocs a call at GOMAXPROCS 4 with a warm Scratch, want 0", name, float64(fewest)/calls)
		}
	}
}
