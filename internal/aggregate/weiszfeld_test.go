package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"byzopt/internal/vecmath"
)

// randomPoints draws a deterministic point cloud with a planted outlier
// fraction, the Weiszfeld kernel's test fixture.
func randomPoints(n, d int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = r.NormFloat64()
		}
		if i%5 == 4 { // every fifth point is a far outlier
			for j := range p {
				p[j] += 50
			}
		}
		points[i] = p
	}
	return points
}

// BenchmarkWeiszfeld times the solver on two figure-sized jobs (n gradients of dimension d with planted outliers) and on
// the shape paper_grid calls it with, where a quarter of the tables have a
// report at the median as a third of that grid's calls do. Every size rotates
// over several tables: the iteration count depends on the table, and a loop
// over one fixed input lets the branch predictor learn it.
func BenchmarkWeiszfeld(b *testing.B) {
	for _, size := range []struct{ n, d, tables int }{{6, 2, 64}, {50, 1000, 4}, {100, 4096, 4}} {
		tables := make([][][]float64, size.tables)
		for k := range tables {
			tables[k] = randomPoints(size.n, size.d, int64(42+k))
			if size.n == 6 && k%4 == 0 {
				// The median of the other five is the median of all six.
				tables[k][5] = trueMedian(b, tables[k][:5])
			}
		}
		b.Run(fmt.Sprintf("n=%d/d=%d", size.n, size.d), func(b *testing.B) {
			dst, scratch := make([]float64, size.d), new(Scratch)
			for i := 0; i < b.N; i++ {
				if err := weiszfeldInto(dst, tables[i%len(tables)], scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sumDist is the geometric median's objective, Σᵢ‖xᵢ − y‖.
func sumDist(t testing.TB, points [][]float64, y []float64) float64 {
	t.Helper()
	var obj float64
	for _, x := range points {
		dist, err := vecmath.Dist(x, y)
		if err != nil {
			t.Fatal(err)
		}
		obj += dist
	}
	return obj
}

// trueMedian is the ground truth of TestWeiszfeldReachesTheMedian, independent
// of weiszfeldInto: a report at which Kuhn's condition holds (the sum of the
// unit vectors towards the other reports is no longer than the number of
// reports at it) is the median; otherwise plain Weiszfeld steps, without floor,
// extrapolation or tolerance, until the step is below rounding or 10⁵ are done.
func trueMedian(t testing.TB, points [][]float64) []float64 {
	t.Helper()
	n, d := len(points), len(points[0])
	var scale float64
	for k, xk := range points {
		pull, at := make([]float64, d), 0
		for _, x := range points {
			r, err := vecmath.Dist(x, xk)
			if err != nil {
				t.Fatal(err)
			}
			scale = math.Max(scale, r)
			if r == 0 {
				at++
				continue
			}
			for j := range pull {
				pull[j] += (x[j] - xk[j]) / r
			}
		}
		if vecmath.Norm(pull) <= float64(at) {
			return points[k]
		}
	}
	y, err := vecmath.Mean(points)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]float64, d)
	for iter := 0; iter < 100000; iter++ {
		clear(next)
		var den float64
		for i := 0; i < n; i++ {
			dist, _ := vecmath.Dist(points[i], y)
			if dist == 0 {
				continue // no report is the median, so y leaves it on the next step
			}
			den += 1 / dist
			for j := range next {
				next[j] += points[i][j] / dist
			}
		}
		vecmath.ScaleInPlace(1/den, next)
		moved, _ := vecmath.Dist(next, y)
		y, next = next, y
		if moved <= 1e-16*scale {
			break
		}
	}
	return y
}

// TestWeiszfeldReachesTheMedian holds the solver to the geometric median's
// definition on seeded instance families: the objective within 10⁻¹² (relative)
// of the ground truth's, and, where the median is unique, the position within
// 10⁻⁷ of the data's diameter. The fixed-point loop this solver replaced
// stopped 0.10 diameters short on the n = 4, d = 2 row and 0.22 on the
// three-equal-reports row, and failed every d >= 2 row of the small families.
func TestWeiszfeldReachesTheMedian(t *testing.T) {
	gaussian := func(n, d int, scale float64) func(*rand.Rand) [][]float64 {
		return func(r *rand.Rand) [][]float64 { return randGrads(r, n, d, scale) }
	}
	type family struct {
		name   string
		draw   func(*rand.Rand) [][]float64
		seeds  int
		unique bool // the median is one point: d >= 2 in general position, or odd n
	}
	families := []family{
		{"n=20 d=10", gaussian(20, 10, 1), 20, true},
		{"n=50 d=1000", gaussian(50, 1000, 1), 2, true},
		{"two reports scaled by 1e6", func(r *rand.Rand) [][]float64 {
			points := randGrads(r, 8, 3, 1)
			vecmath.ScaleInPlace(1e6, points[2])
			vecmath.ScaleInPlace(1e6, points[5])
			return points
		}, 50, true},
		{"coordinates in {0,1,2}", func(r *rand.Rand) [][]float64 {
			points := make([][]float64, 5+r.Intn(5))
			for i := range points {
				points[i] = []float64{float64(r.Intn(3)), float64(r.Intn(3))}
			}
			return points
		}, 200, false},
		{"scaled by 1e150", gaussian(7, 3, 1e150), 50, true},
		{"scaled by 1e160 (secant overflows)", gaussian(7, 3, 1e160), 50, true},
		{"three of six reports equal", func(r *rand.Rand) [][]float64 {
			points := randGrads(r, 6, 2, 1)
			points[3], points[5] = points[1], points[1]
			return points
		}, 50, true},
	}
	for _, n := range []int{3, 4, 5, 6, 8} {
		for _, d := range []int{1, 2, 3} {
			families = append(families, family{fmt.Sprintf("gaussian n=%d d=%d", n, d), gaussian(n, d, 1), 200, d >= 2 || n%2 == 1})
		}
	}
	for _, fam := range families {
		var worstGap, worstPos float64
		for seed := 0; seed < fam.seeds; seed++ {
			points := fam.draw(rand.New(rand.NewSource(int64(seed))))
			got := make([]float64, len(points[0]))
			if err := weiszfeldInto(got, points, new(Scratch)); err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			want := trueMedian(t, points)
			objWant := sumDist(t, points, want)
			worstGap = math.Max(worstGap, (sumDist(t, points, got)-objWant)/objWant)
			if fam.unique {
				var diameter float64
				for _, x := range points {
					r, _ := vecmath.Dist(x, points[0])
					diameter = math.Max(diameter, r)
				}
				off, _ := vecmath.Dist(got, want)
				worstPos = math.Max(worstPos, off/diameter)
			}
		}
		t.Logf("%-36s worst relative objective gap %.1e, worst position error %.1e diameters", fam.name, worstGap, worstPos)
		if worstGap > 1e-12 {
			t.Errorf("%s: objective %.3g above the median's (relative), want <= 1e-12", fam.name, worstGap)
		}
		if worstPos > 1e-7 {
			t.Errorf("%s: %.3g diameters from the median, want <= 1e-7", fam.name, worstPos)
		}
	}
}
