package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bulyanRecompute is exact Bulyan scored the way it was before the distance
// table: the Krum scorer on the remaining rows, every pairwise distance
// computed again at each selection.
func bulyanRecompute(dst []float64, grads [][]float64, f int, s *Scratch) error {
	return bulyanInto(dst, grads, len(grads), f, s, func(remaining [][]float64, _ int) ([]float64, error) {
		return krumScores(remaining, f, s)
	})
}

// TestBulyanDistanceTableMatchesRecompute: Bulyan's selection from one
// distance table, trimmed of each selected candidate, returns the bits of the
// selection that recomputes the table every iteration — signed zeros
// included — on Gaussian rows, on a coalition of f identical rows, on zero
// rows of both signs, and on near-ties (rows one ulp apart, and rows whose
// distances to a centre are equal), at sizes on both sides of the selection
// scorer's 8(f+1) <= n rule. One Scratch serves every case, so a table left by
// a larger call must not show in a smaller one.
func TestBulyanDistanceTableMatchesRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(20261020))
	shared := new(Scratch)
	gaussian := func(n, d int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = r.NormFloat64()
			}
		}
		return rows
	}
	shapes := map[string]func(n, d, f int) [][]float64{
		"gaussian": func(n, d, _ int) [][]float64 { return gaussian(n, d) },
		"coalition": func(n, d, f int) [][]float64 {
			rows := gaussian(n, d)
			for i := 1; i < f; i++ {
				copy(rows[i], rows[0])
			}
			return rows
		},
		"zeros": func(n, d, f int) [][]float64 {
			rows := gaussian(n, d)
			for i := 0; i <= f; i++ {
				for j := range rows[i] {
					rows[i][j] = math.Copysign(0, float64(i%2)-0.5)
				}
			}
			return rows
		},
		"ulp-ties": func(n, d, _ int) [][]float64 {
			rows := gaussian(n, d)
			for i := 1; i < n; i += 2 {
				for j := range rows[i] {
					rows[i][j] = math.Nextafter(rows[i-1][j], math.Inf(1))
				}
			}
			return rows
		},
		"equal-distances": func(n, d, _ int) [][]float64 {
			// Every row is a signed unit step from the origin along one
			// axis, so whole groups of pairwise distances are equal.
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = make([]float64, d)
				rows[i][i%d] = float64(1 - 2*(i/d%2))
			}
			return rows
		},
	}
	cases := 0
	for _, n := range []int{7, 11, 16, 23, 40, 100} {
		for _, f := range []int{1, 2, 5, 9, 24} {
			if n < 4*f+3 {
				continue
			}
			for _, d := range []int{1, 3, 8, 80} {
				for name, shape := range shapes {
					grads := shape(n, d, f)
					want := make([]float64, d)
					if err := bulyanRecompute(want, grads, f, new(Scratch)); err != nil {
						t.Fatal(err)
					}
					got := make([]float64, d)
					if err := (Bulyan{}).AggregateInto(got, grads, f, shared); err != nil {
						t.Fatal(err)
					}
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s n=%d d=%d f=%d: coordinate %d is %v (%#x), the recompute %v (%#x)",
								name, n, d, f, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
						}
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d cases bit-equal", cases)
}

// BenchmarkBulyanSelection is exact Bulyan at the approx experiment's cell
// size (n = 100, d = 80, f = 5) on a warm Scratch, beside the per-iteration
// recompute it replaced; run it with -cpu 1.
func BenchmarkBulyanSelection(b *testing.B) {
	const n, d, f = 100, 80, 5
	tables := rotatingTables(rand.New(rand.NewSource(n)), n, d)
	for _, v := range []struct {
		name string
		run  func(dst []float64, grads [][]float64, s *Scratch) error
	}{
		{"table", func(dst []float64, grads [][]float64, s *Scratch) error {
			return Bulyan{}.AggregateInto(dst, grads, f, s)
		}},
		{"recompute", func(dst []float64, grads [][]float64, s *Scratch) error {
			return bulyanRecompute(dst, grads, f, s)
		}},
	} {
		b.Run(fmt.Sprintf("%s/n=%d/d=%d", v.name, n, d), func(b *testing.B) {
			dst := make([]float64, d)
			s := new(Scratch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.run(dst, tables[i&(benchTables-1)], s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
