package aggregate

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
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

// TestWeiszfeldParallelExactlyEqualsSequential is the batched kernel's
// contract: striping distances over points and accumulations over
// coordinates preserves the sequential operation order per output value, so
// the geometric median is bitwise identical at any worker count — not just
// within tolerance.
func TestWeiszfeldParallelExactlyEqualsSequential(t *testing.T) {
	for _, size := range []struct{ n, d int }{{7, 3}, {30, 17}, {64, 129}, {500, 2}} {
		points := randomPoints(size.n, size.d, int64(size.n*1000+size.d))
		seq := make([]float64, size.d)
		if err := weiszfeldInto(seq, points, 0, 1, new(Scratch)); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, -1} {
			par := make([]float64, size.d)
			if err := weiszfeldInto(par, points, 0, workers, new(Scratch)); err != nil {
				t.Fatal(err)
			}
			for j := range seq {
				if par[j] != seq[j] {
					t.Fatalf("n=%d d=%d workers=%d: coordinate %d differs: %v vs %v (must be bitwise equal)",
						size.n, size.d, workers, j, par[j], seq[j])
				}
			}
		}
	}
}

// TestGeoMedianFiltersExactParityAcrossWorkers lifts the kernel guarantee
// to the registered filters, including the median-of-means variant whose
// bucket means feed the same iteration.
func TestGeoMedianFiltersExactParityAcrossWorkers(t *testing.T) {
	grads := randomPoints(40, 24, 7)
	for _, tc := range []struct {
		seq, par Filter
	}{
		{GeoMedian{Workers: 1}, GeoMedian{Workers: 8}},
		{GeoMedianOfMeans{Groups: 7, Workers: 1}, GeoMedianOfMeans{Groups: 7, Workers: 8}},
	} {
		seq, err := tc.seq.Aggregate(grads, 2)
		if err != nil {
			t.Fatal(err)
		}
		par, err := tc.par.Aggregate(grads, 2)
		if err != nil {
			t.Fatal(err)
		}
		for j := range seq {
			if seq[j] != par[j] {
				t.Fatalf("%s: coordinate %d differs across worker counts: %v vs %v",
					tc.seq.Name(), j, seq[j], par[j])
			}
		}
	}
}

func TestResolveWeiszfeldWorkers(t *testing.T) {
	if w := resolveWeiszfeldWorkers(0, 4, 8); w != 1 {
		t.Errorf("small auto job got %d workers, want 1", w)
	}
	if w := resolveWeiszfeldWorkers(0, 1024, 1024); w != runtime.GOMAXPROCS(0) {
		t.Errorf("large auto job got %d workers, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	// Per-phase capping happens in weiszfeldStripe, not the resolver: a
	// tall-skinny job keeps its full pool for the point-striped phase.
	if w := resolveWeiszfeldWorkers(6, 5000, 3); w != 6 {
		t.Errorf("explicit worker count altered by resolver: got %d, want 6", w)
	}
	if w := resolveWeiszfeldWorkers(-1, 2, 2); w < 1 {
		t.Errorf("negative workers resolved to %d", w)
	}
}

// BenchmarkWeiszfeld compares the sequential and batched kernels on a
// figure-sized job (n gradients of dimension d with planted outliers).
func BenchmarkWeiszfeld(b *testing.B) {
	for _, size := range []struct{ n, d int }{{50, 1000}, {100, 4096}} {
		points := randomPoints(size.n, size.d, 42)
		for _, workers := range []int{1, -1} {
			label := "seq"
			if workers != 1 {
				label = "par"
			}
			b.Run(fmt.Sprintf("%s/n=%d/d=%d", label, size.n, size.d), func(b *testing.B) {
				dst, scratch := make([]float64, size.d), new(Scratch)
				for i := 0; i < b.N; i++ {
					if err := weiszfeldInto(dst, points, 0, workers, scratch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
