package aggregate

// Benchmarks of the approximate Krum-family filters against their exact
// twins on the warm-scratch Into path, at d = 1000 and n stepping through
// learning scale, over rotating inputs (see into_bench_test.go). Run it with
// -cpu 1 so every row is the sequential kernel (the allocs/op column is then
// the zero-alloc gate, and speedups are kernel-vs-kernel, not parallelism).
// Exact Bulyan recomputes the pairwise pass per selection, so its exact row
// is limited to n = 100.

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkApproxFilters measures AggregateInto with a warm Scratch for
// exact krum/multikrum/bulyan vs sketch (k = 64) and sampled (m = 64)
// variants at n in {100, 500, 1000}, d = 1000.
func BenchmarkApproxFilters(b *testing.B) {
	const d, f, k = 1000, 5, 64
	for _, n := range []int{100, 500, 1000} {
		tables := rotatingTables(rand.New(rand.NewSource(int64(n))), n, d)
		variants := []struct {
			name   string
			filter IntoFilter
		}{
			{"krum/exact", Krum{}},
			{"krum/sketch-k64", &KrumSketch{SketchParams: SketchParams{Dim: k, Seed: 1}}},
			{"krum/sampled-m64", &KrumSampled{SampleParams: SampleParams{Pairs: k, Seed: 1}}},
			{"multikrum/exact", MultiKrum{M: 3}},
			{"multikrum/sketch-k64", &MultiKrumSketch{M: 3, SketchParams: SketchParams{Dim: k, Seed: 1}}},
		}
		if n == 100 {
			variants = append(variants,
				struct {
					name   string
					filter IntoFilter
				}{"bulyan/exact", Bulyan{}},
			)
		}
		variants = append(variants,
			struct {
				name   string
				filter IntoFilter
			}{"bulyan/sketch-k64", &BulyanSketch{SketchParams: SketchParams{Dim: k, Seed: 1}}},
		)
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/n=%d", v.name, n), func(b *testing.B) {
				benchInto(b, v.filter, tables, f)
			})
		}
	}
}
