package aggregate

// Benchmarks for the scratch-space API: per filter, the allocating
// Aggregate face against AggregateInto with a warm Scratch, at
// learning-scale inputs. Run with -benchmem — the into column's B/op and
// allocs/op are the point.
//
// Every benchmark in this package rotates its input through benchTables
// distinct gradient tables. A loop that re-aggregates one fixed table lets
// the branch predictor memorise the table's comparison outcomes, and the
// comparison sorts and selections inside the filters are mostly branches:
// at the PR 16 tree trimMiddle on one repeated n = 100 column read 1.5–1.7 µs
// where the same code rotating through 1,024 columns read 5.9–6.2 µs. For
// three PRs that hid a wide_grid profile that was 62 % sorting. Do not trust
// a single-input row.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// benchTables is how many distinct gradient tables a benchmark rotates
// through (a power of two: the loops index with i & (benchTables-1)).
const benchTables = 256

// rotatingTables draws benchTables tables of n Gaussian gradients of
// dimension d. The tables share a pool of 2n rows — each is n of them, picked
// and ordered at random — so every column and every distance row differs
// table to table while the rows are stored once.
func rotatingTables(r *rand.Rand, n, d int) [][][]float64 {
	pool := make([][]float64, 2*n)
	for i := range pool {
		pool[i] = make([]float64, d)
		for j := range pool[i] {
			pool[i][j] = r.NormFloat64()
		}
	}
	tables := make([][][]float64, benchTables)
	for t := range tables {
		tables[t] = make([][]float64, n)
		for i, pick := range r.Perm(len(pool))[:n] {
			tables[t][i] = pool[pick]
		}
	}
	return tables
}

// benchInto times AggregateInto on a warm Scratch over rotating tables.
func benchInto(b *testing.B, fl IntoFilter, tables [][][]float64, f int) {
	scratch := &Scratch{}
	dst := make([]float64, len(tables[0][0]))
	if err := fl.AggregateInto(dst, tables[0], f, scratch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fl.AggregateInto(dst, tables[i&(benchTables-1)], f, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterInto compares Aggregate (alloc) with AggregateInto (into,
// warm scratch) for every registered filter at n = 50 gradients of
// dimension 1000, f = 5; with -cpu 1 every parallel kernel runs sequentially.
func BenchmarkFilterInto(b *testing.B) {
	const n, d, f = 50, 1000, 5
	tables := rotatingTables(rand.New(rand.NewSource(2)), n, d)
	for _, name := range Names() {
		filter, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := filter.Aggregate(tables[0], f); errors.Is(err, ErrTooManyFaults) {
			continue // infeasible at this (n, f); nothing to measure
		}
		b.Run(fmt.Sprintf("%s/alloc", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := filter.Aggregate(tables[i&(benchTables-1)], f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/into", name), func(b *testing.B) {
			benchInto(b, filter.(IntoFilter), tables, f)
		})
	}
}

// BenchmarkFilterWide is the filter layer of the benchmark's wide_grid: its
// eleven filters (sketch dimension and sample size 16, as its SketchDims axis
// sets them) at n in {100, 200}, d = 50, f = 10, AggregateInto on a warm
// Scratch. The rows that sort — krum, multikrum, krum-sampled, cwtm, sdmmfd,
// rvo — are the ones a kernel change to sortFloats, bestRanked, selectKth or
// trimMiddle has to move. krum also runs at f = n/8 and f = n/2 - 2: f = 10
// is on the selection side of scoreFromDists' 8(f+1) <= n rule, those two on
// the sorting side, the first of them just across it.
func BenchmarkFilterWide(b *testing.B) {
	const d, f = 50, 10
	for _, n := range []int{100, 200} {
		tables := rotatingTables(rand.New(rand.NewSource(int64(n))), n, d)
		for _, name := range []string{"cge", "cwtm", "cwmedian", "krum", "multikrum", "geomedian",
			"centeredclip", "krum-sketch", "krum-sampled", "sdmmfd", "rvo"} {
			filter, err := New(name)
			if err != nil {
				b.Fatal(err)
			}
			if sc, ok := filter.(SketchConfigurable); ok {
				sc.ConfigureSketch(16, 1)
			}
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				benchInto(b, filter.(IntoFilter), tables, f)
			})
		}
		for _, f := range []int{n / 8, n/2 - 2} {
			b.Run(fmt.Sprintf("krum/n=%d/f=%d", n, f), func(b *testing.B) {
				benchInto(b, Krum{}, tables, f)
			})
		}
	}
}

// BenchmarkKrumSampled is krum-sampled as wide_grid runs it (d = 50, f = 10,
// m = 16) with the round advancing every call, so every call hashes a fresh
// sample over a fresh table.
func BenchmarkKrumSampled(b *testing.B) {
	const d, f, m = 50, 10, 16
	for _, n := range []int{100, 200} {
		tables := rotatingTables(rand.New(rand.NewSource(int64(n))), n, d)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			kr := &KrumSampled{SampleParams{Pairs: m, Seed: 1}}
			scratch := &Scratch{}
			dst := make([]float64, d)
			for i := 0; i < b.N; i++ {
				kr.SetRound(i)
				if err := kr.AggregateInto(dst, tables[i&(benchTables-1)], f, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortFloats is sortFloats at the lengths the radix path runs at,
// on Gaussian columns and on converged ones (every value within 2⁻³⁰
// relative of one value, where the five-byte sort hands over to all eight),
// each call sorting a fresh copy of one of benchTables columns. The copy is
// in the time.
func BenchmarkSortFloats(b *testing.B) {
	for _, n := range []int{64, 100, 200, 1000} {
		for _, kind := range []string{"gaussian", "converged"} {
			r := rand.New(rand.NewSource(int64(n)))
			cols := make([][]float64, benchTables)
			for t := range cols {
				cols[t] = make([]float64, n)
				for i := range cols[t] {
					if kind == "gaussian" {
						cols[t][i] = r.NormFloat64()
					} else {
						cols[t][i] = convergedDraw(r, 0.75)
					}
				}
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, kind), func(b *testing.B) {
				scratch, work := &Scratch{}, make([]float64, n)
				for i := 0; i < b.N; i++ {
					copy(work, cols[i&(benchTables-1)])
					sortFloats(work, scratch)
				}
			})
		}
	}
}

// BenchmarkValidate is the input check every filter call makes, on six
// reports (the paper's and tcp_cluster's n) at d = 2, 50 and 1000: both sides
// of finiteSumMinDim.
func BenchmarkValidate(b *testing.B) {
	for _, d := range []int{2, 50, 1000} {
		tables := rotatingTables(rand.New(rand.NewSource(int64(d))), 6, d)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := validate(tables[i&(benchTables-1)], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairwise is the distance matrix alone, sequential, at the shapes
// the benchmark's grids reach (n = 6, d = 2 and n = 100 or 200, d = 50) and
// one long-vector shape, over 64 rotating tables.
func BenchmarkPairwise(b *testing.B) {
	for _, c := range []struct{ n, d int }{{6, 2}, {100, 50}, {200, 50}, {50, 1000}} {
		tables := rotatingTables(rand.New(rand.NewSource(int64(c.n))), c.n, c.d)[:64]
		d2 := new(Scratch).distMatrix(c.n)
		b.Run(fmt.Sprintf("n=%d/d=%d", c.n, c.d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pairwiseDistSqInto(d2, tables[i&63])
			}
		})
	}
}

// BenchmarkKrumScores is the O(n²·d) distance matrix behind the Krum family
// and its scoring, krumScores, over 64 rotating tables.
func BenchmarkKrumScores(b *testing.B) {
	const f = 2
	for _, c := range []struct{ n, d int }{{10, 10}, {10, 1000}, {50, 10}, {50, 1000}, {100, 10}, {100, 1000}} {
		tables := rotatingTables(rand.New(rand.NewSource(int64(c.n*c.d))), c.n, c.d)[:64]
		b.Run(fmt.Sprintf("n=%d/d=%d", c.n, c.d), func(b *testing.B) {
			scratch := &Scratch{}
			for i := 0; i < b.N; i++ {
				if _, err := krumScores(tables[i&63], f, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCWTM is CWTM at n = 6, f = 1 on both sides of rowSortMinDim:
// d = 2 (the paper's grids) and d = 1000 (tcp_cluster), each through the
// filter and through both of its paths, so the rows show where the cutoff
// belongs.
func BenchmarkCWTM(b *testing.B) {
	const n, f = 6, 1
	for _, d := range []int{2, 1000} {
		tables := rotatingTables(rand.New(rand.NewSource(int64(d))), n, d)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) { benchInto(b, CWTM{}, tables, f) })
		for name, path := range map[string]func([]float64, [][]float64, int, *Scratch){
			"rows": trimMeanRows, "columns": trimMeanColumns,
		} {
			b.Run(fmt.Sprintf("d=%d/%s", d, name), func(b *testing.B) {
				scratch := &Scratch{}
				dst := make([]float64, d)
				for i := 0; i < b.N; i++ {
					path(dst, tables[i&(benchTables-1)], f, scratch)
				}
			})
		}
	}
}
