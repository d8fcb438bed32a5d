// Kernel micro-benchmarks: each times one kernel in isolation and is the
// source of a number quoted in CHANGES.md. BenchmarkMeasureRedundancy times
// the subset theory, which no benchmark/ workload runs. End-to-end performance, per-layer
// shares and regression bounds live in benchmark/ (BENCHMARK.json); result
// quality is pinned by the goldens under the packages' testdata/.
//
//	go test -run '^$' -bench . -benchmem
package byzopt_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"byzopt"
	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
)

// BenchmarkCollectGradients times one engine round of gradient collection;
// all agents are honest and the filter is the mean, so the measurement
// isolates the collection.
func BenchmarkCollectGradients(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	for _, g := range []struct{ n, d int }{{10, 10}, {10, 1000}, {50, 10}, {50, 1000}, {100, 10}, {100, 1000}} {
		costs := make([]byzopt.Cost, g.n)
		for i := range costs {
			row := make([]float64, g.d)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			c, err := byzopt.SingleObservationCost(row, r.NormFloat64())
			if err != nil {
				b.Fatal(err)
			}
			costs[i] = c
		}
		agents, err := byzopt.HonestAgents(costs)
		if err != nil {
			b.Fatal(err)
		}
		x0 := make([]float64, g.d)
		b.Run(fmt.Sprintf("n=%d/d=%d", g.n, g.d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := byzopt.Run(byzopt.Config{
					Agents: agents,
					F:      0,
					Filter: aggregate.Mean{},
					X0:     x0,
					Rounds: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEIGBroadcast measures one Byzantine broadcast through the public
// wrapper (a fresh engine a call) as f grows and as 0, 1 or f peers distort:
// the full tree is exponential in f, the price of the p2p architecture, and
// the engine builds the part of it whose value a liar can still make differ
// between processes. The sender rotates over all n, so the liars on the ids
// from 1 are the sender up to f times a turn.
// BenchmarkWarmBroadcast in internal/p2p is the same axis on a reused engine.
func BenchmarkEIGBroadcast(b *testing.B) {
	value := p2p.EncodeVector([]float64{1, 2})
	for _, cfg := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		nodes, err := p2p.MessageCost(cfg.n, cfg.f)
		if err != nil {
			b.Fatal(err)
		}
		for _, liars := range slices.Compact([]int{0, 1, cfg.f}) {
			b.Run(fmt.Sprintf("n=%d_f=%d/liars=%d", cfg.n, cfg.f, liars), func(b *testing.B) {
				byz := make(map[int]p2p.Distorter, liars)
				for id := 1; id <= liars; id++ {
					byz[id] = byzantine.NewEquivocate(int64(id))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p2p.Broadcast(cfg.n, cfg.f, i%cfg.n, value, byz); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(nodes), "tree_nodes") // after ResetTimer, which drops reported metrics
			})
		}
	}
}

// benchLegacyAgent strips the IntoAgent face off an agent, forcing the
// engine's allocating gradient collection.
type benchLegacyAgent struct{ inner dgd.Agent }

func (l benchLegacyAgent) Gradient(round int, x []float64) ([]float64, error) {
	return l.inner.Gradient(round, x)
}

// benchLegacyFilter strips the IntoFilter face off a filter, forcing the
// engine's allocating aggregation.
type benchLegacyFilter struct{ inner aggregate.Filter }

func (l benchLegacyFilter) Name() string { return l.inner.Name() }

func (l benchLegacyFilter) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return l.inner.Aggregate(grads, f)
}

// BenchmarkRoundLoop measures the steady-state engine round under CWTM on
// the (n, d) grid, comparing the zero-allocation scratch path (Into-capable
// agents + IntoFilter) against the legacy allocating path with the Into
// faces stripped. Run with -benchmem: the into column's B/op is the win the
// scratch-space API buys (per-run setup amortized over the rounds of each
// op; both paths produce bitwise-identical trajectories, see the parity
// tests).
func BenchmarkRoundLoop(b *testing.B) {
	const rounds = 10
	r := rand.New(rand.NewSource(8))
	for _, g := range []struct{ n, d int }{{10, 10}, {10, 1000}, {100, 10}, {100, 1000}} {
		costs := make([]byzopt.Cost, g.n)
		for i := range costs {
			row := make([]float64, g.d)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			c, err := byzopt.SingleObservationCost(row, r.NormFloat64())
			if err != nil {
				b.Fatal(err)
			}
			costs[i] = c
		}
		intoAgents, err := byzopt.HonestAgents(costs)
		if err != nil {
			b.Fatal(err)
		}
		allocAgents := make([]byzopt.Agent, len(intoAgents))
		for i, a := range intoAgents {
			allocAgents[i] = benchLegacyAgent{inner: a}
		}
		x0 := make([]float64, g.d)
		for _, path := range []struct {
			name   string
			agents []byzopt.Agent
			filter aggregate.Filter
		}{
			{"into", intoAgents, aggregate.CWTM{}},
			{"alloc", allocAgents, benchLegacyFilter{inner: aggregate.CWTM{}}},
		} {
			b.Run(fmt.Sprintf("n=%d/d=%d/path=%s", g.n, g.d, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := byzopt.Run(byzopt.Config{
						Agents: path.agents,
						F:      2,
						Filter: path.filter,
						X0:     x0,
						Rounds: rounds,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMeasureRedundancy times one ε measurement (Appendix J.2's
// AtLeastSize enumeration) on random Gaussian regression rows: 3,030,240
// subset pairs at n = 60, f = 2 and 40,000 at n = 200, d = 10, f = 1.
func BenchmarkMeasureRedundancy(b *testing.B) {
	for _, g := range []struct{ n, d, f int }{{60, 2, 2}, {200, 10, 1}} {
		r := rand.New(rand.NewSource(int64(g.n*100 + g.d)))
		rows := make([][]float64, g.n)
		resp := make([]float64, g.n)
		for i := range rows {
			rows[i] = make([]float64, g.d)
			for j := range rows[i] {
				rows[i][j] = r.NormFloat64()
				resp[i] += rows[i][j]
			}
			resp[i] += 0.1 * r.NormFloat64()
		}
		prob, err := byzopt.RegressionProblem(rows, resp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/d=%d/f=%d", g.n, g.d, g.f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := byzopt.MeasureRedundancy(prob, g.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
