package p2p

// Parity gate for the decentralized loop's Into paths: a p2p run with the
// filter's Into face (and the gradient arena) engaged must be bitwise
// identical to the same run with the Into faces hidden.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
)

// hiddenIntoFilter strips the IntoFilter face, forcing the allocating
// aggregation branch of the honest peers' step.
type hiddenIntoFilter struct{ inner aggregate.Filter }

func (h hiddenIntoFilter) Name() string { return h.inner.Name() }

func (h hiddenIntoFilter) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return h.inner.Aggregate(grads, f)
}

// hiddenIntoAgent strips the Into faces off an agent (honest face only).
type hiddenIntoAgent struct{ inner dgd.Agent }

func (h hiddenIntoAgent) Gradient(round int, x []float64) ([]float64, error) {
	return h.inner.Gradient(round, x)
}

// hiddenIntoFaulty strips the Into faces while staying dgd.Faulty.
type hiddenIntoFaulty struct{ inner dgd.Faulty }

func (h hiddenIntoFaulty) Gradient(round int, x []float64) ([]float64, error) {
	return h.inner.Gradient(round, x)
}

func (h hiddenIntoFaulty) FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error) {
	return h.inner.FaultyGradient(round, agent, x, honest)
}

// TestDecodeVectorIntoMatchesDecodeVector pins the arena decoder to the
// allocating one over well-formed, truncated, and poisoned payloads, read
// from a string (a decided value) and from bytes (an encoding buffer).
func TestDecodeVectorIntoMatchesDecodeVector(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	payloads := []string{
		EncodeVector([]float64{1.5, -2.25, 0}),
		EncodeVector([]float64{math.MaxFloat64, -math.SmallestNonzeroFloat64, 42}),
		EncodeVector([]float64{1, math.Inf(1), 2}), // poisoned: zeroed
		EncodeVector([]float64{math.NaN(), 0, 0}),  // poisoned: zeroed
		"short", // malformed length
		"",      // protocol default
		EncodeVector([]float64{1, 2, 3}) + "extras", // overlong
	}
	for trial := 0; trial < 50; trial++ {
		v := make([]float64, 3)
		for i := range v {
			v[i] = r.NormFloat64() * 1e6
		}
		payloads = append(payloads, EncodeVector(v))
	}
	for i, s := range payloads {
		want := DecodeVector(s, 3)
		dst := []float64{9, 9, 9} // stale arena contents must be cleared
		DecodeVectorInto(dst, s)
		fromBytes := []float64{9, 9, 9}
		DecodeVectorInto(fromBytes, []byte(s))
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(dst[j]) || math.Float64bits(want[j]) != math.Float64bits(fromBytes[j]) {
				t.Fatalf("payload %d coord %d: into %v, from bytes %v, alloc %v", i, j, dst[j], fromBytes[j], want[j])
			}
		}
	}
	buf := []byte(payloads[0])
	if allocs := testing.AllocsPerRun(20, func() {
		dst := make([]float64, 3)
		DecodeVectorInto(dst, payloads[0])
		DecodeVectorInto(dst, buf)
	}); allocs > 1 { // the dst make is the only one
		t.Errorf("DecodeVectorInto allocates: %v allocs/op", allocs)
	}
}

func TestP2PIntoPathBitwiseMatchesLegacy(t *testing.T) {
	const n, d = 7, 4
	buildAgents := func(strip bool) []dgd.Agent {
		rr := rand.New(rand.NewSource(41))
		agents := make([]dgd.Agent, n)
		for i := range agents {
			row := make([]float64, d)
			for j := range row {
				row[j] = rr.NormFloat64()
			}
			cost, err := costfunc.NewSingleRowLeastSquares(row, rr.NormFloat64())
			if err != nil {
				t.Fatal(err)
			}
			a, err := dgd.NewHonest(cost)
			if err != nil {
				t.Fatal(err)
			}
			if strip {
				a = hiddenIntoAgent{inner: a}
			}
			agents[i] = a
		}
		fa, err := dgd.NewFaulty(agents[0], byzantine.GradientReverse{})
		if err != nil {
			t.Fatal(err)
		}
		if strip {
			agents[0] = hiddenIntoFaulty{inner: fa.(dgd.Faulty)}
		} else {
			agents[0] = fa
		}
		return agents
	}
	for _, filterName := range []string{"cwtm", "cwmedian", "cge", "centeredclip"} {
		filter, err := aggregate.New(filterName)
		if err != nil {
			t.Fatal(err)
		}
		run := func(fl aggregate.Filter, strip bool) (*dgd.Result, [][]float64) {
			rec := &dgd.TraceRecorder{}
			res, err := Backend{}.Run(context.Background(), dgd.Config{
				Agents:   buildAgents(strip),
				F:        1,
				Filter:   fl,
				X0:       make([]float64, d),
				Rounds:   15,
				Observer: rec,
			})
			if err != nil {
				t.Fatalf("%s: %v", fl.Name(), err)
			}
			return res, rec.X
		}
		into, intoTraj := run(filter, false)
		legacy, legacyTraj := run(hiddenIntoFilter{inner: filter}, true)
		if len(intoTraj) != len(legacyTraj) {
			t.Fatalf("%s: trajectory lengths differ", filterName)
		}
		for round := range intoTraj {
			for j := range intoTraj[round] {
				if math.Float64bits(intoTraj[round][j]) != math.Float64bits(legacyTraj[round][j]) {
					t.Fatalf("%s: p2p trajectory diverges at round %d coord %d", filterName, round, j)
				}
			}
		}
		for i := range into.X {
			if math.Float64bits(into.X[i]) != math.Float64bits(legacy.X[i]) {
				t.Fatalf("%s: final estimate diverges at coord %d", filterName, i)
			}
		}
	}
}
