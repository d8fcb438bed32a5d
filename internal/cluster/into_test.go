package cluster

// Parity gate for the server's Into aggregation path: a cluster run with an
// IntoFilter must be bitwise identical to the same run with the filter's
// Into face hidden (the legacy allocating path).

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

// hiddenIntoFilter strips the IntoFilter face, forcing the server's
// allocating aggregation branch.
type hiddenIntoFilter struct{ inner aggregate.Filter }

func (h hiddenIntoFilter) Name() string { return h.inner.Name() }

func (h hiddenIntoFilter) Aggregate(grads [][]float64, f int) ([]float64, error) {
	return h.inner.Aggregate(grads, f)
}

func TestBackendIntoFilterBitwiseMatchesLegacy(t *testing.T) {
	const n, d = 9, 5
	buildAgents := func() []dgd.Agent {
		rr := rand.New(rand.NewSource(23))
		agents := make([]dgd.Agent, n)
		for i := range agents {
			row := make([]float64, d)
			for j := range row {
				row[j] = rr.NormFloat64()
			}
			cost, err := costfunc.NewObservation(row, rr.NormFloat64())
			if err != nil {
				t.Fatal(err)
			}
			agents[i], err = dgd.NewHonest(cost)
			if err != nil {
				t.Fatal(err)
			}
		}
		fa, err := dgd.NewFaulty(agents[0], byzantine.GradientReverse{})
		if err != nil {
			t.Fatal(err)
		}
		agents[0] = fa
		return agents
	}
	for _, filterName := range []string{"cwtm", "cwmedian", "cge", "krum", "centeredclip"} {
		filter, err := aggregate.New(filterName)
		if err != nil {
			t.Fatal(err)
		}
		run := func(fl aggregate.Filter) (*dgd.Result, [][]float64) {
			rec := &dgd.TraceRecorder{}
			res, err := (&Backend{}).Run(context.Background(), dgd.Config{
				Agents:   buildAgents(),
				F:        1,
				Filter:   fl,
				X0:       make([]float64, d),
				Rounds:   25,
				Observer: rec,
			})
			if err != nil {
				t.Fatalf("%s: %v", fl.Name(), err)
			}
			return res, rec.X
		}
		into, intoTraj := run(filter)
		legacy, legacyTraj := run(hiddenIntoFilter{inner: filter})
		if len(intoTraj) != len(legacyTraj) {
			t.Fatalf("%s: trajectory lengths differ", filterName)
		}
		for round := range intoTraj {
			for j := range intoTraj[round] {
				if math.Float64bits(intoTraj[round][j]) != math.Float64bits(legacyTraj[round][j]) {
					t.Fatalf("%s: cluster trajectory diverges at round %d coord %d", filterName, round, j)
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
