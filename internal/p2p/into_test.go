package p2p

// Parity gate for the decentralized loop's Into paths: a p2p run with the
// filter's Into face (and the gradient arena) engaged must be bitwise
// identical to the same run with the Into faces hidden.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/vecmath"
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
// allocating one over well-formed, truncated, and poisoned payloads.
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
		if DecodeVectorInto(dst, s); !bitsEqual(dst, want) {
			t.Fatalf("payload %d: into %v, alloc %v", i, dst, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		dst := make([]float64, 3)
		DecodeVectorInto(dst, payloads[0])
	}); allocs > 1 { // the dst make is the only one
		t.Errorf("DecodeVectorInto allocates: %v allocs/op", allocs)
	}
}

// scripted reports its round's row of a fixed table, whatever the estimate.
type scripted [][]float64

func (s scripted) Gradient(round int, x []float64) ([]float64, error) {
	return slices.Clone(s[round%len(s)]), nil
}

// recordingMean is the mean filter keeping a copy of every report set it is
// handed.
type recordingMean struct{ seen *[][][]float64 }

func (recordingMean) Name() string { return "recording-mean" }

func (r recordingMean) Aggregate(grads [][]float64, f int) ([]float64, error) {
	set := make([][]float64, len(grads))
	for i, g := range grads {
		set[i] = slices.Clone(g)
	}
	*r.seen = append(*r.seen, set)
	return aggregate.Mean{}.Aggregate(grads, f)
}

// TestHonestSenderRowIsItsDecodedReport: Backend.Run decides a sender that
// does not distort without encoding its report, and the row it agrees on is
// still what decoding the encoding gives — the report bit for bit, −0 and
// subnormals included, and the zero row from the round an honest peer's
// report goes non-finite. A distorting peer's broadcast runs beside it.
func TestHonestSenderRowIsItsDecodedReport(t *testing.T) {
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	reports := scripted{
		{negZero, tiny, -2.5e-310},
		{1, math.NaN(), 2},
		{math.Inf(-1), 0, negZero},
		{negZero, 3 * tiny, 3},
	}
	var seen [][][]float64
	liar, err := Equivocating(scripted{{1, 1, 1}}, SplitLiar{})
	if err != nil {
		t.Fatal(err)
	}
	agents := []dgd.Agent{reports, scripted{{4, 5, 6}}, scripted{{-1, 0, 1}}, liar}
	cfg := dgd.Config{Agents: agents, F: 1, Filter: recordingMean{&seen}, X0: make([]float64, 3), Rounds: len(reports)}
	if _, err := (Backend{}).Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(reports) {
		t.Fatalf("the filter saw %d report sets, want %d", len(seen), len(reports))
	}
	for round, set := range seen {
		for sender, a := range agents[:3] {
			report, _ := a.Gradient(round, nil)
			want := DecodeVector(EncodeVector(report), 3)
			if vecmath.IsFinite(report) && !bitsEqual(want, report) {
				t.Fatalf("round %d sender %d: decoding %v gives %v", round, sender, report, want)
			}
			if !bitsEqual(set[sender], want) {
				t.Errorf("round %d sender %d reported %v: the agreed row is %v, decoding its encoding gives %v",
					round, sender, report, set[sender], want)
			}
		}
	}
	if !bitsEqual(seen[1][0], make([]float64, 3)) || !math.Signbit(seen[0][0][0]) {
		t.Errorf("agreed rows %v and %v: want −0 kept and a non-finite report zeroed", seen[0][0], seen[1][0])
	}
}

// viewLiar tells every third recipient ⊥ and the others what lie makes of
// the value it was handed, a pure function of that value.
type viewLiar struct{ lie func(honest string) string }

func (l viewLiar) Relay(path []int, recipient int, honest string) string {
	if recipient%3 == 0 {
		return DefaultValue
	}
	return l.lie(honest)
}

// viewLies answer with the value a distorter is handed — for a distorting
// sender's root, a view of Backend.Run's payload buffer — itself, with a copy
// of it, and with a proper substring of it, which the engine interns.
var viewLies = []struct {
	name      string
	lie       func(honest string) string
	allocates bool
}{
	{"honest", func(h string) string { return h }, false},
	{"clone", strings.Clone, true},
	{"substring", func(h string) string { return h[len(h)/2:] }, false},
}

// TestDistortingSenderValueReadInPlace: Backend.Run broadcasts a distorting
// sender's report through a string viewing its reused encoding buffer, and
// decides bit for bit what Broadcast decides for the same report's
// EncodeVector, round after round, whether the distorters relay that view
// itself, a copy of it or a substring of it. Where the distorter allocates
// nothing of its own, a round allocates nothing.
func TestDistortingSenderValueReadInPlace(t *testing.T) {
	const n, f, d, rounds = 7, 2, 3, 6
	r := rand.New(rand.NewSource(46))
	tables := make([]scripted, n)
	for i := range tables {
		tables[i] = make(scripted, rounds)
		for round := range tables[i] {
			tables[i][round] = []float64{r.NormFloat64(), r.NormFloat64() * 1e3, r.NormFloat64() * 1e-3}
		}
	}
	for _, v := range viewLies {
		liar := viewLiar{v.lie}
		byz := map[int]Distorter{0: liar, 1: liar}
		agents := make([]dgd.Agent, n)
		for i, table := range tables {
			agents[i] = table
			if byz[i] != nil {
				var err error
				if agents[i], err = Equivocating(table, byz[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		var seen [][][]float64
		cfg := dgd.Config{Agents: agents, F: f, Filter: recordingMean{&seen}, X0: make([]float64, d), Rounds: rounds}
		if _, err := (Backend{}).Run(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if len(seen) != rounds {
			t.Fatalf("%s: the filter saw %d report sets, want %d", v.name, len(seen), rounds)
		}
		for round, set := range seen {
			for sender := range byz {
				decisions, err := Broadcast(n, f, sender, EncodeVector(tables[sender][round]), byz)
				if err != nil {
					t.Fatal(err)
				}
				// Peer 2 is the first honest one.
				if want := DecodeVector(decisions[2], d); !bitsEqual(set[sender], want) {
					t.Errorf("%s: round %d sender %d: Backend.Run decided %v, Broadcast %v",
						v.name, round, sender, set[sender], want)
				}
			}
		}

		if v.allocates {
			continue
		}
		lines := lineAgents(t, func(int) byzantine.Behavior { return byzantine.GradientReverse{} })
		for i := range byz {
			var err error
			if lines[i], err = Equivocating(lines[i], liar); err != nil {
				t.Fatal(err)
			}
		}
		if perRound, base, extended := roundAllocs(t, lines); perRound != 0 {
			t.Errorf("%s: a round allocates %.2f times, want 0 (1-round run %.0f, 101-round run %.0f)",
				v.name, perRound, base, extended)
		}
	}
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
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
			cost, err := costfunc.NewObservation(row, rr.NormFloat64())
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
