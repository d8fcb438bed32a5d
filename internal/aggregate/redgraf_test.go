package aggregate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// redgrafFresh returns fresh instances of the four REDGRAF filters.
func redgrafFresh() []IntoFilter {
	return []IntoFilter{&SDMMFD{}, &RSDMMFD{}, &SDFD{}, RVO{}}
}

// redgrafRounds drives a filter through a multi-round chain: one gradient
// set per round, SetRound when the filter is round-keyed, aggregating
// through the given face. Returns the per-round outputs.
func redgrafRounds(t *testing.T, fl Filter, roundGrads [][][]float64, f int, s *Scratch) [][]float64 {
	t.Helper()
	out := make([][]float64, len(roundGrads))
	for round, grads := range roundGrads {
		if rk, ok := fl.(RoundKeyed); ok {
			rk.SetRound(round)
		}
		if s != nil {
			dst := make([]float64, len(grads[0]))
			if err := fl.(IntoFilter).AggregateInto(dst, grads, f, s); err != nil {
				t.Fatalf("%s round %d: %v", fl.Name(), round, err)
			}
			out[round] = dst
			continue
		}
		dst, err := fl.Aggregate(grads, f)
		if err != nil {
			t.Fatalf("%s round %d: %v", fl.Name(), round, err)
		}
		out[round] = dst
	}
	return out
}

// roundsFuzz draws a chain of gradient sets.
func roundsFuzz(r *rand.Rand, rounds, n, d int) [][][]float64 {
	out := make([][][]float64, rounds)
	for t := range out {
		out[t] = fuzzGradients(r, n, d, t%3)
	}
	return out
}

// TestRedgrafFacesBitwiseEqual pins the two-face contract across a stateful
// chain: for every REDGRAF filter, driving the allocating Aggregate face and
// the AggregateInto face (through one continuously reused Scratch) over the
// same multi-round input stream must produce bitwise-identical outputs every
// round — including the stateful families, whose auxiliary center must
// advance identically through both faces.
func TestRedgrafFacesBitwiseEqual(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const rounds, n, d, f = 12, 10, 5, 2
	chain := roundsFuzz(r, rounds, n, d)
	aggFace := redgrafFresh()
	intoFace := redgrafFresh()
	scratch := &Scratch{} // shared across all four filters, like an engine run
	for i := range aggFace {
		want := redgrafRounds(t, aggFace[i], chain, f, nil)
		got := redgrafRounds(t, intoFace[i], chain, f, scratch)
		for round := range want {
			if !bitwiseEqual(want[round], got[round]) {
				t.Errorf("%s: faces diverge at round %d\nAggregate     %v\nAggregateInto %v",
					aggFace[i].Name(), round, want[round], got[round])
			}
		}
	}
}

// TestRedgrafStatefulDiffersFromStateless documents that SDMMFD's auxiliary
// chain is real: on a drifting gradient stream the stateful output departs
// from the reduced (stateless) variant after round 0, while at round 0 the
// two coincide (both center on the round's coordinate-wise median).
func TestRedgrafStatefulDiffersFromStateless(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const rounds, n, d, f = 8, 10, 4, 2
	chain := make([][][]float64, rounds)
	for tr := range chain {
		grads := fuzzGradients(r, n, d, 0)
		for i := range grads {
			// Drift the cloud so the cross-round center and the per-round
			// median separate.
			for j := range grads[i] {
				grads[i][j] += 3 * float64(tr)
			}
		}
		chain[tr] = grads
	}
	stateful := redgrafRounds(t, &SDMMFD{}, chain, f, &Scratch{})
	stateless := redgrafRounds(t, &RSDMMFD{}, chain, f, &Scratch{})
	if !bitwiseEqual(stateful[0], stateless[0]) {
		t.Errorf("round 0: SDMMFD %v should equal R-SDMMFD %v (both median-centered)",
			stateful[0], stateless[0])
	}
	diverged := false
	for round := 1; round < rounds; round++ {
		if !bitwiseEqual(stateful[round], stateless[round]) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("SDMMFD never departed from R-SDMMFD on a drifting stream; the auxiliary chain is dead")
	}
}

// TestRedgrafAuxKeying pins the content-keyed auxiliary state:
//   - replaying a chain from round 0 through a recycled Scratch reproduces
//     it bitwise (the per-(seed, round) keys match up);
//   - a Scratch carrying another scenario's chain (different seed) misses
//     the cache and re-initializes, behaving exactly like a fresh Scratch;
//   - a round gap (SetRound jumping past the committed round) likewise
//     re-initializes instead of silently continuing a stale chain.
func TestRedgrafAuxKeying(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	const rounds, n, d, f = 6, 11, 3, 2
	chain := roundsFuzz(r, rounds, n, d)

	run := func(seed int64, s *Scratch) [][]float64 {
		fl := &SDMMFD{}
		fl.ConfigureSeed(seed)
		return redgrafRounds(t, fl, chain, f, s)
	}

	scratch := &Scratch{}
	first := run(1, scratch)
	// Replay with the same seed through the same (now dirty) Scratch: keys
	// line up from round 0, outputs reproduce bitwise.
	replay := run(1, scratch)
	for round := range first {
		if !bitwiseEqual(first[round], replay[round]) {
			t.Fatalf("replay diverges at round %d", round)
		}
	}
	// A different scenario seed through the dirty Scratch must match a fresh
	// Scratch bitwise: the cross-scenario chain can never leak in.
	dirty := run(2, scratch)
	fresh := run(2, &Scratch{})
	for round := range dirty {
		if !bitwiseEqual(dirty[round], fresh[round]) {
			t.Fatalf("dirty-scratch run diverges from fresh at round %d: %v vs %v",
				round, dirty[round], fresh[round])
		}
	}

	// Round gap: aggregate rounds 0,1, then jump to round 3. The committed
	// round-1 key cannot answer the round-2 lookup, so the filter must
	// re-initialize from round 3's gradients — identical to a fresh filter
	// whose first call is at round 3 (a fresh Scratch also misses).
	gapFl := &SDMMFD{}
	gapScratch := &Scratch{}
	for round := 0; round < 2; round++ {
		gapFl.SetRound(round)
		dst := make([]float64, d)
		if err := gapFl.AggregateInto(dst, chain[round], f, gapScratch); err != nil {
			t.Fatal(err)
		}
	}
	gapFl.SetRound(3)
	gapDst := make([]float64, d)
	if err := gapFl.AggregateInto(gapDst, chain[3], f, gapScratch); err != nil {
		t.Fatal(err)
	}
	freshFl := &SDMMFD{}
	freshFl.SetRound(3)
	freshDst := make([]float64, d)
	if err := freshFl.AggregateInto(freshDst, chain[3], f, &Scratch{}); err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(gapDst, freshDst) {
		t.Errorf("round-gap output %v differs from fresh re-initialization %v", gapDst, freshDst)
	}
}

// TestRedgrafAdmissibility pins the resilience preconditions: the SDMMFD
// pair rejects n <= 3f, the distance-only and RVO filters reject n <= 2f,
// all with the ErrTooManyFaults sentinel sweeps classify as skips — and all
// accept one agent more.
func TestRedgrafAdmissibility(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cases := []struct {
		fl    IntoFilter
		bound int // max multiplier b with n <= b*f rejected
	}{
		{&SDMMFD{}, 3},
		{&RSDMMFD{}, 3},
		{&SDFD{}, 2},
		{RVO{}, 2},
	}
	const f = 2
	for _, tc := range cases {
		nBad := tc.bound * f
		grads := fuzzGradients(r, nBad, 4, 0)
		if _, err := tc.fl.Aggregate(grads, f); !errors.Is(err, ErrTooManyFaults) {
			t.Errorf("%s n=%d f=%d: got %v, want ErrTooManyFaults", tc.fl.Name(), nBad, f, err)
		}
		if err := tc.fl.AggregateInto(make([]float64, 4), grads, f, nil); !errors.Is(err, ErrTooManyFaults) {
			t.Errorf("%s Into n=%d f=%d: got %v, want ErrTooManyFaults", tc.fl.Name(), nBad, f, err)
		}
		good := fuzzGradients(r, nBad+1, 4, 0)
		if _, err := tc.fl.Aggregate(good, f); err != nil {
			t.Errorf("%s n=%d f=%d: unexpected %v", tc.fl.Name(), nBad+1, f, err)
		}
	}
	// The shared input validation still applies: NaN reports and short
	// destinations are rejected up front.
	for _, fl := range redgrafFresh() {
		if err := fl.AggregateInto(make([]float64, 3), fuzzGradients(r, 9, 4, 0), 1, nil); !errors.Is(err, ErrInput) {
			t.Errorf("%s short dst: got %v, want ErrInput", fl.Name(), err)
		}
		bad := fuzzGradients(r, 9, 4, 0)
		bad[4][2] = math.NaN()
		if err := fl.AggregateInto(make([]float64, 4), bad, 1, nil); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s NaN input: got %v, want ErrNonFinite", fl.Name(), err)
		}
	}
}

// TestRVOMatchesSortReference checks RVO against a direct sort-based
// reference: per coordinate, the midpoint of the f-trimmed range.
func TestRVOMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 5 + r.Intn(12)
		d := 1 + r.Intn(6)
		f := r.Intn(n / 2)
		if n <= 2*f {
			f = (n - 1) / 2
		}
		grads := fuzzGradients(r, n, d, trial%3)
		got, err := RVO{}.Aggregate(grads, f)
		if err != nil {
			t.Fatalf("trial %d n=%d f=%d: %v", trial, n, f, err)
		}
		requireBits(t, fmt.Sprintf("trial %d n=%d f=%d", trial, n, f), refRVO(grads, f), got, true)
	}
}

// TestDistanceKeepMatchesSortReference checks the distance stage against a
// full stable sort by (distance, index): the survivor sets must agree as
// sets of indices, proving the quickselect-threshold selection deterministic
// and tie-stable.
func TestDistanceKeepMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := &Scratch{}
	for trial := 0; trial < 80; trial++ {
		n := 4 + r.Intn(14)
		d := 1 + r.Intn(5)
		m := 1 + r.Intn(n)
		grads := fuzzGradients(r, n, d, trial%3)
		center := make([]float64, d)
		for j := range center {
			center[j] = r.NormFloat64()
		}
		keep := distanceKeep(grads, center, m, s)

		type scored struct {
			dist float64
			idx  int
		}
		ref := make([]scored, n)
		for i, g := range grads {
			var sum float64
			for j, v := range g {
				dv := v - center[j]
				sum += dv * dv
			}
			ref[i] = scored{dist: sum, idx: i}
		}
		sort.SliceStable(ref, func(a, b int) bool {
			if ref[a].dist != ref[b].dist {
				return ref[a].dist < ref[b].dist
			}
			return ref[a].idx < ref[b].idx
		})
		want := map[int]bool{}
		for _, sc := range ref[:m] {
			want[sc.idx] = true
		}
		if len(keep) != m {
			t.Fatalf("trial %d: kept %d of %d, want %d", trial, len(keep), n, m)
		}
		seen := map[int]bool{}
		for _, idx := range keep {
			if seen[idx] {
				t.Fatalf("trial %d: duplicate index %d", trial, idx)
			}
			seen[idx] = true
			if !want[idx] {
				t.Fatalf("trial %d: kept index %d outside the %d closest (ref %v, got %v)",
					trial, idx, m, ref[:m], keep)
			}
		}
	}
}

// TestRedgrafIntoAllocs extends the zero-allocation gate to the REDGRAF
// filters: with a warm Scratch, AggregateInto allocates nothing — including
// the stateful families advancing their auxiliary chain every round.
func TestRedgrafIntoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, size := range []struct{ n, d, f int }{{11, 32, 2}, {100, 8, 10}} {
		grads := fuzzGradients(r, size.n, size.d, 0)
		for _, fl := range redgrafFresh() {
			scratch := &Scratch{}
			dst := make([]float64, size.d)
			round := 0
			step := func() {
				if rk, ok := fl.(RoundKeyed); ok {
					rk.SetRound(round)
				}
				round++
				if err := fl.AggregateInto(dst, grads, size.f, scratch); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm the scratch buffers
			allocs := testing.AllocsPerRun(50, step)
			if allocs != 0 {
				t.Errorf("%s n=%d: %v allocs/op with warm scratch, want 0", fl.Name(), size.n, allocs)
			}
		}
	}
}
