package simtime

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestClockPopsInTimeThenInsertionOrder(t *testing.T) {
	var c Clock
	// Schedule out of order, with a three-way tie at t=2.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Schedule(5, 50, 0, nil))
	must(c.Schedule(2, 20, 0, nil))
	must(c.Schedule(2, 21, 0, nil))
	must(c.Schedule(1, 10, 0, nil))
	must(c.Schedule(2, 22, 0, nil))

	wantAgents := []int{10, 20, 21, 22, 50}
	wantTimes := []float64{1, 2, 2, 2, 5}
	for i := range wantAgents {
		e, ok := c.PopDue(math.Inf(1))
		if !ok {
			t.Fatalf("pop %d: nothing due", i)
		}
		if e.Agent != wantAgents[i] || e.Time != wantTimes[i] {
			t.Fatalf("pop %d: got agent=%d t=%v, want agent=%d t=%v", i, e.Agent, e.Time, wantAgents[i], wantTimes[i])
		}
	}
	if _, ok := c.PopDue(math.Inf(1)); ok {
		t.Fatal("queue should be empty")
	}
	if c.Now() != 5 {
		t.Fatalf("Now = %v, want 5", c.Now())
	}
}

func TestClockPopDueRespectsCutoff(t *testing.T) {
	var c Clock
	if err := c.Schedule(1, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Schedule(3, 3, 0, nil); err != nil {
		t.Fatal(err)
	}
	e, ok := c.PopDue(2)
	if !ok || e.Agent != 1 {
		t.Fatalf("expected agent 1 due at cutoff 2, got %+v ok=%v", e, ok)
	}
	if _, ok := c.PopDue(2); ok {
		t.Fatal("agent 3 should not be due at cutoff 2")
	}
	if len(c.events) != 1 {
		t.Fatalf("%d events pending, want 1", len(c.events))
	}
	// AdvanceTo moves forward only.
	c.AdvanceTo(2.5)
	if c.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", c.Now())
	}
	c.AdvanceTo(0)
	if c.Now() != 2.5 {
		t.Fatalf("Now moved backwards to %v", c.Now())
	}
}

func TestClockRejectsSchedulingInThePast(t *testing.T) {
	var c Clock
	c.AdvanceTo(10)
	if err := c.Schedule(9, 0, 0, nil); err == nil {
		t.Fatal("expected error scheduling before Now")
	}
	if err := c.Schedule(math.NaN(), 0, 0, nil); err == nil {
		t.Fatal("expected error scheduling at NaN")
	}
	if err := c.Schedule(10, 0, 0, nil); err != nil {
		t.Fatalf("scheduling exactly at Now should be fine: %v", err)
	}
}

func TestClockDrainAllRecyclesPayloads(t *testing.T) {
	var c Clock
	p1, p2 := []float64{1}, []float64{2}
	if err := c.Schedule(1, 0, 0, p1); err != nil {
		t.Fatal(err)
	}
	if err := c.Schedule(2, 1, 0, p2); err != nil {
		t.Fatal(err)
	}
	if err := c.Schedule(3, 2, 0, nil); err != nil {
		t.Fatal(err)
	}
	var got int
	c.DrainAll(func(p []float64) { got++ })
	if got != 2 {
		t.Fatalf("recycled %d payloads, want 2 (nil payloads skipped)", got)
	}
	if len(c.events) != 0 {
		t.Fatalf("%d events pending after drain", len(c.events))
	}
	if c.Now() != 0 {
		t.Fatalf("DrainAll moved Now to %v", c.Now())
	}
}

func TestSampleIsOrderIndependent(t *testing.T) {
	l := Latency{Kind: LatencyUniform, Base: 0.5, Spread: 2, StragglerRate: 0.3, StragglerFactor: 10}
	const seed, n, rounds = 42, 16, 8
	// Reference: row-major sampling order.
	ref := make([][]float64, rounds)
	for r := range ref {
		ref[r] = make([]float64, n)
		for i := range ref[r] {
			ref[r][i] = l.Sample(seed, r, i)
		}
	}
	// Re-sample in reversed, column-major order; every draw must match.
	for i := n - 1; i >= 0; i-- {
		for r := rounds - 1; r >= 0; r-- {
			if got := l.Sample(seed, r, i); got != ref[r][i] {
				t.Fatalf("Sample(%d,%d) order-dependent: %v vs %v", r, i, got, ref[r][i])
			}
		}
	}
}

func TestSampleRangesPerKind(t *testing.T) {
	const seed = 7
	fixed := Latency{Kind: LatencyFixed, Base: 1.5}
	uni := Latency{Kind: LatencyUniform, Base: 1, Spread: 2}
	par := Latency{Kind: LatencyPareto, Base: 1, Alpha: 1.5}
	sawTail := false
	for r := 0; r < 50; r++ {
		for i := 0; i < 20; i++ {
			if d := fixed.Sample(seed, r, i); d != 1.5 {
				t.Fatalf("fixed draw %v != 1.5", d)
			}
			if d := uni.Sample(seed, r, i); d < 1 || d > 3 {
				t.Fatalf("uniform draw %v outside [1,3]", d)
			}
			d := par.Sample(seed, r, i)
			if d < 1 || math.IsInf(d, 1) || math.IsNaN(d) {
				t.Fatalf("pareto draw %v outside [1,inf)", d)
			}
			if d > 5 {
				sawTail = true
			}
		}
	}
	if !sawTail {
		t.Fatal("pareto(alpha=1.5) produced no draw above 5x scale in 1000 draws — tail missing")
	}
}

func TestZeroValueLatencyIsSynchronous(t *testing.T) {
	var l Latency
	if err := l.Validate(); err != nil {
		t.Fatalf("zero-value Latency must validate: %v", err)
	}
	for r := 0; r < 5; r++ {
		for i := 0; i < 5; i++ {
			if d := l.Sample(123, r, i); d != 0 {
				t.Fatalf("zero-value Sample = %v, want 0", d)
			}
		}
	}
}

func TestStragglerDesignationIsPerAgentAndSeedStable(t *testing.T) {
	l := Latency{Kind: LatencyFixed, Base: 1, StragglerRate: 0.25, StragglerFactor: 8}
	const n = 400
	count := 0
	for i := 0; i < n; i++ {
		a := l.IsStraggler(99, i)
		if a != l.IsStraggler(99, i) {
			t.Fatalf("agent %d designation unstable", i)
		}
		if a {
			count++
			// A straggler's delay is scaled in every round.
			for r := 0; r < 4; r++ {
				if d := l.Sample(99, r, i); d != 8 {
					t.Fatalf("straggler %d round %d delay %v, want 8", i, r, d)
				}
			}
		} else {
			for r := 0; r < 4; r++ {
				if d := l.Sample(99, r, i); d != 1 {
					t.Fatalf("non-straggler %d round %d delay %v, want 1", i, r, d)
				}
			}
		}
	}
	// Rate 0.25 over 400 agents: expect roughly 100; allow a wide band.
	if count < 60 || count > 150 {
		t.Fatalf("straggler count %d/%d far from rate 0.25", count, n)
	}
	// Different seed gives a different designation set.
	diff := 0
	for i := 0; i < n; i++ {
		if l.IsStraggler(99, i) != l.IsStraggler(100, i) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("designations identical across seeds")
	}
}

func TestLatencyValidate(t *testing.T) {
	bad := []Latency{
		{Kind: "gamma"},
		{Kind: LatencyFixed, Base: -1},
		{Kind: LatencyUniform, Base: -0.1},
		{Kind: LatencyUniform, Spread: -2},
		{Kind: LatencyPareto, Base: 0, Alpha: 1},
		{Kind: LatencyPareto, Base: 1, Alpha: 0},
		{Kind: LatencyFixed, StragglerRate: -0.5},
		{Kind: LatencyFixed, StragglerRate: 1.5},
		{Kind: LatencyFixed, StragglerRate: 0.5, StragglerFactor: 0.5},
		// Non-finite values: NaN passes every comparison, +Inf half of them.
		{Kind: LatencyFixed, Base: math.Inf(1)},
		{Kind: LatencyUniform, Base: math.NaN(), Spread: 1},
		{Kind: LatencyUniform, Base: 1, Spread: math.Inf(1)},
		{Kind: LatencyPareto, Base: 1, Alpha: math.Inf(1)},
		{Kind: LatencyPareto, Base: math.Inf(1), Alpha: 2},
		{Kind: LatencyFixed, StragglerRate: math.NaN(), StragglerFactor: 2},
		{Kind: LatencyFixed, StragglerRate: 0.5, StragglerFactor: math.Inf(1)},
		{Kind: LatencyFixed, StragglerRate: 0.5, StragglerFactor: math.NaN()},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", l)
		}
	}
	good := []Latency{
		{},
		{Kind: LatencyFixed, Base: 2},
		{Kind: LatencyUniform, Base: 0, Spread: 0},
		{Kind: LatencyUniform, Base: 1, Spread: 3, StragglerRate: 0.1, StragglerFactor: 4},
		{Kind: LatencyPareto, Base: 0.5, Alpha: 1.1},
		{Kind: LatencyFixed, StragglerRate: 0, StragglerFactor: 0},
	}
	for _, l := range good {
		if err := l.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", l, err)
		}
	}
}

func TestU01Bounds(t *testing.T) {
	for a := -2; a < 50; a++ {
		for b := 0; b < 50; b++ {
			u := U01(31337, a, b)
			if u < 0 || u >= 1 {
				t.Fatalf("U01(%d,%d) = %v outside [0,1)", a, b, u)
			}
		}
	}
}

// TestMixIsItsComposedSteps holds Mix to the three-pass definition every
// export is keyed on (frozen values, and the passes written out), and holds
// its exported steps, hoisted the way the sampled Krum scorer hoists them
// (seed once, row prefix once a row), to Mix over random and negative
// arguments.
func TestMixIsItsComposedSteps(t *testing.T) {
	for _, c := range []struct {
		seed int64
		a, b int
		want uint64
	}{
		{0, 0, 0, 0xe220a8397b1dcdaf},
		{1, 2, 3, 0x177e1724ac4d6f6},
		{-2, -1, -7, 0x8f8aac096615f24a},
		{math.MinInt64, 1 << 62, -(1 << 40), 0x3a4656de0b558530},
		{20261002, 199, 0, 0x189e4a3098da57f7},
	} {
		if got := Mix(c.seed, c.a, c.b); got != c.want {
			t.Errorf("Mix(%d, %d, %d) = %#x, want %#x", c.seed, c.a, c.b, got, c.want)
		}
	}
	written := func(seed int64, a, b int) uint64 {
		h := splitmix64(uint64(seed))
		h = splitmix64(h ^ splitmix64(uint64(int64(a))))
		return splitmix64(h ^ splitmix64(uint64(int64(b))))
	}
	r := rand.New(rand.NewSource(28))
	draw := func() int {
		switch r.Intn(3) {
		case 0:
			return r.Intn(400) - 200
		case 1:
			return int(r.Int63()) * (1 - 2*r.Intn(2))
		}
		return -1 - r.Intn(3)
	}
	for trial := 0; trial < 2000; trial++ {
		seed := int64(draw())
		hs := MixSeed(seed)
		a := draw()
		row := MixIn(hs, MixIndex(a))
		for k := 0; k < 4; k++ {
			b := draw()
			want := Mix(seed, a, b)
			if got := MixIn(row, MixIndex(b)); got != want {
				t.Fatalf("steps(%d, %d, %d) = %#x, Mix has %#x", seed, a, b, got, want)
			}
			if got := written(seed, a, b); got != want {
				t.Fatalf("Mix(%d, %d, %d) = %#x, the three passes give %#x", seed, a, b, want, got)
			}
			if u := U01(seed, a, b); u != float64(want>>11)/(1<<53) {
				t.Fatalf("U01(%d, %d, %d) = %v, not Mix's top 53 bits", seed, a, b, u)
			}
		}
	}
}

// Latency values are immutable and draws are pure functions, so concurrent
// sampling from one shared model must be race-free — this is how the sweep
// worker pool uses it.
func TestConcurrentSamplingIsRaceFree(t *testing.T) {
	l := Latency{Kind: LatencyPareto, Base: 1, Alpha: 2, StragglerRate: 0.2, StragglerFactor: 5}
	var wg sync.WaitGroup
	out := make([][]float64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = make([]float64, 200)
			for i := range out[w] {
				out[w][i] = l.Sample(5, i%10, i/10)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range out[w] {
			if out[w][i] != out[0][i] {
				t.Fatalf("worker %d draw %d diverged", w, i)
			}
		}
	}
}
