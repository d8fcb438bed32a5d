package aggregate

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// exactTwin returns the exact filter an approximate filter must reproduce
// in its degenerate regime (k >= d, or m >= n-1).
func exactTwin(fl IntoFilter) IntoFilter {
	switch fl.(type) {
	case *KrumSketch, *KrumSampled:
		return Krum{}
	case *MultiKrumSketch, *MultiKrumSampled:
		return MultiKrum{M: 3}
	case *BulyanSketch, *BulyanSampled:
		return Bulyan{}
	}
	panic("no twin for " + fl.Name())
}

// TestSketchIdentityParity pins the exact-fallback contract: with the
// projection dimension at or above d, every sketched filter delegates to
// the exact scorer and must reproduce its exact twin bitwise — errors and
// sentinels included — over the fuzz grid, through one shared Scratch.
func TestSketchIdentityParity(t *testing.T) {
	r := rand.New(rand.NewSource(20260807))
	scratch := &Scratch{}
	for _, n := range []int{3, 5, 7, 11, 12, 23} {
		for _, d := range []int{1, 2, 7, 33} {
			for _, f := range []int{0, 1, 2, 4} {
				for mode := 0; mode < 3; mode++ {
					grads := fuzzGradients(r, n, d, mode)
					for _, fl := range []IntoFilter{
						&KrumSketch{SketchParams: SketchParams{Dim: d, Seed: 42}},
						&MultiKrumSketch{M: 3, SketchParams: SketchParams{Dim: d + 5, Seed: 42}},
						&BulyanSketch{SketchParams: SketchParams{Dim: d, Seed: 42}},
					} {
						checkTwinParity(t, fl, grads, d, f, scratch)
					}
				}
			}
		}
	}
}

// TestSampledFullParity is the sampled-family face of the same contract:
// a sample of m >= n-1 neighbors scores every pair, which is not merely
// equivalent to the exact filter — it is the identical code path.
func TestSampledFullParity(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	scratch := &Scratch{}
	for _, n := range []int{3, 5, 7, 11, 12, 23} {
		for _, f := range []int{0, 1, 2, 4} {
			for mode := 0; mode < 3; mode++ {
				const d = 7
				grads := fuzzGradients(r, n, d, mode)
				for _, fl := range []IntoFilter{
					&KrumSampled{SampleParams: SampleParams{Pairs: n - 1, Seed: 42}},
					&MultiKrumSampled{M: 3, SampleParams: SampleParams{Pairs: n + 10, Seed: 42}},
					&BulyanSampled{SampleParams: SampleParams{Pairs: n - 1, Seed: 42}},
				} {
					checkTwinParity(t, fl, grads, d, f, scratch)
				}
			}
		}
	}
}

func checkTwinParity(t *testing.T, fl IntoFilter, grads [][]float64, d, f int, scratch *Scratch) {
	t.Helper()
	twin := exactTwin(fl)
	want, wantErr := twin.Aggregate(grads, f)
	dst := make([]float64, d)
	for i := range dst {
		dst[i] = math.NaN() // canary: must be overwritten
	}
	gotErr := fl.AggregateInto(dst, grads, f, scratch)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s n=%d d=%d f=%d: error mismatch exact=%v approx=%v",
			fl.Name(), len(grads), d, f, wantErr, gotErr)
	}
	if wantErr != nil {
		if !errors.Is(gotErr, ErrTooManyFaults) && !errors.Is(gotErr, ErrInput) {
			t.Fatalf("%s: unexpected sentinel %v", fl.Name(), gotErr)
		}
		return
	}
	if !bitwiseEqual(want, dst) {
		t.Fatalf("%s n=%d d=%d f=%d: diverges from exact twin in the identity regime\nexact  %v\ngot    %v",
			fl.Name(), len(grads), d, f, want, dst)
	}
}

// approxFilters returns the six approximate filters with the approximation
// genuinely engaged for an (n=24, d) input: sketch dimension and sample
// size well below d and n-1.
func approxFilters() []IntoFilter {
	sk := SketchParams{Dim: 16, Seed: 7}
	sa := SampleParams{Pairs: 8, Seed: 7}
	return []IntoFilter{
		&KrumSketch{SketchParams: sk},
		&MultiKrumSketch{M: 3, SketchParams: sk},
		&BulyanSketch{SketchParams: sk},
		&KrumSampled{SampleParams: sa},
		&MultiKrumSampled{M: 3, SampleParams: sa},
		&BulyanSampled{SampleParams: sa},
	}
}

// TestApproxRoundKeying checks that the round index actually rotates the
// draws — across enough rounds the sketched Krum selection must disagree
// with itself at least once on an ambiguous input — while repeated SetRound
// calls with the same round change nothing.
func TestApproxRoundKeying(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const n, d, f = 24, 128, 2
	grads := fuzzGradients(r, n, d, 0)
	fl := &KrumSketch{SketchParams: SketchParams{Dim: 4, Seed: 1}}
	scratch := &Scratch{}
	varied := false
	base := make([]float64, d)
	fl.SetRound(0)
	if err := fl.AggregateInto(base, grads, f, scratch); err != nil {
		t.Fatal(err)
	}
	for round := 1; round < 64 && !varied; round++ {
		dst := make([]float64, d)
		fl.SetRound(round)
		if err := fl.AggregateInto(dst, grads, f, scratch); err != nil {
			t.Fatal(err)
		}
		repeat := make([]float64, d)
		fl.SetRound(round) // idempotent re-key, as the p2p engine issues
		if err := fl.AggregateInto(repeat, grads, f, scratch); err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(dst, repeat) {
			t.Fatalf("round %d: repeated SetRound changed the output", round)
		}
		if !bitwiseEqual(base, dst) {
			varied = true
		}
	}
	if !varied {
		t.Error("64 rounds of a dim-4 sketch never changed the selection; round keying looks inert")
	}
}

// TestApproxIntoAllocs extends the zero-allocation gate to the genuinely
// approximate code paths: d far above the sketch dimension and n-1 far
// above the sample size, with one warm Scratch shared by the six filters —
// at n = 24 and at n = 100, where the sampled scorer's selection buffer and
// Bulyan's radix-sorted columns are in play. The warm-up call must give
// Aggregate's bits: the shared Scratch, already shaped by the filter before,
// leaks nothing into the next. (TestAggregateIntoAllocs covers the registry
// defaults at small d, where the sketch filters run their exact fallback.)
func TestApproxIntoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const d = 128
	for _, size := range []struct{ n, f, runs int }{{24, 2, 50}, {100, 10, 5}} {
		grads := fuzzGradients(r, size.n, d, 0)
		scratch := &Scratch{}
		for _, fl := range approxFilters() {
			dst := make([]float64, d)
			fl.(RoundKeyed).SetRound(1)
			want, err := fl.Aggregate(grads, size.f)
			if err != nil {
				t.Fatalf("%s n=%d: %v", fl.Name(), size.n, err)
			}
			if err := fl.AggregateInto(dst, grads, size.f, scratch); err != nil {
				t.Fatalf("%s n=%d warmup: %v", fl.Name(), size.n, err)
			}
			if !bitwiseEqual(want, dst) {
				t.Fatalf("%s n=%d: AggregateInto on the shared Scratch diverges from Aggregate", fl.Name(), size.n)
			}
			allocs := testing.AllocsPerRun(size.runs, func() {
				if err := fl.AggregateInto(dst, grads, size.f, scratch); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s n=%d: %v allocs/op with warm scratch, want 0", fl.Name(), size.n, allocs)
			}
		}
	}
}

// TestApproxRegistry checks the registry contract of the six approximate
// filters: constructible by name, listed in Names, and implementing the
// IntoFilter, RoundKeyed, and SketchConfigurable faces the engines and the
// sweep axis rely on.
func TestApproxRegistry(t *testing.T) {
	names := Names()
	listed := make(map[string]bool, len(names))
	for _, n := range names {
		listed[n] = true
	}
	for _, name := range []string{
		"krum-sketch", "multikrum-sketch", "bulyan-sketch",
		"krum-sampled", "multikrum-sampled", "bulyan-sampled",
	} {
		if !listed[name] {
			t.Errorf("%s missing from Names()", name)
		}
		fl, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if _, ok := fl.(IntoFilter); !ok {
			t.Errorf("%s does not implement IntoFilter", name)
		}
		if _, ok := fl.(RoundKeyed); !ok {
			t.Errorf("%s does not implement RoundKeyed", name)
		}
		sc, ok := fl.(SketchConfigurable)
		if !ok {
			t.Fatalf("%s does not implement SketchConfigurable", name)
		}
		sc.ConfigureSketch(32, 99)
	}
	// The pre-existing registry prefix must be untouched: sweep goldens and
	// derived seeds depend on it.
	wantPrefix := []string{"mean", "cge", "cge-avg", "cwtm", "cwmedian", "krum", "multikrum", "bulyan", "geomedian", "gmom", "centeredclip"}
	for i, w := range wantPrefix {
		if names[i] != w {
			t.Fatalf("Names()[%d] = %s, want %s (pre-existing prefix must stay stable)", i, names[i], w)
		}
	}
}

// TestSRHTProjectionProperties pins the transform construction. The SRHT
// is linear with a ±1-signed Hadamard column per input coordinate, so the
// image of every basis vector must have all k entries exactly ±1/√k (the
// effective projection is still a Rademacher-style ±1/√k matrix); the plan
// is a pure function of (seed, round) — re-deriving reproduces images
// exactly, different rounds differ — and linearity ties the whole transform
// to those basis images.
func TestSRHTProjectionProperties(t *testing.T) {
	const k, d = 8, 100
	pq := nextPow2(d)
	if pq != 128 {
		t.Fatalf("nextPow2(%d) = %d, want 128", d, pq)
	}
	projectAt := func(round int, g []float64) []float64 {
		s := &Scratch{}
		words, idx, _ := s.srhtPlan(k, d, projectionKey(5, round, k, d))
		fillSRHTPlan(words, idx, 5, round, pq, s)
		dst := make([]float64, k)
		pad := make([]float64, pq)
		srhtProject(dst, g, pad, words, idx, 1/math.Sqrt(float64(k)))
		return dst
	}
	inv := 1 / math.Sqrt(float64(k))
	differ := false
	for c := 0; c < d; c++ {
		basis := make([]float64, d)
		basis[c] = 1
		a := projectAt(3, basis)
		b := projectAt(3, basis)
		other := projectAt(4, basis)
		for j := 0; j < k; j++ {
			if math.Abs(a[j]) != inv {
				t.Fatalf("basis %d image entry %d = %v, want ±%v", c, j, a[j], inv)
			}
			if a[j] != b[j] {
				t.Fatalf("re-derived plan changed basis %d image entry %d", c, j)
			}
			if a[j] != other[j] {
				differ = true
			}
		}
	}
	if !differ {
		t.Error("projections at rounds 3 and 4 are identical; round keying looks inert")
	}

	// Linearity: the image of a dense vector is the signed sum of the basis
	// images it combines — within floating-point tolerance, since the
	// Hadamard butterflies associate differently per input.
	g := make([]float64, d)
	want := make([]float64, k)
	for c := range g {
		g[c] = math.Sin(float64(c + 1))
		img := projectAt(3, func() []float64 {
			e := make([]float64, d)
			e[c] = 1
			return e
		}())
		for j := range want {
			want[j] += g[c] * img[j]
		}
	}
	got := projectAt(3, g)
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-9*math.Max(1, math.Abs(want[j])) {
			t.Fatalf("linearity violated at coord %d: %v vs %v", j, got[j], want[j])
		}
	}
}

// TestApproxNonFinite checks the ErrNonFinite contract holds unchanged on
// the approximate paths: a NaN or Inf gradient is rejected up front.
func TestApproxNonFinite(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const n, d, f = 24, 128, 2
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		grads := fuzzGradients(r, n, d, 0)
		grads[3][7] = bad
		for _, fl := range approxFilters() {
			dst := make([]float64, d)
			if err := fl.AggregateInto(dst, grads, f, nil); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s with %v input: err = %v, want ErrNonFinite", fl.Name(), bad, err)
			}
		}
	}
}
