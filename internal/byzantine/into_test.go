package byzantine

// Tests of the in-place face (every behavior's Apply/ApplyOmniscient and
// ApplyInto agree bitwise and ApplyInto allocates nothing) and of the
// counter-mode Gaussian behind the "random" fault.

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"byzopt/internal/chaos"
	"byzopt/internal/simtime"
)

// builtins returns one instance of every behavior in the package: the
// registry, plus the ones only constructible directly.
func builtins(t *testing.T) []IntoBehavior {
	t.Helper()
	var out []IntoBehavior
	for _, name := range Names() {
		b, err := New(name, -77)
		if err != nil {
			t.Fatal(err)
		}
		into, ok := b.(IntoBehavior)
		if !ok {
			t.Fatalf("registered behavior %s has no ApplyInto", name)
		}
		out = append(out, into)
	}
	constant, err := NewConstant([]float64{5, -4, 3, -2, 1})
	if err != nil {
		t.Fatal(err)
	}
	return append(out,
		ScaledReverse{Factor: 2.5},
		constant,
	)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func normals(r *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// TestApplyIntoMatchesApply holds the two faces of every behavior together:
// with and without sight of the honest gradients, into a separate buffer and
// in place over the true gradient.
func TestApplyIntoMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const d = 5
	honest := [][]float64{normals(r, d), normals(r, d), normals(r, d), normals(r, d)}
	honestWas := [][]float64{}
	for _, h := range honest {
		honestWas = append(honestWas, append([]float64(nil), h...))
	}
	for _, b := range builtins(t) {
		for round := 0; round < 4; round++ {
			for _, sees := range [][][]float64{nil, honest} {
				agent := round + 3
				g := normals(r, d)
				gWas := append([]float64(nil), g...)
				want, err := b.Apply(round, agent, g)
				if omni, ok := b.(Omniscient); ok && sees != nil {
					want, err = omni.ApplyOmniscient(round, agent, g, sees)
				}
				if err != nil {
					t.Fatalf("%s: %v", b.Name(), err)
				}
				dst := make([]float64, d)
				if err := b.ApplyInto(dst, round, agent, g, sees); err != nil {
					t.Fatalf("%s: ApplyInto: %v", b.Name(), err)
				}
				if !sameBits(dst, want) {
					t.Errorf("%s round %d honest=%v: ApplyInto %v, Apply %v", b.Name(), round, sees != nil, dst, want)
				}
				if !sameBits(g, gWas) {
					t.Errorf("%s: true gradient mutated through a separate dst", b.Name())
				}
				if err := b.ApplyInto(g, round, agent, g, sees); err != nil {
					t.Fatalf("%s: ApplyInto in place: %v", b.Name(), err)
				}
				if !sameBits(g, want) {
					t.Errorf("%s round %d honest=%v: in place %v, Apply %v", b.Name(), round, sees != nil, g, want)
				}
			}
		}
	}
	for i := range honest {
		if !sameBits(honest[i], honestWas[i]) {
			t.Errorf("honest gradient %d mutated", i)
		}
	}
}

// TestApplyIntoErrors: a misconfigured behavior fails both faces with the
// same ErrBadConfig, and the allocating face returns no slice with it.
func TestApplyIntoErrors(t *testing.T) {
	constant, err := NewConstant([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	g := []float64{1, 2}
	honest := [][]float64{{1, 1}, {2, 2}}
	for _, b := range []IntoBehavior{
		ScaledReverse{},
		InnerProductManipulation{},
		constant,
	} {
		for _, sees := range [][][]float64{nil, honest} {
			out, applyErr := b.Apply(0, 0, g)
			if omni, ok := b.(Omniscient); ok && sees != nil {
				out, applyErr = omni.ApplyOmniscient(0, 0, g, sees)
			}
			intoErr := b.ApplyInto(make([]float64, len(g)), 0, 0, g, sees)
			if !errors.Is(applyErr, ErrBadConfig) || !errors.Is(intoErr, ErrBadConfig) {
				t.Errorf("%s: Apply %v, ApplyInto %v, want ErrBadConfig from both", b.Name(), applyErr, intoErr)
			} else if applyErr.Error() != intoErr.Error() {
				t.Errorf("%s: Apply says %q, ApplyInto %q", b.Name(), applyErr, intoErr)
			}
			if out != nil {
				t.Errorf("%s: Apply returned %v beside its error", b.Name(), out)
			}
		}
	}
	if err := (GradientReverse{}).ApplyInto(make([]float64, 3), 0, 0, g, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("dst of the wrong length: %v", err)
	}
}

// TestApplyIntoAllocs is the behaviors' half of the engines' zero-allocation
// round: no built-in ApplyInto touches the allocator.
func TestApplyIntoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const d = 5
	honest := [][]float64{normals(r, d), normals(r, d), normals(r, d)}
	g := normals(r, d)
	for _, b := range builtins(t) {
		for _, sees := range [][][]float64{nil, honest} {
			round := 0
			if allocs := testing.AllocsPerRun(100, func() {
				if err := b.ApplyInto(g, round, 1, g, sees); err != nil {
					t.Fatal(err)
				}
				round++
			}); allocs != 0 {
				t.Errorf("%s honest=%v: ApplyInto allocates %.2f times per call", b.Name(), sees != nil, allocs)
			}
		}
	}
}

// TestBehaviorsSharedAcrossGoroutines: a sweep hands one behavior value to all
// f Byzantine agents of a cell, and the cluster substrate asks each agent from
// its own goroutine, so ApplyInto keeps nothing between calls. Meaningful
// under -race.
func TestBehaviorsSharedAcrossGoroutines(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const d, agents = 5, 8
	honest := [][]float64{normals(r, d), normals(r, d), normals(r, d)}
	g := normals(r, d)
	for _, b := range builtins(t) {
		var want, got [agents][]float64
		var wg sync.WaitGroup
		for agent := range want {
			want[agent], got[agent] = make([]float64, d), make([]float64, d)
			if err := b.ApplyInto(want[agent], 3, agent, g, honest); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := b.ApplyInto(got[agent], 3, agent, g, honest); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for agent := range want {
			if !sameBits(got[agent], want[agent]) {
				t.Errorf("%s agent %d: concurrent report %v, sequential %v", b.Name(), agent, got[agent], want[agent])
			}
		}
	}
}

// --- the counter-mode Gaussian ---

// draws returns count draws of RandomGaussian{sigma, seed} as agent reports
// of dimension d over consecutive rounds.
func draws(t *testing.T, sigma float64, seed int64, agent, d, count int) []float64 {
	t.Helper()
	g, err := NewRandomGaussian(sigma, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, count)
	for round := 0; round*d < count; round++ {
		if err := g.ApplyInto(out[round*d:min(count, (round+1)*d)], round, agent, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestGaussianDistribution compares 200,000 draws with N(0, σ²): the first
// four moments and the tail mass within four standard errors, and the
// Kolmogorov–Smirnov distance under its 0.1 % critical value.
func TestGaussianDistribution(t *testing.T) {
	const sigma, n = 200.0, 200000
	// Odd and even dimensions, d = 2 (the paper's) and wide.
	for _, d := range []int{2, 7, 1000} {
		z := draws(t, sigma, 12345, 3, d, n)
		var m1, m2, m4 float64
		tail := 0
		for i := range z {
			z[i] /= sigma
			m1 += z[i]
			m2 += z[i] * z[i]
			m4 += z[i] * z[i] * z[i] * z[i]
			if math.Abs(z[i]) > 3 {
				tail++
			}
		}
		m1, m2, m4 = m1/n, m2/n, m4/n
		// Standard errors: var z = 1, var z² = 2, var z⁴ = 105 - 9 = 96.
		if lim := 4 / math.Sqrt(n); math.Abs(m1) > lim {
			t.Errorf("d=%d: mean %.5f σ, want within %.5f", d, m1, lim)
		}
		if lim := 4 * math.Sqrt(2.0/n); math.Abs(m2-1) > lim {
			t.Errorf("d=%d: variance %.5f σ², want 1 within %.5f", d, m2, lim)
		}
		if lim := 4 * math.Sqrt(96.0/n); math.Abs(m4-3) > lim {
			t.Errorf("d=%d: fourth moment %.4f σ⁴, want 3 within %.4f", d, m4, lim)
		}
		p := math.Erfc(3 / math.Sqrt2) // P(|z| > 3) = 0.0027
		if lim := 4 * math.Sqrt(n*p*(1-p)); math.Abs(float64(tail)-n*p) > lim {
			t.Errorf("d=%d: %d draws beyond 3σ, want %.0f within %.0f", d, tail, n*p, lim)
		}
		sort.Float64s(z)
		var ks float64
		for i, v := range z {
			cdf := 0.5 * math.Erfc(-v/math.Sqrt2)
			ks = max(ks, cdf-float64(i)/n, float64(i+1)/n-cdf)
		}
		if lim := 1.95 / math.Sqrt(n); ks > lim {
			t.Errorf("d=%d: Kolmogorov–Smirnov distance %.5f, want below %.5f", d, ks, lim)
		}
	}
}

func correlation(a, b []float64) float64 {
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa, sb = sa+a[i], sb+b[i]
		saa, sbb, sab = saa+a[i]*a[i], sbb+b[i]*b[i], sab+a[i]*b[i]
	}
	n := float64(len(a))
	return (sab/n - sa/n*sb/n) / math.Sqrt((saa/n-sa/n*sa/n)*(sbb/n-sb/n*sb/n))
}

func rotated(v []float64, k int) []float64 {
	return append(append(make([]float64, 0, len(v)), v[k:]...), v[:k]...)
}

// TestGaussianStreamsUncorrelated: reports that differ in one key component
// by one — round, agent, seed — and the coordinates of one report at lags 1
// (the two outputs of one Box–Muller pair) and 2 are uncorrelated.
func TestGaussianStreamsUncorrelated(t *testing.T) {
	const d = 100000
	lim := 4 / math.Sqrt(d)
	report := func(seed int64, round, agent int) []float64 {
		g, err := NewRandomGaussian(1, seed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := g.Apply(round, agent, make([]float64, d))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, seed := range []int64{0, 99, -3, math.MaxInt64} {
		base := report(seed, 5, 2)
		for name, other := range map[string][]float64{
			"next round": report(seed, 6, 2),
			"next agent": report(seed, 5, 3),
			"next seed":  report(seed+1, 5, 2), // MaxInt64+1 wraps; still a different seed
			"lag 1":      rotated(base, 1),
			"lag 2":      rotated(base, 2),
		} {
			if c := correlation(base, other); math.Abs(c) > lim {
				t.Errorf("seed %d, %s: correlation %.5f, want within %.5f", seed, name, c, lim)
			}
		}
	}
}

// TestGaussianPrefix: a coordinate depends on (seed, round, agent, coordinate)
// and not on the dimension, odd or even.
func TestGaussianPrefix(t *testing.T) {
	g, err := NewRandomGaussian(200, 9)
	if err != nil {
		t.Fatal(err)
	}
	long, err := g.Apply(7, 1, make([]float64, 11))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= len(long); d++ {
		short, err := g.Apply(7, 1, make([]float64, d))
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(short, long[:d]) {
			t.Errorf("d=%d: %v is not a prefix of %v", d, short, long)
		}
	}
}

// TestGaussianStreamIsReserved fails if gaussianStream is also the stream of
// another draw family keyed on the scenario seed: simtime's straggler
// designation or one of chaos's fault kinds. Those constants are private to
// their packages, so the test works from behavior: if the streams collided,
// the Gaussian's per-agent key would be the very word that family draws, and
// the family's public predicate could be forecast from it for every
// (seed, agent, round) — not for about half of them, as for independent draws.
func TestGaussianStreamIsReserved(t *testing.T) {
	u01 := func(w uint64) float64 { return float64(w>>11) / (1 << 53) }
	const window = 1 << 20
	frame := func(p *chaos.Plan, t, agent int) uint64 {
		b := make([]byte, 8)
		p.CorruptFrame(b, t, agent)
		var w uint64
		for i, v := range b {
			w |= uint64(v) << (8 * i)
		}
		return w
	}
	// Each family: what it says, and what the Gaussian key would forecast.
	families := map[string]func(seed, key int64, t, agent int) (said, forecast any){
		"simtime straggler": func(seed, key int64, t, agent int) (any, any) {
			return simtime.Latency{StragglerRate: 0.5, StragglerFactor: 2}.IsStraggler(seed, agent), u01(uint64(key)) < 0.5
		},
		"chaos crash pick": func(seed, key int64, t, agent int) (any, any) {
			return (&chaos.Plan{Seed: seed, CrashRate: 0.5, CrashWindow: window}).CrashRound(agent) >= 0, u01(uint64(key)) < 0.5
		},
		"chaos crash round": func(seed, key int64, t, agent int) (any, any) {
			return (&chaos.Plan{Seed: seed, CrashRate: 1, CrashWindow: window}).CrashRound(agent), int(u01(uint64(key)) * window)
		},
		"chaos omission": func(seed, key int64, t, agent int) (any, any) {
			return (&chaos.Plan{Seed: seed, OmitRate: 0.5}).Omit(t, agent, 1), simtime.U01(key, t, 1) < 0.5
		},
		"chaos corruption": func(seed, key int64, t, agent int) (any, any) {
			return (&chaos.Plan{Seed: seed, CorruptRate: 0.5}).Corrupt(t, agent, 1), simtime.U01(key, t, 1) < 0.5
		},
		"chaos duplication": func(seed, key int64, t, agent int) (any, any) {
			return (&chaos.Plan{Seed: seed, DupRate: 0.5}).Duplicate(t, agent), simtime.U01(key, t, 0) < 0.5
		},
		"chaos delay": func(seed, key int64, t, agent int) (any, any) {
			return (&chaos.Plan{Seed: seed, DelayRate: 0.5, Delay: 1}).ExtraDelay(t, agent) > 0, simtime.U01(key, t, 0) < 0.5
		},
		"chaos corrupted bit": func(seed, key int64, t, agent int) (any, any) {
			h := simtime.Mix(key, t, 0)
			return frame(&chaos.Plan{Seed: seed}, t, agent), uint64(1) << (8*(h%8) + (h>>32)%8)
		},
	}
	for name, family := range families {
		agree, total := 0, 0
		for seed := int64(-8); seed < 8; seed++ {
			for agent := 0; agent < 8; agent++ {
				key := int64(simtime.Mix(seed, gaussianStream, agent))
				for round := 0; round < 4; round++ {
					said, forecast := family(seed, key, round, agent)
					if said == forecast {
						agree++
					}
					total++
				}
			}
		}
		if agree == total {
			t.Errorf("gaussianStream %d is the %s stream: all %d of its draws follow from the Gaussian key", gaussianStream, name, total)
		}
	}
}
