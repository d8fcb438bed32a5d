package byzantine

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"byzopt/internal/vecmath"
)

func TestGradientReverse(t *testing.T) {
	g := []float64{1, -2, 3}
	out, err := GradientReverse{}.Apply(0, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(out, []float64{-1, 2, -3}, 0) {
		t.Fatalf("reverse = %v", out)
	}
	if g[0] != 1 {
		t.Error("input mutated")
	}
}

func TestScaledReverse(t *testing.T) {
	out, err := ScaledReverse{Factor: 2}.Apply(0, 0, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(out, []float64{-2, 2}, 0) {
		t.Fatalf("scaled reverse = %v", out)
	}
	if _, err := (ScaledReverse{Factor: 0}).Apply(0, 0, []float64{1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("factor 0: %v", err)
	}
}

func TestRandomGaussianDeterministicPerRoundAgent(t *testing.T) {
	g, err := NewRandomGaussian(200, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.Apply(3, 1, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Apply(3, 1, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(a, b, 0) {
		t.Error("same (round, agent) should replay identically")
	}
	c, err := g.Apply(4, 1, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if approxEqual(a, c, 1e-9) {
		t.Error("different rounds should differ")
	}
	d, err := g.Apply(3, 2, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if approxEqual(a, d, 1e-9) {
		t.Error("different agents should differ")
	}
}

func TestRandomGaussianScale(t *testing.T) {
	g, err := NewRandomGaussian(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Empirical std over many draws should be near 200.
	var sum, sumSq float64
	count := 0
	for round := 0; round < 200; round++ {
		v, err := g.Apply(round, 0, make([]float64, 10))
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range v {
			sum += x
			sumSq += x * x
			count++
		}
	}
	mean := sum / float64(count)
	std := math.Sqrt(sumSq/float64(count) - mean*mean)
	if math.Abs(std-200) > 20 {
		t.Errorf("empirical std = %v, want ~200", std)
	}
	if _, err := NewRandomGaussian(0, 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("sigma 0: %v", err)
	}
}

func TestConstant(t *testing.T) {
	c, err := NewConstant([]float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Apply(9, 9, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(out, []float64{5, 5}, 0) {
		t.Fatalf("constant = %v", out)
	}
	if _, err := c.Apply(0, 0, []float64{0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("dim mismatch: %v", err)
	}
	if _, err := NewConstant(nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty constant: %v", err)
	}
	out[0] = 77 // mutating the output must not corrupt future rounds
	again, err := c.Apply(1, 0, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != 5 {
		t.Error("constant output aliased internal state")
	}
}

func TestZero(t *testing.T) {
	out, err := Zero{}.Apply(0, 0, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.Norm(out) != 0 {
		t.Fatalf("zero = %v", out)
	}
}

func TestIPM(t *testing.T) {
	honest := [][]float64{{2, 0}, {4, 0}}
	out, err := InnerProductManipulation{Epsilon: 0.5}.ApplyOmniscient(0, 0, []float64{1, 1}, honest)
	if err != nil {
		t.Fatal(err)
	}
	// mean = (3, 0); -0.5 * mean = (-1.5, 0)
	if !approxEqual(out, []float64{-1.5, 0}, 1e-12) {
		t.Fatalf("ipm = %v", out)
	}
	// Fallback without honest view.
	fb, err := InnerProductManipulation{Epsilon: 0.5}.ApplyOmniscient(0, 0, []float64{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(fb, []float64{-1, -1}, 1e-12) {
		t.Fatalf("ipm fallback = %v", fb)
	}
	if _, err := (InnerProductManipulation{Epsilon: 0}).Apply(0, 0, []float64{1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("epsilon 0: %v", err)
	}
}

func TestALIE(t *testing.T) {
	honest := [][]float64{{1, 0}, {3, 0}}
	// mean = (2, 0), std = (1, 0); z = 2 -> (4, 0)
	out, err := ALittleIsEnough{Z: 2}.ApplyOmniscient(0, 0, []float64{0, 0}, honest)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(out, []float64{4, 0}, 1e-12) {
		t.Fatalf("alie = %v", out)
	}
	fb, err := ALittleIsEnough{Z: 1}.ApplyOmniscient(0, 0, []float64{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(fb, []float64{2, 2}, 1e-12) {
		t.Fatalf("alie fallback = %v", fb)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		b, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		out, err := b.Apply(0, 0, []float64{1, 2})
		if err != nil {
			t.Fatalf("%s apply: %v", name, err)
		}
		if len(out) != 2 {
			t.Errorf("%s output dim = %d", name, len(out))
		}
	}
	if _, err := New("nope", 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown behavior: %v", err)
	}
}

// TestEquivocateRelayTexts holds the table-driven Relay to the fmt.Sprint
// spelling it replaced, negative seeds included, and to allocating nothing.
func TestEquivocateRelayTexts(t *testing.T) {
	sprinted := func(seed int64, path []int, recipient int, honest string) string {
		h := seed
		for _, p := range path {
			h = h*31 + int64(p) + 7
		}
		h = h*31 + int64(recipient)
		switch h & 3 {
		case 0:
			return honest
		case 1:
			return ""
		case 2:
			return "garbage-" + fmt.Sprint(h&0xff)
		default:
			return "split-" + fmt.Sprint(recipient%3)
		}
	}
	seen := map[string]bool{}
	for _, seed := range []int64{0, 7, -12345, math.MinInt64 + 3} {
		e := NewEquivocate(seed)
		for a := 0; a < 64; a++ {
			for recipient := 0; recipient < 10; recipient++ {
				path := []int{3, a, 5}
				got, want := e.Relay(path, recipient, "honest"), sprinted(seed, path, recipient, "honest")
				if got != want {
					t.Fatalf("seed %d path %v recipient %d: %q, want %q", seed, path, recipient, got, want)
				}
				seen[got] = true
			}
		}
	}
	// The garbage case fixes h's low two bits, so 64 of the 256 bytes occur.
	if want := 64 + 3 + 2; len(seen) != want {
		t.Errorf("%d distinct relays seen, want all %d", len(seen), want)
	}
	e := NewEquivocate(-9)
	path := []int{0, 1}
	if allocs := testing.AllocsPerRun(100, func() {
		for recipient := 0; recipient < 16; recipient++ {
			_ = e.Relay(path, recipient, "honest")
		}
	}); allocs != 0 {
		t.Errorf("Relay allocates %.2f times per 16 calls", allocs)
	}
}

// approxEqual reports whether a and b have the same length and agree entry
// by entry within absolute tolerance tol.
func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
