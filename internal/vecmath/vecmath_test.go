package vecmath

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCloneIndependence(t *testing.T) {
	v := []float64{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliases input: v = %v", v)
	}
	if Clone(nil) != nil {
		t.Fatalf("Clone(nil) should be nil")
	}
}

func TestZerosOnes(t *testing.T) {
	z := Zeros(4)
	for i, x := range z {
		if x != 0 {
			t.Fatalf("Zeros[%d] = %v", i, x)
		}
	}
	o := Ones(3)
	for i, x := range o {
		if x != 1 {
			t.Fatalf("Ones[%d] = %v", i, x)
		}
	}
}

func TestSub(t *testing.T) {
	diff, err := Sub([]float64{1, 2}, []float64{3, -4})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(diff, []float64{-2, 6}, 0) {
		t.Fatalf("Sub = %v", diff)
	}
}

func TestDimensionMismatchErrors(t *testing.T) {
	short := []float64{1}
	long := []float64{1, 2}
	if _, err := Sub(short, long); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Sub mismatch: %v", err)
	}
	if _, err := Dot(short, long); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Dot mismatch: %v", err)
	}
	if _, err := Dist(short, long); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Dist mismatch: %v", err)
	}
	if err := AddInPlace(short, long); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("AddInPlace mismatch: %v", err)
	}
	if err := AxpyInPlace(short, 2, long); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("AxpyInPlace mismatch: %v", err)
	}
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 1}
	if err := AxpyInPlace(dst, 2, []float64{3, -1}); err != nil {
		t.Fatal(err)
	}
	if !approxEqual(dst, []float64{7, -1}, 0) {
		t.Fatalf("axpy = %v", dst)
	}
}

func TestScaleNeg(t *testing.T) {
	v := []float64{1, -2, 0.5}
	if got := Scale(2, v); !approxEqual(got, []float64{2, -4, 1}, 0) {
		t.Fatalf("Scale = %v", got)
	}
	if got := Neg(v); !approxEqual(got, []float64{-1, 2, -0.5}, 0) {
		t.Fatalf("Neg = %v", got)
	}
	ScaleInPlace(-1, v)
	if !approxEqual(v, []float64{-1, 2, -0.5}, 0) {
		t.Fatalf("ScaleInPlace = %v", v)
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, 4}
	if got := Norm(v); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v", got)
	}
	if got := NormSq(v); got != 25 {
		t.Errorf("NormSq = %v", got)
	}
}

func TestNormExtremes(t *testing.T) {
	if got := Norm(nil); got != 0 {
		t.Errorf("Norm(nil) = %v", got)
	}
	// Values near math.MaxFloat64 must not overflow via squaring.
	huge := []float64{math.MaxFloat64 / 2, math.MaxFloat64 / 2}
	if got := Norm(huge); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("Norm(huge) = %v, want finite", got)
	}
	if got := Norm([]float64{math.Inf(1), 1}); !math.IsInf(got, 1) {
		t.Errorf("Norm with +Inf = %v", got)
	}
	if got := Norm([]float64{math.NaN(), 1}); !math.IsNaN(got) {
		t.Errorf("Norm with NaN = %v", got)
	}
}

func TestDot(t *testing.T) {
	got, err := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestDist(t *testing.T) {
	got, err := Dist([]float64{1, 1}, []float64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("Dist = %v", got)
	}
}

func TestMeanSum(t *testing.T) {
	vs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	m, err := Mean(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(m, []float64{3, 4}, 1e-12) {
		t.Fatalf("Mean = %v", m)
	}
	s, err := Sum(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(s, []float64{9, 12}, 1e-12) {
		t.Fatalf("Sum = %v", s)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) should error")
	}
	if _, err := Sum(nil); err == nil {
		t.Error("Sum(nil) should error")
	}
	if _, err := Mean([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Mean ragged: %v", err)
	}
	if _, err := Sum([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Sum ragged: %v", err)
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite([]float64{1, -2, 0}) {
		t.Error("finite vector reported non-finite")
	}
	if IsFinite([]float64{1, math.NaN()}) {
		t.Error("NaN not caught")
	}
	if IsFinite([]float64{math.Inf(-1)}) {
		t.Error("-Inf not caught")
	}
}

func TestBoxConstruction(t *testing.T) {
	if _, err := NewBox([]float64{0}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("NewBox dim mismatch: %v", err)
	}
	if _, err := NewBox(nil, nil); err == nil {
		t.Error("NewBox empty should error")
	}
	if _, err := NewBox([]float64{2}, []float64{1}); err == nil {
		t.Error("NewBox inverted bounds should error")
	}
	if _, err := NewCube(0, 1); err == nil {
		t.Error("NewCube d=0 should error")
	}
	if _, err := NewCube(2, -1); err == nil {
		t.Error("NewCube r<0 should error")
	}
	b, err := NewCube(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dim() != 2 {
		t.Errorf("Dim = %d", b.Dim())
	}
	if !inBox(b, []float64{-3, -3}) || !inBox(b, []float64{3, 3}) || inBox(b, []float64{3.5, 0}) {
		t.Error("cube bounds are not [-3, 3]^2")
	}
}

func TestBoxBoundsAreCopies(t *testing.T) {
	lo := []float64{-1, -1}
	hi := []float64{1, 1}
	b, err := NewBox(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	lo[0] = -100 // mutating the caller's slices must not affect the box
	hi[1] = 100
	if inBox(b, []float64{-50, 0}) || inBox(b, []float64{0, 50}) {
		t.Error("box aliased the caller's bound slices")
	}
}

func TestBoxProjectAndContains(t *testing.T) {
	b, err := NewBox([]float64{-1, 0}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Project([]float64{5, -3})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(p, []float64{1, 0}, 0) {
		t.Fatalf("Project = %v", p)
	}
	if !inBox(b, p) {
		t.Error("projection should be inside the box")
	}
	inside := []float64{0.5, 1}
	p2, err := b.Project(inside)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(p2, inside, 0) {
		t.Errorf("interior point moved: %v", p2)
	}
	if _, err := b.Project([]float64{0}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Project dim mismatch: %v", err)
	}
}

// --- property-based tests ---

// genVec draws a bounded random vector so products stay finite.
func genVec(r *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = r.NormFloat64() * 10
	}
	return v
}

func TestPropTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(8)
		a, b := genVec(r, d), genVec(r, d)
		s := Clone(a)
		if err := AddInPlace(s, b); err != nil {
			return false
		}
		return Norm(s) <= Norm(a)+Norm(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(8)
		a, b := genVec(r, d), genVec(r, d)
		dot, err := Dot(a, b)
		if err != nil {
			return false
		}
		return math.Abs(dot) <= Norm(a)*Norm(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropProjectionIdempotentAndNonExpansive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		box, err := NewCube(d, 1+r.Float64()*10)
		if err != nil {
			return false
		}
		x, y := genVec(r, d), genVec(r, d)
		px, err := box.Project(x)
		if err != nil {
			return false
		}
		py, err := box.Project(y)
		if err != nil {
			return false
		}
		ppx, err := box.Project(px)
		if err != nil {
			return false
		}
		if !approxEqual(px, ppx, 1e-12) { // idempotence
			return false
		}
		dp, err := Dist(px, py)
		if err != nil {
			return false
		}
		dxy, err := Dist(x, y)
		if err != nil {
			return false
		}
		return dp <= dxy+1e-9 && inBox(box, px) // non-expansion + feasibility
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropNormScalesHomogeneously(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(8)
		v := genVec(r, d)
		alpha := r.NormFloat64() * 5
		lhs := Norm(Scale(alpha, v))
		rhs := math.Abs(alpha) * Norm(v)
		return math.Abs(lhs-rhs) <= 1e-9*(1+rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMeanBetweenMinMax(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		n := 1 + r.Intn(6)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = genVec(r, d)
		}
		m, err := Mean(vs)
		if err != nil {
			return false
		}
		for j := 0; j < d; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := 0; i < n; i++ {
				lo = math.Min(lo, vs[i][j])
				hi = math.Max(hi, vs[i][j])
			}
			if m[j] < lo-1e-9 || m[j] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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

// inBox reports whether x has the box's dimension and lies inside it,
// bounds included.
func inBox(b *Box, x []float64) bool {
	if len(x) != b.Dim() {
		return false
	}
	for i, v := range x {
		if v < b.lo[i] || v > b.hi[i] {
			return false
		}
	}
	return true
}
