package costfunc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

func mustLS(t *testing.T, rows [][]float64, b []float64) *LeastSquares {
	t.Helper()
	a, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestLeastSquaresEvalGrad(t *testing.T) {
	// Q(x) = (3 - x1)^2 + (4 - x2)^2
	q := mustLS(t, [][]float64{{1, 0}, {0, 1}}, []float64{3, 4})
	v, err := q.Eval([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-25) > 1e-12 {
		t.Fatalf("Eval = %v", v)
	}
	g, err := Grad(q, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(g, []float64{-6, -8}, 1e-12) {
		t.Fatalf("Grad = %v", g)
	}
}

func TestLeastSquaresValidation(t *testing.T) {
	if _, err := NewLeastSquares(nil, nil); err == nil {
		t.Error("nil design should error")
	}
	a, err := matrix.FromRows([][]float64{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLeastSquares(a, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("row mismatch: %v", err)
	}
	q := mustLS(t, [][]float64{{1, 0}}, []float64{1})
	if _, err := q.Eval([]float64{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("eval dim: %v", err)
	}
	if _, err := Grad(q, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("grad dim: %v", err)
	}
}

func TestSingleRowLeastSquares(t *testing.T) {
	q, err := NewObservation([]float64{2, -1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Q(x) = (5 - 2x1 + x2)^2 at (1, 1) = 16
	v, err := q.Eval([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-16) > 1e-12 {
		t.Fatalf("Eval = %v", v)
	}
	if _, err := NewObservation(nil, 0); err == nil {
		t.Error("empty row should error")
	}
}

func TestLeastSquaresHessian(t *testing.T) {
	q := mustLS(t, [][]float64{{1, 0}, {0, 2}}, []float64{0, 0})
	h := q.Hessian()
	if h.Rows() != 2 || !approxEqual(h.Row(0), []float64{2, 0}, 1e-12) || !approxEqual(h.Row(1), []float64{0, 8}, 1e-12) {
		t.Fatalf("Hessian = %v", h)
	}
}

func TestQuadraticForm(t *testing.T) {
	p, err := matrix.New(2, 2, []float64{2, 0, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuadraticForm(p, []float64{-2, -4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// f(x) = x1^2 + 2x2^2 - 2x1 - 4x2 + 3, grad = (2x1-2, 4x2-4), min at (1, 1)
	g, err := Grad(q, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.Norm(g) > 1e-10 {
		t.Fatalf("grad at min = %v", g)
	}
	v, err := q.Eval([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-3) > 1e-12 {
		t.Fatalf("Eval(0) = %v", v)
	}
}

func TestQuadraticFormValidation(t *testing.T) {
	if _, err := NewQuadraticForm(nil, nil, 0); err == nil {
		t.Error("nil P should error")
	}
	p, err := matrix.New(2, 2, []float64{1, 2, 3, 4}) // asymmetric
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQuadraticForm(p, []float64{0, 0}, 0); err == nil {
		t.Error("asymmetric P should error")
	}
	sym, err := matrix.New(2, 2, []float64{1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQuadraticForm(sym, []float64{0}, 0); !errors.Is(err, ErrDimension) {
		t.Errorf("dim mismatch: %v", err)
	}
}

func TestHingeEvalGrad(t *testing.T) {
	// One point x = (1, 0), y = +1. At w = 0, margin violated: loss 1.
	h, err := NewHinge([][]float64{{1, 0}}, []float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := h.Eval([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("hinge eval = %v", v)
	}
	g, err := Grad(h, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(g, []float64{-1, 0}, 1e-12) {
		t.Fatalf("hinge grad = %v", g)
	}
	// Far side of the margin: zero loss and zero gradient.
	v, err = h.Eval([]float64{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("hinge satisfied eval = %v", v)
	}
	g, err = Grad(h, []float64{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.Norm(g) != 0 {
		t.Fatalf("hinge satisfied grad = %v", g)
	}
}

func TestHingeValidation(t *testing.T) {
	if _, err := NewHinge(nil, nil, 0); err == nil {
		t.Error("empty hinge should error")
	}
	if _, err := NewHinge([][]float64{{1}}, []float64{0}, 0); err == nil {
		t.Error("bad hinge label should error")
	}
	if _, err := NewHinge([][]float64{{1}}, []float64{1}, -0.5); err == nil {
		t.Error("negative reg should error")
	}
}

func TestSum(t *testing.T) {
	q1 := mustLS(t, [][]float64{{1, 0}}, []float64{2})
	q2 := mustLS(t, [][]float64{{0, 1}}, []float64{4})
	s, err := NewSum(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.terms) != 2 || s.Dim() != 2 {
		t.Fatalf("terms/Dim = %d/%d", len(s.terms), s.Dim())
	}
	v, err := s.Eval([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-20) > 1e-12 {
		t.Fatalf("sum eval = %v", v)
	}
	g, err := Grad(s, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(g, []float64{-4, -8}, 1e-12) {
		t.Fatalf("sum grad = %v", g)
	}
}

func TestSumValidation(t *testing.T) {
	if _, err := NewSum(); err == nil {
		t.Error("empty sum should error")
	}
	q1 := mustLS(t, [][]float64{{1, 0}}, []float64{2})
	q2 := mustLS(t, [][]float64{{1}}, []float64{2})
	if _, err := NewSum(q1, q2); !errors.Is(err, ErrDimension) {
		t.Errorf("sum dim mismatch: %v", err)
	}
	if _, err := NewSum(q1, nil); err == nil {
		t.Error("nil term should error")
	}
}

func TestScale(t *testing.T) {
	q := mustLS(t, [][]float64{{1, 0}}, []float64{2})
	s, err := NewScale(0.5, q)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Eval([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-12 {
		t.Fatalf("scaled eval = %v", v)
	}
	g, err := Grad(s, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(g, []float64{-2, 0}, 1e-12) {
		t.Fatalf("scaled grad = %v", g)
	}
	if _, err := NewScale(1, nil); err == nil {
		t.Error("nil cost should error")
	}
}

func TestSmoothnessStrongConvexity(t *testing.T) {
	// Design rows (1,0) and (0,2): Hessian = 2 diag(1, 4), so µ=8, γ=2.
	q := mustLS(t, [][]float64{{1, 0}, {0, 2}}, []float64{0, 0})
	mu, err := Smoothness(q)
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := StrongConvexity(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-8) > 1e-9 || math.Abs(gamma-2) > 1e-9 {
		t.Fatalf("mu, gamma = %v, %v", mu, gamma)
	}
	if gamma > mu {
		t.Error("gamma must not exceed mu (Appendix C)")
	}
}

func TestNumericGradValidation(t *testing.T) {
	q := mustLS(t, [][]float64{{1, 0}}, []float64{1})
	if _, err := NumericGrad(q, []float64{1}, 1e-6); !errors.Is(err, ErrDimension) {
		t.Errorf("numeric grad dim: %v", err)
	}
	if _, err := NumericGrad(q, []float64{1, 2}, 0); err == nil {
		t.Error("zero step should error")
	}
}

// --- property tests ---

func TestPropLeastSquaresGradMatchesNumeric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 3+r.Intn(4), 1+r.Intn(3)
		rs := make([][]float64, rows)
		b := make([]float64, rows)
		for i := range rs {
			rs[i] = make([]float64, cols)
			for j := range rs[i] {
				rs[i][j] = r.NormFloat64()
			}
			b[i] = r.NormFloat64()
		}
		a, err := matrix.FromRows(rs)
		if err != nil {
			return false
		}
		q, err := NewLeastSquares(a, b)
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		g, err := Grad(q, x)
		if err != nil {
			return false
		}
		ng, err := NumericGrad(q, x, 1e-6)
		if err != nil {
			return false
		}
		return approxEqual(g, ng, 1e-4)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropQuadraticConvexityInequality(t *testing.T) {
	// For convex Q: Q(y) >= Q(x) + <grad Q(x), y - x>.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		rows := make([][]float64, d+2)
		b := make([]float64, d+2)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = r.NormFloat64()
			}
			b[i] = r.NormFloat64()
		}
		a, err := matrix.FromRows(rows)
		if err != nil {
			return false
		}
		q, err := NewLeastSquares(a, b)
		if err != nil {
			return false
		}
		x := make([]float64, d)
		y := make([]float64, d)
		for i := range x {
			x[i] = r.NormFloat64() * 3
			y[i] = r.NormFloat64() * 3
		}
		qx, err := q.Eval(x)
		if err != nil {
			return false
		}
		qy, err := q.Eval(y)
		if err != nil {
			return false
		}
		g, err := Grad(q, x)
		if err != nil {
			return false
		}
		diff, err := vecmath.Sub(y, x)
		if err != nil {
			return false
		}
		inner, err := vecmath.Dot(g, diff)
		if err != nil {
			return false
		}
		return qy >= qx+inner-1e-8
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The least-squares solution of the design is a stationary point of the
// cost's gradient.
func TestPropMinimumIsStationary(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(3)
		rows := make([][]float64, d+3)
		b := make([]float64, d+3)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = r.NormFloat64()
			}
			b[i] = r.NormFloat64()
		}
		a, err := matrix.FromRows(rows)
		if err != nil {
			return false
		}
		q, err := NewLeastSquares(a, b)
		if err != nil {
			return false
		}
		min, err := matrix.LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient draw: vacuous
		}
		g, err := Grad(q, min)
		if err != nil {
			return false
		}
		return vecmath.Norm(g) < 1e-7
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
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
