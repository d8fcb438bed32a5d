package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, r, c int, data []float64) *Matrix {
	t.Helper()
	m, err := New(r, c, data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(2, 2, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("New short data: %v", err)
	}
	if _, err := New(-1, 2, nil); err == nil {
		t.Error("New negative rows should error")
	}
	if _, err := Zero(-1, 2); err == nil {
		t.Error("Zero negative rows should error")
	}
}

func TestNewCopiesData(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	m := mustNew(t, 2, 2, data)
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("New aliased caller data")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows got %v", m)
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows(nil) should error")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("FromRows empty row should error")
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrShape) {
		t.Errorf("FromRows ragged: %v", err)
	}
}

func TestRowColAccessors(t *testing.T) {
	m := mustNew(t, 2, 3, []float64{1, 2, 3, 4, 5, 6})
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row = %v", row)
	}
	row[0] = 99
	if m.At(1, 0) != 4 {
		t.Error("Row aliased internal data")
	}
}

func TestSelectRows(t *testing.T) {
	m := mustNew(t, 3, 2, []float64{1, 2, 3, 4, 5, 6})
	sub, err := m.SelectRows([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := mustNew(t, 2, 2, []float64{5, 6, 1, 2})
	if !matrixEqual(sub, want, 0) {
		t.Fatalf("SelectRows = %v", sub)
	}
	if _, err := m.SelectRows(nil); err == nil {
		t.Error("SelectRows empty should error")
	}
	if _, err := m.SelectRows([]int{3}); err == nil {
		t.Error("SelectRows out of range should error")
	}
}

func TestScale(t *testing.T) {
	a := mustNew(t, 2, 2, []float64{1, 2, 3, 4})
	if got := a.Scale(2); !matrixEqual(got, mustNew(t, 2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestMulVec(t *testing.T) {
	a := mustNew(t, 2, 3, []float64{1, 2, 3, 4, 5, 6})
	got, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec shape: %v", err)
	}
}

// TestMulVecIntoBlockedBitwise pins the four-row register blocking of
// MulVecInto against the per-row dot product, bitwise, across row-count
// remainders (1..9 exercise the blocked body and its tail) and column
// lengths through the dot kernel's own unroll remainders.
func TestMulVecIntoBlockedBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 32} {
		for _, cols := range []int{1, 3, 4, 17, 100} {
			data := make([]float64, rows*cols)
			for i := range data {
				data[i] = r.NormFloat64() * 10
			}
			v := make([]float64, cols)
			for i := range v {
				v[i] = r.NormFloat64()
			}
			m := mustNew(t, rows, cols, data)
			dst := make([]float64, rows)
			if err := m.MulVecInto(dst, v); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				want := dotRow(data[i*cols:(i+1)*cols], v)
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("rows=%d cols=%d: MulVecInto[%d] = %v, dotRow = %v", rows, cols, i, dst[i], want)
				}
			}
		}
	}
}

// TestMulTResidualIntoMatchesMaterializedRoute pins the fused product to
// mᵀ applied to the materialized residual b − m v, accumulated per column in
// ascending row order, bitwise, into a dirty dst, on both sides of the
// four-row block; a mis-sized operand is ErrShape.
func TestMulTResidualIntoMatchesMaterializedRoute(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 32} {
		for _, cols := range []int{1, 3, 4, 17, 100} {
			data, v, b := make([]float64, rows*cols), make([]float64, cols), make([]float64, rows)
			for _, s := range [][]float64{data, v, b} {
				for i := range s {
					s[i] = r.NormFloat64() * 10
				}
			}
			m := mustNew(t, rows, cols, data)
			res, err := Residual(m, v, b)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, cols)
			for j := range dst {
				dst[j] = math.NaN()
			}
			if err := m.MulTResidualInto(dst, v, b); err != nil {
				t.Fatal(err)
			}
			for j := range dst {
				var want float64
				for i := 0; i < rows; i++ {
					want += res[i] * data[i*cols+j]
				}
				if math.Float64bits(dst[j]) != math.Float64bits(want) {
					t.Fatalf("rows=%d cols=%d: [%d] = %v, materialized route %v", rows, cols, j, dst[j], want)
				}
			}
		}
	}
	m := mustNew(t, 2, 3, make([]float64, 6))
	for name, args := range map[string][3][]float64{
		"v":   {make([]float64, 3), make([]float64, 2), make([]float64, 2)},
		"b":   {make([]float64, 3), make([]float64, 3), make([]float64, 3)},
		"dst": {make([]float64, 2), make([]float64, 3), make([]float64, 2)},
	} {
		if err := m.MulTResidualInto(args[0], args[1], args[2]); !errors.Is(err, ErrShape) {
			t.Errorf("mis-sized %s: %v, want ErrShape", name, err)
		}
	}
}

func TestGram(t *testing.T) {
	a := mustNew(t, 3, 2, []float64{1, 0, 0, 1, 1, 1})
	g := a.Gram()
	want := mustNew(t, 2, 2, []float64{2, 1, 1, 2})
	if !matrixEqual(g, want, 1e-12) {
		t.Fatalf("Gram = %v", g)
	}
	if !g.IsSymmetric(0) {
		t.Error("Gram should be symmetric")
	}
}

func TestString(t *testing.T) {
	m := mustNew(t, 2, 2, []float64{1, 2, 3, 4})
	got := m.String()
	want := "[1 2]\n[3 4]"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// --- least squares ---

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system: recovery must be exact.
	a := mustNew(t, 4, 2, []float64{1, 0, 0, 1, 1, 1, 1, -1})
	want := []float64{2, -3}
	b, err := a.MulVec(want)
	if err != nil {
		t.Fatal(err)
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("LeastSquares = %v", x)
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The optimality condition: Aᵀ(b - Ax) = 0.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 6+r.Intn(5), 2+r.Intn(3)
		data := make([]float64, rows*cols)
		for i := range data {
			data[i] = r.NormFloat64()
		}
		a := mustNew(t, rows, cols, data)
		b := make([]float64, rows)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		atr := make([]float64, cols)
		if err := a.MulTResidualInto(atr, x, b); err != nil {
			t.Fatal(err)
		}
		for i, v := range atr {
			if math.Abs(v) > 1e-8 {
				t.Fatalf("trial %d: At r[%d] = %v, not orthogonal", trial, i, v)
			}
		}
	}
}

func TestLeastSquaresMatchesNormalEquations(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 8, 3
		data := make([]float64, rows*cols)
		for i := range data {
			data[i] = r.NormFloat64()
		}
		a := mustNew(t, rows, cols, data)
		b := make([]float64, rows)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x1, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// The normal equations AᵀA x = Aᵀb, solved through the
		// eigendecomposition AᵀA = V diag(λ) Vᵀ; Aᵀb is the residual
		// product at x = 0.
		atb := make([]float64, cols)
		if err := a.MulTResidualInto(atb, make([]float64, cols), b); err != nil {
			t.Fatal(err)
		}
		vals, vecs, err := SymmetricEigen(a.Gram())
		if err != nil {
			t.Fatal(err)
		}
		x2 := make([]float64, cols)
		for k, lambda := range vals {
			var vb float64
			for i := range atb {
				vb += vecs.At(i, k) * atb[i]
			}
			for i := range x2 {
				x2[i] += vecs.At(i, k) * vb / lambda
			}
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-8 {
				t.Fatalf("trial %d: QR %v vs normal equations %v", trial, x1, x2)
			}
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := mustNew(t, 3, 2, []float64{1, 2, 2, 4, 3, 6}) // rank 1
	if _, err := LeastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("rank-deficient lstsq: %v", err)
	}
	good := mustNew(t, 3, 2, []float64{1, 0, 0, 1, 1, 1})
	if _, err := LeastSquares(good, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("lstsq rhs shape: %v", err)
	}
	under := mustNew(t, 1, 2, []float64{1, 2})
	if _, err := LeastSquares(under, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("underdetermined: %v", err)
	}
	zero := mustNew(t, 3, 2, make([]float64, 6))
	if _, err := LeastSquares(zero, []float64{0, 0, 0}); !errors.Is(err, ErrSingular) {
		t.Errorf("zero design: %v", err)
	}
}

// --- eigenvalues ---

func TestSymmetricEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := mustNew(t, 2, 2, []float64{2, 1, 1, 2})
	vals, vecs, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Verify A v = lambda v for each column.
	for j := 0; j < 2; j++ {
		v := []float64{vecs.At(0, j), vecs.At(1, j)}
		av, err := m.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if math.Abs(av[i]-vals[j]*v[i]) > 1e-9 {
				t.Fatalf("eigenpair %d: Av = %v, lambda v = %v", j, av, vals[j])
			}
		}
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	m := mustNew(t, 3, 3, []float64{5, 0, 0, 0, -2, 0, 0, 0, 1})
	vals, _, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("diag eigen = %v", vals)
		}
	}
}

func TestSymmetricEigenErrors(t *testing.T) {
	if _, _, err := SymmetricEigen(mustNew(t, 2, 3, make([]float64, 6))); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: %v", err)
	}
	asym := mustNew(t, 2, 2, []float64{1, 5, 0, 1})
	if _, _, err := SymmetricEigen(asym); err == nil {
		t.Error("asymmetric should error")
	}
}

func TestEigenBounds(t *testing.T) {
	m := mustNew(t, 2, 2, []float64{2, 1, 1, 2})
	lo, hi, err := EigenBounds(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-1) > 1e-10 || math.Abs(hi-3) > 1e-10 {
		t.Fatalf("EigenBounds = %v %v", lo, hi)
	}
}

// --- property tests ---

func randSymmetric(r *rand.Rand, n int) *Matrix {
	data := make([]float64, n*n)
	m := &Matrix{rows: n, cols: n, data: data}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64() * 3
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestPropEigenReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m := randSymmetric(r, n)
		vals, vecs, err := SymmetricEigen(m)
		if err != nil {
			return false
		}
		// Reconstruct V diag(vals) Vt and compare to m.
		rec, err := Zero(n, n)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += vecs.At(i, k) * vals[k] * vecs.At(j, k)
				}
				rec.Set(i, j, s)
			}
		}
		return matrixEqual(rec, m, 1e-7*(1+m.FrobeniusNorm()))
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropEigenvectorsOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		m := randSymmetric(r, n)
		_, vecs, err := SymmetricEigen(m)
		if err != nil {
			return false
		}
		gram := vecs.Gram()
		id, err := Identity(n)
		if err != nil {
			return false
		}
		return matrixEqual(gram, id, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// matrixEqual reports whether a and b have the same shape and agree entry by
// entry within absolute tolerance tol.
func matrixEqual(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
