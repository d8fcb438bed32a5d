package costfunc

// Parity and allocation tests for the GradInto oracles: every concrete cost
// must write the same bits whatever dst held before, and repeated calls must
// not touch the allocator.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// gradIntoCosts builds one instance of every concrete cost over dimension d.
func gradIntoCosts(t *testing.T, r *rand.Rand, d int) map[string]Differentiable {
	t.Helper()
	rows := 2 + r.Intn(4)
	data := make([]float64, rows*d)
	for i := range data {
		data[i] = r.NormFloat64()
	}
	a, err := matrix.New(rows, d, data)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, rows)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	ls, err := NewLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := NewObservation(data[:d], b[0])
	if err != nil {
		t.Fatal(err)
	}
	gram := a.Gram()
	q := make([]float64, d)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	qf, err := NewQuadraticForm(gram, q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][]float64, 6)
	ys := make([]float64, 6)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = r.NormFloat64()
		}
		ys[i] = float64(1 - 2*(i%2))
	}
	hg, err := NewHinge(pts, ys, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := NewSum(ls, obs, qf, hg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScale(0.37, sum)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Differentiable{
		"leastsquares": ls,
		"observation":  obs,
		"quadratic":    qf,
		"hinge":        hg,
		"sum":          sum,
		"scale":        sc,
	}
}

// TestGradIntoMatchesGrad fuzzes every cost: GradInto into a dirty dst,
// reused across trials and poisoned with NaN before the first, must be
// bitwise identical to Grad's fresh slice at random points, through repeated
// scratch-reusing calls.
func TestGradIntoMatchesGrad(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for _, d := range []int{1, 3, 9, 24} {
		costs := gradIntoCosts(t, r, d)
		for name, cost := range costs {
			dst := make([]float64, d)
			for i := range dst {
				dst[i] = math.NaN()
			}
			for trial := 0; trial < 20; trial++ {
				x := make([]float64, d)
				for i := range x {
					x[i] = r.NormFloat64() * 2
				}
				want, err := Grad(cost, x)
				if err != nil {
					t.Fatalf("%s d=%d: Grad: %v", name, d, err)
				}
				if err := cost.GradInto(dst, x); err != nil {
					t.Fatalf("%s d=%d: GradInto: %v", name, d, err)
				}
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(dst[i]) {
						t.Fatalf("%s d=%d trial %d: coord %d differs: Grad %v GradInto %v",
							name, d, trial, i, want[i], dst[i])
					}
				}
			}
		}
	}
}

// TestGradIntoDimensionChecks pins the error contract: wrong x or dst
// dimensions are rejected with ErrDimension and dst is left untouched on
// the x-dimension error path.
func TestGradIntoDimensionChecks(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	costs := gradIntoCosts(t, r, 4)
	for name, cost := range costs {
		dst := []float64{1, 2, 3, 4}
		if err := cost.GradInto(dst, make([]float64, 5)); !errors.Is(err, ErrDimension) {
			t.Errorf("%s: wrong x dim got %v, want ErrDimension", name, err)
		}
		for i, v := range dst {
			if v != float64(i+1) {
				t.Errorf("%s: wrong x dim wrote dst %v, want it untouched", name, dst)
				break
			}
		}
		if err := cost.GradInto(make([]float64, 3), make([]float64, 4)); !errors.Is(err, ErrDimension) {
			t.Errorf("%s: wrong dst dim got %v, want ErrDimension", name, err)
		}
	}
}

// TestGradIntoAllocs proves the oracle contract the engine's arena relies
// on: after the first (lazily sizing) call, GradInto allocates nothing.
func TestGradIntoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	costs := gradIntoCosts(t, r, 16)
	x := make([]float64, 16)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for name, cost := range costs {
		dst := make([]float64, 16)
		if err := cost.GradInto(dst, x); err != nil {
			t.Fatalf("%s warmup: %v", name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := cost.GradInto(dst, x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestLeastSquaresGradIntoRejectsAliasedDst: the streamed gradient reads x
// after writing dst, so a dst that is x, or overlaps it by a shifted window,
// is ErrAliased and leaves dst as it was; a dst beside x in the same backing
// array is fine.
func TestLeastSquaresGradIntoRejectsAliasedDst(t *testing.T) {
	ls := gradIntoCosts(t, rand.New(rand.NewSource(41)), 4)["leastsquares"]
	buf := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name   string
		dst, x []float64
	}{
		{"same", buf[:4], buf[:4]},
		{"dst after x", buf[1:5], buf[:4]},
		{"dst before x", buf[:4], buf[1:5]},
	} {
		if err := ls.GradInto(tc.dst, tc.x); !errors.Is(err, ErrAliased) {
			t.Errorf("%s: %v, want ErrAliased", tc.name, err)
		}
		for i, v := range buf {
			if v != float64(i+1) {
				t.Fatalf("%s: an aliased call wrote %v", tc.name, buf)
			}
		}
	}
	want, err := Grad(ls, buf[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.GradInto(buf[4:], buf[:4]); err != nil {
		t.Fatalf("dst beside x: %v", err)
	}
	for i := range want {
		if math.Float64bits(buf[4+i]) != math.Float64bits(want[i]) {
			t.Fatalf("dst beside x: coord %d = %v, want %v", i, buf[4+i], want[i])
		}
	}
}

// TestGradIntoAliasedDst covers every cost with a dst that is x and with
// windows of one backing array shifted either way: a cost that reads x after
// writing dst refuses with ErrAliased and leaves the array as it was, and
// Observation, which reads x whole first, writes the gradient Grad takes at
// a copy of x.
func TestGradIntoAliasedDst(t *testing.T) {
	const d = 6
	refuses := map[string]bool{"leastsquares": true, "quadratic": true, "hinge": true, "sum": true, "scale": true}
	for name, cost := range gradIntoCosts(t, rand.New(rand.NewSource(3)), d) {
		for _, shift := range []struct {
			name   string
			dst, x int // offsets into the backing array
		}{{"same", 0, 0}, {"dst after x", 1, 0}, {"dst before x", 0, 1}} {
			buf := make([]float64, d+1)
			for i := range buf {
				buf[i] = 0.3*float64(i) - 1
			}
			before := append([]float64(nil), buf...)
			x, dst := buf[shift.x:shift.x+d], buf[shift.dst:shift.dst+d]
			want, err := Grad(cost, append([]float64(nil), x...))
			if err != nil {
				t.Fatal(err)
			}
			err = cost.GradInto(dst, x)
			switch {
			case refuses[name]:
				if !errors.Is(err, ErrAliased) {
					t.Errorf("%s %s: %v, want ErrAliased", name, shift.name, err)
				}
				for i := range buf {
					if math.Float64bits(buf[i]) != math.Float64bits(before[i]) {
						t.Errorf("%s %s: a refused call wrote %v", name, shift.name, buf)
						break
					}
				}
			case err != nil:
				t.Errorf("%s %s: %v", name, shift.name, err)
			default:
				for i := range want {
					if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s %s: coord %d = %v, want %v", name, shift.name, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// TestLeastSquaresEvalAllocs: Eval streams each residual into its sum (every
// round of a sweep evaluates the honest loss, 190 rows on wide_grid), so it
// allocates nothing at any row count, keeps no state in the cost, and
// matches the ||matrix.Residual||² it used to compute bit for bit.
func TestLeastSquaresEvalAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, rows := range []int{1, 6, 32, 33, 200} {
		const d = 5
		data, b, x := make([]float64, rows*d), make([]float64, rows), make([]float64, d)
		for _, v := range [][]float64{data, b, x} {
			for i := range v {
				v[i] = r.NormFloat64()
			}
		}
		a, err := matrix.New(rows, d, data)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := NewLeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := matrix.Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ls.Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := vecmath.NormSq(res); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%d rows: Eval %v, want %v", rows, got, want)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := ls.Eval(x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d rows: Eval allocates %v times, want 0", rows, allocs)
		}
	}
}

// TestObservationMatchesOneRowLeastSquares pins the single-observation cost
// to the one-row LeastSquares it replaced, bit for bit, on Eval, Grad,
// GradInto and Hessian: seeded rows at every dimension the sweeps run and
// beyond, a zero row, responses of +0 and -0, and points of signed zeros,
// where the residual is an exact zero whose sign only the 0 + step of the
// gradient fixes.
func TestObservationMatchesOneRowLeastSquares(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	negZero := math.Copysign(0, -1)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, d := range []int{1, 2, 3, 4, 5, 50, 1000} {
		rows := [][]float64{make([]float64, d)}
		for k := 0; k < 3; k++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			rows = append(rows, row)
		}
		points := [][]float64{make([]float64, d), make([]float64, d), make([]float64, d)}
		for j := 0; j < d; j++ {
			points[1][j] = negZero
			points[2][j] = []float64{0, negZero, r.NormFloat64()}[j%3]
		}
		for k := 0; k < 3; k++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = 3 * r.NormFloat64()
			}
			points = append(points, x)
		}
		for ri, row := range rows {
			for _, b := range []float64{0, negZero, r.NormFloat64()} {
				a, err := matrix.New(1, d, row)
				if err != nil {
					t.Fatal(err)
				}
				ls, err := NewLeastSquares(a, []float64{b})
				if err != nil {
					t.Fatal(err)
				}
				obs, err := NewObservation(row, b)
				if err != nil {
					t.Fatal(err)
				}
				if obs.Dim() != ls.Dim() {
					t.Fatalf("d=%d: Dim %d, want %d", d, obs.Dim(), ls.Dim())
				}
				for xi, x := range points {
					at := fmt.Sprintf("d=%d row %d b=%v x %d", d, ri, b, xi)
					wantV, err := ls.Eval(x)
					if err != nil {
						t.Fatal(err)
					}
					if gotV, err := obs.Eval(x); err != nil || !same(gotV, wantV) {
						t.Fatalf("%s: Eval %v (%v), want %v", at, gotV, err, wantV)
					}
					want := make([]float64, d)
					if err := ls.GradInto(want, x); err != nil {
						t.Fatal(err)
					}
					grad, err := Grad(obs, x)
					if err != nil {
						t.Fatal(err)
					}
					into := make([]float64, d)
					for j := range into {
						into[j] = math.NaN()
					}
					if err := obs.GradInto(into, x); err != nil {
						t.Fatal(err)
					}
					for j := range want {
						if !same(grad[j], want[j]) || !same(into[j], want[j]) {
							t.Fatalf("%s: coord %d: Grad %v, GradInto %v, want %v", at, j, grad[j], into[j], want[j])
						}
					}
				}
				got, want := obs.Hessian(), ls.Hessian()
				for i := 0; i < d; i++ {
					for j := 0; j < d; j++ {
						if !same(got.At(i, j), want.At(i, j)) {
							t.Fatalf("d=%d row %d: Hessian[%d][%d] %v, want %v", d, ri, i, j, got.At(i, j), want.At(i, j))
						}
					}
				}
			}
		}
	}
}

// TestObservationViews: the views read the caller's rows without copying
// them, and a ragged or empty row, or a missing response, is a dimension
// error.
func TestObservationViews(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}}
	obs, err := ObservationViews(rows, []float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 2 || obs[1].Dim() != 2 {
		t.Fatalf("views %v", obs)
	}
	rows[1][0] = 0
	if v, err := obs[1].Eval([]float64{1, 1}); err != nil || v != 4 {
		t.Fatalf("Eval after the row changed = %v, %v; want (6 - 4)^2 = 4", v, err)
	}
	for name, bad := range map[string][][]float64{
		"ragged": {{1, 2}, {3}},
		"empty":  {{}, {}},
	} {
		if _, err := ObservationViews(bad, []float64{0, 0}); !errors.Is(err, ErrDimension) {
			t.Errorf("%s rows: %v, want ErrDimension", name, err)
		}
	}
	if _, err := ObservationViews(rows, []float64{0}); !errors.Is(err, ErrDimension) {
		t.Errorf("one response for two rows: %v, want ErrDimension", err)
	}
}

// TestGradStaysConcurrencySafe pins the costs that keep no scratch:
// concurrent Grad calls on one shared LeastSquares, Observation,
// QuadraticForm, Hinge, or a Scale over one of them, are safe. Sum keeps
// scratch and makes no such promise. Meaningful under -race.
func TestGradStaysConcurrencySafe(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	all := gradIntoCosts(t, r, 8)
	scaled, err := NewScale(0.37, all["hinge"])
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]Differentiable{
		"leastsquares": all["leastsquares"],
		"observation":  all["observation"],
		"quadratic":    all["quadratic"],
		"hinge":        all["hinge"],
		"scale":        scaled,
	}
	x := make([]float64, 8)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for name, cost := range costs {
		want, err := Grad(cost, x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		done := make(chan []float64, 8)
		for w := 0; w < 8; w++ {
			go func() {
				g, err := Grad(cost, x)
				if err != nil {
					t.Error(err)
				}
				done <- g
			}()
		}
		for w := 0; w < 8; w++ {
			g := <-done
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(g[i]) {
					t.Fatalf("%s: concurrent Grad corrupted coord %d", name, i)
				}
			}
		}
	}
}
