package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"byzopt/internal/costfunc"
	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// reference is the pair-by-pair enumeration Measure replaces: every subset
// minimised from scratch, outers in ForEachSubset order, each outer's inner
// sizes ascending and its inners in ForEachSubset order, the first strict
// improvement kept.
type reference struct {
	n        int
	minimize func(idx []int) ([]float64, error) // argmin of the subset's aggregate
	hessian  func(idx []int) (*matrix.Matrix, error)
	dist     func(a, b []float64) float64
}

func (r reference) redundancy(f int, mode SubsetMode) (*RedundancyReport, error) {
	rep := &RedundancyReport{}
	var best float64
	err := ForEachSubset(r.n, r.n-f, func(s []int) error {
		xs, err := r.minimize(s)
		if err != nil {
			return err
		}
		outer := append([]int(nil), s...)
		hi := r.n - 2*f
		if mode == AtLeastSize {
			hi = r.n - f
		}
		for k := r.n - 2*f; k <= hi; k++ {
			err := ForEachSubset(len(outer), k, func(pos []int) error {
				inner := make([]int, k)
				for i, q := range pos {
					inner[i] = outer[q]
				}
				xhat, err := r.minimize(inner)
				if err != nil {
					return err
				}
				rep.Pairs++
				if d := r.dist(xs, xhat); d > best {
					best, rep.WorstOuter, rep.WorstInner = d, outer, inner
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	rep.Epsilon = best
	return rep, err
}

func (r reference) exhaustive(f int) (*ExhaustiveResult, error) {
	best := &ExhaustiveResult{Score: math.Inf(1)}
	err := ForEachSubset(r.n, r.n-f, func(t []int) error {
		xt, err := r.minimize(t)
		if err != nil {
			return nil // cannot win
		}
		outer := append([]int(nil), t...)
		if score := r.score(f, outer, xt); score < best.Score {
			best.Score, best.Subset, best.X = score, outer, xt
		}
		return nil
	})
	if err == nil && best.X == nil {
		err = errors.New("no outer can win")
	}
	return best, err
}

// score is r_T of equation (11): the largest distance from x_T to the
// minimiser of an (n-2f)-subset of T, +Inf when one has none.
func (r reference) score(f int, outer []int, xt []float64) float64 {
	score := 0.0
	_ = ForEachSubset(len(outer), r.n-2*f, func(pos []int) error {
		inner := make([]int, len(pos))
		for i, q := range pos {
			inner[i] = outer[q]
		}
		xhat, err := r.minimize(inner)
		if err != nil {
			score = math.Inf(1)
			return nil
		}
		score = math.Max(score, r.dist(xt, xhat))
		return nil
	})
	return score
}

// pairDist is the distance between the minimisers of two subsets.
func (r reference) pairDist(t *testing.T, outer, inner []int) float64 {
	x, err := r.minimize(outer)
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := r.minimize(inner)
	if err != nil {
		t.Fatal(err)
	}
	return r.dist(x, xhat)
}

func (r reference) curvature(f int) (float64, error) {
	gamma := math.Inf(1)
	err := ForEachSubset(r.n, r.n-f, func(s []int) error {
		h, err := r.hessian(s)
		if err != nil {
			return err
		}
		lo, _, err := matrix.EigenBounds(h)
		gamma = math.Min(gamma, lo)
		return err
	})
	return gamma, err
}

// stackedReference minimises by QR over the stacked rows of each agent's
// block, the way every subset minimiser was computed before the engine.
func stackedReference(blocks [][][]float64, ys [][]float64) reference {
	stack := func(idx []int) (*matrix.Matrix, []float64, error) {
		var rows [][]float64
		var b []float64
		for _, i := range idx {
			rows = append(rows, blocks[i]...)
			b = append(b, ys[i]...)
		}
		a, err := matrix.FromRows(rows)
		return a, b, err
	}
	return reference{
		n: len(blocks),
		minimize: func(idx []int) ([]float64, error) {
			a, b, err := stack(idx)
			if err != nil {
				return nil, err
			}
			return matrix.LeastSquares(a, b)
		},
		hessian: func(idx []int) (*matrix.Matrix, error) {
			a, _, err := stack(idx)
			if err != nil {
				return nil, err
			}
			return a.Gram(), nil
		},
		dist: func(a, b []float64) float64 {
			d, _ := vecmath.Dist(a, b)
			return d
		},
	}
}

// instanceKind builds one of the four kinds of instance the engine serves,
// with its QR (or sample-mean) reference.
type instanceKind func(t *testing.T, r *rand.Rand, n, d int) (*Problem, reference)

func gaussianBlock(r *rand.Rand, rows, d int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = r.NormFloat64()
		}
	}
	return out
}

// noisyResponses observes x* = (1, ..., 1) through the block with noise.
func noisyResponses(r *rand.Rand, block [][]float64) []float64 {
	y := make([]float64, len(block))
	for k, row := range block {
		for _, v := range row {
			y[k] += v
		}
		y[k] += 0.5 * r.NormFloat64()
	}
	return y
}

var instanceKinds = map[string]instanceKind{
	"leastsquares": func(t *testing.T, r *rand.Rand, n, d int) (*Problem, reference) {
		blocks := make([][][]float64, n)
		ys := make([][]float64, n)
		rows := make([][]float64, n)
		b := make([]float64, n)
		for i := range blocks {
			blocks[i] = gaussianBlock(r, 1, d)
			ys[i] = noisyResponses(r, blocks[i])
			rows[i], b[i] = blocks[i][0], ys[i][0]
		}
		a, err := matrix.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewLeastSquaresProblem(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return p, stackedReference(blocks, ys)
	},
	// Sensors of two measurement rows each: (C_iᵀC_i, C_iᵀY_i).
	"sensing": func(t *testing.T, r *rand.Rand, n, d int) (*Problem, reference) {
		blocks := make([][][]float64, n)
		ys := make([][]float64, n)
		hess := make([]*matrix.Matrix, n)
		lin := make([][]float64, n)
		for i := range blocks {
			blocks[i] = gaussianBlock(r, 2, d)
			ys[i] = noisyResponses(r, blocks[i])
			c, err := matrix.FromRows(blocks[i])
			if err != nil {
				t.Fatal(err)
			}
			hess[i] = c.Gram()
			lin[i] = make([]float64, d)
			for k, row := range blocks[i] {
				if err := vecmath.AxpyInPlace(lin[i], ys[i][k], row); err != nil {
					t.Fatal(err)
				}
			}
		}
		p, err := NewHessianProblem(hess, lin)
		if err != nil {
			t.Fatal(err)
		}
		return p, stackedReference(blocks, ys)
	},
	// Forms ½xᵀBᵀBx − (Bᵀc)ᵀx, whose aggregates minimise where the stacked
	// least squares of (B, c) does.
	"quadratic": func(t *testing.T, r *rand.Rand, n, d int) (*Problem, reference) {
		blocks := make([][][]float64, n)
		ys := make([][]float64, n)
		forms := make([]*costfunc.QuadraticForm, n)
		for i := range blocks {
			blocks[i] = gaussianBlock(r, 2, d)
			ys[i] = noisyResponses(r, blocks[i])
			bm, err := matrix.FromRows(blocks[i])
			if err != nil {
				t.Fatal(err)
			}
			q := make([]float64, d)
			for k, row := range blocks[i] {
				if err := vecmath.AxpyInPlace(q, -ys[i][k], row); err != nil {
					t.Fatal(err)
				}
			}
			if forms[i], err = costfunc.NewQuadraticForm(bm.Gram(), q, 0); err != nil {
				t.Fatal(err)
			}
		}
		p, err := NewQuadraticProblem(forms)
		if err != nil {
			t.Fatal(err)
		}
		return p, stackedReference(blocks, ys)
	},
	// Points p_i of robust mean estimation: (I, p_i), minimised by the mean.
	"robustmean": func(t *testing.T, r *rand.Rand, n, d int) (*Problem, reference) {
		points := gaussianBlock(r, n, d)
		id, err := matrix.Identity(d)
		if err != nil {
			t.Fatal(err)
		}
		hess := make([]*matrix.Matrix, n)
		for i := range hess {
			hess[i] = id
		}
		p, err := NewHessianProblem(hess, points)
		if err != nil {
			t.Fatal(err)
		}
		ref := stackedReference(nil, nil)
		ref.n = n
		ref.minimize = func(idx []int) ([]float64, error) {
			sub := make([][]float64, len(idx))
			for k, i := range idx {
				sub[k] = points[i]
			}
			return vecmath.Mean(sub)
		}
		ref.hessian = func(idx []int) (*matrix.Matrix, error) {
			return id.Scale(float64(len(idx))), nil
		}
		return p, ref
	},
}

// relClose reports |got - want| <= tol·|want|.
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// TestMeasureMatchesQRReference is the engine's contract: on every kind of
// instance, over seeds at n <= 14, one Measure call reproduces the
// pair-by-pair QR enumeration — ε, γ and the exhaustive score within 1e-12
// relative, the same pair count, and the same worst pair and winner — in
// both subset modes. Where the reference's own maximum (or minimum) is a tie
// within that tolerance, as halves of a robust-mean outer are whenever
// n = 3f, rounding picks the pair; the engine's pair must then attain the
// reference's ε (or score) within 1e-12.
func TestMeasureMatchesQRReference(t *testing.T) {
	for name, build := range instanceKinds {
		for seed := int64(1); seed <= 150; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 5 + r.Intn(10)
			f := 1 + r.Intn(min(3, (n-1)/2))
			if n > 10 {
				f = min(f, 2)
			}
			d := 1 + r.Intn(max(1, (n-2*f)/2))
			p, ref := build(t, r, n, d)
			label := fmt.Sprintf("%s seed %d (n=%d d=%d f=%d)", name, seed, n, d, f)
			for _, mode := range []SubsetMode{ExactSize, AtLeastSize} {
				m, err := Measure(p, f, mode)
				if err != nil {
					t.Fatalf("%s mode %d: %v", label, mode, err)
				}
				want, err := ref.redundancy(f, mode)
				if err != nil {
					t.Fatalf("%s reference: %v", label, err)
				}
				got := m.Redundancy
				samePair := reflect.DeepEqual(got.WorstOuter, want.WorstOuter) && reflect.DeepEqual(got.WorstInner, want.WorstInner)
				if !relClose(got.Epsilon, want.Epsilon, 1e-12) || got.Pairs != want.Pairs ||
					!samePair && !relClose(ref.pairDist(t, got.WorstOuter, got.WorstInner), want.Epsilon, 1e-12) {
					t.Errorf("%s mode %d: redundancy %+v, reference %+v", label, mode, got, *want)
				}
				gamma, err := ref.curvature(f)
				if err != nil {
					t.Fatal(err)
				}
				if !relClose(m.Curvature, gamma, 1e-12) {
					t.Errorf("%s: curvature %v, reference %v", label, m.Curvature, gamma)
				}
				ex, err := ref.exhaustive(f)
				if err != nil {
					t.Fatal(err)
				}
				winner := m.Exhaustive.Subset
				xw, err := ref.minimize(winner)
				if err != nil {
					t.Fatal(err)
				}
				if !relClose(m.Exhaustive.Score, ex.Score, 1e-12) || !approxEqual(m.Exhaustive.X, xw, 1e-12*(1+vecmath.Norm(xw))) ||
					!reflect.DeepEqual(winner, ex.Subset) && !relClose(ref.score(f, winner, xw), ex.Score, 1e-12) {
					t.Errorf("%s: exhaustive %+v, reference %+v", label, *m.Exhaustive, *ex)
				}
			}
		}
	}
}

// TestRankDeficientSubsets: a subset whose rows do not span R^d has no
// unique minimiser, as under QR, whether its rows are collinear exactly or
// only up to rounding. The measurement refuses the instance; in the
// exhaustive algorithm an outer with such an inner scores +Inf and cannot
// win, and when every outer is out of the running there is no output.
func TestRankDeficientSubsets(t *testing.T) {
	// Agents 0-3 observe one direction, 4 and 5 another: the four of agents
	// 0-3 form a rank-deficient inner.
	ys := [][]float64{{1}, {2.2}, {-0.9}, {0.4}, {1.1}, {1.9}}
	for name, blocks := range map[string][][][]float64{
		"axis":     {{{1, 0}}, {{2, 0}}, {{-1, 0}}, {{0.5, 0}}, {{0, 1}}, {{0, 2}}},
		"rounding": {{{0.1, 0.3}}, {{0.3, 0.9}}, {{0.7, 2.1}}, {{-0.9, -2.7}}, {{1, 0}}, {{0.2, -1.3}}},
	} {
		rows := make([][]float64, len(blocks))
		b := make([]float64, len(blocks))
		for i := range blocks {
			rows[i], b[i] = blocks[i][0], ys[i][0]
		}
		a, err := matrix.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewLeastSquaresProblem(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ref := stackedReference(blocks, ys)
		if _, err := ref.minimize([]int{0, 1, 2, 3}); !errors.Is(err, matrix.ErrSingular) {
			t.Fatalf("%s: QR of the deficient inner: %v", name, err)
		}
		if _, err := MeasureRedundancy(p, 1, AtLeastSize); !errors.Is(err, matrix.ErrSingular) {
			t.Errorf("%s: redundancy of a rank-deficient instance: %v, want matrix.ErrSingular", name, err)
		}
		got, err := ExhaustiveResilient(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.exhaustive(1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Subset, want.Subset) || !relClose(got.Score, want.Score, 1e-12) {
			t.Errorf("%s: exhaustive %+v, reference %+v", name, *got, *want)
		}
		if !containsAgent(got.Subset, 4) || !containsAgent(got.Subset, 5) {
			t.Errorf("%s: winner %v holds the rank-deficient inner {0, 1, 2, 3}", name, got.Subset)
		}
	}

	// The tolerance: a pair of rows 1e-7 apart in angle has a Gram pivot of
	// 1e-14 of its trace, below pivotTol, and one 1e-5 apart is solved.
	near, err := matrix.FromRows([][]float64{{1, 0}, {1, 1e-7}, {1, 1e-5}})
	if err != nil {
		t.Fatal(err)
	}
	np, err := NewLeastSquaresProblem(near, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := np.MinimizeSubset([]int{0, 1}); !errors.Is(err, matrix.ErrSingular) {
		t.Errorf("rows 1e-7 apart: %v, want matrix.ErrSingular", err)
	}
	if _, err := np.MinimizeSubset([]int{0, 2}); err != nil {
		t.Errorf("rows 1e-5 apart: %v", err)
	}

	// Five agents on one axis: the outer of the five is singular, and every
	// other outer holds four of them as an inner.
	line, err := matrix.FromRows([][]float64{{1, 0}, {2, 0}, {-1, 0}, {0.5, 0}, {3, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewLeastSquaresProblem(line, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.MinimizeSubset([]int{0, 1, 2, 3, 4}); !errors.Is(err, matrix.ErrSingular) {
		t.Errorf("singular outer: %v", err)
	}
	if _, err := ExhaustiveResilient(q, 1); !errors.Is(err, ErrArgs) {
		t.Errorf("no outer can win: %v, want ErrArgs", err)
	}
}

func containsAgent(set []int, i int) bool {
	for _, v := range set {
		if v == i {
			return true
		}
	}
	return false
}

// TestTiesResolveInEnumerationOrder: exact ties go to the first pair, and
// the first outer, of the pair-by-pair enumeration in ForEachSubset order —
// checked against that enumeration run over the engine's own minimisers,
// whose bits MinimizeSubset reproduces, and pinned on the Theorem-1
// instance and on robust-mean points with duplicates.
func TestTiesResolveInEnumerationOrder(t *testing.T) {
	theorem1, err := matrix.FromRows([][]float64{{1}, {1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewLeastSquaresProblem(theorem1, []float64{0, 0, 10})
	if err != nil {
		t.Fatal(err)
	}
	id, err := matrix.Identity(2)
	if err != nil {
		t.Fatal(err)
	}
	points := [][]float64{{1, 0}, {1, 0}, {-1, 0}, {-1, 0}, {0, 0}, {0, 0}}
	mp, err := NewHessianProblem([]*matrix.Matrix{id, id, id, id, id, id}, points)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		p      *Problem
		outer  []int // the pinned worst outer and exhaustive winner
		winner []int
	}{
		{"theorem1", tp, []int{0, 2}, []int{0, 1}},
		{"duplicates", mp, nil, []int{0, 1, 2, 3, 4}},
	} {
		ref := reference{
			n:        c.p.N(),
			minimize: c.p.MinimizeSubset,
			dist:     func(a, b []float64) float64 { return math.Sqrt(sqDist(a, b)) },
		}
		for _, mode := range []SubsetMode{ExactSize, AtLeastSize} {
			m, err := Measure(c.p, 1, mode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.redundancy(1, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m.Redundancy, *want) {
				t.Errorf("%s mode %d: redundancy %+v, enumeration order gives %+v", c.name, mode, m.Redundancy, *want)
			}
			if c.outer != nil && !reflect.DeepEqual(m.Redundancy.WorstOuter, c.outer) {
				t.Errorf("%s mode %d: worst outer %v, want %v", c.name, mode, m.Redundancy.WorstOuter, c.outer)
			}
			ex, err := ref.exhaustive(1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*m.Exhaustive, *ex) || !reflect.DeepEqual(ex.Subset, c.winner) {
				t.Errorf("%s mode %d: exhaustive %+v, enumeration order gives %+v, want subset %v",
					c.name, mode, *m.Exhaustive, *ex, c.winner)
			}
		}
	}
}

// TestOuterTableLimit: an (n, f) whose outer table would exceed 1<<27
// entries is refused up front instead of running for ever.
func TestOuterTableLimit(t *testing.T) {
	points := gaussianBlock(rand.New(rand.NewSource(1)), 200, 2)
	id, err := matrix.Identity(2)
	if err != nil {
		t.Fatal(err)
	}
	hess := make([]*matrix.Matrix, len(points))
	for i := range hess {
		hess[i] = id
	}
	p, err := NewHessianProblem(hess, points)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(p, 10, AtLeastSize); !errors.Is(err, ErrArgs) {
		t.Errorf("Measure at (200, 10): %v, want ErrArgs", err)
	}
	if _, err := ExhaustiveResilient(p, 10); !errors.Is(err, ErrArgs) {
		t.Errorf("ExhaustiveResilient at (200, 10): %v, want ErrArgs", err)
	}
}

// TestColexRank: the outer table's rank maps the f-subsets of [0, n) onto
// [0, C(n, f)) one to one, and complementOrder orders removed sets as
// ForEachSubset orders their complements.
func TestColexRank(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{5, 2}, {7, 3}, {9, 1}, {6, 0}, {12, 4}} {
		e := &enumeration{choose: colexTable(tc.n, tc.f)}
		total, err := Binomial(tc.n, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, total)
		var removed [][]int
		err = ForEachSubset(tc.n, tc.f, func(v []int) error {
			r := e.rank(v)
			if r < 0 || int64(r) >= total || seen[r] {
				return fmt.Errorf("rank %d of %v out of [0, %d) or repeated", r, v, total)
			}
			seen[r] = true
			removed = append(removed, append([]int(nil), v...))
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d f=%d: %v", tc.n, tc.f, err)
		}
		// Lexicographic removed sets are reverse-ordered complements.
		for i := 1; i < len(removed); i++ {
			if complementOrder(removed[i], removed[i-1]) != -1 || complementOrder(removed[i-1], removed[i]) != 1 {
				t.Fatalf("n=%d f=%d: complements of %v and %v out of order", tc.n, tc.f, removed[i-1], removed[i])
			}
		}
	}
}

// TestPairBeforeIsEnumerationOrder: pairBefore, which breaks the engine's
// exact ties, orders every (S, Ŝ) pair as the pair-by-pair enumeration
// visits them: outers in ForEachSubset order, inner sizes ascending, inners
// in ForEachSubset order.
func TestPairBeforeIsEnumerationOrder(t *testing.T) {
	const n, f = 7, 2
	type pair struct{ v, u []int }
	var order []pair
	_ = ForEachSubset(n, n-f, func(s []int) error {
		outer := append([]int(nil), s...)
		for k := n - 2*f; k <= n-f; k++ {
			_ = ForEachSubset(n-f, k, func(pos []int) error {
				inner := make([]int, k)
				for i, q := range pos {
					inner[i] = outer[q]
				}
				order = append(order, pair{complement(n, outer), complement(n, inner)})
				return nil
			})
		}
		return nil
	})
	for i, a := range order {
		for j, b := range order {
			if got := pairBefore(a.v, a.u, b.v, b.u); got != (i < j) {
				t.Fatalf("pairBefore(%v, %v, %v, %v) = %v at positions %d, %d", a.v, a.u, b.v, b.u, got, i, j)
			}
		}
	}
}

// TestExhaustiveIsModeFree: the exhaustive algorithm scores an outer
// against its (n-2f)-subsets only, so its output is the same whichever
// inner sizes the enumeration also visits for ε. Strongly anisotropic
// Hessians put the minimiser of a larger inner farther from its outer than
// any (n-2f)-subset's, which a score fed by every inner size would show.
func TestExhaustiveIsModeFree(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(2)
		hess := make([]*matrix.Matrix, n)
		lin := make([][]float64, n)
		for i := range hess {
			k, th := 1+200*r.Float64(), math.Pi*r.Float64()
			c, s := math.Cos(th), math.Sin(th)
			h, err := matrix.New(2, 2, []float64{c*c + k*s*s, (1 - k) * c * s, (1 - k) * c * s, s*s + k*c*c})
			if err != nil {
				t.Fatal(err)
			}
			hess[i], lin[i] = h, []float64{10 * r.NormFloat64(), 10 * r.NormFloat64()}
		}
		p, err := NewHessianProblem(hess, lin)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Measure(p, 2, ExactSize)
		if err != nil {
			t.Fatal(err)
		}
		atLeast, err := Measure(p, 2, AtLeastSize)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exact.Exhaustive, atLeast.Exhaustive) {
			t.Fatalf("seed %d: exhaustive %+v in ExactSize mode, %+v in AtLeastSize", seed, *exact.Exhaustive, *atLeast.Exhaustive)
		}
	}
}
