package core

import (
	"fmt"
	"math"

	"byzopt/internal/costfunc"
	"byzopt/internal/matrix"
)

// pivotTol is the relative pivot tolerance of every subset solve, the one
// matrix.LeastSquares applies to its QR pivots. Here it bounds the Cholesky
// pivots of a subset's aggregate Hessian relative to that Hessian's trace
// (the squared Frobenius norm of a least-squares subset's rows), which
// classifies an exactly or numerically rank-deficient subset as singular.
const pivotTol = 1e-13

// errPivot is what a subset solve returns when its aggregate Hessian is not
// numerically positive definite: the subset has no unique minimiser.
var errPivot = fmt.Errorf("core: Cholesky pivot below the subset's tolerance: %w", matrix.ErrSingular)

// Problem is the instance the Section-3 theory enumerates: n agents whose
// costs are quadratic in x ∈ R^d. Agent i contributes a symmetric positive
// semidefinite H_i and a vector h_i, and the aggregate cost of a subset S is
// minimised where (Σ_{i∈S} H_i) x = Σ_{i∈S} h_i. A regression row (a_i, b_i)
// contributes (a_i a_iᵀ, b_i a_i), a sensor (C_iᵀC_i, C_iᵀY_i), a point p_i
// of robust mean estimation (I, p_i) and a quadratic form ½xᵀP_ix + q_iᵀx
// + c_i (P_i, −q_i): each is the cost's Hessian and its pull up to one
// positive factor, which leaves every minimiser as it is and scales only
// Measurement.Curvature. Assumption 1 of the paper (non-empty argmin sets)
// holds for every subset whose aggregate Hessian is positive definite.
//
// The sums G = Σ_i H_i and h = Σ_i h_i are formed once. The minimiser
// without a removed set U then solves (G − Σ_{i∈U} H_i) x = h − Σ_{i∈U} h_i:
// a downdate of |U| terms and an in-place d×d Cholesky factorisation. The
// sums and downdates are carried in double-double arithmetic, so the
// downdated system is the subset's own rounded once, however much the
// removed agents weigh: a Byzantine agent's outsized cost costs an honest
// subset no accuracy.
type Problem struct {
	n, d  int
	terms []float64 // agent i's H_i (row-major) then h_i, at terms[i*m:], m = d*d+d
	total []float64 // G then h, leading parts, then their trailing parts
}

// newProblem allocates an instance of n agents in dimension d; the caller
// fills each term(i), then calls sum.
func newProblem(n, d int) (*Problem, error) {
	if n < 1 || d < 1 {
		return nil, fmt.Errorf("%d agents in dimension %d: %w", n, d, ErrArgs)
	}
	m := d*d + d
	return &Problem{n: n, d: d, terms: make([]float64, n*m), total: make([]float64, 2*m)}, nil
}

// term returns agent i's H_i followed by h_i.
func (p *Problem) term(i int) []float64 {
	m := p.d*p.d + p.d
	return p.terms[i*m : (i+1)*m]
}

// sum forms G and h.
func (p *Problem) sum() *Problem {
	for i := 0; i < p.n; i++ {
		step(p.total, p.total, p.term(i), false)
	}
	return p
}

// NewHessianProblem builds an instance from each agent's Hessian term H_i
// (d×d, symmetric positive semidefinite) and pull h_i (length d).
func NewHessianProblem(hess []*matrix.Matrix, lin [][]float64) (*Problem, error) {
	if len(hess) == 0 || len(hess) != len(lin) || hess[0] == nil {
		return nil, fmt.Errorf("%d Hessian terms and %d pulls: %w", len(hess), len(lin), ErrArgs)
	}
	p, err := newProblem(len(hess), hess[0].Cols())
	if err != nil {
		return nil, err
	}
	d := p.d
	for i, h := range hess {
		if h == nil || h.Rows() != d || h.Cols() != d || len(lin[i]) != d {
			return nil, fmt.Errorf("agent %d: want a %d×%d Hessian term and a pull of %d: %w", i, d, d, d, ErrArgs)
		}
		t := p.term(i)
		for r := 0; r < d; r++ {
			copy(t[r*d:(r+1)*d], h.Row(r))
		}
		copy(t[d*d:], lin[i])
	}
	return p.sum(), nil
}

// NewLeastSquaresProblem builds the distributed linear regression instance
// of Section 5 from the design matrix (one row per agent) and the
// responses: agent i's cost is (B_i − A_i x)², which contributes
// (A_i A_iᵀ, B_i A_i).
func NewLeastSquaresProblem(a *matrix.Matrix, b []float64) (*Problem, error) {
	if a == nil {
		return nil, fmt.Errorf("nil design matrix: %w", ErrArgs)
	}
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("%d rows vs %d responses: %w", a.Rows(), len(b), ErrArgs)
	}
	p, err := newProblem(a.Rows(), a.Cols())
	if err != nil {
		return nil, err
	}
	d := p.d
	for i := 0; i < p.n; i++ {
		row, t := a.Row(i), p.term(i)
		for r, ar := range row {
			for c, ac := range row {
				t[r*d+c] = ar * ac
			}
			t[d*d+r] = b[i] * ar
		}
	}
	return p.sum(), nil
}

// NewQuadraticProblem builds an instance of one quadratic form
// ½xᵀP_ix + q_iᵀx + c_i per agent; all forms must share a dimension.
func NewQuadraticProblem(forms []*costfunc.QuadraticForm) (*Problem, error) {
	hess := make([]*matrix.Matrix, len(forms))
	lin := make([][]float64, len(forms))
	for i, f := range forms {
		if f == nil {
			return nil, fmt.Errorf("nil form %d: %w", i, ErrArgs)
		}
		q, err := costfunc.Grad(f, make([]float64, f.Dim())) // the gradient at 0 is q_i
		if err != nil {
			return nil, err
		}
		for j := range q {
			q[j] = -q[j]
		}
		hess[i], lin[i] = f.Hessian(), q
	}
	return NewHessianProblem(hess, lin)
}

// N returns the number of agents.
func (p *Problem) N() int { return p.n }

// Dim returns the optimization dimension d.
func (p *Problem) Dim() int { return p.d }

// MinimizeSubset returns the minimiser of Σ_{i∈idx} Q_i: the solve without
// the agents outside idx, whose entries must be distinct agents. A subset
// whose aggregate Hessian is not positive definite is a matrix.ErrSingular
// error.
func (p *Problem) MinimizeSubset(idx []int) ([]float64, error) {
	if len(idx) == 0 {
		return nil, fmt.Errorf("empty subset: %w", ErrArgs)
	}
	in := make([]bool, p.n)
	for _, i := range idx {
		if i < 0 || i >= p.n || in[i] {
			return nil, fmt.Errorf("subset %v of agents [0, %d): %w", idx, p.n, ErrArgs)
		}
		in[i] = true
	}
	removed := make([]int, 0, p.n-len(idx))
	for i, ok := range in {
		if !ok {
			removed = append(removed, i)
		}
	}
	sys := append([]float64(nil), p.total...)
	for _, u := range removed {
		step(sys, sys, p.term(u), true)
	}
	dd := p.d * p.d
	if err := p.solve(sys[:dd], sys[dd:dd+p.d]); err != nil {
		return nil, fmt.Errorf("subset %v: %w", idx, err)
	}
	return sys[dd : dd+p.d], nil
}

// forEachDowndate calls visit with every k-subset U of the agents, in
// ForEachSubset order, and the system without it: a = G − Σ_{u∈U} H_u and
// x = h − Σ_{u∈U} h_u, which visit may overwrite. It keeps the system
// without each prefix of U, so a step that changes only U's last elements
// downdates for those alone.
func (p *Problem) forEachDowndate(k int, visit func(u []int, a, x []float64) error) error {
	n, dd, m := p.n, p.d*p.d, len(p.total)
	// Level j is the system without u[:j]; level k is visit's.
	lv := make([]float64, (k+1)*m)
	copy(lv, p.total)
	u := make([]int, k)
	for i := range u {
		u[i] = i
	}
	for from := 0; ; {
		for j := from; j < k; j++ {
			step(lv[(j+1)*m:(j+2)*m], lv[j*m:(j+1)*m], p.term(u[j]), true)
		}
		last := lv[k*m:]
		if err := visit(u, last[:dd], last[dd:dd+p.d]); err != nil {
			return err
		}
		i := k - 1
		for i >= 0 && u[i] == n-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		u[i]++
		for j := i + 1; j < k; j++ {
			u[j] = u[j-1] + 1
		}
		from = i
	}
}

// step writes src ± t entrywise into dst in double-double arithmetic: src
// and dst hold len(t) leading parts followed by as many trailing parts, and
// dst may be src. Each addition keeps its rounding error (Knuth's TwoSum)
// in the trailing part.
func step(dst, src, t []float64, minus bool) {
	m := len(t)
	for k, v := range t {
		if minus {
			v = -v
		}
		a := src[k]
		s := a + v
		bv := s - a
		e := (a - (s - bv)) + (v - bv) + src[m+k]
		hi := s + e
		dst[k], dst[m+k] = hi, e-(hi-s)
	}
}

// solve overwrites x with a⁻¹x by an in-place Cholesky factorisation of the
// symmetric d×d matrix a (its lower triangle becomes the factor). A pivot at
// or below pivotTol times a's trace (or zero), or one that is not a number,
// is errPivot. It allocates nothing.
func (p *Problem) solve(a, x []float64) error {
	d := p.d
	var trace float64
	for j := 0; j < d; j++ {
		trace += a[j*d+j]
	}
	tol := math.Max(pivotTol*trace, 0)
	for j := 0; j < d; j++ {
		rj := a[j*d : j*d+j+1]
		s := rj[j]
		for k := 0; k < j; k++ {
			s -= rj[k] * rj[k]
		}
		if !(s > tol) {
			return errPivot
		}
		ljj := math.Sqrt(s)
		rj[j] = ljj
		for i := j + 1; i < d; i++ {
			ri := a[i*d : i*d+j+1]
			t := ri[j]
			for k := 0; k < j; k++ {
				t -= ri[k] * rj[k]
			}
			ri[j] = t / ljj
		}
	}
	for i := 0; i < d; i++ {
		ri := a[i*d : i*d+i+1]
		t := x[i]
		for k := 0; k < i; k++ {
			t -= ri[k] * x[k]
		}
		x[i] = t / ri[i]
	}
	for i := d - 1; i >= 0; i-- {
		t := x[i]
		for k := i + 1; k < d; k++ {
			t -= a[k*d+i] * x[k]
		}
		x[i] = t / a[i*d+i]
	}
	return nil
}
