// Package costfunc models the agents' local cost functions Q_i : R^d -> R of
// the paper and the aggregates the theory quantifies over.
//
// The central abstractions are Function (evaluation only — the paper's
// impossibility and feasibility results in Section 3 never require
// differentiability) and Differentiable (evaluation plus a gradient written
// in place — what the distributed gradient-descent method of Section 4
// consumes once per round). Grad is the allocating call for everything
// outside the round loop.
//
// Concrete costs provided:
//
//   - LeastSquares: Q(x) = sum_i (b_i - a_i x)^2, the distributed linear
//     regression cost of Section 5 / Appendix J; its gradient streams each
//     row's residual into the caller's buffer, no scratch.
//   - Observation: Q_i(x) = (b_i - a_i x)^2, one agent's cost in those
//     experiments: a view of one design row and its response, no scratch.
//   - QuadraticForm: Q(x) = 1/2 x'Px + q'x + c, the generic strongly convex
//     quadratic used by tests and synthetic instances.
//   - Hinge: the SVM cost mentioned in Section 5 (subgradients).
//
// Sum and Scale combine costs; Sum keeps a term-gradient buffer, the only
// scratch a cost here keeps. Smoothness and StrongConvexity compute the
// paper's µ and γ for quadratic costs from Hessian eigenvalue bounds.
package costfunc

import (
	"errors"
	"fmt"

	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// ErrDimension is returned (wrapped) when an argument does not match the
// cost function's domain dimension.
var ErrDimension = errors.New("costfunc: dimension mismatch")

// ErrAliased is returned (wrapped) when a gradient's dst shares memory with
// the point x it is taken at, where the cost reads x after writing dst.
var ErrAliased = errors.New("costfunc: dst shares memory with x")

// Function is a real-valued cost on R^d.
type Function interface {
	// Dim returns the domain dimension d.
	Dim() int
	// Eval returns Q(x).
	Eval(x []float64) (float64, error)
}

// Differentiable is a cost with a (sub)gradient oracle that writes into the
// caller's buffer, which is what lets the DGD engines run their steady-state
// round loop without heap allocations (see dgd.IntoAgent).
//
// Implementations may reuse internal scratch buffers between calls, so a
// single cost value must not serve concurrent GradInto calls. The in-process
// engine calls it once per agent per round, one agent at a time, but a sweep
// runs its cells side by side and the cluster substrate asks each agent from
// its own goroutine, so two agents must not share a cost value that keeps
// scratch. In this package only Sum keeps scratch, its term gradient.
// LeastSquares, Observation, QuadraticForm, Hinge and a Scale over
// scratch-free costs keep none.
//
// dst must not share memory with x. A cost that would read x after writing
// dst refuses such a dst with an ErrAliased error and leaves it untouched:
// LeastSquares, QuadraticForm, Hinge, Sum, and a Scale over any of them.
// Observation reads x whole before it writes, so it writes its gradient
// correctly over x (or a window that overlaps it).
type Differentiable interface {
	Function
	// GradInto writes the gradient (or a subgradient) of Q at x into dst,
	// which has length Dim. On an error in x's dimension dst is untouched.
	GradInto(dst, x []float64) error
}

// Grad returns the gradient of f at x in a new slice: GradInto into a
// freshly made one, for callers outside the round loop.
func Grad(f Differentiable, x []float64) ([]float64, error) {
	g := make([]float64, f.Dim())
	if err := f.GradInto(g, x); err != nil {
		return nil, err
	}
	return g, nil
}

// --- least squares ---

// LeastSquares is the regression cost Q(x) = ||b - A x||^2 over the rows of
// a design matrix. With a single row it is one agent's cost
// Q_i(x) = (B_i - A_i x)^2 from Section 5, which Observation computes bit
// for bit without the matrix. It keeps no scratch, so one value may serve
// concurrent calls.
type LeastSquares struct {
	a *matrix.Matrix
	b []float64
}

var _ Differentiable = (*LeastSquares)(nil)

// NewLeastSquares builds the cost ||b - A x||^2.
func NewLeastSquares(a *matrix.Matrix, b []float64) (*LeastSquares, error) {
	if a == nil {
		return nil, errors.New("costfunc: nil design matrix")
	}
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("costfunc: %d rows vs %d responses: %w", a.Rows(), len(b), ErrDimension)
	}
	return &LeastSquares{a: a.Clone(), b: vecmath.Clone(b)}, nil
}

// Dim returns the number of regression coefficients.
func (q *LeastSquares) Dim() int { return q.a.Cols() }

// Eval returns ||b - A x||^2. Each row's residual is squared into one
// accumulator as it is computed (matrix.ResidualNormSq), so tracking the loss
// every round allocates nothing at any row count.
func (q *LeastSquares) Eval(x []float64) (float64, error) {
	if len(x) != q.Dim() {
		return 0, fmt.Errorf("costfunc: eval at dim %d, want %d: %w", len(x), q.Dim(), ErrDimension)
	}
	return q.a.ResidualNormSq(x, q.b)
}

// GradInto writes -2 A' (b - A x) into dst without scratch: each row's
// residual is added into dst as it is computed (matrix.MulTResidualInto),
// then dst is scaled. Every row reads x after dst is first written, so a dst
// that shares memory with x is an ErrAliased error.
func (q *LeastSquares) GradInto(dst, x []float64) error {
	if len(x) != q.Dim() {
		return fmt.Errorf("costfunc: grad at dim %d, want %d: %w", len(x), q.Dim(), ErrDimension)
	}
	if len(dst) != q.Dim() {
		return fmt.Errorf("costfunc: grad into dim %d, want %d: %w", len(dst), q.Dim(), ErrDimension)
	}
	if overlaps(dst, x) {
		return fmt.Errorf("costfunc: least-squares grad: %w", ErrAliased)
	}
	if err := q.a.MulTResidualInto(dst, x, q.b); err != nil {
		return err
	}
	vecmath.ScaleInPlace(-2, dst)
	return nil
}

// overlaps reports whether two slices of one non-zero length share an
// element. Go orders no pointers without unsafe, so it looks for each one's
// first element among the other's.
func overlaps(a, b []float64) bool {
	for i := range a {
		if &a[i] == &b[0] || &b[i] == &a[0] {
			return true
		}
	}
	return false
}

// Hessian returns the constant Hessian 2 A'A.
func (q *LeastSquares) Hessian() *matrix.Matrix { return q.a.Gram().Scale(2) }

// --- single observation ---

// Observation is one agent's cost Q_i(x) = (b - a x)^2 in the paper's
// regression experiments (Section 5): a single design row a and its response
// b. It holds the row and the scalar and nothing else — no matrix, no
// scratch — so its gradient is one dot pass and one write pass, and one
// value may serve concurrent calls.
type Observation struct {
	a []float64
	b float64
}

var _ Differentiable = (*Observation)(nil)

// NewObservation builds the cost (b - row.x)^2 over a copy of row, which
// must be non-empty.
func NewObservation(row []float64, b float64) (*Observation, error) {
	if len(row) == 0 {
		return nil, errors.New("costfunc: observation with an empty row")
	}
	return &Observation{a: vecmath.Clone(row), b: b}, nil
}

// ObservationViews builds the cost (b[i] - rows[i].x)^2 of every row, each a
// view of its row rather than a copy, all backed by one slice. The rows must
// be non-empty and of one length, and must not be written while the costs
// are in use.
func ObservationViews(rows [][]float64, b []float64) ([]Differentiable, error) {
	if len(rows) != len(b) {
		return nil, fmt.Errorf("costfunc: %d rows vs %d responses: %w", len(rows), len(b), ErrDimension)
	}
	backing := make([]Observation, len(rows))
	out := make([]Differentiable, len(rows))
	for i, row := range rows {
		if len(row) == 0 || len(row) != len(rows[0]) {
			return nil, fmt.Errorf("costfunc: row %d has %d entries, want %d > 0: %w", i, len(row), len(rows[0]), ErrDimension)
		}
		backing[i] = Observation{a: row, b: b[i]}
		out[i] = &backing[i]
	}
	return out, nil
}

// Dim returns the number of regression coefficients.
func (o *Observation) Dim() int { return len(o.a) }

// residual returns b - a.x, the dot product summed in ascending index order
// as matrix.MulVecInto sums a row.
func (o *Observation) residual(x []float64, op string) (float64, error) {
	if len(x) != len(o.a) {
		return 0, fmt.Errorf("costfunc: %s at dim %d, want %d: %w", op, len(x), len(o.a), ErrDimension)
	}
	return o.b - vecmath.DotKernel(o.a, x), nil
}

// Eval returns (b - a.x)^2.
func (o *Observation) Eval(x []float64) (float64, error) {
	r, err := o.residual(x, "eval")
	if err != nil {
		return 0, err
	}
	return r * r, nil
}

// GradInto writes -2 a (b - a.x) into dst: one dot pass for the residual r,
// then one write pass of (0 + r a_j) * -2, the sum a one-row LeastSquares
// accumulates into a cleared dst and then scales, zero's sign included, so
// the values are bitwise that cost's.
func (o *Observation) GradInto(dst, x []float64) error {
	r, err := o.residual(x, "grad")
	if err != nil {
		return err
	}
	if len(dst) != len(o.a) {
		return fmt.Errorf("costfunc: grad into dim %d, want %d: %w", len(dst), len(o.a), ErrDimension)
	}
	dst = dst[:len(o.a)]
	for j, aj := range o.a {
		dst[j] = (0 + r*aj) * -2
	}
	return nil
}

// Hessian returns the constant Hessian 2 a'a, through the Gram product of a
// one-row LeastSquares, so its eigenvalues are bitwise that cost's.
func (o *Observation) Hessian() *matrix.Matrix {
	row, err := matrix.New(1, len(o.a), o.a)
	if err != nil {
		panic(err) // unreachable: a 1 x len(a) matrix holds len(a) entries
	}
	return row.Gram().Scale(2)
}

// --- quadratic form ---

// QuadraticForm is Q(x) = 1/2 x'Px + q'x + c with symmetric P.
type QuadraticForm struct {
	p *matrix.Matrix
	q []float64
	c float64
}

var _ Differentiable = (*QuadraticForm)(nil)

// NewQuadraticForm builds 1/2 x'Px + q'x + c. P must be square, symmetric,
// and match len(q).
func NewQuadraticForm(p *matrix.Matrix, q []float64, c float64) (*QuadraticForm, error) {
	if p == nil {
		return nil, errors.New("costfunc: nil quadratic matrix")
	}
	if p.Rows() != p.Cols() || p.Rows() != len(q) {
		return nil, fmt.Errorf("costfunc: quadratic %dx%d with linear dim %d: %w", p.Rows(), p.Cols(), len(q), ErrDimension)
	}
	if !p.IsSymmetric(1e-9 * (1 + p.FrobeniusNorm())) {
		return nil, errors.New("costfunc: quadratic matrix must be symmetric")
	}
	return &QuadraticForm{p: p.Clone(), q: vecmath.Clone(q), c: c}, nil
}

// Dim returns the domain dimension.
func (f *QuadraticForm) Dim() int { return len(f.q) }

// Eval returns 1/2 x'Px + q'x + c.
func (f *QuadraticForm) Eval(x []float64) (float64, error) {
	if len(x) != f.Dim() {
		return 0, fmt.Errorf("costfunc: eval at dim %d, want %d: %w", len(x), f.Dim(), ErrDimension)
	}
	px, err := f.p.MulVec(x)
	if err != nil {
		return 0, err
	}
	xpx, err := vecmath.Dot(x, px)
	if err != nil {
		return 0, err
	}
	qx, err := vecmath.Dot(f.q, x)
	if err != nil {
		return 0, err
	}
	return 0.5*xpx + qx + f.c, nil
}

// GradInto writes Px + q into dst without allocating. The product reads x
// after writing dst's first rows, so a dst that shares memory with x is an
// ErrAliased error.
func (f *QuadraticForm) GradInto(dst, x []float64) error {
	if len(x) != f.Dim() {
		return fmt.Errorf("costfunc: grad at dim %d, want %d: %w", len(x), f.Dim(), ErrDimension)
	}
	if len(dst) != f.Dim() {
		return fmt.Errorf("costfunc: grad into dim %d, want %d: %w", len(dst), f.Dim(), ErrDimension)
	}
	if overlaps(dst, x) {
		return fmt.Errorf("costfunc: quadratic grad: %w", ErrAliased)
	}
	if err := f.p.MulVecInto(dst, x); err != nil {
		return err
	}
	return vecmath.AddInPlace(dst, f.q)
}

// Hessian returns a copy of P.
func (f *QuadraticForm) Hessian() *matrix.Matrix { return f.p.Clone() }

// --- hinge loss (SVM) ---

// Hinge is the soft-margin SVM cost
// Q(w) = (1/n) sum_i max(0, 1 - y_i w.x_i) + (reg/2)||w||^2.
// GradInto writes a subgradient (the hinge is non-smooth at the margin).
type Hinge struct {
	xs     [][]float64
	ys     []float64
	reg    float64
	weight float64
}

var _ Differentiable = (*Hinge)(nil)

// NewHinge builds an SVM hinge cost over the given points. Labels must be
// -1 or +1; reg must be non-negative.
func NewHinge(xs [][]float64, ys []float64, reg float64) (*Hinge, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("costfunc: %d points vs %d labels: %w", len(xs), len(ys), ErrDimension)
	}
	if reg < 0 {
		return nil, fmt.Errorf("costfunc: negative regularization %v", reg)
	}
	d := len(xs[0])
	cp := make([][]float64, len(xs))
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("costfunc: point %d has dim %d, want %d: %w", i, len(x), d, ErrDimension)
		}
		if ys[i] != 1 && ys[i] != -1 {
			return nil, fmt.Errorf("costfunc: label %d is %v, want +-1", i, ys[i])
		}
		cp[i] = vecmath.Clone(x)
	}
	return &Hinge{xs: cp, ys: vecmath.Clone(ys), reg: reg, weight: 1 / float64(len(xs))}, nil
}

// Dim returns the feature dimension.
func (h *Hinge) Dim() int { return len(h.xs[0]) }

// Eval returns the regularized mean hinge loss.
func (h *Hinge) Eval(w []float64) (float64, error) {
	if len(w) != h.Dim() {
		return 0, fmt.Errorf("costfunc: eval at dim %d, want %d: %w", len(w), h.Dim(), ErrDimension)
	}
	var s float64
	for i, x := range h.xs {
		wx, err := vecmath.Dot(w, x)
		if err != nil {
			return 0, err
		}
		if m := 1 - h.ys[i]*wx; m > 0 {
			s += m
		}
	}
	return h.weight*s + 0.5*h.reg*vecmath.NormSq(w), nil
}

// GradInto writes a subgradient of the regularized mean hinge loss into dst
// without allocating. It writes dst before reading w, so a dst that shares
// memory with w is an ErrAliased error.
func (h *Hinge) GradInto(dst, w []float64) error {
	if len(w) != h.Dim() {
		return fmt.Errorf("costfunc: grad at dim %d, want %d: %w", len(w), h.Dim(), ErrDimension)
	}
	if len(dst) != h.Dim() {
		return fmt.Errorf("costfunc: grad into dim %d, want %d: %w", len(dst), h.Dim(), ErrDimension)
	}
	if overlaps(dst, w) {
		return fmt.Errorf("costfunc: hinge grad: %w", ErrAliased)
	}
	for i := range dst {
		dst[i] = h.reg * w[i]
	}
	for i, x := range h.xs {
		wx, err := vecmath.Dot(w, x)
		if err != nil {
			return err
		}
		if 1-h.ys[i]*wx > 0 {
			if err := vecmath.AxpyInPlace(dst, -h.ys[i]*h.weight, x); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- combinators ---

// Sum is the aggregate cost sum_i Q_i(x) over a set of agents, the object
// the paper's definitions quantify over.
type Sum struct {
	terms []Differentiable
	dim   int
	// buf is the per-term gradient scratch for GradInto, sized lazily. A
	// term's GradInto overwrites its dst, so one term's gradient needs a
	// place other than dst to land before it is added.
	buf []float64
}

var _ Differentiable = (*Sum)(nil)

// NewSum aggregates the given costs; they must share a dimension.
func NewSum(terms ...Differentiable) (*Sum, error) {
	if len(terms) == 0 {
		return nil, errors.New("costfunc: empty sum")
	}
	d := terms[0].Dim()
	for i, f := range terms {
		if f == nil {
			return nil, fmt.Errorf("costfunc: nil term %d", i)
		}
		if f.Dim() != d {
			return nil, fmt.Errorf("costfunc: term %d has dim %d, want %d: %w", i, f.Dim(), d, ErrDimension)
		}
	}
	cp := make([]Differentiable, len(terms))
	copy(cp, terms)
	return &Sum{terms: cp, dim: d}, nil
}

// Dim returns the shared domain dimension.
func (s *Sum) Dim() int { return s.dim }

// Eval returns sum_i Q_i(x).
func (s *Sum) Eval(x []float64) (float64, error) {
	var total float64
	for i, f := range s.terms {
		v, err := f.Eval(x)
		if err != nil {
			return 0, fmt.Errorf("sum term %d: %w", i, err)
		}
		total += v
	}
	return total, nil
}

// GradInto writes sum_i grad Q_i(x) into dst, term by term in order: an
// internal scratch buffer receives each term's gradient, which is added to
// dst. x is checked before dst is cleared, and a dst that shares memory with
// x is an ErrAliased error.
func (s *Sum) GradInto(dst, x []float64) error {
	if len(x) != s.dim {
		return fmt.Errorf("costfunc: grad at dim %d, want %d: %w", len(x), s.dim, ErrDimension)
	}
	if len(dst) != s.dim {
		return fmt.Errorf("costfunc: grad into dim %d, want %d: %w", len(dst), s.dim, ErrDimension)
	}
	if overlaps(dst, x) {
		return fmt.Errorf("costfunc: sum grad: %w", ErrAliased)
	}
	if cap(s.buf) < s.dim {
		s.buf = make([]float64, s.dim)
	}
	buf := s.buf[:s.dim]
	for i := range dst {
		dst[i] = 0
	}
	for i, f := range s.terms {
		if err := f.GradInto(buf, x); err != nil {
			return fmt.Errorf("sum term %d: %w", i, err)
		}
		if err := vecmath.AddInPlace(dst, buf); err != nil {
			return err
		}
	}
	return nil
}

// Scale wraps a cost multiplied by a positive constant (e.g. the 1/|H|
// average of Assumption 3).
type Scale struct {
	f     Differentiable
	alpha float64
}

var _ Differentiable = (*Scale)(nil)

// NewScale builds alpha * f.
func NewScale(alpha float64, f Differentiable) (*Scale, error) {
	if f == nil {
		return nil, errors.New("costfunc: nil scaled cost")
	}
	return &Scale{f: f, alpha: alpha}, nil
}

// Dim returns the wrapped dimension.
func (s *Scale) Dim() int { return s.f.Dim() }

// Eval returns alpha * f(x).
func (s *Scale) Eval(x []float64) (float64, error) {
	v, err := s.f.Eval(x)
	if err != nil {
		return 0, err
	}
	return s.alpha * v, nil
}

// GradInto writes alpha * grad f(x) into dst; it accepts a dst that shares
// memory with x exactly when f does.
func (s *Scale) GradInto(dst, x []float64) error {
	if err := s.f.GradInto(dst, x); err != nil {
		return err
	}
	vecmath.ScaleInPlace(s.alpha, dst)
	return nil
}

// --- analysis helpers ---

// Hessianer is implemented by costs with a constant Hessian.
type Hessianer interface {
	Hessian() *matrix.Matrix
}

// Smoothness returns the Lipschitz-smoothness coefficient µ of a quadratic
// cost: the largest eigenvalue of its Hessian (Assumption 2).
func Smoothness(f Hessianer) (float64, error) {
	_, hi, err := matrix.EigenBounds(f.Hessian())
	if err != nil {
		return 0, fmt.Errorf("costfunc: smoothness: %w", err)
	}
	return hi, nil
}

// StrongConvexity returns the strong-convexity coefficient γ of a quadratic
// cost: the smallest eigenvalue of its Hessian (Assumption 3).
func StrongConvexity(f Hessianer) (float64, error) {
	lo, _, err := matrix.EigenBounds(f.Hessian())
	if err != nil {
		return 0, fmt.Errorf("costfunc: strong convexity: %w", err)
	}
	return lo, nil
}

// NumericGrad approximates the gradient of f at x with central differences
// of width h. Used by tests to validate analytic gradients.
func NumericGrad(f Function, x []float64, h float64) ([]float64, error) {
	if len(x) != f.Dim() {
		return nil, fmt.Errorf("costfunc: numeric grad at dim %d, want %d: %w", len(x), f.Dim(), ErrDimension)
	}
	if h <= 0 {
		return nil, fmt.Errorf("costfunc: step %v must be positive", h)
	}
	g := make([]float64, len(x))
	xp := vecmath.Clone(x)
	for i := range x {
		xp[i] = x[i] + h
		hiV, err := f.Eval(xp)
		if err != nil {
			return nil, err
		}
		xp[i] = x[i] - h
		loV, err := f.Eval(xp)
		if err != nil {
			return nil, err
		}
		xp[i] = x[i]
		g[i] = (hiV - loV) / (2 * h)
	}
	return g, nil
}
