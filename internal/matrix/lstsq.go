package matrix

import (
	"fmt"
	"math"
)

// LeastSquares solves min_x ||A x - b||² for a full-column-rank A using
// Householder QR, which is numerically preferable to forming the normal
// equations. It returns ErrSingular (wrapped) when A is column rank
// deficient.
//
// This is the solver behind every subset minimizer x_S = argmin Q_S(x) in
// the Appendix-J regression instance and in the redundancy measurement.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	if len(b) != m {
		return nil, fmt.Errorf("matrix: lstsq rhs length %d, want %d: %w", len(b), m, ErrShape)
	}
	if m < n {
		return nil, fmt.Errorf("matrix: lstsq underdetermined %dx%d: %w", m, n, ErrShape)
	}
	r := a.Clone()
	qtb := make([]float64, m)
	copy(qtb, b)

	scale := r.FrobeniusNorm()
	if scale == 0 {
		return nil, fmt.Errorf("matrix: zero design matrix: %w", ErrSingular)
	}
	tol := scale * 1e-13

	// Householder triangularization, applying each reflector to qtb as we go.
	v := make([]float64, m)
	for k := 0; k < n; k++ {
		// Column norm below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm += r.At(i, k) * r.At(i, k)
		}
		norm = math.Sqrt(norm)
		if norm < tol {
			return nil, fmt.Errorf("matrix: column %d rank deficient: %w", k, ErrSingular)
		}
		alpha := -math.Copysign(norm, r.At(k, k))
		// Reflector v = x - alpha*e_k, normalized implicitly via vTv.
		var vtv float64
		for i := k; i < m; i++ {
			v[i] = r.At(i, k)
			if i == k {
				v[i] -= alpha
			}
			vtv += v[i] * v[i]
		}
		if vtv == 0 {
			continue // column already triangular
		}
		// Apply H = I - 2 v vᵀ / vᵀv to the remaining columns of R.
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i] * r.At(i, j)
			}
			f := 2 * dot / vtv
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)-f*v[i])
			}
		}
		// Apply H to the right-hand side.
		var dot float64
		for i := k; i < m; i++ {
			dot += v[i] * qtb[i]
		}
		f := 2 * dot / vtv
		for i := k; i < m; i++ {
			qtb[i] -= f * v[i]
		}
	}

	// Back substitution on the n x n upper-triangular block.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		diag := r.At(i, i)
		if math.Abs(diag) < tol {
			return nil, fmt.Errorf("matrix: zero diagonal %d in R: %w", i, ErrSingular)
		}
		x[i] = s / diag
	}
	return x, nil
}

// Residual returns b - A x, the least-squares residual vector.
func Residual(a *Matrix, x, b []float64) ([]float64, error) {
	ax, err := a.MulVec(x)
	if err != nil {
		return nil, err
	}
	if len(b) != len(ax) {
		return nil, fmt.Errorf("matrix: residual rhs length %d, want %d: %w", len(b), len(ax), ErrShape)
	}
	out := make([]float64, len(b))
	for i := range b {
		out[i] = b[i] - ax[i]
	}
	return out, nil
}
