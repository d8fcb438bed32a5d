// Package core implements the paper's primary contribution: the
// (f, ε)-resilience / (2f, ε)-redundancy theory of Section 3 and the
// resilience bounds of Section 4.
//
// It provides:
//
//   - Problem, the quadratic instance the theory quantifies over, whose
//     subset minimisers are downdates of one summed Hessian and a Cholesky
//     solve;
//   - one sequential subset enumeration (Measure) that yields the
//     redundancy parameter ε by the procedure of Appendix J.2, the
//     exhaustive (f, 2ε)-resilient algorithm from the proof of Theorem 2,
//     and the strong-convexity curvature γ;
//   - the Theorem 4/5/6 resilience bounds D for the CGE and CWTM filters
//     and the Lemma 1 feasibility condition f < n/2.
package core

import (
	"errors"
	"fmt"
)

// ErrArgs is returned (wrapped) for structurally invalid arguments.
var ErrArgs = errors.New("core: invalid arguments")

// ForEachSubset calls visit with every k-subset of {0, ..., n-1} in
// lexicographic order. The slice passed to visit is reused between calls;
// visit must copy it if it needs to retain it. A non-nil error from visit
// stops the enumeration and is returned.
func ForEachSubset(n, k int, visit func(idx []int) error) error {
	if n < 0 || k < 0 || k > n {
		return fmt.Errorf("subsets of size %d from %d elements: %w", k, n, ErrArgs)
	}
	if k == 0 {
		return visit([]int{})
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if err := visit(idx); err != nil {
			return err
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Binomial returns C(n, k) as an int64, or an error on overflow or invalid
// arguments. Used to pre-size enumerations and report costs.
func Binomial(n, k int) (int64, error) {
	if n < 0 || k < 0 || k > n {
		return 0, fmt.Errorf("binomial(%d, %d): %w", n, k, ErrArgs)
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		// c = c * (n-i) / (i+1), guarding overflow.
		num := c * int64(n-i)
		if c != 0 && num/c != int64(n-i) {
			return 0, fmt.Errorf("binomial(%d, %d) overflows int64: %w", n, k, ErrArgs)
		}
		c = num / int64(i+1)
	}
	return c, nil
}
