package core

import (
	"fmt"
)

// ExhaustiveResult is the output of the Theorem-2 constructive algorithm.
type ExhaustiveResult struct {
	// X is the chosen output point x_S.
	X []float64
	// Subset is the winning (n-f)-subset S of equation (12).
	Subset []int
	// Score is r_S = max over (n-2f)-subsets T̂ of S of dist(x_S, argmin Q_T̂)
	// (equation (11)). Under (2f, ε)-redundancy, Score <= ε.
	Score float64
}

// ExhaustiveResilient runs the three-step algorithm from the proof of
// Theorem 2 on the full set of n reported cost functions (honest agents
// report their true costs; Byzantine agents may have reported anything —
// the problem instance already reflects whatever the server received):
//
//  1. For each subset T with |T| = n-f, compute x_T = argmin sum_{i in T} Q_i.
//  2. For each T̂ ⊂ T with |T̂| = n-2f, compute r_{T,T̂} = dist(x_T, argmin Q_T̂),
//     and r_T = max over T̂.
//  3. Output x_S for S minimizing r_T.
//
// Under (2f, ε)-redundancy of the honest costs, the output is within 2ε of
// every (n-f)-subset of honest agents' aggregate minimizer — the paper's
// (f, 2ε)-resilience guarantee. It is the Exhaustive part of Measure in
// ExactSize mode, run without Measure's requirement that every aggregate
// be minimisable: an outer T without a minimiser cannot win, and an inner
// T̂ without one puts r_T at +Inf.
func ExhaustiveResilient(p *Problem, f int) (*ExhaustiveResult, error) {
	if f == 0 {
		return nil, fmt.Errorf("the exhaustive algorithm needs f > 0: %w", ErrArgs)
	}
	m, err := measure(p, f, ExactSize)
	if err != nil {
		return nil, err
	}
	if m.Exhaustive == nil {
		return nil, fmt.Errorf("no feasible (n-f)-subset could be minimized: %w", ErrArgs)
	}
	return m.Exhaustive, nil
}

// ExhaustiveCost returns the number of subset minimizations the algorithm
// performs as the proof of Theorem 2 states it, one per (T, T̂) pair and one
// per T: C(n, n-f)·(1 + C(n-f, n-2f)). Measure solves C(n, f) + Σ C(n, k),
// k = f+1..2f, sharing each minimiser among its pairs (k = 2f in ExactSize).
func ExhaustiveCost(n, f int) (int64, error) {
	co, err := Binomial(n, n-f)
	if err != nil {
		return 0, err
	}
	ci, err := Binomial(n-f, n-2*f)
	if err != nil {
		return 0, err
	}
	total := co * (1 + ci)
	if ci != 0 && (total-co)/ci != co {
		return 0, fmt.Errorf("exhaustive cost overflows int64: %w", ErrArgs)
	}
	return total, nil
}
