// Sensing: secure state estimation under sensor attacks (paper Section 2.4).
//
// Eight sensors each observe two linear combinations of a 3-dimensional
// system state; two of them are compromised and report garbage. Because the
// system is 2f-sparse observable — equivalently, the induced costs satisfy
// 2f-redundancy — the Theorem-2 estimator recovers the exact state, and the
// filtered-DGD estimator recovers it iteratively.
//
// Run with: go run ./examples/sensing
package main

import (
	"fmt"
	"log"
	"math/rand"

	"byzopt/internal/aggregate"
	"byzopt/internal/dgd"
	"byzopt/internal/matrix"
	"byzopt/internal/sensing"
	"byzopt/internal/vecmath"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	r := rand.New(rand.NewSource(42))
	state := []float64{1.5, -0.5, 2.0} // the hidden truth
	const n, f = 8, 2

	sensors := make([]sensing.Sensor, n)
	for i := range sensors {
		rows := [][]float64{
			{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()},
			{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()},
		}
		c, err := matrix.FromRows(rows)
		if err != nil {
			return err
		}
		y, err := c.MulVec(state)
		if err != nil {
			return err
		}
		if i >= n-f { // compromised sensors report garbage
			for k := range y {
				y[k] = 1e3 * r.NormFloat64()
			}
		}
		sensors[i] = sensing.Sensor{C: c, Y: y}
	}
	sys, err := sensing.NewSystem(sensors)
	if err != nil {
		return err
	}

	observable, err := sys.SparseObservable(f)
	if err != nil {
		return err
	}
	fmt.Printf("system: %d sensors, state dim 3, f = %d compromised\n", n, f)
	fmt.Printf("2f-sparse observable (= 2f-redundancy): %v\n", observable)

	est, err := sys.Estimate(f)
	if err != nil {
		return err
	}
	d, err := vecmath.Dist(est.X, state)
	if err != nil {
		return err
	}
	fmt.Printf("Theorem-2 estimate:  (%.4f, %.4f, %.4f), error %.2e\n", est.X[0], est.X[1], est.X[2], d)
	fmt.Printf("  (selected sensors %v — the compromised pair excluded)\n", est.Subset)

	// The filtered-DGD estimator: one agent per sensor cost ||y_i - C_i x||²,
	// CWTM as the filter.
	costs, err := sys.Costs()
	if err != nil {
		return err
	}
	agents, err := dgd.HonestAgents(costs)
	if err != nil {
		return err
	}
	box, err := vecmath.NewCube(sys.Dim(), 1e6)
	if err != nil {
		return err
	}
	res, err := dgd.Run(dgd.Config{
		Agents: agents,
		F:      f,
		Filter: aggregate.CWTM{},
		Steps:  dgd.Diminishing{C: 0.5, P: 1},
		Box:    box,
		X0:     vecmath.Zeros(sys.Dim()),
		Rounds: 800,
	})
	if err != nil {
		return err
	}
	dgdEst := res.X
	d2, err := vecmath.Dist(dgdEst, state)
	if err != nil {
		return err
	}
	fmt.Printf("filtered-DGD (CWTM): (%.4f, %.4f, %.4f), error %.2e\n", dgdEst[0], dgdEst[1], dgdEst[2], d2)
	return nil
}
