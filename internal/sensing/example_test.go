package sensing_test

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

// Secure state estimation under sensor attacks (the paper's Section 2.4).
// Eight sensors each observe two linear combinations of a 3-dimensional
// system state; two of them are compromised and report garbage. Because the
// system is 2f-sparse observable — equivalently, the induced costs satisfy
// 2f-redundancy — the Theorem-2 estimator recovers the exact state, and
// filtered gradient descent over the per-sensor costs recovers it
// iteratively.
func Example() {
	r := rand.New(rand.NewSource(42))
	state := []float64{1.5, -0.5, 2.0} // the hidden truth
	const n, f = 8, 2

	sensors := make([]sensing.Sensor, n)
	for i := range sensors {
		c, err := matrix.FromRows([][]float64{
			{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()},
			{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()},
		})
		if err != nil {
			log.Fatal(err)
		}
		y, err := c.MulVec(state)
		if err != nil {
			log.Fatal(err)
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
		log.Fatal(err)
	}
	observable, err := sys.SparseObservable(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %d sensors, state dim %d, f = %d compromised\n", n, sys.Dim(), f)
	fmt.Printf("2f-sparse observable (= 2f-redundancy): %v\n", observable)

	est, err := sys.Estimate(f)
	if err != nil {
		log.Fatal(err)
	}
	d, err := vecmath.Dist(est.X, state)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem-2 estimate: (%.4f, %.4f, %.4f), error < 1e-9: %t\n", est.X[0], est.X[1], est.X[2], d < 1e-9)
	fmt.Printf("selected sensors %v: the compromised pair excluded\n", est.Subset)

	// The filtered-DGD estimator: one agent per sensor cost ||y_i - C_i x||²,
	// CWTM as the filter.
	costs, err := sys.Costs()
	if err != nil {
		log.Fatal(err)
	}
	agents, err := dgd.HonestAgents(costs)
	if err != nil {
		log.Fatal(err)
	}
	box, err := vecmath.NewCube(sys.Dim(), 1e6)
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	d, err = vecmath.Dist(res.X, state)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filtered DGD (CWTM): (%.4f, %.4f, %.4f), error %.2e\n", res.X[0], res.X[1], res.X[2], d)
	// Output:
	// system: 8 sensors, state dim 3, f = 2 compromised
	// 2f-sparse observable (= 2f-redundancy): true
	// Theorem-2 estimate: (1.5000, -0.5000, 2.0000), error < 1e-9: true
	// selected sensors [0 1 2 3 4 5]: the compromised pair excluded
	// filtered DGD (CWTM): (1.4560, -0.4767, 1.9709), error 5.77e-02
}
