package p2p_test

import (
	"context"
	"fmt"
	"log"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
	"byzopt/internal/p2p"
)

// The paper's Section 1.4 observes that the server-based algorithm can be
// simulated on a complete peer-to-peer network when f < n/3, using a
// Byzantine broadcast primitive. This runs that construction on the paper's
// regression instance: six peers, one of which both injects a reversed
// gradient and equivocates while relaying other peers' gradients, attached
// with Equivocating. The EIG broadcast forces agreement anyway, every honest
// peer applies the CGE filter to the same agreed set, and the honest
// estimate converges.
func ExampleBackend() {
	inst, err := linreg.Paper()
	if err != nil {
		log.Fatal(err)
	}
	costs, err := inst.Costs()
	if err != nil {
		log.Fatal(err)
	}
	agents, err := dgd.HonestAgents(costs)
	if err != nil {
		log.Fatal(err)
	}

	// Peer 0 is fully Byzantine: wrong gradient and lying relays.
	fa, err := dgd.NewFaulty(agents[0], byzantine.GradientReverse{})
	if err != nil {
		log.Fatal(err)
	}
	if agents[0], err = p2p.Equivocating(fa, p2p.SeededLiar{Seed: 3}); err != nil {
		log.Fatal(err)
	}

	cost, err := p2p.MessageCost(linreg.N, linreg.F)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n = %d peers, f = %d, EIG broadcast tree: at most %d nodes per broadcast\n",
		linreg.N, linreg.F, cost)

	res, err := p2p.Backend{}.Run(context.Background(), dgd.Config{
		Agents:    agents,
		F:         linreg.F,
		Filter:    aggregate.CGE{},
		Box:       inst.Box,
		X0:        inst.X0,
		Rounds:    200,
		Reference: inst.XH,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("honest peers' common estimate: (%.4f, %.4f)\n", res.X[0], res.X[1])
	fmt.Printf("distance to x_H: %.2e\n", res.Trace.Dist[len(res.Trace.Dist)-1])
	fmt.Println("max estimate spread across honest peers: 0 (agreement held; the backend fails a run otherwise)")
	// Output:
	// n = 6 peers, f = 1, EIG broadcast tree: at most 6 nodes per broadcast
	// honest peers' common estimate: (1.0633, 0.9975)
	// distance to x_H: 2.10e-02
	// max estimate spread across honest peers: 0 (agreement held; the backend fails a run otherwise)
}
