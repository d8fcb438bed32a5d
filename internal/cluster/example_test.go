package cluster_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/cluster"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
	"byzopt/internal/transport"
	"byzopt/internal/vecmath"
)

// The full Figure-1 server-based deployment on real sockets, inside one
// process. A server listens on loopback and six agents dial in over TCP (in a
// real deployment each would be cmd/abft-agent on its own machine). Agent 0
// reverses its gradients, and honest agent 3 crashes at round 60 to show the
// step-S1 elimination rule: under synchrony a silent agent is provably
// faulty, so the server drops it and decrements both n and f.
func ExampleServer() {
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
	if agents[0], err = dgd.NewFaulty(agents[0], byzantine.GradientReverse{}); err != nil {
		log.Fatal(err)
	}
	crashed := transport.NewFlaky(agents[3], 60)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for id, a := range agents {
		var producer transport.GradientProducer = a
		if id == 3 {
			producer = crashed
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = transport.ServeAgent(ctx, l.Addr().String(), id, producer)
		}()
	}
	conns, err := transport.AcceptAgents(l, len(agents), 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("all agents connected; agent 0 is Byzantine, agent 3 will crash at round 60")

	// f = 2: one budgeted Byzantine agent plus one for the crash.
	srv, err := cluster.NewServer(cluster.Config{
		Conns:        conns,
		F:            2,
		Filter:       aggregate.CGE{},
		Box:          inst.Box,
		X0:           inst.X0,
		Rounds:       300,
		RoundTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := srv.Run(context.Background())
	for _, c := range conns {
		_ = c.Close()
	}
	cancel()
	crashed.Release() // unblock the crashed agent before waiting for it
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eliminated agents: %v (final n=%d, f=%d)\n", res.Eliminated, res.FinalN, res.FinalF)
	fmt.Printf("final estimate: (%.4f, %.4f)\n", res.X[0], res.X[1])
	dist, err := vecmath.Dist(res.X, inst.XH)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distance to x_H: %.4f\n", dist)
	// Output:
	// all agents connected; agent 0 is Byzantine, agent 3 will crash at round 60
	// eliminated agents: [3] (final n=5, f=1)
	// final estimate: (1.0774, 0.9716)
	// distance to x_H: 0.0110
}
