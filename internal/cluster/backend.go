package cluster

import (
	"context"
	"fmt"
	"time"

	"byzopt/internal/dgd"
	"byzopt/internal/transport"
)

// Backend executes dgd configurations over the cluster/transport stack: each
// agent is served by its own in-process channel-transport connection and a
// Server drives the synchronous Section-4.1 protocol against them. It
// implements dgd.Backend, making the distributed substrate a drop-in for the
// in-process engine — sweep.Spec.Backend accepts it directly, which turns
// the sweep engine into a cluster load generator.
//
// Because the server aggregates replies in agent-index order and each
// connection serves Faulty agents index-aware (dgd.Faulty), a Backend run
// reproduces the in-process trajectory exactly for fault-free configs and
// for non-omniscient Byzantine behaviors (the parity the sweep tests pin).
// Two engine capabilities do not cross the transport: omniscient Byzantine
// behaviors degrade to their non-omniscient path (an agent behind a
// connection cannot observe the other agents' reports).
type Backend struct {
	// RoundTimeout bounds each round's gradient collection; zero means the
	// server's default.
	RoundTimeout time.Duration
}

var _ dgd.Backend = (*Backend)(nil)

// faultyProducer binds a Byzantine agent's index into its transport
// connection: reports go through FaultyGradient with the real index and a
// nil honest set (an agent behind a connection has no visibility), so
// index-dependent behaviors match the in-process engine instead of
// collapsing onto index 0, and omniscient behaviors degrade per the Faulty
// contract.
type faultyProducer struct {
	inner dgd.Faulty
	agent int
}

func (p faultyProducer) Gradient(round int, x []float64) ([]float64, error) {
	return p.inner.FaultyGradient(round, p.agent, x, nil)
}

// Run implements dgd.Backend. It owns the connection lifecycle: one channel
// transport per agent, opened for the run and closed before returning.
func (b *Backend) Run(ctx context.Context, cfg dgd.Config) (*dgd.Result, error) {
	conns := make([]transport.AgentConn, 0, len(cfg.Agents))
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i, a := range cfg.Agents {
		if a == nil {
			return nil, fmt.Errorf("nil agent %d: %w", i, ErrConfig)
		}
		var producer transport.GradientProducer = a
		if fa, ok := a.(dgd.Faulty); ok {
			// Byzantine behaviors mix the agent id into their streams;
			// serving index-aware keeps per-agent randomness identical to
			// the in-process engine.
			producer = faultyProducer{inner: fa, agent: i}
		}
		c, err := transport.NewChannel(producer)
		if err != nil {
			return nil, fmt.Errorf("agent %d transport: %w", i, err)
		}
		conns = append(conns, c)
	}
	// cfg goes to the round kernel as it is. The channel transport never
	// fails, so degradation only ever triggers on injected faults — chaos
	// parity with the in-process engine holds bit for bit.
	srv, err := newServer(Config{Conns: conns, RoundTimeout: b.RoundTimeout}, cfg)
	if err != nil {
		return nil, err
	}
	res, err := srv.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &dgd.Result{X: res.X, Rounds: cfg.Rounds, Trace: res.Trace}, nil
}
