package cluster

import (
	"context"
	"fmt"
	"sync"
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

// joined serves a producer for one run that holds a lent dgd.Arena. Each
// call holds the run's read lock; Run takes the write lock on its way out,
// and a call that starts later — the transport leaves a request the server
// stopped waiting for running on a worker — returns without touching the
// agent. So Run returns only once nothing it started reads the agents and
// the wrappers the arena lent, which the next run over the arena rewrites.
type joined struct {
	inner transport.GradientProducer
	run   *runJoin
}

// runJoin is the lock and the flag the joined producers of one run share.
type runJoin struct {
	mu       sync.RWMutex
	returned bool
}

func (p *joined) Gradient(round int, x []float64) ([]float64, error) {
	p.run.mu.RLock()
	defer p.run.mu.RUnlock()
	if p.run.returned {
		return nil, fmt.Errorf("run has returned: %w", transport.ErrClosed)
	}
	return p.inner.Gradient(round, x)
}

// Run implements dgd.Backend. It owns the connection lifecycle: one channel
// transport per agent, opened for the run and closed before returning. A
// run with cfg.Arena set also waits, before it returns, for every agent call
// still in flight (see joined); one without keeps the transport's rule that
// a stuck agent never wedges Close.
func (b *Backend) Run(ctx context.Context, cfg dgd.Config) (*dgd.Result, error) {
	conns := make([]transport.AgentConn, 0, len(cfg.Agents))
	var run *runJoin
	var producers []joined
	if cfg.Arena != nil {
		run, producers = new(runJoin), make([]joined, len(cfg.Agents))
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
		if run != nil {
			run.mu.Lock()
			run.returned = true
			run.mu.Unlock()
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
		if run != nil {
			producers[i] = joined{inner: producer, run: run}
			producer = &producers[i]
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
