// Package transport provides the messaging layer for the server-based
// architecture of Figure 1: the trusted server holds one connection per
// agent and, each synchronous round, requests the gradient at the current
// estimate with a deadline.
//
// Two interchangeable implementations are provided:
//
//   - Channel: an in-process goroutine-per-agent transport built on
//     channels, used by tests and simulations (supports injected delays and
//     crashes for failure testing);
//   - TCP: a real socket transport (checksummed frames of raw float64
//     vectors, see frame.go and gradframe.go) used by the cmd/abft-server
//     and cmd/abft-agent binaries and cluster.ExampleServer.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"byzopt/internal/vecmath"
)

// ErrClosed is returned (wrapped) when using a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrTimeout is returned (wrapped) when an agent misses a round deadline.
// Under the paper's synchrony assumption a silent agent must be faulty
// (step S1), so servers eliminate agents whose requests end in ErrTimeout.
var ErrTimeout = errors.New("transport: agent deadline exceeded")

// AgentConn is the server's handle to a single agent.
type AgentConn interface {
	// RequestGradient sends the round request and awaits the reply.
	// Cancellation or deadline expiry of ctx yields ErrTimeout (wrapped).
	// One ctx may serve many requests, its deadline moved between them, and
	// its Done need not close after the reply: an implementation reads ctx
	// only while the request is in flight. The returned slice belongs to the
	// connection and is valid until the next RequestGradient on it: a caller
	// that keeps a report across rounds copies it.
	RequestGradient(ctx context.Context, round int, estimate []float64) ([]float64, error)
	// Close releases the connection; subsequent requests fail with
	// ErrClosed. Close is idempotent.
	Close() error
}

// GradientProducer computes an agent's report; it matches dgd.Agent so
// honest costs and Byzantine wrappers plug in directly. x is only valid
// during the call (the transport reuses it for the next round's estimate):
// implementations must not retain or mutate it.
type GradientProducer interface {
	Gradient(round int, x []float64) ([]float64, error)
}

// --- channel transport ---

// channelConn is an in-process AgentConn served by a dedicated goroutine.
type channelConn struct {
	requests  chan chanRequest
	done      chan struct{} // closed to stop the serving goroutine
	finished  chan struct{} // closed when the serving goroutine exits
	closeOnce sync.Once
}

type chanRequest struct {
	round    int
	estimate []float64
	reply    chan chanReply
}

type chanReply struct {
	gradient []float64
	err      error
}

// NewChannel starts a goroutine serving the given producer and returns the
// server-side connection. Close stops the serving goroutine; a producer
// blocked mid-call (an injected crash) keeps only its own worker goroutine
// until released.
func NewChannel(producer GradientProducer) (AgentConn, error) {
	if producer == nil {
		return nil, errors.New("transport: nil producer")
	}
	c := &channelConn{
		requests: make(chan chanRequest),
		done:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	go func() {
		defer close(c.finished)
		for {
			select {
			case <-c.done:
				return
			case req := <-c.requests:
				// Compute in a worker so a stuck producer (crash injection)
				// cannot wedge Close; the reply channel is buffered so the
				// worker never leaks once it finishes.
				result := make(chan chanReply, 1)
				go func(r chanRequest) {
					g, err := producer.Gradient(r.round, r.estimate)
					result <- chanReply{gradient: g, err: err}
				}(req)
				select {
				case rep := <-result:
					req.reply <- rep // buffered: never blocks
				case <-c.done:
					return
				}
			}
		}
	}()
	return c, nil
}

// RequestGradient implements AgentConn.
func (c *channelConn) RequestGradient(ctx context.Context, round int, estimate []float64) ([]float64, error) {
	req := chanRequest{
		round:    round,
		estimate: vecmath.Clone(estimate), // the agent goroutine must not alias server state
		reply:    make(chan chanReply, 1),
	}
	select {
	case c.requests <- req:
	case <-ctx.Done():
		return nil, fmt.Errorf("request round %d: %w", round, ErrTimeout)
	case <-c.done:
		return nil, fmt.Errorf("request round %d: %w", round, ErrClosed)
	}
	select {
	case rep := <-req.reply:
		if rep.err != nil {
			return nil, fmt.Errorf("agent at round %d: %w", round, rep.err)
		}
		return rep.gradient, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("reply round %d: %w", round, ErrTimeout)
	case <-c.done:
		return nil, fmt.Errorf("reply round %d: %w", round, ErrClosed)
	}
}

// Close implements AgentConn; it stops the serving goroutine and waits for
// it to exit so the transport never leaks its own goroutines.
func (c *channelConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	<-c.finished
	return nil
}

// --- failure injection ---

// Flaky wraps a producer with crash injection for cluster tests: every
// request at or after CrashAtRound blocks as if the agent had crashed or
// been partitioned, which the server must handle by elimination. Release
// unblocks any stuck calls (test cleanup).
type Flaky struct {
	inner        GradientProducer
	crashAtRound int
	block        chan struct{}
	releaseOnce  sync.Once
}

// NewFlaky builds the wrapper; crashAtRound < 0 disables crashing.
func NewFlaky(inner GradientProducer, crashAtRound int) *Flaky {
	return &Flaky{inner: inner, crashAtRound: crashAtRound, block: make(chan struct{})}
}

// Gradient implements GradientProducer.
func (f *Flaky) Gradient(round int, x []float64) ([]float64, error) {
	if f.crashAtRound >= 0 && round >= f.crashAtRound {
		<-f.block
		return nil, fmt.Errorf("crashed agent released: %w", ErrClosed)
	}
	return f.inner.Gradient(round, x)
}

// Release unblocks all pending and future crashed calls; idempotent.
func (f *Flaky) Release() {
	f.releaseOnce.Do(func() { close(f.block) })
}
