package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/dgd"
	"byzopt/internal/transport"
)

// replyFunc answers one request.
type replyFunc = func(ctx context.Context, round int, x []float64) ([]float64, error)

// stubConn answers in the caller's goroutine, so every goroutine a run has
// beyond the test's is the server's own; it counts the requests it receives
// and keeps the context of the last.
type stubConn struct {
	requests atomic.Int64
	last     atomic.Value // context.Context
	reply    replyFunc
}

func (c *stubConn) RequestGradient(ctx context.Context, round int, x []float64) ([]float64, error) {
	c.requests.Add(1)
	c.last.Store(ctx)
	return c.reply(ctx, round, x)
}

func (c *stubConn) Close() error { return nil }

// towardOne is an honest report: the gradient of |x - 1|^2 / 2.
func towardOne(_ context.Context, _ int, x []float64) ([]float64, error) {
	g := make([]float64, len(x))
	for i, v := range x {
		g[i] = v - 1
	}
	return g, nil
}

// silentFrom fails every request from round `from` on, as a missed deadline.
func silentFrom(from int) replyFunc {
	return func(ctx context.Context, round int, x []float64) ([]float64, error) {
		if round >= from {
			return nil, fmt.Errorf("round %d: %w", round, transport.ErrTimeout)
		}
		return towardOne(ctx, round, x)
	}
}

// serverWorkers counts the live goroutines a Server started for its
// connections.
func serverWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by byzopt/internal/cluster.(*Server).Run"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// noWorkersLeft waits briefly for workers that have signalled their exit to
// finish returning, then fails the test if any is left.
func noWorkersLeft(t *testing.T, what string) {
	t.Helper()
	for wait := time.Millisecond; serverWorkers() > 0; wait *= 2 {
		if wait > time.Second {
			t.Fatalf("%s: %d request goroutines outlive Server.Run", what, serverWorkers())
		}
		time.Sleep(wait)
	}
}

// Server.Run starts one request goroutine per connection for the whole run,
// and none of them outlives it: after success, step-S1 elimination,
// ErrTooManyFailures and a run context cancelled mid-round. Nor does its
// round clock: once Run returns, neither the clock's timer nor the run
// context's AfterFunc closes the clock's Done.
func TestServerRunLeavesNoGoroutine(t *testing.T) {
	const n, rounds, timeout = 5, 12, 100 * time.Millisecond
	for _, tc := range []struct {
		name    string
		f       int
		replies func(cancel context.CancelFunc) map[int]replyFunc
		want    error
	}{
		{name: "success", f: 1},
		{name: "elimination", f: 1, replies: func(context.CancelFunc) map[int]replyFunc {
			return map[int]replyFunc{2: silentFrom(4)}
		}},
		{name: "too many failures", f: 0, want: ErrTooManyFailures, replies: func(context.CancelFunc) map[int]replyFunc {
			return map[int]replyFunc{3: silentFrom(4)}
		}},
		{name: "cancelled mid-round", f: 1, want: context.Canceled, replies: func(cancel context.CancelFunc) map[int]replyFunc {
			return map[int]replyFunc{1: func(ctx context.Context, round int, x []float64) ([]float64, error) {
				if round < 4 {
					return towardOne(ctx, round, x)
				}
				cancel()
				<-ctx.Done()
				return nil, fmt.Errorf("round %d: %w", round, transport.ErrTimeout)
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var custom map[int]replyFunc
			if tc.replies != nil {
				custom = tc.replies(cancel)
			}
			conns := make([]transport.AgentConn, n)
			for i := range conns {
				c := &stubConn{reply: towardOne}
				if r, ok := custom[i]; ok {
					c.reply = r
				}
				conns[i] = c
			}
			during := -1
			srv, err := NewServer(Config{
				Conns: conns, F: tc.f, Filter: aggregate.CWTM{}, X0: make([]float64, 3), Rounds: rounds, RoundTimeout: timeout,
				Observer: dgd.ObserverFunc(func(t int, _ []float64, _, _ float64) error {
					if t == 1 {
						during = serverWorkers()
					}
					return nil
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Run(ctx); !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
				t.Fatalf("Run = %v, want %v", err, tc.want)
			}
			if during != n {
				t.Fatalf("%d request goroutines during the run, want one per connection (%d)", during, n)
			}
			noWorkersLeft(t, tc.name)
			if tc.want == context.Canceled {
				return // the cancellation closed the clock during the run
			}
			clock := conns[0].(*stubConn).last.Load().(context.Context)
			cancel()
			select {
			case <-clock.Done():
				t.Fatalf("the round clock closed after Run returned (%v): its timer or the run context's AfterFunc outlived the run", clock.Err())
			case <-time.After(2 * timeout):
			}
		})
	}
}

// An agent eliminated under step S1 is never asked again.
func TestEliminatedAgentGetsNoRequest(t *testing.T) {
	const n, rounds, from = 6, 15, 5
	conns := make([]transport.AgentConn, n)
	stubs := make([]*stubConn, n)
	for i := range conns {
		stubs[i] = &stubConn{reply: towardOne}
		conns[i] = stubs[i]
	}
	stubs[2].reply = silentFrom(from)
	srv, err := NewServer(Config{Conns: conns, F: 1, Filter: aggregate.CWTM{}, X0: make([]float64, 2), Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eliminated) != 1 || res.Eliminated[0] != 2 {
		t.Fatalf("eliminated %v, want [2]", res.Eliminated)
	}
	for i, c := range stubs {
		want := int64(rounds)
		if i == 2 {
			want = from + 1 // rounds 0..from; the miss at `from` eliminates it
		}
		if got := c.requests.Load(); got != want {
			t.Errorf("agent %d received %d requests, want %d", i, got, want)
		}
	}
}
