package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/chaos"
	"byzopt/internal/dgd"
	"byzopt/internal/transport"
)

// runWithin runs srv and fails the test if Run has not returned within limit:
// a round clock that never closes Done leaves a request waiting for good.
func runWithin(t *testing.T, srv *Server, ctx context.Context, limit time.Duration) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := srv.Run(ctx)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(limit):
		t.Fatalf("Run has not returned after %v", limit)
		return nil, nil
	}
}

// Over the channel transport, an agent that crashes at round t leaves its
// request waiting until the round clock's deadline, RoundTimeout after the
// round went out; step S1 then eliminates it in round t.
func TestRoundClockEliminatesCrashedAgentAtTimeout(t *testing.T) {
	const timeout, crashAt, rounds = 100 * time.Millisecond, 3, 8
	inst, agents := paperAgents(t, nil)
	flaky := transport.NewFlaky(agents[2], crashAt)
	defer flaky.Release()
	agents[2] = flaky
	var recorded []time.Time
	srv, err := newServer(Config{Conns: channelConns(t, agents), RoundTimeout: timeout}, dgd.Config{
		F: 1, Filter: aggregate.CGE{}, Box: inst.Box, X0: inst.X0, Rounds: rounds,
		Observer: dgd.ObserverFunc(func(int, []float64, float64, float64) error {
			recorded = append(recorded, time.Now())
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWithin(t, srv, context.Background(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eliminated) != 1 || res.Eliminated[0] != 2 || res.FinalN != 5 || res.FinalF != 0 {
		t.Fatalf("eliminated %v, final n=%d f=%d; want [2], 5, 0", res.Eliminated, res.FinalN, res.FinalF)
	}
	if took := recorded[crashAt+1].Sub(recorded[crashAt]); took < timeout {
		t.Errorf("round %d took %v, shorter than its deadline %v", crashAt, took, timeout)
	}
}

// timedStub answers like towardOne while the round's Done is open and fails
// once it has closed, as a reply after the deadline would; at round `stall`
// it waits for Done. It records each round's Done channel and whether the
// round's reply went out.
type timedStub struct {
	stall   int
	mu      sync.Mutex
	dones   map[int]<-chan struct{}
	replied map[int]bool
}

func (s *timedStub) reply(ctx context.Context, round int, x []float64) ([]float64, error) {
	s.mu.Lock()
	s.dones[round] = ctx.Done()
	s.mu.Unlock()
	if round == s.stall {
		<-ctx.Done()
	}
	select {
	case <-ctx.Done():
		return nil, fmt.Errorf("round %d: %w", round, transport.ErrTimeout)
	default:
	}
	s.mu.Lock()
	s.replied[round] = true
	s.mu.Unlock()
	return towardOne(ctx, round, x)
}

// Under an enabled chaos plan a round whose deadline passed only mutes the
// silent agent: the next round's Done is a fresh, open channel, and the agent
// reports again in round t+1.
func TestRoundClockRenewsDoneAfterExpiry(t *testing.T) {
	const n, stall, rounds = 5, 3, 7
	stub := &timedStub{stall: stall, dones: map[int]<-chan struct{}{}, replied: map[int]bool{}}
	conns := make([]transport.AgentConn, n)
	for i := range conns {
		conns[i] = &stubConn{reply: towardOne}
	}
	conns[1] = &stubConn{reply: stub.reply}
	srv, err := newServer(Config{Conns: conns, RoundTimeout: 100 * time.Millisecond}, dgd.Config{
		F: 1, Filter: aggregate.CWTM{}, X0: make([]float64, 3), Rounds: rounds,
		Chaos: &chaos.Plan{Seed: 1, DupRate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWithin(t, srv, context.Background(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eliminated) != 0 || res.Faults.Omitted != 1 {
		t.Errorf("eliminated %v, %d omissions; want none and 1", res.Eliminated, res.Faults.Omitted)
	}
	if stub.dones[stall+1] == stub.dones[stall] {
		t.Errorf("round %d reused round %d's expired Done channel", stall+1, stall)
	}
	for round := range rounds {
		if want := round != stall; stub.replied[round] != want {
			t.Errorf("round %d: agent reported %v, want %v", round, stub.replied[round], want)
		}
	}
}

// Cancelling the run context mid-round closes the round clock's Done, so a
// request waiting on it returns at once and Run reports the cancellation,
// not a missed deadline, long before the round's hour-long deadline. A
// cancellation that lands between rounds leaves the next round's Done closed.
func TestRoundClockCancelledRunReturnsWithinRound(t *testing.T) {
	const n, at = 5, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conns := make([]transport.AgentConn, n)
	for i := range conns {
		conns[i] = &stubConn{reply: towardOne}
	}
	conns[1] = &stubConn{reply: func(rctx context.Context, round int, x []float64) ([]float64, error) {
		if round == at {
			cancel()
			<-rctx.Done()
			return nil, fmt.Errorf("round %d: %w", round, transport.ErrTimeout)
		}
		return towardOne(rctx, round, x)
	}}
	srv, err := NewServer(Config{Conns: conns, F: 1, Filter: aggregate.CWTM{}, X0: make([]float64, 3), Rounds: 10, RoundTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runWithin(t, srv, ctx, 10*time.Second)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), fmt.Sprintf("run cancelled at round %d", at)) {
		t.Fatalf("Run = %v, want run cancelled at round %d", err, at)
	}

	ctx, cancel = context.WithCancel(context.Background())
	c := newRoundClock(ctx, time.Hour)
	defer c.stop()
	c.start()
	cancel()
	<-c.Done()
	c.start()
	select {
	case <-c.Done():
	default:
		t.Fatal("the round after a cancellation has an open Done")
	}
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after the cancellation = %v, want Canceled", err)
	}
}

// A timer callback armed for an earlier round that runs after the next round
// has started — it fired, then waited for the lock — closes nothing: the
// deadline it was armed for is no longer the clock's. One that runs once the
// current deadline has passed closes Done with DeadlineExceeded.
func TestRoundClockLateTimerClosesNothing(t *testing.T) {
	c := newRoundClock(context.Background(), time.Hour)
	defer c.stop()
	c.start()
	c.start()
	done := c.Done()
	c.fire()
	select {
	case <-done:
		t.Fatal("a late timer callback closed the next round's Done")
	default:
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err after a late callback = %v, want nil", err)
	}
	c.mu.Lock()
	c.deadline = time.Now().Add(-time.Millisecond)
	c.mu.Unlock()
	c.fire()
	select {
	case <-done:
	default:
		t.Fatal("a callback after the deadline left Done open")
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline = %v, want DeadlineExceeded", err)
	}
}
