package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"byzopt/internal/vecmath"
)

// echoProducer reports a fixed multiple of the estimate.
type echoProducer struct {
	scale float64
}

func (e *echoProducer) Gradient(round int, x []float64) ([]float64, error) {
	return vecmath.Scale(e.scale, x), nil
}

// failingProducer always errors.
type failingProducer struct{}

func (failingProducer) Gradient(round int, x []float64) ([]float64, error) {
	return nil, errors.New("boom")
}

// mutatingProducer scribbles on the estimate it receives.
type mutatingProducer struct{}

func (mutatingProducer) Gradient(round int, x []float64) ([]float64, error) {
	for i := range x {
		x[i] = -999
	}
	return vecmath.Clone(x), nil
}

func TestChannelRoundTrip(t *testing.T) {
	conn, err := NewChannel(&echoProducer{scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := conn.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	g, err := conn.RequestGradient(context.Background(), 0, []float64{1, -2})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(g, []float64{2, -4}, 0) {
		t.Fatalf("gradient = %v", g)
	}
}

func TestChannelProducerErrorPropagates(t *testing.T) {
	conn, err := NewChannel(failingProducer{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.RequestGradient(context.Background(), 0, []float64{1}); err == nil {
		t.Fatal("want error from producer")
	}
}

func TestChannelEstimateIsCopied(t *testing.T) {
	conn, err := NewChannel(mutatingProducer{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	estimate := []float64{1, 2, 3}
	if _, err := conn.RequestGradient(context.Background(), 0, estimate); err != nil {
		t.Fatal(err)
	}
	if !approxEqual(estimate, []float64{1, 2, 3}, 0) {
		t.Errorf("server-side estimate mutated: %v", estimate)
	}
}

func TestChannelCloseIdempotentAndRejectsRequests(t *testing.T) {
	conn, err := NewChannel(&echoProducer{scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := conn.RequestGradient(context.Background(), 0, []float64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("request after close: %v", err)
	}
}

func TestChannelTimeoutOnCrashedProducer(t *testing.T) {
	flaky := NewFlaky(&echoProducer{scale: 1}, 0) // crashes immediately
	defer flaky.Release()
	conn, err := NewChannel(flaky)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = conn.RequestGradient(ctx, 0, []float64{1})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout took far longer than deadline")
	}
}

func TestFlakyHealthyBeforeCrashRound(t *testing.T) {
	flaky := NewFlaky(&echoProducer{scale: 3}, 5)
	defer flaky.Release()
	g, err := flaky.Gradient(4, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 3 {
		t.Fatalf("gradient = %v", g)
	}
}

func TestFlakyReleaseUnblocks(t *testing.T) {
	flaky := NewFlaky(&echoProducer{scale: 1}, 0)
	done := make(chan error, 1)
	go func() {
		_, err := flaky.Gradient(0, []float64{1})
		done <- err
	}()
	flaky.Release()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("released gradient err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Release did not unblock the call")
	}
}

func TestNewChannelNilProducer(t *testing.T) {
	if _, err := NewChannel(nil); err == nil {
		t.Fatal("nil producer should error")
	}
}

// --- TCP ---

func startAgents(t *testing.T, addr string, n int, makeProducer func(id int) GradientProducer) (*sync.WaitGroup, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := ServeAgent(ctx, addr, id, makeProducer(id)); err != nil {
				t.Errorf("agent %d: %v", id, err)
			}
		}(id)
	}
	return &wg, cancel
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	const n = 3
	wg, cancel := startAgents(t, l.Addr().String(), n, func(id int) GradientProducer {
		return &echoProducer{scale: float64(id + 1)}
	})
	defer func() {
		cancel()
		wg.Wait()
	}()

	conns, err := AcceptAgents(l, n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()

	// Two rounds against every agent; agent id scales by id+1.
	for round := 0; round < 2; round++ {
		for id, conn := range conns {
			ctx, cancelReq := context.WithTimeout(context.Background(), 2*time.Second)
			g, err := conn.RequestGradient(ctx, round, []float64{1, 1})
			cancelReq()
			if err != nil {
				t.Fatalf("agent %d round %d: %v", id, round, err)
			}
			want := float64(id + 1)
			if !approxEqual(g, []float64{want, want}, 0) {
				t.Fatalf("agent %d gradient = %v", id, g)
			}
		}
	}
}

func TestTCPAgentErrorPropagates(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	wg, cancel := startAgents(t, l.Addr().String(), 1, func(int) GradientProducer {
		return failingProducer{}
	})
	defer func() {
		cancel()
		wg.Wait()
	}()

	conns, err := AcceptAgents(l, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conns[0].Close() }()

	ctx, cancelReq := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelReq()
	if _, err := conns[0].RequestGradient(ctx, 0, []float64{1}); err == nil {
		t.Fatal("want agent error")
	}
}

func TestTCPDuplicateAgentIDRejected(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			// Both agents claim id 0; ServeAgent exits when the handshake
			// fails server-side and the socket closes.
			errs <- ServeAgent(ctx, l.Addr().String(), 0, &echoProducer{scale: 1})
		}()
	}
	if _, err := AcceptAgents(l, 2, 5*time.Second); err == nil {
		t.Fatal("duplicate ids should fail the handshake")
	}
	cancel()
	<-errs
	<-errs
}

func TestTCPAcceptTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	// Nobody dials: accept must give up at the deadline.
	start := time.Now()
	if _, err := AcceptAgents(l, 1, 200*time.Millisecond); err == nil {
		t.Fatal("want accept timeout")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("accept timeout overshot")
	}
}

func TestTCPShutdownEndsAgent(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	agentDone := make(chan error, 1)
	go func() {
		agentDone <- ServeAgent(context.Background(), l.Addr().String(), 0, &echoProducer{scale: 1})
	}()
	conns, err := AcceptAgents(l, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := conns[0].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-agentDone:
		if err != nil {
			t.Errorf("agent exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not exit on shutdown")
	}
}

// TestTCPCancelWithoutDeadlineUnblocksRequest is the regression test for
// the hang where RequestGradient mapped only the ctx *deadline* onto the
// socket: a ctx cancelled without any deadline left the read blocked
// forever. Cancellation must interrupt the blocked read promptly and
// surface as ErrTimeout wrapping ctx.Err().
func TestTCPCancelWithoutDeadlineUnblocksRequest(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	flaky := NewFlaky(&echoProducer{scale: 1}, 0) // never replies
	wg, cancelAgents := startAgents(t, l.Addr().String(), 1, func(int) GradientProducer {
		return flaky
	})
	defer func() {
		// Unblock the producer before waiting: ServeAgent computes
		// synchronously, so the agent goroutine sits inside Gradient until
		// released.
		cancelAgents()
		flaky.Release()
		wg.Wait()
	}()

	conns, err := AcceptAgents(l, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conns[0].Close() }()

	ctx, cancel := context.WithCancel(context.Background()) // note: no deadline
	time.AfterFunc(50*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() {
		_, err := conns[0].RequestGradient(ctx, 0, []float64{1})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("want ErrTimeout, got %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("want wrapped context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request never returned: read still blocked")
	}
}

// Regression: the cancellation watcher of one request could run after the
// request had returned — the server cancels each round's context as soon as
// the replies are in — and set the socket deadline to "now" after the next
// round had set its own, so a healthy agent read as silent. The loop is the
// server's round shape: fan out under one context, collect, cancel, go on.
func TestTCPCancelAfterReplyNeverPoisonsNextRound(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	const n, rounds = 4, 1500
	wg, cancelAgents := startAgents(t, l.Addr().String(), n, func(int) GradientProducer {
		return &echoProducer{scale: 1}
	})
	defer func() {
		cancelAgents()
		wg.Wait()
	}()
	conns, err := AcceptAgents(l, n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(conns)

	errs := make(chan error, n)
	for round := 0; round < rounds; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for _, c := range conns {
			go func(c AgentConn) {
				_, err := c.RequestGradient(ctx, round, []float64{1, 2})
				errs <- err
			}(c)
		}
		for range conns {
			if err := <-errs; err != nil {
				t.Errorf("round %d: healthy agent failed: %v", round, err)
			}
		}
		cancel()
		if t.Failed() {
			return
		}
	}
}

// A request whose context is cancelled before it starts hands the watcher a
// Done channel that has already fired: the watcher poisons the deadline at
// once, so the read of a reply that never comes returns promptly.
func TestTCPAlreadyCancelledRequestReturnsPromptly(t *testing.T) {
	flaky := NewFlaky(&echoProducer{scale: 1}, 0) // never replies
	conn := serveOne(t, flaky, nil)
	t.Cleanup(flaky.Release) // runs first: the agent sits inside Gradient

	ctx, cancel := context.WithCancel(context.Background()) // no deadline
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := conn.RequestGradient(ctx, 0, []float64{1})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
			t.Errorf("want ErrTimeout wrapping context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a request under a cancelled context never returned")
	}
}

// A context that can never be cancelled has no Done channel, and its request
// hands the watcher nothing: with the connection's channels swapped for
// buffered ones the watcher does not read, nothing lands in them.
func TestTCPUncancellableRequestArmsNothing(t *testing.T) {
	conn := serveOne(t, &echoProducer{scale: 2}, nil)
	c := conn.(*tcpConn)
	arm, disarm := c.arm, c.disarm
	c.arm, c.disarm = make(chan (<-chan struct{}), 1), make(chan struct{}, 1)
	g, err := conn.RequestGradient(context.Background(), 0, []float64{1.5})
	if err != nil || len(g) != 1 || g[0] != 3 {
		t.Fatalf("round trip: %v %v", g, err)
	}
	if len(c.arm) != 0 || len(c.disarm) != 0 {
		t.Errorf("a request without a Done channel sent the watcher %d arms and %d disarms", len(c.arm), len(c.disarm))
	}
	c.arm, c.disarm = arm, disarm
}

// watchers counts the live cancellation watchers of tcpConns.
func watchers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by byzopt/internal/transport.newTCPConn"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settleWatchers waits briefly for stopped watchers to finish returning, then
// fails the test if more than want are left.
func settleWatchers(t *testing.T, what string, want int) {
	t.Helper()
	for wait := time.Millisecond; watchers() > want; wait *= 2 {
		if wait > time.Second {
			t.Fatalf("%s: %d watchers left, want %d", what, watchers(), want)
		}
		time.Sleep(wait)
	}
}

// Each connection AcceptAgents returns has one watcher, and closing the
// connection stops it; so does AcceptAgents' own cleanup when a later hello
// fails the handshake. Every other test closes its connections too, so none
// is left from them either.
func TestTCPCloseStopsEveryWatcher(t *testing.T) {
	settleWatchers(t, "before the test", 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	const n = 3
	wg, cancel := startAgents(t, l.Addr().String(), n, func(int) GradientProducer {
		return &echoProducer{scale: 1}
	})
	defer func() {
		cancel()
		wg.Wait()
	}()
	conns, err := AcceptAgents(l, n, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := watchers(); got != n {
		t.Fatalf("%d watchers for %d connections", got, n)
	}
	closeAll(conns)
	settleWatchers(t, "after Close", 0)

	// Two good hellos, then a duplicate id: the handshake fails after it
	// has built a connection or two, and closes them itself.
	for _, id := range []int{0, 1, 0} {
		raw, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = raw.Close() }()
		if _, err := raw.Write(gradWire(t, kindHello, helloWord(id), nil, "")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := AcceptAgents(l, n, 5*time.Second); err == nil {
		t.Fatal("a duplicate id passed the handshake")
	}
	settleWatchers(t, "after a failed handshake", 0)
}

func TestTCPBadAgentCount(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if _, err := AcceptAgents(l, 0, time.Second); err == nil {
		t.Fatal("n=0 should error")
	}
}

func TestServeAgentNilProducer(t *testing.T) {
	if err := ServeAgent(context.Background(), "127.0.0.1:1", 0, nil); err == nil {
		t.Fatal("nil producer should error")
	}
}

func TestServeAgentDialFailure(t *testing.T) {
	// A port with no listener: dial must fail quickly and cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := ServeAgent(ctx, "127.0.0.1:1", 0, &echoProducer{scale: 1})
	if err == nil {
		t.Fatal("want dial error")
	}
	if !errors.Is(err, ErrClosed) && err.Error() == "" {
		t.Fatalf("unexpected: %v", err)
	}
}

func TestWrapNetErrTimeout(t *testing.T) {
	timeoutErr := &net.OpError{Op: "read", Err: &timeoutError{}}
	if err := wrapNetErr("op", 1, timeoutErr); !errors.Is(err, ErrTimeout) {
		t.Errorf("timeout classification: %v", err)
	}
	if err := wrapNetErr("op", 1, fmt.Errorf("plain")); !errors.Is(err, ErrClosed) {
		t.Errorf("non-timeout classification: %v", err)
	}
}

// timeoutError implements net.Error with Timeout() true.
type timeoutError struct{}

func (timeoutError) Error() string   { return "timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// approxEqual reports whether a and b have the same length and agree entry
// by entry within absolute tolerance tol.
func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
