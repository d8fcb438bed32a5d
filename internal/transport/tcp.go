package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Hello is the first frame an agent sends after dialing the server.
type Hello struct {
	// AgentID is the agent's claimed index; the server uses it to order
	// connections only (filters are permutation-invariant, so a lying ID
	// gains nothing beyond displacing another agent, which the handshake
	// rejects as a duplicate).
	AgentID int
}

// frameKind discriminates server-to-agent frames.
type frameKind int

const (
	frameRequest frameKind = iota + 1
	frameShutdown
)

// frame is the single server-to-agent wire envelope, avoiding mixed gob
// types on one stream.
type frame struct {
	Kind    frameKind
	Request GradientRequest // set when Kind == frameRequest
}

// tcpConn is the server-side AgentConn over a TCP socket. Requests are
// serialized: the synchronous protocol issues one request per agent per
// round, so a single in-flight request is the steady state. Messages travel
// as checksummed, size-capped frames (see gradframe.go).
type tcpConn struct {
	mu        sync.Mutex
	conn      net.Conn
	agentID   int
	tap       WireTap // outgoing fault-injection tap, nil = passthrough
	closeOnce sync.Once
	closeErr  error
}

// AgentID returns the identifier the agent presented in its Hello frame.
func (c *tcpConn) AgentID() int { return c.agentID }

// RequestGradient implements AgentConn. The ctx deadline is mapped onto the
// socket's read/write deadlines, and a cancellation of ctx without any
// deadline interrupts blocked I/O by poisoning the socket deadline (only
// while the request is in flight — never a later request's); both surface
// as ErrTimeout (wrapping ctx.Err() on cancellation) so the
// server's elimination logic treats network silence like any other missed
// round (paper step S1).
func (c *tcpConn) RequestGradient(ctx context.Context, round int, estimate []float64) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, fmt.Errorf("tcp request round %d: %w", round, ErrClosed)
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Time{} // no deadline
	}
	conn := c.conn
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, fmt.Errorf("tcp set deadline: %w", err)
	}
	// SetDeadline only covers ctx's deadline; a ctx cancelled without one
	// would otherwise leave the encode/decode below blocked forever. On
	// cancellation the watcher yanks the deadline to now, which unblocks the
	// I/O with a timeout error. It must be finished, or disarmed, before this
	// call returns: the caller cancels ctx right after a reply, and a watcher
	// running late would poison the deadline the next request has just set.
	// The lock orders the two — a watcher that is past it completes before
	// the deferred disarm gets it, one that is not finds itself disarmed.
	var watch sync.Mutex
	disarmed := false
	stop := context.AfterFunc(ctx, func() {
		watch.Lock()
		defer watch.Unlock()
		if !disarmed {
			_ = conn.SetDeadline(time.Now())
		}
	})
	defer func() {
		stop()
		watch.Lock()
		disarmed = true
		watch.Unlock()
	}()
	if err := writeGradFrame(conn, round, frame{Kind: frameRequest, Request: GradientRequest{Round: round, Estimate: estimate}}, c.tap); err != nil {
		return nil, wrapReqErr(ctx, "tcp send round", round, err)
	}
	var reply GradientReply
	if err := readGradFrame(conn, &reply); err != nil {
		return nil, wrapReqErr(ctx, "tcp receive round", round, err)
	}
	if reply.Err != "" {
		return nil, fmt.Errorf("tcp agent error at round %d: %s", round, reply.Err)
	}
	if reply.Round != round {
		return nil, fmt.Errorf("tcp reply for round %d while expecting %d: %w", reply.Round, round, ErrTimeout)
	}
	return reply.Gradient, nil
}

// Close implements AgentConn: it sends a best-effort Shutdown frame and
// closes the socket.
func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.conn == nil {
			return
		}
		_ = c.conn.SetDeadline(time.Now().Add(100 * time.Millisecond))
		_ = writeGradFrame(c.conn, -1, frame{Kind: frameShutdown}, nil) // best effort
		c.closeErr = c.conn.Close()
		c.conn = nil
	})
	return c.closeErr
}

// wrapReqErr classifies a request-path I/O failure, attributing it to the
// request context when that is what interrupted the connection: a cancelled
// ctx surfaces as ErrTimeout wrapping ctx.Err(), so callers can match either.
func wrapReqErr(ctx context.Context, op string, round int, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("%s %d: %w: %w", op, round, ErrTimeout, cerr)
	}
	return wrapNetErr(op, round, err)
}

func wrapNetErr(op string, round int, err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("%s %d: %w", op, round, ErrTimeout)
	}
	if errors.Is(err, ErrCorruptFrame) || errors.Is(err, ErrFrameTooLarge) {
		// Frame-level damage keeps its typed identity: the caller decides
		// whether a corrupted delivery is an elimination or a degraded
		// per-round omission, and either way must not treat the payload as
		// a dead connection.
		return fmt.Errorf("%s %d: %w", op, round, err)
	}
	return fmt.Errorf("%s %d: %w: %v", op, round, ErrClosed, err)
}

// AcceptAgents listens for exactly n agent connections on l, reads each
// Hello frame, and returns the connections ordered by the agents' claimed
// IDs (duplicates and out-of-range IDs are rejected). It is the server half
// of the connection handshake used by cmd/abft-server.
func AcceptAgents(l net.Listener, n int, timeout time.Duration) ([]AgentConn, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: need a positive agent count, got %d", n)
	}
	deadline := time.Now().Add(timeout)
	conns := make([]AgentConn, n)
	fail := func(err error) ([]AgentConn, error) {
		closeAll(conns)
		return nil, err
	}
	for i := 0; i < n; i++ {
		if d, ok := l.(*net.TCPListener); ok {
			if err := d.SetDeadline(deadline); err != nil {
				return fail(fmt.Errorf("transport: listener deadline: %w", err))
			}
		}
		raw, err := l.Accept()
		if err != nil {
			return fail(fmt.Errorf("transport: accept %d/%d: %w", i+1, n, err))
		}
		if err := raw.SetReadDeadline(deadline); err != nil {
			_ = raw.Close()
			return fail(fmt.Errorf("transport: handshake deadline: %w", err))
		}
		var hello Hello
		if err := readGradFrame(raw, &hello); err != nil {
			_ = raw.Close()
			return fail(fmt.Errorf("transport: hello from connection %d: %w", i, err))
		}
		id := hello.AgentID
		if id < 0 || id >= n || conns[id] != nil {
			_ = raw.Close()
			return fail(fmt.Errorf("transport: bad or duplicate agent id %d", id))
		}
		conns[id] = &tcpConn{conn: raw, agentID: id}
	}
	return conns, nil
}

func closeAll(conns []AgentConn) {
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// ServeAgent is the agent half of the TCP protocol: it dials the server,
// introduces itself, then answers gradient requests until it receives a
// Shutdown frame, the context is canceled, or the connection drops.
func ServeAgent(ctx context.Context, addr string, agentID int, producer GradientProducer) error {
	return ServeAgentTap(ctx, addr, agentID, producer, nil)
}

// ServeAgentTap is ServeAgent with a fault-injection tap on the agent's
// outgoing frames: tap runs after each reply's checksum is computed, so
// damage it applies is in-flight corruption the server's CRC check must
// catch. A nil tap is plain ServeAgent.
func ServeAgentTap(ctx context.Context, addr string, agentID int, producer GradientProducer, tap WireTap) error {
	if producer == nil {
		return errors.New("transport: nil producer")
	}
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	defer func() { _ = raw.Close() }()

	// Tear the connection down if the context is canceled so the decode
	// loop unblocks; stop the watcher on return.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			_ = raw.Close()
		case <-watchDone:
		}
	}()

	if err := writeGradFrame(raw, -1, Hello{AgentID: agentID}, nil); err != nil {
		return fmt.Errorf("transport: hello: %w", err)
	}
	for {
		var f frame
		if err := readGradFrame(raw, &f); err != nil {
			if ctx.Err() != nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // canceled or server gone: orderly end
			}
			return fmt.Errorf("transport: receive: %w", err)
		}
		switch f.Kind {
		case frameShutdown:
			return nil
		case frameRequest:
			req := f.Request
			g, gerr := producer.Gradient(req.Round, req.Estimate)
			reply := GradientReply{Round: req.Round, Gradient: g}
			if gerr != nil {
				reply.Err = gerr.Error()
				reply.Gradient = nil
			}
			if err := writeGradFrame(raw, req.Round, reply, tap); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return fmt.Errorf("transport: reply round %d: %w", req.Round, err)
			}
		default:
			return fmt.Errorf("transport: unknown frame kind %d", f.Kind)
		}
	}
}
