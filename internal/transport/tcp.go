package transport

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// tcpConn is the server-side AgentConn over a TCP socket. Requests are
// serialized: the synchronous protocol issues one request per agent per
// round, so a single in-flight request is the steady state. Messages travel
// as checksummed, size-capped frames (frame.go, gradframe.go) built in and
// decoded from buffers the connection keeps across rounds. Its one
// cancellation watcher (watchCancel) runs from newTCPConn until Close.
type tcpConn struct {
	mu        sync.Mutex
	conn      net.Conn
	out       []byte      // the last frame sent, reused under mu
	in        frameReader // the frames received, one Read each once they have arrived
	reply     []float64   // the vector RequestGradient returns, reused under mu
	arm       chan (<-chan struct{})
	disarm    chan struct{}
	stopped   chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// newTCPConn wraps an agent's socket, in holding what was read past its
// hello.
func newTCPConn(raw net.Conn, in frameReader) *tcpConn {
	c := &tcpConn{conn: raw, in: in, arm: make(chan (<-chan struct{})), disarm: make(chan struct{}), stopped: make(chan struct{})}
	go watchCancel(raw, c.arm, c.disarm, c.stopped)
	return c
}

// watchCancel waits, for each Done channel it is handed on arm, for that
// channel or the request's disarm. If Done fires first it yanks the socket
// deadline to now, which unblocks the request's I/O with a timeout error, and
// only then takes the disarm. It returns when arm is closed, closing stopped.
func watchCancel(conn net.Conn, arm <-chan (<-chan struct{}), disarm <-chan struct{}, stopped chan<- struct{}) {
	defer close(stopped)
	for done := range arm {
		select {
		case <-done:
			_ = conn.SetDeadline(time.Now())
			<-disarm
		case <-disarm:
		}
	}
}

// RequestGradient implements AgentConn. The ctx deadline is mapped onto the
// socket's read/write deadlines, and a cancellation of ctx without any
// deadline interrupts blocked I/O by poisoning the socket deadline (only
// while the request is in flight — never a later request's); both surface
// as ErrTimeout (wrapping ctx.Err() on cancellation) so the
// server's elimination logic treats network silence like any other missed
// round (paper step S1).
//
// The poisoning is the watcher's. A request whose ctx can be cancelled hands
// it ctx.Done() before writing and a disarm on return, over unbuffered
// channels, and the watcher takes the disarm only after any deadline it sets.
// So a cancellation lands before RequestGradient returns, and the next
// request's SetDeadline overwrites it: the caller may cancel ctx right after
// the reply without touching the next round. A ctx that can never be
// cancelled arms nothing.
func (c *tcpConn) RequestGradient(ctx context.Context, round int, estimate []float64) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, fmt.Errorf("tcp request round %d: %w", round, ErrClosed)
	}
	deadline, _ := ctx.Deadline() // the zero time, no deadline, if there is none
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, fmt.Errorf("tcp set deadline: %w", err)
	}
	if done := ctx.Done(); done != nil {
		c.arm <- done
		defer func() { c.disarm <- struct{}{} }()
	}
	c.out = gradFrame(c.out, kindRequest, int64(round), estimate, "")
	if err := writeFrame(c.conn, c.out, round, nil); err != nil {
		return nil, wrapReqErr(ctx, "tcp send round", round, err)
	}
	body, err := c.in.read(c.conn)
	if err != nil {
		return nil, wrapReqErr(ctx, "tcp receive round", round, err)
	}
	reply, err := parseGradMsg(body)
	switch {
	case err != nil:
		return nil, fmt.Errorf("tcp receive round %d: %w", round, err)
	case reply.kind != kindReply:
		return nil, fmt.Errorf("tcp receive round %d: message kind %d is not a reply: %w", round, reply.kind, ErrBadMessage)
	case len(reply.text) > 0:
		return nil, fmt.Errorf("tcp agent error at round %d: %s", round, reply.text)
	case reply.round != int64(round):
		return nil, fmt.Errorf("tcp reply for round %d while expecting %d: %w", reply.round, round, ErrTimeout)
	case len(reply.vec) != 8*len(estimate): // a Byzantine agent picks its report's values, not their number
		return nil, fmt.Errorf("tcp reply of %d coordinates at round %d, want %d: %w", len(reply.vec)/8, round, len(estimate), ErrBadMessage)
	}
	c.reply = reply.floats(c.reply)
	return c.reply, nil
}

// Close implements AgentConn: it stops the watcher and waits for it, sends a
// best-effort shutdown message and closes the socket.
func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		close(c.arm)
		<-c.stopped
		sendShutdown(c.conn, c.out, "")
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
	if errors.Is(err, ErrCorruptFrame) || errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrBadMessage) {
		// Frame- and message-level damage keeps its typed identity: the
		// caller decides whether it is an elimination or a degraded
		// per-round omission, and must not take it for a dead connection.
		return fmt.Errorf("%s %d: %w", op, round, err)
	}
	return fmt.Errorf("%s %d: %w: %v", op, round, ErrClosed, err)
}

// sendShutdown writes a best-effort shutdown message, with the reason when
// the server is refusing the agent rather than finishing with it.
func sendShutdown(conn net.Conn, buf []byte, reason string) {
	_ = conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	_ = writeFrame(conn, gradFrame(buf, kindShutdown, -1, nil, reason), -1, nil)
}

// AcceptAgents listens for exactly n agent connections on l, reads each
// hello, and returns the connections ordered by the agents' claimed IDs. A
// hello of another protocol version (a version-1 gob agent's, whose first
// byte is never kindHello, included), a duplicate or an out-of-range ID fails
// the handshake, and the refused agent is told why before its connection is
// closed. It is the server half of the handshake used by cmd/abft-server.
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
		var in frameReader
		body, err := in.read(raw)
		if err != nil {
			_ = raw.Close()
			return fail(fmt.Errorf("transport: hello from connection %d: %w", i, err))
		}
		m, err := parseGradMsg(body)
		id := int(int32(m.round))
		switch {
		case err != nil || m.kind != kindHello:
			err = fmt.Errorf("not a hello of gradient protocol version %d (a version-1 gob agent?): %w", GradProtoVersion, cmp.Or(err, ErrBadMessage))
		case m.round>>32 != GradProtoVersion:
			err = fmt.Errorf("agent speaks gradient protocol version %d, server speaks %d: %w", m.round>>32, GradProtoVersion, ErrBadMessage)
		case id < 0 || id >= n || conns[id] != nil:
			err = fmt.Errorf("bad or duplicate agent id %d", id)
		}
		if err != nil {
			err = fmt.Errorf("transport: hello from connection %d: %w", i, err)
			sendShutdown(raw, nil, err.Error())
			_ = raw.Close()
			return fail(err)
		}
		conns[id] = newTCPConn(raw, in)
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
// shutdown message, the context is canceled, or the connection drops. A
// shutdown that carries a reason — the server refused the hello — is an error.
func ServeAgent(ctx context.Context, addr string, agentID int, producer GradientProducer) error {
	return ServeAgentTap(ctx, addr, agentID, producer, nil)
}

// ServeAgentTap is ServeAgent with a fault-injection tap on the agent's
// outgoing frames: tap runs after each reply's checksum is computed, so
// damage it applies is in-flight corruption the server's CRC check must
// catch. A nil tap is plain ServeAgent.
//
// The agent keeps its frame buffers and the estimate vector across rounds,
// and a producer that also has dgd.IntoAgent's GradientInto writes its report
// into a reused row, so a steady-state round allocates no vector here either.
func ServeAgentTap(ctx context.Context, addr string, agentID int, producer GradientProducer, tap WireTap) error {
	if producer == nil {
		return errors.New("transport: nil producer")
	}
	if int(int32(agentID)) != agentID {
		return fmt.Errorf("transport: agent id %d does not fit the hello's 32 bits", agentID)
	}
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return serveConn(ctx, raw, agentID, producer, tap)
}

// serveConn is ServeAgentTap on a connection already made; it closes raw.
func serveConn(ctx context.Context, raw net.Conn, agentID int, producer GradientProducer, tap WireTap) error {
	defer func() { _ = raw.Close() }()
	into, _ := producer.(interface {
		GradientInto(dst []float64, round int, x []float64) error
	})

	// Tear the connection down if the context is canceled so the read
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

	var in frameReader
	var x, row []float64
	out := gradFrame(nil, kindHello, helloWord(agentID), nil, "")
	if err := writeFrame(raw, out, -1, nil); err != nil {
		return fmt.Errorf("transport: hello: %w", err)
	}
	for {
		var m gradMsg
		body, err := in.read(raw)
		if err == nil {
			m, err = parseGradMsg(body)
		}
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // canceled or server gone: orderly end
			}
			return fmt.Errorf("transport: receive: %w", err)
		}
		switch m.kind {
		case kindShutdown:
			if len(m.text) > 0 {
				return fmt.Errorf("transport: refused by the server: %s", m.text)
			}
			return nil
		case kindRequest:
			round := int(m.round)
			x = m.floats(x)
			var g []float64
			var gerr error
			if into != nil {
				row = slices.Grow(row[:0], len(x))[:len(x)]
				g, gerr = row, into.GradientInto(row, round, x)
			} else {
				g, gerr = producer.Gradient(round, x)
			}
			text := ""
			if gerr != nil {
				g, text = nil, gerr.Error()
			}
			out = gradFrame(out, kindReply, m.round, g, text)
			if err := writeFrame(raw, out, round, tap); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return fmt.Errorf("transport: reply round %d: %w", round, err)
			}
		default:
			return fmt.Errorf("transport: message kind %d from the server: %w", m.kind, ErrBadMessage)
		}
	}
}
