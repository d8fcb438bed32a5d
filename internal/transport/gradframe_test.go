package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"byzopt/internal/chaos"
)

// gradWire is one gradient message as it crosses the wire.
func gradWire(t testing.TB, kind byte, round int64, vec []float64, text string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, gradFrame(nil, kind, round, vec, text), int(round), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readFrame reads exactly one frame from r into buf's storage and returns it,
// header included, on every path (so a caller keeps the buffer it owns).
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	fr := frameReader{buf: buf[:0], exact: true}
	_, err := fr.read(r)
	return fr.buf, err
}

// readGradMsg is the receive path of both ends: one frame, then its message.
func readGradMsg(r io.Reader) (gradMsg, error) {
	frame, err := readFrame(r, nil)
	if err != nil {
		return gradMsg{}, err
	}
	return parseGradMsg(frame[frameHeader:])
}

func TestGradFrameRoundTrip(t *testing.T) {
	// Frames are self-contained: a second message on the same stream decodes
	// independently of the first, and the stream then ends cleanly.
	stream := bytes.NewBuffer(gradWire(t, kindReply, 7, []float64{1.5, -2.25, 0}, ""))
	stream.Write(gradWire(t, kindRequest, 8, nil, ""))
	got, err := readGradMsg(stream)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.floats(nil); got.kind != kindReply || got.round != 7 || len(g) != 3 || g[1] != -2.25 {
		t.Fatalf("round-trip = %+v %v", got, g)
	}
	if got, err = readGradMsg(stream); err != nil || got.kind != kindRequest || got.round != 8 || len(got.vec) != 0 {
		t.Fatalf("second frame: %+v %v", got, err)
	}
	if _, err := readGradMsg(stream); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v", err)
	}

	// The vector crosses bit for bit, whatever the bits say.
	special := []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
	}
	long := make([]float64, 1000)
	for i := range long {
		long[i] = special[i%len(special)] * float64(i+1)
	}
	for _, tc := range []struct {
		vec  []float64
		text string
	}{
		{nil, ""}, {[]float64{math.Pi}, ""}, {special, ""}, {long, ""},
		{nil, "agent: cost undefined at x"}, {special, "text after a vector"},
	} {
		m, err := readGradMsg(bytes.NewReader(gradWire(t, kindReply, -3, tc.vec, tc.text)))
		if err != nil {
			t.Fatalf("d=%d text=%q: %v", len(tc.vec), tc.text, err)
		}
		got := m.floats(make([]float64, 2)) // storage too small: must grow
		if m.round != -3 || string(m.text) != tc.text || len(got) != len(tc.vec) {
			t.Fatalf("d=%d text=%q: got round %d, d=%d, text %q", len(tc.vec), tc.text, m.round, len(got), m.text)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(tc.vec[i]) {
				t.Fatalf("d=%d: coordinate %d is %#x, want %#x", len(tc.vec), i, math.Float64bits(got[i]), math.Float64bits(tc.vec[i]))
			}
		}
	}
}

// A frame is the layout the header comment spells out, byte for byte, whichever
// path the host's byte order takes: the header's fields, then each coordinate
// as binary.LittleEndian writes its bits, then the text. The server and the
// agent decode it back bit for bit.
func TestGradFrameIsThePerCoordinateLayout(t *testing.T) {
	special := []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
		math.MaxFloat64,
	}
	for _, d := range []int{0, 1, 7, 1000} {
		vec := make([]float64, d)
		for i := range vec {
			vec[i] = special[i%len(special)]
		}
		want := []byte{kindReply}
		want = binary.LittleEndian.AppendUint64(want, 41)
		want = binary.LittleEndian.AppendUint32(want, uint32(d))
		want = binary.LittleEndian.AppendUint32(want, 2)
		for _, v := range vec {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
		}
		want = append(want, "ok"...)
		body := gradFrame([]byte("stale"), kindReply, 41, vec, "ok")[frameHeader:]
		if !bytes.Equal(body, want) {
			t.Fatalf("d=%d: body %x, want %x", d, body, want)
		}
		m, err := parseGradMsg(body)
		if err != nil {
			t.Fatal(err)
		}
		got := m.floats([]float64{9})
		for i := range vec {
			if math.Float64bits(got[i]) != math.Float64bits(vec[i]) {
				t.Fatalf("d=%d: coordinate %d decodes to %#x, want %#x", d, i, math.Float64bits(got[i]), math.Float64bits(vec[i]))
			}
		}
	}
}

func TestGradFrameCorruptionDetectedAsTypedError(t *testing.T) {
	wire := gradWire(t, kindReply, 0, []float64{3, 4}, "")
	wire[len(wire)-2] ^= 0x10
	if _, err := readGradMsg(bytes.NewReader(wire)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupted frame: %v", err)
	}
}

func TestGradFrameOversizedLengthRejectedBeforeAllocation(t *testing.T) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	if _, err := readGradMsg(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame length: %v", err)
	}
}

// A length prefix is a claim, not an allocation request: the reader's buffer
// follows the bytes that arrive, and a large one is not kept for small frames.
func TestGradFrameLengthPrefixBackedByNothingCostsLittle(t *testing.T) {
	wire := make([]byte, frameHeader+10)
	binary.BigEndian.PutUint32(wire[:4], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(wire), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("64 MiB announced, 10 bytes sent: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("reading it allocated %d bytes, want < 2 MiB", got)
	}

	big := gradWire(t, kindReply, 0, make([]float64, 6*frameChunk/8), "")
	buf, err := readFrame(bytes.NewReader(big), nil)
	if err != nil || len(buf) != len(big) {
		t.Fatalf("3 MiB frame: %d bytes, %v", len(buf), err)
	}
	if buf, err = readFrame(bytes.NewReader(big), buf); err != nil || cap(buf) < len(big) {
		t.Fatalf("a frame of the same size should reuse the buffer: cap %d, %v", cap(buf), err)
	}
	small := gradWire(t, kindReply, 1, []float64{1}, "")
	if buf, err = readFrame(bytes.NewReader(small), buf); err != nil || !bytes.Equal(buf, small) || cap(buf) > frameChunk {
		t.Fatalf("after a small frame the reader still holds %d bytes (%v)", cap(buf), err)
	}
}

func TestGradFrameTruncationIsUnexpectedEOF(t *testing.T) {
	wire := gradWire(t, kindHello, helloWord(2), nil, "")
	if _, err := readGradMsg(bytes.NewReader(wire[:len(wire)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: %v", err)
	}
	if _, err := readGradMsg(bytes.NewReader(wire[:3])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: %v", err)
	}
}

// A message that passed its checksum but does not parse is the peer's doing:
// a typed error, never a panic or a short read of the vector.
func TestGradFrameMalformedMessageIsTypedError(t *testing.T) {
	good := gradFrame(nil, kindReply, 1, []float64{1, 2}, "e")[frameHeader:]
	for name, body := range map[string][]byte{
		"empty body":          {},
		"short header":        good[:gradHeader-1],
		"kind zero":           append([]byte{0}, good[1:]...),
		"kind past reply":     append([]byte{kindReply + 1}, good[1:]...),
		"one byte missing":    good[:len(good)-1],
		"one byte extra":      append(good[:len(good):len(good)], 0),
		"vector length lies":  append(append(append([]byte{}, good[:9]...), 0xff, 0xff, 0xff, 0xff), good[13:]...),
		"text length lies":    append(append(append([]byte{}, good[:13]...), 0xff, 0xff, 0xff, 0xff), good[17:]...),
		"lengths sum past it": append(append([]byte{}, good[:9]...), 0xff, 0xff, 0xff, 0x1f, 0xff, 0xff, 0xff, 0xff),
	} {
		if _, err := parseGradMsg(body); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: %v, want ErrBadMessage", name, err)
		}
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	io.Writer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Writer.Write(p)
}

// One frame is one Write — one syscall and one TCP segment boundary on a
// socket — for the gradient protocol and the sweep protocol alike.
func TestFrameIsOneWrite(t *testing.T) {
	w := &countingWriter{Writer: io.Discard}
	frame := gradFrame(nil, kindRequest, 4, make([]float64, 1000), "")
	if err := writeFrame(w, frame, 4, nil); err != nil || w.writes != 1 {
		t.Fatalf("gradient frame: %d writes, %v", w.writes, err)
	}
	w.writes = 0
	if err := WriteSweepFrame(w, SweepKindLease, SweepLease{Indices: []int{1, 2, 3}, TTLMillis: 1000}); err != nil || w.writes != 1 {
		t.Fatalf("sweep frame: %d writes, %v", w.writes, err)
	}
}

// countingReads counts the Read calls that have returned on a connection.
type countingReads struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingReads) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

// oneConn is a listener that hands out the connections on its channel.
type oneConn chan net.Conn

func (l oneConn) Accept() (net.Conn, error) {
	if c, ok := <-l; ok {
		return c, nil
	}
	return nil, net.ErrClosed
}
func (l oneConn) Close() error   { return nil }
func (l oneConn) Addr() net.Addr { return &net.TCPAddr{} }

// A frame that has arrived whole is one Read on either side of a gradient
// connection: the reader asks for as much as its buffer holds, and after the
// first frames that is a whole frame. (net.Pipe hands a reader at most one
// Write per Read, so a frame arrives whole exactly when it was one Write.)
func TestFrameIsOneRead(t *testing.T) {
	serverEnd, agentEnd := net.Pipe()
	server, agent := &countingReads{Conn: serverEnd}, &countingReads{Conn: agentEnd}
	done := make(chan error, 1)
	go func() { done <- serveConn(context.Background(), agent, 0, &intoProducer{}, nil) }()
	l := make(oneConn, 1)
	l <- server
	conns, err := AcceptAgents(l, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 1000)
	request := func(round int) {
		if g, err := conns[0].RequestGradient(context.Background(), round, x); err != nil || len(g) != len(x) {
			t.Fatalf("round %d: %d coordinates, %v", round, len(g), err)
		}
	}
	request(0) // the first frame on each side grows the buffer from a header's room
	server.reads.Store(0)
	agent.reads.Store(0)
	const rounds = 10
	for round := 1; round <= rounds; round++ {
		request(round)
	}
	if s, a := server.reads.Load(), agent.reads.Load(); s != rounds || a != rounds {
		t.Errorf("%d replies took %d server reads, %d requests took %d agent reads; want one each", rounds, s, rounds, a)
	}
	if err := conns[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("agent: %v", err)
	}
}

// countingReader counts Read calls on a plain reader.
type countingReader struct {
	io.Reader
	reads int
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads++
	return r.Reader.Read(p)
}

// The carrying reader keeps what it read past a frame: two frames that arrive
// in one segment are one Read and come back in order, and delivery in any
// pieces yields the same frames.
func TestFrameReaderCarriesBytesPastTheFrame(t *testing.T) {
	frames := [][]byte{
		gradWire(t, kindReply, 1, []float64{1, 2, 3}, ""),
		gradWire(t, kindRequest, 2, make([]float64, 300), ""),
		gradWire(t, kindShutdown, -1, nil, "done"),
		gradWire(t, kindReply, 3, nil, ""),
	}
	stream := bytes.Join(frames, nil)

	r := &countingReader{Reader: bytes.NewReader(stream[:len(frames[0])+len(frames[1])])}
	fr := frameReader{buf: make([]byte, 0, 4096)}
	for i := range 2 {
		if body, err := fr.read(r); err != nil || !bytes.Equal(body, frames[i][frameHeader:]) {
			t.Fatalf("frame %d of one segment: %x, %v", i, body, err)
		}
	}
	if r.reads != 1 {
		t.Errorf("two frames in one segment took %d reads, want 1", r.reads)
	}

	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one byte": iotest.OneByteReader, "half": iotest.HalfReader, "data with EOF": iotest.DataErrReader,
	} {
		var fr frameReader
		r := wrap(bytes.NewReader(stream))
		for i, want := range frames {
			if body, err := fr.read(r); err != nil || !bytes.Equal(body, want[frameHeader:]) {
				t.Fatalf("%s: frame %d = %x, %v", name, i, body, err)
			}
		}
		if _, err := fr.read(r); err != io.EOF {
			t.Fatalf("%s: after the last frame %v, want io.EOF", name, err)
		}
	}
}

// The carrying reader refuses a length past MaxFrame from the header alone,
// and a corrupt frame is ErrCorruptFrame without costing the frame after it.
func TestFrameReaderRefusals(t *testing.T) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	r := &countingReader{Reader: bytes.NewReader(append(hdr[:], make([]byte, 64)...))}
	var fr frameReader
	if _, err := fr.read(r); !errors.Is(err, ErrFrameTooLarge) || r.reads != 1 || len(fr.buf) != frameHeader {
		t.Fatalf("oversized length: %v after %d reads of %d bytes, want ErrFrameTooLarge after the header alone", err, r.reads, len(fr.buf))
	}

	bad := gradWire(t, kindReply, 0, []float64{3, 4}, "")
	bad[len(bad)-2] ^= 0x10
	good := gradWire(t, kindReply, 1, []float64{5}, "")
	fr = frameReader{}
	stream := bytes.NewReader(append(bad, good...))
	if _, err := fr.read(stream); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt frame: %v", err)
	}
	if body, err := fr.read(stream); err != nil || !bytes.Equal(body, good[frameHeader:]) {
		t.Fatalf("the frame after a corrupt one: %x, %v", body, err)
	}
}

// gradFn adapts a function to GradientProducer.
type gradFn func(round int, x []float64) ([]float64, error)

func (f gradFn) Gradient(round int, x []float64) ([]float64, error) { return f(round, x) }

// serveOne runs one agent against a fresh listener and returns the server's
// connection to it; cleanup stops the agent and waits for it.
func serveOne(t *testing.T, producer GradientProducer, tap WireTap) AgentConn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ServeAgentTap(ctx, ln.Addr().String(), 0, producer, tap); err != nil {
			t.Errorf("agent: %v", err)
		}
	}()
	conns, err := AcceptAgents(ln, 1, 5*time.Second)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = conns[0].Close()
		cancel()
		wg.Wait()
	})
	return conns[0]
}

// The end-to-end contract of the chaos-tapped TCP transport: an agent whose
// reply frames are corrupted in flight (after CRC computation, per the
// WireTap contract) is detected by the server as ErrCorruptFrame — the
// damaged payload never surfaces as a gradient — and clean rounds pass.
func TestTCPChaosTapCorruptionDetectedEndToEnd(t *testing.T) {
	plan := &chaos.Plan{Seed: 99, CorruptRate: 1}
	// Corrupt only odd rounds, so the same connection demonstrates both
	// detection and recovery (frames are self-contained).
	tap := func(round int, body []byte) {
		if round >= 0 && round%2 == 1 {
			plan.CorruptFrame(body, round, 0)
		}
	}
	conn := serveOne(t, gradFn(func(round int, x []float64) ([]float64, error) {
		return []float64{float64(round), x[0]}, nil
	}), tap)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g, err := conn.RequestGradient(ctx, 0, []float64{1.5, 0})
	if err != nil {
		t.Fatalf("clean round failed: %v", err)
	}
	if g[0] != 0 || g[1] != 1.5 {
		t.Fatalf("clean round gradient %v", g)
	}
	if _, err := conn.RequestGradient(ctx, 1, []float64{2, 0}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupted round surfaced as %v, want ErrCorruptFrame", err)
	}
	// The connection survives: the next clean round still answers.
	g, err = conn.RequestGradient(ctx, 2, []float64{3, 0})
	if err != nil {
		t.Fatalf("round after corruption failed: %v", err)
	}
	if g[0] != 2 {
		t.Fatalf("recovered round gradient %v", g)
	}
}

// A Byzantine agent chooses the values it reports, not their number: a reply
// of another dimension is refused from the message header and the connection
// stays usable.
func TestTCPReplyOfWrongDimensionRejected(t *testing.T) {
	conn := serveOne(t, gradFn(func(round int, x []float64) ([]float64, error) {
		return make([]float64, len(x)+round), nil
	}), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := conn.RequestGradient(ctx, 1, []float64{1, 2}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("3 coordinates for a 2-dimensional estimate: %v", err)
	}
	if g, err := conn.RequestGradient(ctx, 0, []float64{1, 2}); err != nil || len(g) != 2 {
		t.Fatalf("round after the refusal: %v %v", g, err)
	}
}

// gobHelloV1 is the hello frame a pre-binary (version 1, gob) agent sends
// for agent id 2, captured from that code.
const gobHelloV1 = "\x00\x00\x00%@\xb6{\xb1\x1e\x7f\x03\x01\x01\x05Hello\x01\xff\x80\x00\x01\x01\x01\aAgentID\x01\x04\x00\x00\x00\x05\xff\x80\x01\x04\x00"

// Server side of the handshake: a hello of any other protocol version — the
// old gob one included — fails AcceptAgents with both versions named, and the
// refused peer is told the same before its connection is closed.
func TestTCPHandshakeRejectsOtherVersions(t *testing.T) {
	for name, tc := range map[string]struct{ hello, want string }{
		"future binary version": {string(gradWire(t, kindHello, helloWord(0)+1<<32, nil, "")), "version 3, server speaks 2"},
		"version-1 gob agent":   {gobHelloV1, "version 2 (a version-1 gob agent?)"},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		told := make(chan error, 1)
		go func() {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				told <- err
				return
			}
			defer func() { _ = c.Close() }()
			if _, err := io.WriteString(c, tc.hello); err != nil {
				told <- err
				return
			}
			m, err := readGradMsg(c)
			if err == nil && m.kind != kindShutdown {
				err = errors.New("refusal is not a shutdown message")
			}
			if err == nil {
				if _, eof := readGradMsg(c); !errors.Is(eof, io.EOF) {
					err = errors.New("connection left open after the refusal")
				}
			}
			if err != nil {
				told <- err
				return
			}
			told <- errors.New(string(m.text))
		}()
		_, err = AcceptAgents(ln, 1, 5*time.Second)
		_ = ln.Close()
		if err == nil || !errors.Is(err, ErrBadMessage) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: AcceptAgents = %v, want ErrBadMessage naming %q", name, err, tc.want)
		}
		if reason := <-told; !strings.Contains(reason.Error(), tc.want) {
			t.Errorf("%s: the peer was told %q, want %q", name, reason, tc.want)
		}
	}
}

// Agent side of the handshake: a server that refuses the hello says why, and
// ServeAgent returns that instead of ending as if the run were over.
func TestTCPAgentReportsRefusedHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		if m, err := readGradMsg(c); err != nil || m.kind != kindHello || m.round != helloWord(4) {
			t.Errorf("hello = %+v %v", m, err)
		}
		sendShutdown(c, nil, "agent speaks gradient protocol version 2, server speaks 3")
	}()
	err = ServeAgent(context.Background(), ln.Addr().String(), 4, gradFn(nil))
	if err == nil || !strings.Contains(err.Error(), "version 2, server speaks 3") {
		t.Fatalf("ServeAgent = %v, want the server's reason", err)
	}
	if id := math.MaxInt; id > math.MaxInt32 {
		if err := ServeAgent(context.Background(), ln.Addr().String(), id, gradFn(nil)); err == nil {
			t.Fatal("an agent id past 32 bits must be refused before dialing")
		}
	}
}

// intoProducer is a producer with the GradientInto face: it writes 2x into
// the row the transport hands it and counts which face was called.
type intoProducer struct{ into, plain int }

func (p *intoProducer) Gradient(round int, x []float64) ([]float64, error) {
	p.plain++
	dst := make([]float64, len(x))
	return dst, p.GradientInto(dst, round, x)
}

func (p *intoProducer) GradientInto(dst []float64, round int, x []float64) error {
	p.into++
	for i, v := range x {
		dst[i] = 2 * v
	}
	return nil
}

// After warm-up a round trip moves its two d = 1000 vectors through buffers
// both ends already own, and its cancellation goes through the connection's
// watcher: nothing is allocated on either end.
func TestTCPRequestSteadyStateAllocs(t *testing.T) {
	p := &intoProducer{}
	conn := serveOne(t, p, nil)
	x := make([]float64, 1000)
	for i := range x {
		x[i] = float64(i)
	}
	// A deadline and a cancel, as cluster.Server's round context has: the
	// request sets the socket deadline and arms the connection's watcher.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	round := 0
	request := func() {
		g, err := conn.RequestGradient(ctx, round, x)
		if err != nil || len(g) != len(x) || g[999] != 1998 {
			t.Fatalf("round %d: %v %v", round, len(g), err)
		}
		round++
	}
	request()
	request()
	start := round
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(1000, request)
	runtime.ReadMemStats(&after)
	if p.plain != 0 || p.into != round {
		t.Fatalf("producer saw %d Gradient and %d GradientInto calls in %d rounds", p.plain, p.into, round)
	}
	// Both ends run in this process, so the figures cover the pair. They are
	// per round trip over a thousand: now and then the runtime allocates a
	// channel waiter when its per-processor cache runs dry, which no round
	// does on its own.
	if allocs != 0 {
		t.Errorf("a steady-state round trip allocates %v objects, want 0", allocs)
	}
	if perRound := (after.TotalAlloc - before.TotalAlloc) / uint64(round-start); perRound != 0 {
		t.Errorf("a steady-state round trip allocates %d bytes, want 0 (one vector is %d)", perRound, 8*len(x))
	}
}
