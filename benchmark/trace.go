package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/transport"
)

// The layers a span is attributed to. The substrate layer is whichever
// engine executes Backend.Run (dgd in process, p2p over EIG broadcast); its
// time is the self time of the Run span: the span minus the agent and filter
// spans nested in it.
const (
	layerSubstrate = iota
	layerAggregate
	layerCostfunc
	layerByzantine
	numLayers
)

// runTrace holds the spans of one Backend.Run. The engines call agents and
// the filter from the goroutine that runs the round loop (the benchmark never
// sets DGDWorkers), so the time between two consecutive boundaries belongs to
// exactly one layer and one clock read per boundary is enough: mark charges
// the time since the previous boundary to the layer that was running.
type runTrace struct {
	last  time.Time
	dur   [numLayers]time.Duration
	calls [numLayers]int64
}

func (r *runTrace) mark(layer int) {
	now := time.Now()
	r.dur[layer] += now.Sub(r.last)
	r.last = now
}

// tracer sums the spans of every Run of the traced passes.
type tracer struct {
	mu     sync.Mutex
	run    time.Duration // total of the Backend.Run spans
	rounds int64         // rounds of the runs that completed
	dur    [numLayers]time.Duration
	calls  [numLayers]int64
	// idle holds the shims of finished runs for the next run to reuse, so a
	// traced cell allocates what an untraced one does.
	idle []*runShims
}

// backend returns a dgd.Backend that records spans around inner, the seam the
// sweep engine offers through Spec.Backend.
func (t *tracer) backend(inner dgd.Backend) dgd.Backend {
	if inner == nil {
		inner = dgd.InProcess{}
	}
	return &traceBackend{t: t, inner: inner}
}

type traceBackend struct {
	t     *tracer
	inner dgd.Backend
}

// Run implements dgd.Backend: it hands the inner backend the same Config with
// the filter and every agent behind a timing shim.
func (b *traceBackend) Run(ctx context.Context, cfg dgd.Config) (*dgd.Result, error) {
	t := b.t
	t.mu.Lock()
	var sh *runShims
	if n := len(t.idle); n > 0 {
		sh, t.idle = t.idle[n-1], t.idle[:n-1]
	} else {
		sh = new(runShims)
	}
	t.mu.Unlock()

	cfg.Filter = sh.wrapFilter(cfg.Filter)
	cfg.Agents = sh.wrapAgents(cfg.Agents)
	start := time.Now()
	sh.rt = runTrace{last: start}
	res, err := b.inner.Run(ctx, cfg)
	sh.rt.mark(layerSubstrate)

	t.mu.Lock()
	t.run += sh.rt.last.Sub(start)
	if err == nil {
		t.rounds += int64(cfg.Rounds)
	}
	for l := range sh.rt.dur {
		t.dur[l] += sh.rt.dur[l]
		t.calls[l] += sh.rt.calls[l]
	}
	t.idle = append(t.idle, sh)
	t.mu.Unlock()
	return res, err
}

// runShims is the trace of one Run and the storage of its shims. The shims of
// one kind live in one slice and the whole is reused by later runs, so tracing
// adds no allocation per agent or per cell and allocs_per_cell stays within
// the 2 % the tests allow.
type runShims struct {
	rt     runTrace
	bases  []agentBase
	agents []dgd.Agent
	a      []shimA
	ai     []shimAI
	af     []shimAF
	aif    []shimAIF
	afx    []shimAFX
	aifx   []shimAIFX
	filter filterBase
	f      shimF
	fi     shimFI
	fk     shimFK
	fik    shimFIK
}

// --- agent shims ---
//
// The engines sniff four optional faces on an agent (dgd.IntoAgent,
// dgd.Faulty, dgd.IntoFaulty and the Behavior accessor p2p reads to find a
// broadcast distorter) and take a different path for each, so a shim must
// show exactly the faces of the agent it wraps or results and allocations
// change. Each face is a small struct; a shim type embeds the faces its agent
// has.

type agentBase struct {
	inner dgd.Agent
	rt    *runTrace
	layer int
}

func (b *agentBase) enter() { b.rt.mark(layerSubstrate) }
func (b *agentBase) exit()  { b.rt.mark(b.layer); b.rt.calls[b.layer]++ }

func (b *agentBase) Gradient(round int, x []float64) ([]float64, error) {
	b.enter()
	g, err := b.inner.Gradient(round, x)
	b.exit()
	return g, err
}

type intoFace struct {
	b    *agentBase
	into dgd.IntoAgent
}

func (f intoFace) GradientInto(dst []float64, round int, x []float64) error {
	f.b.enter()
	err := f.into.GradientInto(dst, round, x)
	f.b.exit()
	return err
}

type faultyFace struct {
	b        *agentBase
	faulty   dgd.Faulty
	behavior byzantine.Behavior
}

func (f faultyFace) FaultyGradient(round, agent int, x []float64, honest [][]float64) ([]float64, error) {
	f.b.enter()
	g, err := f.faulty.FaultyGradient(round, agent, x, honest)
	f.b.exit()
	return g, err
}

// Behavior forwards the accessor p2p.AgentDistorter reads; nil when the
// wrapped agent has none, which AgentDistorter treats like a missing method.
func (f faultyFace) Behavior() byzantine.Behavior { return f.behavior }

type intoFaultyFace struct {
	b    *agentBase
	into dgd.IntoFaulty
}

func (f intoFaultyFace) FaultyGradientInto(dst []float64, round, agent int, x []float64, honest [][]float64) error {
	f.b.enter()
	err := f.into.FaultyGradientInto(dst, round, agent, x, honest)
	f.b.exit()
	return err
}

type (
	shimA  struct{ *agentBase }
	shimAI struct {
		*agentBase
		intoFace
	}
	shimAF struct {
		*agentBase
		faultyFace
	}
	shimAIF struct {
		*agentBase
		intoFace
		faultyFace
	}
	shimAFX struct {
		*agentBase
		faultyFace
		intoFaultyFace
	}
	shimAIFX struct {
		*agentBase
		intoFace
		faultyFace
		intoFaultyFace
	}
)

// place appends v to *s, which holds at most n shims in this run, and returns
// its address. The slice is sized before the first append, so no later append
// moves a shim whose address is out.
func place[T any](s *[]T, n int, v T) *T {
	if cap(*s) < n {
		*s = make([]T, 0, n)
	}
	*s = append(*s, v)
	return &(*s)[len(*s)-1]
}

// wrapAgents returns agents behind shims that charge sh.rt.
func (sh *runShims) wrapAgents(agents []dgd.Agent) []dgd.Agent {
	n := len(agents)
	if cap(sh.bases) < n {
		sh.bases, sh.agents = make([]agentBase, n), make([]dgd.Agent, n)
	}
	sh.bases, sh.agents = sh.bases[:n], sh.agents[:n]
	sh.a, sh.ai, sh.af, sh.aif, sh.afx, sh.aifx = sh.a[:0], sh.ai[:0], sh.af[:0], sh.aif[:0], sh.afx[:0], sh.aifx[:0]
	for i, ag := range agents {
		b := &sh.bases[i]
		*b = agentBase{inner: ag, rt: &sh.rt, layer: layerCostfunc}
		into, hasInto := ag.(dgd.IntoAgent)
		faulty, isFaulty := ag.(dgd.Faulty)
		intoFaulty, hasIntoFaulty := ag.(dgd.IntoFaulty)
		inF := intoFace{b: b, into: into}
		ff := faultyFace{b: b, faulty: faulty}
		if isFaulty {
			b.layer = layerByzantine
			if h, ok := ag.(interface{ Behavior() byzantine.Behavior }); ok {
				ff.behavior = h.Behavior()
			}
		}
		fx := intoFaultyFace{b: b, into: intoFaulty}
		switch {
		case isFaulty && hasIntoFaulty && hasInto:
			sh.agents[i] = place(&sh.aifx, n, shimAIFX{b, inF, ff, fx})
		case isFaulty && hasIntoFaulty:
			sh.agents[i] = place(&sh.afx, n, shimAFX{b, ff, fx})
		case isFaulty && hasInto:
			sh.agents[i] = place(&sh.aif, n, shimAIF{b, inF, ff})
		case isFaulty:
			sh.agents[i] = place(&sh.af, n, shimAF{b, ff})
		case hasInto:
			sh.agents[i] = place(&sh.ai, n, shimAI{b, inF})
		default:
			sh.agents[i] = place(&sh.a, n, shimA{b})
		}
	}
	return sh.agents
}

// --- filter shims ---
//
// The engines sniff aggregate.IntoFilter and aggregate.RoundKeyed; the same
// face-per-struct scheme applies. SketchConfigurable and SeedConfigurable are
// applied by the sweep before Backend.Run, on the real filter.

type filterBase struct {
	inner aggregate.Filter
	rt    *runTrace
}

func (b *filterBase) Name() string { return b.inner.Name() }

func (b *filterBase) Aggregate(grads [][]float64, f int) ([]float64, error) {
	b.rt.mark(layerSubstrate)
	g, err := b.inner.Aggregate(grads, f)
	b.rt.mark(layerAggregate)
	b.rt.calls[layerAggregate]++
	return g, err
}

type intoFilterFace struct {
	b    *filterBase
	into aggregate.IntoFilter
}

func (f intoFilterFace) AggregateInto(dst []float64, grads [][]float64, fv int, s *aggregate.Scratch) error {
	f.b.rt.mark(layerSubstrate)
	err := f.into.AggregateInto(dst, grads, fv, s)
	f.b.rt.mark(layerAggregate)
	f.b.rt.calls[layerAggregate]++
	return err
}

type keyedFace struct{ keyed aggregate.RoundKeyed }

func (f keyedFace) SetRound(t int) { f.keyed.SetRound(t) }

type (
	shimF  struct{ *filterBase }
	shimFI struct {
		*filterBase
		intoFilterFace
	}
	shimFK struct {
		*filterBase
		keyedFace
	}
	shimFIK struct {
		*filterBase
		intoFilterFace
		keyedFace
	}
)

func (sh *runShims) wrapFilter(fl aggregate.Filter) aggregate.Filter {
	if fl == nil {
		return nil // the backend reports the nil filter itself
	}
	b := &sh.filter
	*b = filterBase{inner: fl, rt: &sh.rt}
	into, hasInto := fl.(aggregate.IntoFilter)
	keyed, isKeyed := fl.(aggregate.RoundKeyed)
	switch {
	case hasInto && isKeyed:
		sh.fik = shimFIK{b, intoFilterFace{b, into}, keyedFace{keyed}}
		return &sh.fik
	case hasInto:
		sh.fi = shimFI{b, intoFilterFace{b, into}}
		return &sh.fi
	case isKeyed:
		sh.fk = shimFK{b, keyedFace{keyed}}
		return &sh.fk
	default:
		sh.f = shimF{b}
		return &sh.f
	}
}

// --- tcp_cluster seams ---

// spanLog collects the durations of one kind of span. The cluster server
// calls a connection from a fresh goroutine every round and every agent
// serves on its own, so the log locks.
type spanLog struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (l *spanLog) add(d time.Duration) {
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.mu.Unlock()
}

// serverConn is the server's handle to an agent in every tcp_cluster pass. It
// hands the transport the round's deadline without its cancellation: the
// cluster server cancels each round's context as soon as the round is
// collected, and tcp.go's cancellation watcher, if it is scheduled late, then
// poisons the deadline the next round has already set, so a healthy agent
// reads as silent and is eliminated (about one request in 40 000 on two
// cores). That race is a lead for a later change, not a load the benchmark
// means to generate. With a log set, it also times the server side of the
// request: encode, two socket hops, the agent's gradient, decode.
type serverConn struct {
	transport.AgentConn
	log *spanLog
}

// deadlineOnly is a context's deadline and values without its cancellation.
type deadlineOnly struct{ context.Context }

func (deadlineOnly) Done() <-chan struct{} { return nil }
func (deadlineOnly) Err() error            { return nil }

func (c serverConn) RequestGradient(ctx context.Context, round int, estimate []float64) ([]float64, error) {
	if c.log == nil {
		return c.AgentConn.RequestGradient(deadlineOnly{ctx}, round, estimate)
	}
	start := time.Now()
	g, err := c.AgentConn.RequestGradient(deadlineOnly{ctx}, round, estimate)
	c.log.add(time.Since(start))
	return g, err
}

// tracedProducer times the agent side: the gradient alone.
type tracedProducer struct {
	inner transport.GradientProducer
	log   *spanLog
}

func (p tracedProducer) Gradient(round int, x []float64) ([]float64, error) {
	start := time.Now()
	g, err := p.inner.Gradient(round, x)
	p.log.add(time.Since(start))
	return g, err
}

// wireCount counts what crosses the accepted connections of a listener: the
// bytes in both directions and the Write calls of the accepting side.
type wireCount struct {
	bytes  atomic.Int64
	writes atomic.Int64
}

type countingListener struct {
	net.Listener
	n *wireCount
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *wireCount
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.bytes.Add(int64(n))
	c.n.writes.Add(1)
	return n, err
}
