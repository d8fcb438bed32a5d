package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/chaos"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
	"byzopt/internal/matrix"
	"byzopt/internal/transport"
	"byzopt/internal/vecmath"
)

// paperAgents builds the Appendix-J agents with agent 0 Byzantine under the
// given behavior (nil behavior leaves all agents honest).
func paperAgents(t *testing.T, behavior byzantine.Behavior) (*linreg.Instance, []dgd.Agent) {
	t.Helper()
	inst, err := linreg.Paper()
	if err != nil {
		t.Fatal(err)
	}
	costs, err := inst.Costs()
	if err != nil {
		t.Fatal(err)
	}
	agents, err := dgd.HonestAgents(costs)
	if err != nil {
		t.Fatal(err)
	}
	if behavior != nil {
		fa, err := dgd.NewFaulty(agents[linreg.FaultyAgent], behavior)
		if err != nil {
			t.Fatal(err)
		}
		agents[linreg.FaultyAgent] = fa
	}
	return inst, agents
}

func channelConns(t *testing.T, agents []dgd.Agent) []transport.AgentConn {
	t.Helper()
	conns := make([]transport.AgentConn, len(agents))
	for i, a := range agents {
		c, err := transport.NewChannel(a)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		t.Cleanup(func() { _ = c.Close() })
	}
	return conns
}

func TestClusterMatchesInProcessEngine(t *testing.T) {
	// The cluster protocol over channel transports must produce the same
	// trajectory as the plain dgd engine: same filter, same rounds, same
	// deterministic fault.
	inst, agents := paperAgents(t, byzantine.GradientReverse{})
	engineRes, err := dgd.Run(dgd.Config{
		Agents: agents,
		F:      1,
		Filter: aggregate.CGE{},
		Box:    inst.Box,
		X0:     inst.X0,
		Rounds: 200,
	})
	if err != nil {
		t.Fatal(err)
	}

	_, agents2 := paperAgents(t, byzantine.GradientReverse{})
	srv, err := NewServer(Config{
		Conns:  channelConns(t, agents2),
		F:      1,
		Filter: aggregate.CGE{},
		Box:    inst.Box,
		X0:     inst.X0,
		Rounds: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	clusterRes, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(engineRes.X, clusterRes.X, 1e-9) {
		t.Errorf("engine %v vs cluster %v", engineRes.X, clusterRes.X)
	}
	if len(clusterRes.Eliminated) != 0 {
		t.Errorf("unexpected eliminations: %v", clusterRes.Eliminated)
	}
}

func TestClusterEliminatesCrashedAgent(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	// Agent 0 crashes at round 10 (stops responding): under synchrony the
	// server must eliminate it, decrement f, and still converge.
	flaky := transport.NewFlaky(agents[0], 10)
	defer flaky.Release()
	conns := make([]transport.AgentConn, len(agents))
	for i, a := range agents {
		var producer transport.GradientProducer = a
		if i == 0 {
			producer = flaky
		}
		c, err := transport.NewChannel(producer)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		t.Cleanup(func() { _ = c.Close() })
	}
	honestSum, err := inst.HonestSum()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(Config{Conns: conns, RoundTimeout: 100 * time.Millisecond}, dgd.Config{
		F:         1,
		Filter:    aggregate.CGE{},
		Box:       inst.Box,
		X0:        inst.X0,
		Rounds:    200,
		TrackLoss: honestSum,
		Reference: inst.XH,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eliminated) != 1 || res.Eliminated[0] != 0 {
		t.Fatalf("eliminated = %v, want [0]", res.Eliminated)
	}
	if res.FinalN != 5 || res.FinalF != 0 {
		t.Errorf("final n=%d f=%d, want 5, 0", res.FinalN, res.FinalF)
	}
	if d := res.Trace.Dist[len(res.Trace.Dist)-1]; d > 0.05 {
		t.Errorf("distance after elimination = %v", d)
	}
}

func TestClusterTooManyFailures(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	// f = 0 but an agent crashes: synchrony violation must abort the run.
	flaky := transport.NewFlaky(agents[0], 0)
	defer flaky.Release()
	conns := make([]transport.AgentConn, len(agents))
	for i, a := range agents {
		var producer transport.GradientProducer = a
		if i == 0 {
			producer = flaky
		}
		c, err := transport.NewChannel(producer)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		t.Cleanup(func() { _ = c.Close() })
	}
	srv, err := NewServer(Config{
		Conns:        conns,
		F:            0,
		Filter:       aggregate.Mean{},
		Box:          inst.Box,
		X0:           inst.X0,
		Rounds:       5,
		RoundTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(context.Background()); !errors.Is(err, ErrTooManyFailures) {
		t.Errorf("want ErrTooManyFailures, got %v", err)
	}
}

func TestClusterContextCancellation(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	srv, err := NewServer(Config{
		Conns:  channelConns(t, agents),
		F:      1,
		Filter: aggregate.CGE{},
		Box:    inst.Box,
		X0:     inst.X0,
		Rounds: 1000000, // far more than we will allow
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestNewServerValidation(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	conns := channelConns(t, agents)
	base := Config{Conns: conns, F: 1, Filter: aggregate.CGE{}, X0: inst.X0, Rounds: 1}

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no conns", func(c *Config) { c.Conns = nil }},
		{"nil conn", func(c *Config) { c.Conns = []transport.AgentConn{nil} }},
		{"f too large", func(c *Config) { c.F = 3 }},
		{"negative f", func(c *Config) { c.F = -1 }},
		{"nil filter", func(c *Config) { c.Filter = nil }},
		{"empty x0", func(c *Config) { c.X0 = nil }},
		{"negative rounds", func(c *Config) { c.Rounds = -1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := NewServer(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: want ErrConfig, got %v", tc.name, err)
		}
	}
	// Box dimension mismatch.
	box, err := vecmath.NewCube(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Box = box
	if _, err := NewServer(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("box dim: %v", err)
	}
}

// serveOverTCP is the full Figure-1 deployment on loopback sockets: every
// producer served by transport.ServeAgent, a server on the accepted
// connections run to completion on kernel, everything closed and waited for.
func serveOverTCP(t *testing.T, producers []transport.GradientProducer, kernel dgd.Config) *Result {
	t.Helper()
	var res *Result
	overTCP(t, producers, kernel, func(srv *Server) (err error) {
		res, err = srv.Run(context.Background())
		return err
	})
	return res
}

// overTCP is serveOverTCP with the server's run left to run.
func overTCP(t *testing.T, producers []transport.GradientProducer, kernel dgd.Config, run func(*Server) error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for id, p := range producers {
		wg.Add(1)
		go func(id int, p transport.GradientProducer) {
			defer wg.Done()
			if err := transport.ServeAgent(ctx, l.Addr().String(), id, p); err != nil {
				t.Errorf("agent %d: %v", id, err)
			}
		}(id, p)
	}

	conns, err := transport.AcceptAgents(l, len(producers), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(Config{Conns: conns}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	err = run(srv)
	for _, c := range conns {
		_ = c.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

func producersOf(agents []dgd.Agent) []transport.GradientProducer {
	out := make([]transport.GradientProducer, len(agents))
	for i, a := range agents {
		out[i] = a
	}
	return out
}

// runOverTCP serves the Appendix-J agents (agent 0 reverses its gradient)
// over TCP, CGE filter.
func runOverTCP(t *testing.T, rounds int) *Result {
	t.Helper()
	inst, agents := paperAgents(t, byzantine.GradientReverse{})
	return serveOverTCP(t, producersOf(agents), dgd.Config{
		F:         1,
		Filter:    aggregate.CGE{},
		Box:       inst.Box,
		X0:        inst.X0,
		Rounds:    rounds,
		Reference: inst.XH,
	})
}

// wideAgents builds the benchmark's tcp_cluster agents: n single-row least
// squares costs at dimension d, agent 0 reversing its gradient. The costs keep
// no scratch and are shared; each call wraps fresh agents around them.
func wideAgents(t *testing.T, n, d int) func() []dgd.Agent {
	r := rand.New(rand.NewSource(16))
	costs := make([]costfunc.Differentiable, n)
	for i := range costs {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64() / math.Sqrt(float64(d))
		}
		a, err := matrix.New(1, d, row)
		if err != nil {
			t.Fatal(err)
		}
		c, err := costfunc.NewLeastSquares(a, []float64{r.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = c
	}
	return func() []dgd.Agent {
		agents, err := dgd.HonestAgents(costs)
		if err != nil {
			t.Fatal(err)
		}
		if agents[0], err = dgd.NewFaulty(agents[0], byzantine.GradientReverse{}); err != nil {
			t.Fatal(err)
		}
		return agents
	}
}

// The wire moves float64 bits and the server aggregates in agent order, so a
// run over TCP is the in-process run: 6 agents at d = 1000 (the benchmark's
// tcp_cluster shape), agent 0 reversing, CWTM — final estimates bit-equal.
func TestClusterOverTCPBitEqualToInProcess(t *testing.T) {
	const n, d, f, rounds = 6, 1000, 1, 40
	agents := wideAgents(t, n, d)
	box, err := vecmath.NewCube(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dgd.RunContext(context.Background(), dgd.Config{
		Agents: agents(), F: f, Filter: aggregate.CWTM{}, Box: box, X0: make([]float64, d), Rounds: rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := serveOverTCP(t, producersOf(agents()), dgd.Config{
		F: f, Filter: aggregate.CWTM{}, Box: box, X0: make([]float64, d), Rounds: rounds,
	})
	if len(got.Eliminated) != 0 {
		t.Fatalf("eliminated %v", got.Eliminated)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("x[%d] over TCP = %v, in process = %v", i, got.X[i], want.X[i])
		}
	}
}

// A round of Server.Run over TCP allocates nothing: the request and reply
// vectors move through buffers both ends keep, each connection's one watcher
// takes the round's cancellation, and the run's one round clock moves its
// deadline in place. Measured on the tcp_cluster shape under a run context
// that has a cancel, as the Mallocs between two rounds of one run, so the
// rounds before the first reading warm up whatever the run sets up lazily;
// both ends run in this process, so the agents' side is counted too.
func TestClusterOverTCPRoundAllocs(t *testing.T) {
	const n, d, f, warm, rounds = 6, 1000, 1, 50, 400
	agents := wideAgents(t, n, d)
	box, err := vecmath.NewCube(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	observe := dgd.ObserverFunc(func(t int, _ []float64, _, _ float64) error {
		switch t {
		case warm:
			runtime.ReadMemStats(&before)
		case warm + rounds:
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	// One processor, as testing.AllocsPerRun has: with several, a blocked
	// goroutine's channel waiter is now and then allocated afresh when the
	// processor it runs on has none cached, which is the runtime's count,
	// not the round's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	overTCP(t, producersOf(agents()), dgd.Config{
		F: f, Filter: aggregate.CWTM{}, Box: box, X0: make([]float64, d), Rounds: warm + rounds, Observer: observe,
	}, func(srv *Server) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := srv.Run(ctx)
		return err
	})
	perRound := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("%.3f objects a round", perRound)
	if perRound >= 0.5 {
		t.Errorf("a round over TCP allocates %.2f objects (%d in rounds %d to %d), want none", perRound, after.Mallocs-before.Mallocs, warm, warm+rounds)
	}
}

// longReply reports one coordinate too many from round `from` on.
type longReply struct {
	dgd.Agent
	from int
}

func (p longReply) Gradient(round int, x []float64) ([]float64, error) {
	g, err := p.Agent.Gradient(round, x)
	if round >= p.from {
		g = append(g, 1)
	}
	return g, err
}

// A reply of the wrong dimension never reaches the filter: the transport
// refuses it from the message header, and the server treats the refusal as it
// treats any missed round — elimination under step S1, an omitted report under
// an enabled chaos plan (one that only duplicates deliveries, which the
// wait-all overlay ignores).
func TestClusterOverTCPWrongDimensionReply(t *testing.T) {
	const rounds, from = 12, 8
	for _, degrade := range []bool{false, true} {
		inst, agents := paperAgents(t, nil)
		producers := producersOf(agents)
		producers[2] = longReply{Agent: agents[2], from: from}
		kernel := dgd.Config{F: 1, Filter: aggregate.CGE{}, Box: inst.Box, X0: inst.X0, Rounds: rounds}
		if degrade {
			kernel.Chaos = &chaos.Plan{Seed: 1, DupRate: 0.5}
		}
		res := serveOverTCP(t, producers, kernel)
		if !vecmath.IsFinite(res.X) {
			t.Errorf("degrade=%v: non-finite estimate %v", degrade, res.X)
		}
		if !degrade {
			if len(res.Eliminated) != 1 || res.Eliminated[0] != 2 {
				t.Errorf("step S1: eliminated %v, want [2]", res.Eliminated)
			}
			continue
		}
		if len(res.Eliminated) != 0 || res.Faults.Omitted != rounds-from {
			t.Errorf("degrade: eliminated %v, faults %+v, want %d omitted", res.Eliminated, res.Faults, rounds-from)
		}
	}
}

func TestClusterOverTCP(t *testing.T) {
	res := runOverTCP(t, 150)
	if d := res.Trace.Dist[len(res.Trace.Dist)-1]; d > 0.1 {
		t.Errorf("TCP cluster distance = %v", d)
	}
}

// Regression for the tcp cancellation watcher: the server cancels each
// round's context right after the replies, and a watcher running late used
// to poison the next round's socket deadline, so a healthy agent was
// eliminated as silent. Over many rounds nobody may be eliminated.
func TestClusterOverTCPEliminatesNoHealthyAgent(t *testing.T) {
	res := runOverTCP(t, 600)
	if len(res.Eliminated) != 0 || res.FinalN != 6 || res.FinalF != 1 {
		t.Errorf("healthy TCP run eliminated %v (final n=%d f=%d)", res.Eliminated, res.FinalN, res.FinalF)
	}
}

func TestClusterEliminatesMultipleCrashes(t *testing.T) {
	// Two agents crash in the same round with f = 2: both are eliminated
	// and the run completes with the remaining four.
	inst, agents := paperAgents(t, nil)
	flaky1 := transport.NewFlaky(agents[1], 5)
	flaky2 := transport.NewFlaky(agents[2], 5)
	defer flaky1.Release()
	defer flaky2.Release()
	conns := make([]transport.AgentConn, len(agents))
	for i, a := range agents {
		var producer transport.GradientProducer = a
		switch i {
		case 1:
			producer = flaky1
		case 2:
			producer = flaky2
		}
		c, err := transport.NewChannel(producer)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		t.Cleanup(func() { _ = c.Close() })
	}
	srv, err := NewServer(Config{
		Conns:        conns,
		F:            2,
		Filter:       aggregate.CGE{},
		Box:          inst.Box,
		X0:           inst.X0,
		Rounds:       60,
		RoundTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eliminated) != 2 {
		t.Fatalf("eliminated = %v, want two agents", res.Eliminated)
	}
	if res.FinalN != 4 || res.FinalF != 0 {
		t.Errorf("final n=%d f=%d, want 4, 0", res.FinalN, res.FinalF)
	}
}

func TestClusterStaggeredCrashes(t *testing.T) {
	// Crashes in different rounds: eliminations accumulate across rounds.
	inst, agents := paperAgents(t, nil)
	flaky1 := transport.NewFlaky(agents[1], 5)
	flaky2 := transport.NewFlaky(agents[4], 20)
	defer flaky1.Release()
	defer flaky2.Release()
	conns := make([]transport.AgentConn, len(agents))
	for i, a := range agents {
		var producer transport.GradientProducer = a
		switch i {
		case 1:
			producer = flaky1
		case 4:
			producer = flaky2
		}
		c, err := transport.NewChannel(producer)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		t.Cleanup(func() { _ = c.Close() })
	}
	srv, err := NewServer(Config{
		Conns:        conns,
		F:            2,
		Filter:       aggregate.CWTM{},
		Box:          inst.Box,
		X0:           inst.X0,
		Rounds:       60,
		RoundTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eliminated) != 2 || res.Eliminated[0] != 1 || res.Eliminated[1] != 4 {
		t.Fatalf("eliminated = %v, want [1 4] in order", res.Eliminated)
	}
}

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
