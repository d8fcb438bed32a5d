package cluster

import (
	"context"
	"testing"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/chaos"
	"byzopt/internal/dgd"
	"byzopt/internal/transport"
	"byzopt/internal/vecmath"
)

// exactlyOneCrasher scans seeds for a plan that crashes exactly one of n
// agents inside the round window, returning the plan and the crasher's index.
// The scan is a pure function of the plan parameters, so the test is
// deterministic.
func exactlyOneCrasher(t *testing.T, n, rounds int) (*chaos.Plan, int) {
	t.Helper()
	plan := &chaos.Plan{CrashRate: 0.2, CrashWindow: rounds}
	for seed := int64(1); seed < 1000; seed++ {
		plan.Seed = seed
		crashers, who := 0, -1
		for a := 0; a < n; a++ {
			if r := plan.CrashRound(a); r >= 0 {
				crashers++
				who = a
			}
		}
		if crashers == 1 {
			return plan, who
		}
	}
	t.Fatal("no seed with exactly one crasher in 1000 tries")
	return nil, -1
}

// The acceptance shape of graceful degradation: an injected crash of one
// honest agent under first-k collection degrades the run — the agent leaves
// the overlay, the filter sees the shrunken set, the result is flagged — but
// the run neither fails nor invokes the step-S1 elimination rule, and it
// still converges on the honest optimum.
func TestClusterChaosCrashDegradesInsteadOfFailing(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	const rounds = 200
	plan, crasher := exactlyOneCrasher(t, len(agents), rounds)
	srv, err := newServer(Config{Conns: channelConns(t, agents)}, dgd.Config{
		F:         1,
		Filter:    aggregate.CGE{},
		Box:       inst.Box,
		X0:        inst.X0,
		Rounds:    rounds,
		Reference: inst.XH,
		Async:     &dgd.AsyncConfig{Policy: dgd.CollectFirstK, K: 4},
		Chaos:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatalf("chaos crash failed the run instead of degrading it: %v", err)
	}
	if !res.Degraded {
		t.Error("run with an injected crash not flagged degraded")
	}
	if res.Faults.Crashed != 1 {
		t.Errorf("Faults.Crashed = %d, want 1 (agent %d)", res.Faults.Crashed, crasher)
	}
	if len(res.Eliminated) != 0 {
		t.Errorf("injected crash must not trigger step-S1 elimination, got %v", res.Eliminated)
	}
	if d := res.Trace.Dist[len(res.Trace.Dist)-1]; d > 0.1 {
		t.Errorf("distance to honest optimum after degraded run = %v", d)
	}
}

// The same plan through the cluster Backend must reproduce the in-process
// engine bit for bit: gradient values are computed identically on both
// substrates and the overlay injects faults identically, so chaos does not
// break cross-substrate parity.
func TestClusterBackendChaosParityWithInProcessEngine(t *testing.T) {
	inst, _ := paperAgents(t, nil)
	build := func() dgd.Config {
		_, ag := paperAgents(t, nil)
		return dgd.Config{
			Agents: ag,
			F:      1,
			Filter: aggregate.CGE{},
			Box:    inst.Box,
			X0:     inst.X0,
			Rounds: 120,
			Async:  &dgd.AsyncConfig{Policy: dgd.CollectFirstK, K: 4, Seed: 11},
			Chaos: &chaos.Plan{
				Seed: 23, OmitRate: 0.1, DupRate: 0.1,
				DelayRate: 0.1, Delay: 0.5, Attempts: 2, RetryDelay: 0.1,
			},
		}
	}
	engineRes, err := dgd.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	backendRes, err := (&Backend{}).Run(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	if len(engineRes.X) != len(backendRes.X) {
		t.Fatalf("dim mismatch %d vs %d", len(engineRes.X), len(backendRes.X))
	}
	for i := range engineRes.X {
		if engineRes.X[i] != backendRes.X[i] {
			t.Fatalf("x[%d]: engine %v vs cluster backend %v", i, engineRes.X[i], backendRes.X[i])
		}
	}
}

// A disabled plan must leave the server bitwise on the no-chaos path: same
// trajectory, no degradation accounting, even though the overlay is armed.
func TestClusterChaosDisabledBitwiseMatchesBaseline(t *testing.T) {
	inst, _ := paperAgents(t, nil)
	run := func(plan *chaos.Plan) *Result {
		_, ag := paperAgents(t, nil)
		srv, err := newServer(Config{Conns: channelConns(t, ag)}, dgd.Config{
			F:      1,
			Filter: aggregate.CGE{},
			Box:    inst.Box,
			X0:     inst.X0,
			Rounds: 100,
			Chaos:  plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	for _, plan := range []*chaos.Plan{{}, {Seed: 99}} {
		got := run(plan)
		for i := range base.X {
			if got.X[i] != base.X[i] {
				t.Fatalf("disabled plan %+v diverged at x[%d]: %v vs %v", plan, i, got.X[i], base.X[i])
			}
		}
		if got.Degraded || !got.Faults.IsZero() {
			t.Errorf("disabled plan %+v recorded faults: %+v", plan, got.Faults)
		}
	}
}

// Under an enabled chaos plan a real transport failure — an agent that stops
// answering — is ridden out as per-round omissions: no elimination, no
// ErrTooManyFailures, and the failure shows up in the fault accounting. The
// plan only duplicates deliveries, which the wait-all overlay it arms
// ignores, so every omission counted is a transport failure.
func TestClusterDegradeRidesOutTransportFailure(t *testing.T) {
	inst, agents := paperAgents(t, nil)
	const rounds, crashAt = 20, 15
	flaky := transport.NewFlaky(agents[0], crashAt)
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
	srv, err := newServer(Config{Conns: conns, RoundTimeout: 100 * time.Millisecond}, dgd.Config{
		F:      1,
		Filter: aggregate.CGE{},
		Box:    inst.Box,
		X0:     inst.X0,
		Rounds: rounds,
		Chaos:  &chaos.Plan{Seed: 1, DupRate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if len(res.Eliminated) != 0 {
		t.Errorf("degradation must not eliminate, got %v", res.Eliminated)
	}
	if !res.Degraded {
		t.Error("run with transport failures not flagged degraded")
	}
	wantMute := rounds - crashAt
	if res.Faults.Omitted != wantMute {
		t.Errorf("Faults.Omitted = %d, want %d (one per round after the crash)", res.Faults.Omitted, wantMute)
	}
	if !vecmath.IsFinite(res.X) {
		t.Errorf("non-finite estimate %v", res.X)
	}
}
