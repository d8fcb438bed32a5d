package p2p

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
)

func TestBroadcastHonestSender(t *testing.T) {
	decisions, err := Broadcast(4, 1, 0, "hello", nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range decisions {
		if d != "hello" {
			t.Errorf("process %d decided %q", p, d)
		}
	}
}

func TestBroadcastHonestSenderWithByzantineRelayer(t *testing.T) {
	// Validity: even with process 2 lying while relaying, honest processes
	// must decide the honest sender's value.
	byz := map[int]Distorter{2: SplitLiar{}}
	decisions, err := Broadcast(4, 1, 0, "v", byz)
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range decisions {
		if p == 2 {
			continue
		}
		if d != "v" {
			t.Errorf("honest process %d decided %q, want v", p, d)
		}
	}
}

func TestBroadcastByzantineSenderAgreement(t *testing.T) {
	// Agreement: a split-lying sender cannot make honest processes decide
	// differently.
	byz := map[int]Distorter{1: SplitLiar{}}
	decisions, err := Broadcast(4, 1, 1, "ignored", byz)
	if err != nil {
		t.Fatal(err)
	}
	ref := decisions[0]
	for p, d := range decisions {
		if p == 1 {
			continue
		}
		if d != ref {
			t.Errorf("honest disagreement: process %d decided %q, process 0 decided %q", p, d, ref)
		}
	}
}

func TestBroadcastTwoColludingLiars(t *testing.T) {
	// n=7, f=2: sender 0 honest, processes 3 and 5 lie during relay.
	byz := map[int]Distorter{
		3: SeededLiar{Seed: 1},
		5: SplitLiar{},
	}
	decisions, err := Broadcast(7, 2, 0, "payload", byz)
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range decisions {
		if p == 3 || p == 5 {
			continue
		}
		if d != "payload" {
			t.Errorf("honest process %d decided %q", p, d)
		}
	}
}

func TestBroadcastByzantineSenderAndRelayer(t *testing.T) {
	// n=7, f=2: the sender and one relayer collude. Honest processes must
	// still agree with each other.
	byz := map[int]Distorter{
		0: SplitLiar{},
		4: SeededLiar{Seed: 9},
	}
	decisions, err := Broadcast(7, 2, 0, "x", byz)
	if err != nil {
		t.Fatal(err)
	}
	var ref *string
	for p := 0; p < 7; p++ {
		if p == 0 || p == 4 {
			continue
		}
		if ref == nil {
			ref = &decisions[p]
			continue
		}
		if decisions[p] != *ref {
			t.Errorf("honest disagreement at %d: %q vs %q", p, decisions[p], *ref)
		}
	}
}

func TestBroadcastValidation(t *testing.T) {
	if _, err := Broadcast(3, 1, 0, "v", nil); !errors.Is(err, ErrArgs) {
		t.Errorf("n <= 3f: %v", err)
	}
	if _, err := Broadcast(4, 1, 9, "v", nil); !errors.Is(err, ErrArgs) {
		t.Errorf("bad sender: %v", err)
	}
	if _, err := Broadcast(4, 1, 0, "v", map[int]Distorter{1: SplitLiar{}, 2: SplitLiar{}}); !errors.Is(err, ErrArgs) {
		t.Errorf("too many byzantine: %v", err)
	}
	if _, err := Broadcast(4, 1, 0, "v", map[int]Distorter{9: SplitLiar{}}); !errors.Is(err, ErrArgs) {
		t.Errorf("byzantine id out of range: %v", err)
	}
}

func TestPropBroadcastAgreementAndValidity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fCount := 1 + r.Intn(2)
		n := 3*fCount + 1 + r.Intn(3)
		sender := r.Intn(n)
		// Pick fCount distinct Byzantine processes.
		byz := make(map[int]Distorter, fCount)
		for len(byz) < fCount {
			byz[r.Intn(n)] = SeededLiar{Seed: r.Int63()}
		}
		decisions, err := Broadcast(n, fCount, sender, "truth", byz)
		if err != nil {
			return false
		}
		var ref *string
		for p := 0; p < n; p++ {
			if _, bad := byz[p]; bad {
				continue
			}
			if ref == nil {
				ref = &decisions[p]
			} else if decisions[p] != *ref {
				return false // agreement violated
			}
		}
		if _, senderBad := byz[sender]; !senderBad && *ref != "truth" {
			return false // validity violated
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMessageCost(t *testing.T) {
	// n=4, f=1: level 1 has 1 node, level 2 has 3 -> 4 total.
	got, err := MessageCost(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("cost(4,1) = %d, want 4", got)
	}
	// n=10, f=3: 1 + 9 + 72 + 504 = 586.
	got, err = MessageCost(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 586 {
		t.Errorf("cost(10,3) = %d, want 586", got)
	}
	if _, err := MessageCost(3, 1); !errors.Is(err, ErrArgs) {
		t.Errorf("invalid: %v", err)
	}
}

func TestVectorEncoding(t *testing.T) {
	v := []float64{1.5, -2.25, 0, 1e300}
	got := DecodeVector(EncodeVector(v), 4)
	if !approxEqual(got, v, 0) {
		t.Errorf("round trip = %v", got)
	}
	// Wrong length and garbage payloads decode to zeros.
	if !approxEqual(DecodeVector("short", 3), []float64{0, 0, 0}, 0) {
		t.Error("short payload should zero")
	}
	if !approxEqual(DecodeVector(DefaultValue, 2), []float64{0, 0}, 0) {
		t.Error("default payload should zero")
	}
	// NaN smuggling is rejected wholesale.
	poisoned := EncodeVector([]float64{1, 2})
	nan := EncodeVector([]float64{1, 0})
	b := []byte(nan)
	for i := 8; i < 16; i++ {
		b[i] = 0xFF // 0xFFFF... is a NaN pattern
	}
	if !approxEqual(DecodeVector(string(b), 2), []float64{0, 0}, 0) {
		t.Error("NaN payload should zero entirely")
	}
	_ = poisoned
}

// paperAgents is the paper's regression workload with agent 0 Byzantine:
// it reports a reversed gradient and, with distort, also lies while relaying
// other peers' broadcasts.
func paperAgents(t *testing.T, distort bool) (*linreg.Instance, []dgd.Agent) {
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
	if agents[0], err = dgd.NewFaulty(agents[0], byzantine.GradientReverse{}); err != nil {
		t.Fatal(err)
	}
	if distort {
		if agents[0], err = Equivocating(agents[0], SeededLiar{Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	return inst, agents
}

func TestDecentralizedDGDConverges(t *testing.T) {
	inst, agents := paperAgents(t, true)
	res, err := Backend{}.Run(context.Background(), dgd.Config{
		Agents:    agents,
		F:         1,
		Filter:    aggregate.CGE{},
		Box:       inst.Box,
		X0:        inst.X0,
		Rounds:    150,
		Reference: inst.XH,
	})
	if err != nil {
		t.Fatal(err) // includes a broken agreement between honest peers
	}
	if d := res.Trace.Dist[len(res.Trace.Dist)-1]; d > 0.1 {
		t.Errorf("final distance = %v", d)
	}
}

func TestDecentralizedMatchesServerBased(t *testing.T) {
	// With a Byzantine peer that injects a bad gradient but does NOT
	// equivocate in the broadcast layer, the decentralized run must follow
	// the exact trajectory of the in-process server engine.
	inst, agents := paperAgents(t, false)
	cfg := dgd.Config{
		Agents: agents,
		F:      1,
		Filter: aggregate.CGE{},
		Box:    inst.Box,
		X0:     inst.X0,
		Rounds: 100,
	}
	res, err := Backend{}.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, cfg.Agents = paperAgents(t, false)
	engineRes, err := dgd.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(res.X, engineRes.X, 1e-12) {
		t.Errorf("decentralized %v vs server-based %v", res.X, engineRes.X)
	}
}

// The stateful REDGRAF filters carry an auxiliary center from round to round
// in the aggregation scratch. The honest peers' one round kernel advances
// that chain once a round, as the in-process engine does, so the run follows
// the in-process trajectory bit for bit. (A kernel that filtered the agreed
// set once per peer over one scratch would advance the chain several times a
// round and leave it.)
func TestDecentralizedStatefulFilterKeepsAgreement(t *testing.T) {
	inst, agents := paperAgents(t, false)
	for _, name := range []string{"sdmmfd", "sdfd"} {
		newFilter := func() aggregate.Filter {
			f, err := aggregate.New(name)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		cfg := dgd.Config{Agents: agents, F: 1, Filter: newFilter(), Box: inst.Box, X0: inst.X0, Rounds: 40}
		res, err := Backend{}.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err) // includes a broken agreement
		}
		cfg.Filter = newFilter()
		engineRes, err := dgd.Run(cfg)
		if err != nil {
			t.Fatalf("%s in-process: %v", name, err)
		}
		if !approxEqual(res.X, engineRes.X, 0) {
			t.Errorf("%s: decentralized %v vs in-process %v", name, res.X, engineRes.X)
		}
	}
}

func TestDecentralizedValidation(t *testing.T) {
	inst, agents := paperAgents(t, false)
	base := dgd.Config{Agents: agents, F: 1, Filter: aggregate.CGE{}, X0: inst.X0, Rounds: 1}
	withAgent := func(i int, a dgd.Agent) []dgd.Agent {
		as := append([]dgd.Agent(nil), agents...)
		as[i] = a
		return as
	}
	liar0, err := Equivocating(agents[0], SplitLiar{})
	if err != nil {
		t.Fatal(err)
	}
	liar1, err := Equivocating(agents[1], SplitLiar{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*dgd.Config)
		want   error
	}{
		{"no agents", func(c *dgd.Config) { c.Agents = nil }, dgd.ErrConfig},
		{"f too large", func(c *dgd.Config) { c.F = 2 }, dgd.ErrInadmissible},
		{"nil filter", func(c *dgd.Config) { c.Filter = nil }, ErrArgs},
		{"empty x0", func(c *dgd.Config) { c.X0 = nil }, ErrArgs},
		{"negative rounds", func(c *dgd.Config) { c.Rounds = -1 }, ErrArgs},
		{"nil agent", func(c *dgd.Config) { c.Agents = withAgent(1, nil) }, dgd.ErrConfig},
		{"too many distorters", func(c *dgd.Config) {
			c.Agents = withAgent(0, liar0)
			c.Agents[1] = liar1
		}, ErrArgs},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := (Backend{}).Run(context.Background(), cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: want %v, got %v", tc.name, tc.want, err)
		}
	}
}

func TestBroadcastLargeSystem(t *testing.T) {
	// n = 10, f = 3: the deepest tree the learning experiments would need.
	byz := map[int]Distorter{
		2: SplitLiar{},
		5: SeededLiar{Seed: 3},
		8: ConsistentLiar{Value: "forged"},
	}
	decisions, err := Broadcast(10, 3, 0, "deep", byz)
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range decisions {
		if _, bad := byz[p]; bad {
			continue
		}
		if d != "deep" {
			t.Errorf("honest process %d decided %q", p, d)
		}
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
