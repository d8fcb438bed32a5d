package main

import (
	"testing"

	"byzopt"
	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
)

// Fake agents, one method set per face, counting the calls that reach them.
type (
	fakeAgent      struct{ calls *int }
	fakeInto       struct{ calls *int }
	fakeFaulty     struct{ calls *int }
	fakeIntoFaulty struct{ calls *int }
	fakeBehavior   struct{ b byzantine.Behavior }
)

func (f fakeAgent) Gradient(int, []float64) ([]float64, error)  { *f.calls++; return nil, nil }
func (f fakeInto) GradientInto([]float64, int, []float64) error { *f.calls++; return nil }
func (f fakeFaulty) FaultyGradient(int, int, []float64, [][]float64) ([]float64, error) {
	*f.calls++
	return nil, nil
}
func (f fakeIntoFaulty) FaultyGradientInto([]float64, int, int, []float64, [][]float64) error {
	*f.calls++
	return nil
}
func (f fakeBehavior) Behavior() byzantine.Behavior { return f.b }

// TestAgentShimFaces: a shim shows exactly the faces of the agent it wraps,
// forwards every call, and charges it to the right layer.
func TestAgentShimFaces(t *testing.T) {
	var calls int
	a, i, f, x := fakeAgent{&calls}, fakeInto{&calls}, fakeFaulty{&calls}, fakeIntoFaulty{&calls}
	equivocate := byzantine.NewEquivocate(1)
	honest, err := byzopt.HonestAgent(mustCost(t))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := byzopt.ByzantineAgent(honest, equivocate)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		agent dgd.Agent
	}{
		{"agent", struct{ fakeAgent }{a}},
		{"into", struct {
			fakeAgent
			fakeInto
		}{a, i}},
		{"faulty", struct {
			fakeAgent
			fakeFaulty
			fakeBehavior
		}{a, f, fakeBehavior{equivocate}}},
		{"into+faulty", struct {
			fakeAgent
			fakeInto
			fakeFaulty
		}{a, i, f}},
		{"faulty+intofaulty", struct {
			fakeAgent
			fakeFaulty
			fakeIntoFaulty
		}{a, f, x}},
		{"all", struct {
			fakeAgent
			fakeInto
			fakeFaulty
			fakeIntoFaulty
			fakeBehavior
		}{a, i, f, x, fakeBehavior{equivocate}}},
		{"dgd honest", honest},
		{"dgd faulty", faulty},
	}
	agents := make([]dgd.Agent, len(cases))
	for k, c := range cases {
		agents[k] = c.agent
	}
	sh := new(runShims)
	shims, rt := sh.wrapAgents(agents), &sh.rt
	for k, c := range cases {
		inner, shim := c.agent, shims[k]
		_, innerInto := inner.(dgd.IntoAgent)
		_, shimInto := shim.(dgd.IntoAgent)
		_, innerFaulty := inner.(dgd.Faulty)
		_, shimFaulty := shim.(dgd.Faulty)
		_, innerIntoFaulty := inner.(dgd.IntoFaulty)
		_, shimIntoFaulty := shim.(dgd.IntoFaulty)
		if innerInto != shimInto || innerFaulty != shimFaulty || innerIntoFaulty != shimIntoFaulty {
			t.Errorf("%s: faces IntoAgent/Faulty/IntoFaulty are %v/%v/%v, the shim's %v/%v/%v", c.name,
				innerInto, innerFaulty, innerIntoFaulty, shimInto, shimFaulty, shimIntoFaulty)
		}
		// p2p finds a broadcast distorter through Behavior(): same answer.
		if got, want := p2p.AgentDistorter(shim), p2p.AgentDistorter(inner); got != want {
			t.Errorf("%s: p2p.AgentDistorter is %v through the shim, %v without", c.name, got, want)
		}
		if c.name == "dgd faulty" && p2p.AgentDistorter(shim) == nil {
			t.Errorf("%s: the equivocating behavior is lost behind the shim", c.name)
		}

		// Every face forwards once and is charged to the agent's layer.
		layer := layerCostfunc
		if innerFaulty {
			layer = layerByzantine
		}
		before, charged := calls, rt.calls[layer]
		want := 1
		x0, dst := []float64{1, 2}, make([]float64, 2)
		if _, err := shim.Gradient(0, x0); err != nil {
			t.Errorf("%s: Gradient: %v", c.name, err)
		}
		if s, ok := shim.(dgd.IntoAgent); ok {
			want++
			if err := s.GradientInto(dst, 0, x0); err != nil {
				t.Errorf("%s: GradientInto: %v", c.name, err)
			}
		}
		if s, ok := shim.(dgd.Faulty); ok {
			want++
			if _, err := s.FaultyGradient(0, 0, x0, nil); err != nil {
				t.Errorf("%s: FaultyGradient: %v", c.name, err)
			}
		}
		if s, ok := shim.(dgd.IntoFaulty); ok {
			want++
			if err := s.FaultyGradientInto(dst, 0, 0, x0, nil); err != nil {
				t.Errorf("%s: FaultyGradientInto: %v", c.name, err)
			}
		}
		if got := int(rt.calls[layer] - charged); got != want {
			t.Errorf("%s: %d calls charged to layer %d, want %d", c.name, got, layer, want)
		}
		if fake := k < 6; fake && calls-before != want {
			t.Errorf("%s: %d calls reached the agent, want %d", c.name, calls-before, want)
		}
	}
}

func mustCost(t *testing.T) byzopt.Cost {
	t.Helper()
	c, err := byzopt.SingleObservationCost([]float64{0.6, 0.8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

type (
	fakeFilter     struct{ calls *int }
	fakeIntoFilter struct{ calls *int }
	fakeKeyed      struct{ round *int }
)

func (fakeFilter) Name() string { return "fake" }
func (f fakeFilter) Aggregate([][]float64, int) ([]float64, error) {
	*f.calls++
	return nil, nil
}
func (f fakeIntoFilter) AggregateInto([]float64, [][]float64, int, *aggregate.Scratch) error {
	*f.calls++
	return nil
}
func (f fakeKeyed) SetRound(t int) { *f.round = t }

// TestFilterShimFaces: the same for filters, IntoFilter and RoundKeyed.
func TestFilterShimFaces(t *testing.T) {
	var calls, round int
	f, i, k := fakeFilter{&calls}, fakeIntoFilter{&calls}, fakeKeyed{&round}
	named := func(name string) aggregate.Filter {
		fl, err := byzopt.NewFilter(name)
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	for _, c := range []struct {
		name   string
		filter aggregate.Filter
	}{
		{"filter", struct{ fakeFilter }{f}},
		{"into", struct {
			fakeFilter
			fakeIntoFilter
		}{f, i}},
		{"keyed", struct {
			fakeFilter
			fakeKeyed
		}{f, k}},
		{"into+keyed", struct {
			fakeFilter
			fakeIntoFilter
			fakeKeyed
		}{f, i, k}},
		{"cge", named("cge")},
		{"krum-sketch", named("krum-sketch")},
		{"krum-sampled", named("krum-sampled")},
	} {
		sh := new(runShims)
		shim, rt := sh.wrapFilter(c.filter), &sh.rt
		_, innerInto := c.filter.(aggregate.IntoFilter)
		_, shimInto := shim.(aggregate.IntoFilter)
		_, innerKeyed := c.filter.(aggregate.RoundKeyed)
		shimKeyed, isKeyed := shim.(aggregate.RoundKeyed)
		if innerInto != shimInto || innerKeyed != isKeyed {
			t.Errorf("%s: faces IntoFilter/RoundKeyed are %v/%v, the shim's %v/%v", c.name, innerInto, innerKeyed, shimInto, isKeyed)
		}
		if shim.Name() != c.filter.Name() {
			t.Errorf("%s: the shim is named %q", c.name, shim.Name())
		}
		if c.filter.Name() != "fake" {
			continue
		}
		before, want := calls, 1
		if _, err := shim.Aggregate(nil, 0); err != nil {
			t.Error(err)
		}
		if s, ok := shim.(aggregate.IntoFilter); ok {
			want++
			if err := s.AggregateInto(nil, nil, 0, nil); err != nil {
				t.Error(err)
			}
		}
		if calls-before != want || int(rt.calls[layerAggregate]) != want {
			t.Errorf("%s: %d calls reached the filter, %d charged, want %d", c.name, calls-before, rt.calls[layerAggregate], want)
		}
		if isKeyed {
			shimKeyed.SetRound(41)
			if round != 41 {
				t.Errorf("%s: SetRound did not reach the filter", c.name)
			}
		}
	}
}
