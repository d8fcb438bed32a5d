package experiments

import (
	"math"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
	"byzopt/internal/mlsim"
	"byzopt/internal/vecmath"
)

// regressionAgents builds the Appendix-J agents with agent 0 exhibiting the
// given fault, as the retired sequential drivers did.
func regressionAgents(inst *linreg.Instance, fault string) ([]dgd.Agent, error) {
	costs, err := inst.Costs()
	if err != nil {
		return nil, err
	}
	agents, err := dgd.HonestAgents(costs)
	if err != nil {
		return nil, err
	}
	behavior, err := byzantine.New(fault, RandomFaultSeed)
	if err != nil {
		return nil, err
	}
	agents[linreg.FaultyAgent], err = dgd.NewFaulty(agents[linreg.FaultyAgent], behavior)
	return agents, err
}

// legacyRegressionFigure is a verbatim copy of the retired sequential
// Figure2 driver, kept test-only as the parity reference: the sweep-driven
// RegressionFigure must reproduce it point for point, including the
// fault-free baseline that omits the faulty agent.
func legacyRegressionFigure(t *testing.T, rounds int) []FigureData {
	t.Helper()
	inst, err := linreg.Paper()
	if err != nil {
		t.Fatal(err)
	}
	honestSum, err := inst.HonestSum()
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name      string
		filter    aggregate.Filter
		f         int
		faultFree bool
	}
	variants := []variant{
		{name: "fault-free", filter: aggregate.Mean{}, f: 0, faultFree: true},
		{name: "cwtm", filter: aggregate.CWTM{}, f: linreg.F},
		{name: "cge", filter: aggregate.CGE{}, f: linreg.F},
		{name: "plain-gd", filter: aggregate.Mean{}, f: linreg.F},
	}
	var out []FigureData
	for _, fault := range FaultNames {
		fd := FigureData{Fault: fault}
		for _, v := range variants {
			var agents []dgd.Agent
			if v.faultFree {
				costs, err := inst.Costs()
				if err != nil {
					t.Fatal(err)
				}
				// The instance's honest set: agents f, ..., n-1.
				agents, err = dgd.HonestAgents(costs[linreg.F:])
				if err != nil {
					t.Fatal(err)
				}
			} else {
				agents, err = regressionAgents(inst, fault)
				if err != nil {
					t.Fatal(err)
				}
			}
			res, err := dgd.Run(dgd.Config{
				Agents:    agents,
				F:         v.f,
				Filter:    v.filter,
				Steps:     dgd.Diminishing{C: linreg.StepC, P: 1},
				Box:       inst.Box,
				X0:        inst.X0,
				Rounds:    rounds,
				TrackLoss: honestSum,
				Reference: inst.XH,
			})
			if err != nil {
				t.Fatalf("legacy figure2 %s/%s: %v", v.name, fault, err)
			}
			fd.Series = append(fd.Series, Series{Name: v.name, Loss: res.Trace.Loss, Metric: res.Trace.Dist})
		}
		out = append(out, fd)
	}
	return out
}

// TestRegressionFigureMatchesLegacyDriver pins the figure port onto the
// sweep engine: every series the two sweeps produce — including the
// Baseline-axis fault-free curve — must match the retired sequential driver
// point for point.
func TestRegressionFigureMatchesLegacyDriver(t *testing.T) {
	const rounds = 40
	got, _, err := RegressionFigure(rounds, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := legacyRegressionFigure(t, rounds)
	if len(got) != len(want) {
		t.Fatalf("%d fault columns, want %d", len(got), len(want))
	}
	const tol = 1e-9
	for c := range want {
		if got[c].Fault != want[c].Fault {
			t.Fatalf("column %d fault %s, want %s", c, got[c].Fault, want[c].Fault)
		}
		if len(got[c].Series) != len(want[c].Series) {
			t.Fatalf("%s: %d series, want %d", want[c].Fault, len(got[c].Series), len(want[c].Series))
		}
		for si := range want[c].Series {
			w, g := want[c].Series[si], got[c].Series[si]
			if g.Name != w.Name {
				t.Fatalf("%s series %d named %s, want %s", want[c].Fault, si, g.Name, w.Name)
			}
			if len(g.Loss) != len(w.Loss) || len(g.Metric) != len(w.Metric) {
				t.Fatalf("%s/%s: series lengths %d/%d vs legacy %d/%d",
					want[c].Fault, w.Name, len(g.Loss), len(g.Metric), len(w.Loss), len(w.Metric))
			}
			for i := range w.Loss {
				if math.Abs(g.Loss[i]-w.Loss[i]) > tol || math.Abs(g.Metric[i]-w.Metric[i]) > tol {
					t.Fatalf("%s/%s diverges from the legacy driver at t=%d: loss %v vs %v, dist %v vs %v",
						want[c].Fault, w.Name, i, g.Loss[i], w.Loss[i], g.Metric[i], w.Metric[i])
				}
			}
		}
	}
}

// legacyLearnFigure is a verbatim copy of the retired sequential Appendix-K
// driver (softmax path), the parity reference for the sweep-driven
// Figure 4/5.
func legacyLearnFigure(t *testing.T, gen mlsim.GenConfig, rounds, accEvery int) []Series {
	t.Helper()
	train, test, err := mlsim.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	model := mlsim.Softmax{Classes: gen.Classes, Dim: gen.Dim, Reg: 1e-4}
	x0 := vecmath.Zeros(model.ParamDim())
	faulty := map[int]bool{7: true, 8: true, 9: true}
	buildAgents := func(fault string) []dgd.Agent {
		shards, err := mlsim.Shard(train, LearnAgents)
		if err != nil {
			t.Fatal(err)
		}
		var agents []dgd.Agent
		for i, shard := range shards {
			if fault == "" && faulty[i] {
				continue
			}
			if fault == "lf" && faulty[i] {
				mlsim.FlipLabels(shard)
			}
			var agent dgd.Agent = &mlsim.SGDAgent{
				Model: model,
				Data:  shard,
				Batch: LearnBatch,
				Seed:  learnSeed + int64(i)*1009,
			}
			if fault == "gr" && faulty[i] {
				agent, err = dgd.NewFaulty(agent, byzantine.GradientReverse{})
				if err != nil {
					t.Fatal(err)
				}
			}
			agents = append(agents, agent)
		}
		return agents
	}
	variants := []struct {
		name   string
		filter aggregate.Filter
		fault  string
		f      int
	}{
		{"fault-free", aggregate.Mean{}, "", 0},
		{"cwtm-lf", aggregate.CWTM{}, "lf", LearnFaults},
		{"cwtm-gr", aggregate.CWTM{}, "gr", LearnFaults},
		{"cge-lf", aggregate.CGE{Averaged: true}, "lf", LearnFaults},
		{"cge-gr", aggregate.CGE{Averaged: true}, "gr", LearnFaults},
	}
	var out []Series
	for _, v := range variants {
		series := Series{Name: v.name}
		lastAcc := 0.0
		_, err := dgd.Run(dgd.Config{
			Agents: buildAgents(v.fault),
			F:      v.f,
			Filter: v.filter,
			Steps:  dgd.Constant{Eta: LearnStep},
			X0:     x0,
			Rounds: rounds,
			Observer: dgd.ObserverFunc(func(tr int, x []float64, _, _ float64) error {
				if tr%accEvery == 0 || tr == rounds {
					acc, err := model.Accuracy(x, test)
					if err != nil {
						return err
					}
					lastAcc = acc
				}
				series.Metric = append(series.Metric, lastAcc)
				loss, err := model.Loss(x, train)
				if err != nil {
					return err
				}
				series.Loss = append(series.Loss, loss)
				return nil
			}),
		})
		if err != nil {
			t.Fatalf("legacy %s: %v", v.name, err)
		}
		out = append(out, series)
	}
	return out
}

// TestLearnFigureMatchesLegacyDriver pins the learning port: the sweep's
// reordered agents (designated-faulty shards first, each keeping its
// original minibatch seed) must reproduce the legacy executions bit for bit
// — CWTM and CGE aggregate in sorted order, so the permutation is exact, and
// any drift here means the port changed the published figures.
func TestLearnFigureMatchesLegacyDriver(t *testing.T) {
	const rounds, accEvery = 30, 10 // accEvery: the learning problems' cadence
	fig, err := Figure4(LearnConfig{Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	got := fig.Series
	want := legacyLearnFigure(t, mlsim.PresetA(learnSeed), rounds, accEvery)
	if len(got) != len(want) {
		t.Fatalf("%d series, want %d", len(got), len(want))
	}
	for si := range want {
		w, g := want[si], got[si]
		if g.Name != w.Name {
			t.Fatalf("series %d named %s, want %s", si, g.Name, w.Name)
		}
		if len(g.Loss) != len(w.Loss) || len(g.Metric) != len(w.Metric) {
			t.Fatalf("%s: lengths %d/%d vs legacy %d/%d", w.Name, len(g.Loss), len(g.Metric), len(w.Loss), len(w.Metric))
		}
		for i := range w.Loss {
			if g.Loss[i] != w.Loss[i] || g.Metric[i] != w.Metric[i] {
				t.Fatalf("%s diverges from the legacy driver at t=%d: loss %v vs %v, acc %v vs %v",
					w.Name, i, g.Loss[i], w.Loss[i], g.Metric[i], w.Metric[i])
			}
		}
	}
}
