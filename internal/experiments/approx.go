package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/vecmath"
)

// This is the one file of the package that calls dgd.Run on agents it builds
// itself rather than handing a Spec to the sweep engine. Its agreementShadow
// drives two filters down one trajectory — the exact filter steps, the
// approximate one is scored on the identical reports — which no sweep cell
// expresses (a cell has one filter), and cmd/abft-approx's committed golden
// (testdata/approx_default.json) pins the bytes of this loop.

// ApproxConfig parameterizes the exact-vs-approximate filter comparison.
// Every field is used as given; cmd/abft-approx's flag defaults are the
// headline configuration (n = 50 agents, d = 1000 dimensions, f = 5
// gradient-reverse adversaries, 60 rounds, sketch dimension 64, sample
// size 16).
type ApproxConfig struct {
	N      int `json:"n"`
	Dim    int `json:"dim"`
	F      int `json:"f"`
	Rounds int `json:"rounds"`
	// SketchDim is the projection dimension handed to the sketched filters;
	// SamplePairs the neighbor sample size of the sampled ones.
	SketchDim   int `json:"sketch_dim"`
	SamplePairs int `json:"sample_pairs"`
	// Behavior is the byzantine registry name of the adversary.
	Behavior string `json:"behavior"`
	Seed     int64  `json:"seed"`
}

// ApproxResult compares one exact filter against its approximate variant on
// the identical trajectory and workload.
type ApproxResult struct {
	// Exact and Approx are the registry-style filter names; Dim is the
	// approximation dimension (projection k, or neighbor sample m).
	Exact  string `json:"exact"`
	Approx string `json:"approx"`
	Dim    int    `json:"dim"`
	// AgreementRate is the fraction of rounds on the exact filter's
	// trajectory where the approximate filter — fed the identical gradient
	// set — returned the bitwise-identical aggregate. The Krum family
	// outputs selected inputs (or selection-determined means), so bitwise
	// agreement is exactly selection agreement.
	AgreementRate float64 `json:"agreement_rate"`
	Rounds        int     `json:"rounds"`
	// ExactCost and ApproxCost are the final aggregate honest costs of the
	// two filters' own independent runs; CostDelta = approx - exact (so
	// positive means the approximation ended at a worse point).
	ExactCost  float64 `json:"exact_cost"`
	ApproxCost float64 `json:"approx_cost"`
	CostDelta  float64 `json:"cost_delta"`
}

// approxPair names one comparison and builds fresh filter instances per run
// (the approximate filters carry round state, so instances are not shared
// between the shadowed and the independent run).
type approxPair struct {
	exact  func() aggregate.IntoFilter
	approx func() aggregate.IntoFilter
	dim    int
}

// agreementShadow is a Filter wrapper that drives the trajectory with the
// exact filter while running the approximate filter on the identical input
// as a shadow, counting bitwise-equal outputs. It deliberately implements
// only the allocating Filter face — the shadow needs both results per
// round — plus RoundKeyed forwarding so the engine keys the shadow's draws.
type agreementShadow struct {
	exact  aggregate.IntoFilter
	approx aggregate.IntoFilter
	sExact aggregate.Scratch
	sApp   aggregate.Scratch
	rounds int
	agreed int
}

// Name implements aggregate.Filter.
func (a *agreementShadow) Name() string {
	return a.exact.Name() + "-vs-" + a.approx.Name()
}

// SetRound implements aggregate.RoundKeyed.
func (a *agreementShadow) SetRound(t int) {
	if rk, ok := a.approx.(aggregate.RoundKeyed); ok {
		rk.SetRound(t)
	}
}

// Aggregate implements aggregate.Filter: the exact result is returned (and
// so drives the descent), the approximate result only scored.
func (a *agreementShadow) Aggregate(grads [][]float64, f int) ([]float64, error) {
	d := len(grads[0])
	out := make([]float64, d)
	if err := a.exact.AggregateInto(out, grads, f, &a.sExact); err != nil {
		return nil, err
	}
	shadow := make([]float64, d)
	if err := a.approx.AggregateInto(shadow, grads, f, &a.sApp); err != nil {
		return nil, fmt.Errorf("approx shadow %s: %w", a.approx.Name(), err)
	}
	a.rounds++
	equal := true
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(shadow[i]) && !(out[i] == 0 && shadow[i] == 0) {
			equal = false
			break
		}
	}
	if equal {
		a.agreed++
	}
	return out, nil
}

// ApproxComparison measures what the sub-quadratic filters give up: for
// each exact/approximate pair it reports the per-round selection-agreement
// rate on the exact trajectory and the final-cost delta between the two
// filters' independent runs, on a synthetic least-squares workload under
// Byzantine faults. Deterministic for a fixed config.
func ApproxComparison(cfg ApproxConfig) ([]ApproxResult, error) {
	if cfg.N <= 0 || cfg.Dim <= 0 || cfg.Rounds <= 0 || cfg.SketchDim <= 0 || cfg.SamplePairs <= 0 {
		return nil, fmt.Errorf("approx comparison needs positive n, d, rounds, sketch dimension and sample size, got %+v: %w", cfg, ErrArgs)
	}
	if cfg.N <= 3*cfg.F {
		return nil, fmt.Errorf("approx comparison needs n > 3f for every pair, got n=%d f=%d", cfg.N, cfg.F)
	}

	// Per-agent single-observation least-squares costs: honest gradients
	// agree in expectation but differ per agent, so robust selection has
	// genuine work to do.
	r := rand.New(rand.NewSource(cfg.Seed))
	costs := make([]costfunc.Differentiable, cfg.N)
	honest := make([]costfunc.Differentiable, 0, cfg.N-cfg.F)
	xStar := make([]float64, cfg.Dim)
	for j := range xStar {
		xStar[j] = r.NormFloat64()
	}
	for i := 0; i < cfg.N; i++ {
		row := make([]float64, cfg.Dim)
		dot := 0.0
		for j := range row {
			row[j] = r.NormFloat64() / math.Sqrt(float64(cfg.Dim))
			dot += row[j] * xStar[j]
		}
		q, err := costfunc.NewObservation(row, dot+0.05*r.NormFloat64())
		if err != nil {
			return nil, err
		}
		costs[i] = q
		if i >= cfg.F {
			honest = append(honest, q)
		}
	}
	honestSum, err := costfunc.NewSum(honest...)
	if err != nil {
		return nil, err
	}

	pairs := []approxPair{
		{
			exact: func() aggregate.IntoFilter { return aggregate.Krum{} },
			approx: func() aggregate.IntoFilter {
				return &aggregate.KrumSketch{SketchParams: aggregate.SketchParams{Dim: cfg.SketchDim, Seed: cfg.Seed}}
			},
			dim: cfg.SketchDim,
		},
		{
			exact: func() aggregate.IntoFilter { return aggregate.MultiKrum{M: 3} },
			approx: func() aggregate.IntoFilter {
				return &aggregate.MultiKrumSketch{M: 3, SketchParams: aggregate.SketchParams{Dim: cfg.SketchDim, Seed: cfg.Seed}}
			},
			dim: cfg.SketchDim,
		},
		{
			exact: func() aggregate.IntoFilter { return aggregate.Bulyan{} },
			approx: func() aggregate.IntoFilter {
				return &aggregate.BulyanSketch{SketchParams: aggregate.SketchParams{Dim: cfg.SketchDim, Seed: cfg.Seed}}
			},
			dim: cfg.SketchDim,
		},
		{
			exact: func() aggregate.IntoFilter { return aggregate.Krum{} },
			approx: func() aggregate.IntoFilter {
				return &aggregate.KrumSampled{SampleParams: aggregate.SampleParams{Pairs: cfg.SamplePairs, Seed: cfg.Seed}}
			},
			dim: cfg.SamplePairs,
		},
	}

	runOnce := func(filter aggregate.Filter) (*dgd.Result, error) {
		agents, err := dgd.HonestAgents(costs)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.F; i++ {
			behavior, err := byzantine.New(cfg.Behavior, cfg.Seed)
			if err != nil {
				return nil, err
			}
			if agents[i], err = dgd.NewFaulty(agents[i], behavior); err != nil {
				return nil, err
			}
		}
		return dgd.Run(dgd.Config{
			Agents: agents,
			F:      cfg.F,
			Filter: filter,
			Steps:  dgd.Constant{Eta: 0.1},
			X0:     vecmath.Zeros(cfg.Dim),
			Rounds: cfg.Rounds,
		})
	}

	out := make([]ApproxResult, 0, len(pairs))
	for _, p := range pairs {
		// Bulyan's tolerance is the binding one; surface inadmissible
		// configurations per pair rather than failing the whole comparison.
		shadow := &agreementShadow{exact: p.exact(), approx: p.approx()}
		resExact, err := runOnce(shadow)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", shadow.Name(), err)
		}
		resApprox, err := runOnce(p.approx())
		if err != nil {
			return nil, fmt.Errorf("%s independent run: %w", p.approx().Name(), err)
		}
		exactCost, err := honestSum.Eval(resExact.X)
		if err != nil {
			return nil, err
		}
		approxCost, err := honestSum.Eval(resApprox.X)
		if err != nil {
			return nil, err
		}
		out = append(out, ApproxResult{
			Exact:         p.exact().Name(),
			Approx:        p.approx().Name(),
			Dim:           p.dim,
			AgreementRate: float64(shadow.agreed) / float64(shadow.rounds),
			Rounds:        shadow.rounds,
			ExactCost:     exactCost,
			ApproxCost:    approxCost,
			CostDelta:     approxCost - exactCost,
		})
	}
	return out, nil
}
