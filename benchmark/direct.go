package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"byzopt"
	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/matrix"
	"byzopt/internal/p2p"
	"byzopt/internal/sweep"
	"byzopt/internal/transport"
	"byzopt/internal/vecmath"
)

// directBehaviors are the behaviors timed one by one: the four of paper_grid.
var directBehaviors = []string{"gradient-reverse", "random", "ipm", "alie"}

// timeCalls calls fn until 20 ms and three calls have passed (three calls are
// enough at smoke scale) and returns the mean time and the mean heap
// allocations of a call, the time in microseconds.
func (v *visit) timeCalls(fn func() error) (usPerCall, allocs float64, err error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	start := time.Now()
	calls := 0
	for calls < 3 || (!v.o.Smoke && time.Since(start) < 20*time.Millisecond) {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		calls++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return us(elapsed) / float64(calls), float64(ms.Mallocs-before) / float64(calls), nil
}

// direct times the layers no seam reaches, by direct calls on inputs of the
// workload's shape, and each filter and behavior on its own.
func (v *visit) direct(m map[string]float64, warm passResult) error {
	w := v.w
	r := rand.New(rand.NewSource(v.o.Seed))
	gauss := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		return x
	}

	// sweep: expand, export, checkpoint, and one result through a sweep frame.
	spec := w.spec(passSeed(v.o.Seed, v.o.Visit, 0))
	cells := warm.cells
	if !w.grid() {
		scns, err := byzopt.SweepScenarios(spec)
		if err != nil {
			return err
		}
		// tcp_cluster has no grid: the one cell a sweep of the same shape
		// would report.
		cells = []byzopt.SweepResult{{Scenario: scns[0], GridTotal: 1, FinalX: warm.x}}
	}
	if len(cells) == 0 {
		return fmt.Errorf("no cells to time the sweep layer on: the warm-up pass failed")
	}
	n := float64(len(cells))
	d, _, err := v.timeCalls(func() error { _, err := byzopt.SweepScenarios(spec); return err })
	if err != nil {
		return err
	}
	m["sweep.expand_us_per_cell"] = d / n
	var doc []byte
	d, _, err = v.timeCalls(func() (err error) { doc, err = export(cells); return err })
	if err != nil {
		return err
	}
	m["sweep.export_us_per_cell"] = d / n
	m["sweep.export_bytes_per_cell"] = float64(len(doc)) / n

	path := filepath.Join(v.base.tmp, "direct.ckpt")
	ckpt, err := sweep.OpenCheckpoint(path)
	if err != nil {
		return err
	}
	ckpt.CompactEvery = -1 // keep every append in the log, to size it
	appends := make([]time.Duration, len(cells))
	for i := range cells {
		start := time.Now()
		if err := ckpt.Append(cells[i]); err != nil {
			_ = ckpt.Close()
			return err
		}
		appends[i] = time.Since(start)
	}
	info, err := os.Stat(path)
	if err != nil {
		_ = ckpt.Close()
		return err
	}
	if err := ckpt.Close(); err != nil {
		return err
	}
	m["sweep.checkpoint_append_us_p50"] = us(median(appends))
	m["sweep.checkpoint_bytes_per_cell"] = float64(info.Size()) / n

	row, err := json.Marshal(&cells[len(cells)/2])
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	d, _, err = v.timeCalls(func() error {
		buf.Reset()
		if err := transport.WriteSweepFrame(&buf, transport.SweepKindResult, json.RawMessage(row)); err != nil {
			return err
		}
		_, err := transport.ReadSweepFrame(&buf)
		return err
	})
	if err != nil {
		return err
	}
	m["transport.sweepframe_us"] = d

	// p2p: one EIG broadcast at the shape of p2p_grid's widest cells, with an
	// equivocating relay.
	value := p2p.EncodeVector(gauss(w.d))
	liar := map[int]p2p.Distorter{1: p2p.SplitLiar{}}
	d, allocs, err := v.timeCalls(func() error { _, err := p2p.Broadcast(7, 2, 0, value, liar); return err })
	if err != nil {
		return err
	}
	m["p2p.broadcast_us"], m["p2p.broadcast_allocs"] = d, allocs

	// vecmath and matrix kernels at the workload's dimension.
	a, b := gauss(w.d), gauss(w.d)
	d, _, err = v.timeCalls(func() error {
		for i := 0; i < 1000; i++ {
			if _, err := vecmath.Dist(a, b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["vecmath.dist_ns_per_elem"] = d * 1e3 / float64(1000*w.d)
	mat, err := matrix.New(w.n, w.d, gauss(w.n*w.d))
	if err != nil {
		return err
	}
	dst := make([]float64, w.n)
	d, _, err = v.timeCalls(func() error {
		for i := 0; i < 100; i++ {
			if err := mat.MulVecInto(dst, a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["matrix.mulvec_ns_per_elem"] = d * 1e3 / float64(100*w.n*w.d)

	// aggregate: every filter of wide_grid on n gradients of the workload's
	// shape, through the face the engines call.
	grads := make([][]float64, w.n)
	for i := range grads {
		grads[i] = gauss(w.d)
	}
	out := make([]float64, w.d)
	for _, name := range wideFilters {
		fl, err := byzopt.NewFilter(name)
		if err != nil {
			return err
		}
		if sc, ok := fl.(aggregate.SketchConfigurable); ok {
			sc.ConfigureSketch(16, v.o.Seed)
		}
		if sc, ok := fl.(aggregate.SeedConfigurable); ok {
			sc.ConfigureSeed(v.o.Seed)
		}
		into, ok := fl.(aggregate.IntoFilter)
		if !ok {
			return fmt.Errorf("filter %s has no Into face", name)
		}
		keyed, _ := fl.(aggregate.RoundKeyed)
		scratch, round := new(aggregate.Scratch), 0
		d, _, err := v.timeCalls(func() error {
			if keyed != nil {
				keyed.SetRound(round)
				round++
			}
			return into.AggregateInto(out, grads, w.f, scratch)
		})
		if err != nil {
			return fmt.Errorf("filter %s at n=%d f=%d: %w", name, w.n, w.f, err)
		}
		m["aggregate.us_per_call."+name] = d
	}

	// byzantine: each behavior of paper_grid on a gradient of the workload's
	// dimension, seeing the n-f honest ones when it is omniscient.
	honest := grads[w.f:]
	for _, name := range directBehaviors {
		bh, err := byzopt.NewBehavior(name, v.o.Seed)
		if err != nil {
			return err
		}
		omni, _ := bh.(byzantine.Omniscient)
		round := 0
		d, _, err := v.timeCalls(func() (err error) {
			for i := 0; i < 100; i++ {
				if omni != nil {
					_, err = omni.ApplyOmniscient(round, 0, grads[0], honest)
				} else {
					_, err = bh.Apply(round, 0, grads[0])
				}
				if err != nil {
					return err
				}
				round++
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("behavior %s: %w", name, err)
		}
		m["byzantine.us_per_call."+name] = d / 100
	}
	return nil
}
