package main

import (
	"context"
	"runtime"
	"sort"
	"time"

	"byzopt"
	"byzopt/internal/dgd"
)

// traced runs a traced visit: the per-layer metrics. It is a separate run,
// never mixed into the end-to-end numbers. It alternates, same seed each
// turn, a traced pass of the measured shape (one worker, so spans nest and
// self times add up), the same pass untraced, and a pass of two workers on
// two processors; the first two must export the same bytes, and their ratio is
// the tracing overhead.
func (v *visit) traced(warm passResult) error {
	var (
		w          = v.w
		tr         = &tracer{}
		tcp        = &tcpTrace{}
		wire       = &wireCount{}
		tracedWall []time.Duration // traced
		plainWall  []time.Duration // untraced, the measured shape
		pairWall   []time.Duration // untraced, two workers on two processors
		fleetWall  []time.Duration // fleet_grid: through coordinator and workers
		tcpRun     time.Duration   // tcp_cluster: total of the traced Server.Run spans
		gaps       []time.Duration // tcp_cluster: round gaps of the untraced passes
		load       usage           // what the passes of the measured shape consumed
	)
	charge := func(before, after usage) {
		load.gcs += after.gcs - before.gcs
		load.pauseNS += after.pauseNS - before.pauseNS
	}
	start := time.Now()
	for i := 1; ; i++ {
		seed := passSeed(v.o.Seed, v.o.Visit, i)
		o := v.base
		o.inProcess = true
		o.trace, o.tcp, o.wire = tr, tcp, wire
		if w.fleet {
			o.wire = nil // the fleet's listener is counted on the fleet pass below
		}
		a, err := w.runPass(seed, o)
		v.account(seed, &a, err, new(passRecord))
		tracedWall = append(tracedWall, a.wall)
		tcpRun += a.run

		o = v.base
		o.inProcess = true
		before := readUsage()
		b, err := w.runPass(seed, o)
		after := readUsage()
		v.account(seed, &b, err, nil)
		plainWall = append(plainWall, b.wall)
		gaps = append(gaps, b.gaps...)
		if err == nil && w.grid() {
			if err := sameExport(a.cells, b.cells); err != nil {
				v.fail("traced export equals untraced export", "%v", err)
			}
		}

		// tcp_cluster has no worker count to raise: two processors alone.
		o.twoWorkers = true
		procs := runtime.GOMAXPROCS(2)
		c, err := w.runPass(seed, o)
		runtime.GOMAXPROCS(procs)
		v.account(seed, &c, err, nil)
		pairWall = append(pairWall, c.wall)

		if !w.fleet {
			charge(before, after)
		} else {
			o = v.base
			o.wire = wire
			before := readUsage()
			d, err := w.runPass(seed, o)
			charge(before, readUsage())
			v.account(seed, &d, err, nil)
			fleetWall = append(fleetWall, d.wall)
		}
		if v.budgetUsed(start, i) {
			break
		}
	}

	passes := float64(len(tracedWall))
	cells := passes * float64(v.unitsPerPass())
	wall := sum(tracedWall)
	m := map[string]float64{}
	v.rep.Layers = m
	share := func(d time.Duration) float64 { return d.Seconds() / wall.Seconds() }
	perCall := func(d time.Duration, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return us(d) / float64(calls)
	}

	// Spans of the workload's own substrate. Self time is a span minus its
	// child spans: the pass minus the Run spans is the sweep's own, a Run
	// span minus the agent and filter spans the substrate's own.
	var rounds float64
	var layerDur [numLayers]time.Duration
	var layerCalls [numLayers]int64
	run := tr.run
	if w.grid() {
		rounds = float64(tr.rounds)
		layerDur, layerCalls = tr.dur, tr.calls
	} else {
		rounds = passes * float64(v.base.cluster.rounds)
		run = tcpRun
		layerDur[layerAggregate], layerCalls[layerAggregate] = tcp.server.rt.dur[layerAggregate], tcp.server.rt.calls[layerAggregate]
		layerDur[layerCostfunc], layerCalls[layerCostfunc] = sum(tcp.honest.durs), int64(len(tcp.honest.durs))
		layerDur[layerByzantine], layerCalls[layerByzantine] = sum(tcp.faulty.durs), int64(len(tcp.faulty.durs))
		layerDur[layerSubstrate] = run - layerDur[layerAggregate] // agents answer on their own goroutines
	}
	m["sweep.self_us_per_cell"] = us(wall-run) / cells
	m["sweep.self_share"] = share(wall - run)
	m["dgd.self_share"], m["p2p.self_share"], m["cluster.self_share"] = 0, 0, 0
	m[w.substrate+".self_share"] = share(layerDur[layerSubstrate])
	m["aggregate.share"] = share(layerDur[layerAggregate])
	m["costfunc.share"] = share(layerDur[layerCostfunc])
	m["byzantine.share"] = share(layerDur[layerByzantine])
	m["aggregate.filter_us_per_round"] = us(layerDur[layerAggregate]) / rounds
	m["aggregate.filter_calls"] = float64(layerCalls[layerAggregate]) / passes
	m["costfunc.grad_us_per_call"] = perCall(layerDur[layerCostfunc], layerCalls[layerCostfunc])
	m["costfunc.grad_calls"] = float64(layerCalls[layerCostfunc]) / passes
	m["byzantine.faulty_us_per_call"] = perCall(layerDur[layerByzantine], layerCalls[layerByzantine])
	m["byzantine.faulty_calls"] = float64(layerCalls[layerByzantine]) / passes
	switch w.substrate {
	case "dgd", "p2p":
		m[w.substrate+".self_us_per_round"] = us(layerDur[layerSubstrate]) / rounds
	case "cluster":
		tcpMetrics(m, tcp, wire, gaps, rounds)
	}
	// The substrates the workload does not run, probed at its shape.
	if err := v.probe(m); err != nil {
		return err
	}

	m["trace.overhead_ratio"] = median(tracedWall).Seconds() / median(plainWall).Seconds()
	m["sweep.speedup_2w"] = median(plainWall).Seconds() / median(pairWall).Seconds()
	m["sweep.fleet_overhead_ratio"], m["transport.bytes_per_cell"], m["transport.writes_per_cell"] = 0, 0, 0
	if w.fleet {
		m["sweep.fleet_overhead_ratio"] = median(fleetWall).Seconds() / median(plainWall).Seconds()
		m["transport.bytes_per_cell"] = float64(wire.bytes.Load()) / cells
		m["transport.writes_per_cell"] = float64(wire.writes.Load()) / cells
	}
	m["runtime.gc_cycles_per_kcell"] = float64(load.gcs) / cells * 1e3
	m["runtime.gc_pause_ms"] = float64(load.pauseNS) / 1e6 / passes
	m["runtime.heap_peak_mb"] = float64(readUsage().heapSys) / (1 << 20)

	return v.direct(m, warm)
}

// tcpMetrics fills the cluster and transport metrics from the spans of a
// traced deployment: request minus producer is encode, two socket hops and
// decode.
func tcpMetrics(m map[string]float64, tcp *tcpTrace, wire *wireCount, gaps []time.Duration, rounds float64) {
	m["cluster.round_us_p99"] = us(quantileDur(gaps, 0.99))
	m["transport.request_us_p50"] = us(quantileDur(tcp.request.durs, 0.5))
	m["transport.request_us_p99"] = us(quantileDur(tcp.request.durs, 0.99))
	m["transport.producer_us_p50"] = us(quantileDur(append(tcp.honest.durs, tcp.faulty.durs...), 0.5))
	m["transport.bytes_per_round"] = float64(wire.bytes.Load()) / rounds
	m["transport.writes_per_round"] = float64(wire.writes.Load()) / rounds
}

// probe measures the substrates the workload does not run, so every workload
// reports the round cost of all three at its own shape: one 50-round run of
// single-row least-squares agents, CWTM and gradient-reversing faults. The
// shape is clamped to n <= 7 and f <= (n-1)/3, what EIG broadcast admits at a
// cost a probe can pay.
func (v *visit) probe(m map[string]float64) error {
	w := v.w
	n := min(w.n, 7)
	job, err := newClusterJob(v.o.Seed, n, w.d, min(w.f, (n-1)/3), rounds(50, v.o.Smoke))
	if err != nil {
		return err
	}
	for _, sub := range []struct {
		name    string
		backend dgd.Backend
	}{{"dgd", byzopt.InProcessBackend()}, {"p2p", byzopt.P2PBackend()}} {
		if sub.name == w.substrate {
			continue
		}
		cfg, err := job.config()
		if err != nil {
			return err
		}
		tr := &tracer{}
		if _, err := tr.backend(sub.backend).Run(context.Background(), cfg); err != nil {
			return err
		}
		m[sub.name+".self_us_per_round"] = us(tr.dur[layerSubstrate]) / float64(tr.rounds)
	}
	if w.substrate != "cluster" {
		tcp, wire := &tcpTrace{}, &wireCount{}
		res, err := job.run(passOpts{tcp: tcp, wire: wire})
		if err != nil {
			return err
		}
		tcpMetrics(m, tcp, wire, res.gaps, float64(job.rounds))
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func median(ds []time.Duration) time.Duration { return quantileDur(ds, 0.5) }

// quantileDur is the q-quantile of ds by linear interpolation; it sorts a copy.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(quantile(fs, q))
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; it sorts a copy and returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
