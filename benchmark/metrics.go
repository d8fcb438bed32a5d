package main

import "sort"

// metricDef declares a metric as BENCHMARK.json does.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the relative worsening that is a regression
}

// endToEnd are the metrics a user of the system sees, computed by endToEndOf
// from the timed passes of a run's visits. Every workload reports every one:
// on a grid a cell is a grid cell and a round one DGD round of a non-skipped
// cell; on tcp_cluster, which has no grid, both are the server round.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"cell_ms_p50", "ms", "lower", 0.25},
	{"cell_ms_p90", "ms", "lower", 0.25},
	{"rounds_per_s", "rounds/s", "higher", 0.25},
	{"round_us_p50", "us", "lower", 0.25},
	{"cpu_ms_per_cell", "ms", "lower", 0.25},
	{"cpu_ms_per_round", "ms", "lower", 0.25},
	{"allocs_per_cell", "count", "lower", 0.02},
	{"alloc_kb_per_cell", "KB", "lower", 0.02},
	{"allocs_per_round", "count", "lower", 0.05},
	{"alloc_kb_per_round", "KB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, from a traced visit. Layers are
// the repo's module names.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sweep.self_us_per_cell", Unit: "us", Better: "lower"},
		{Name: "sweep.self_share", Unit: "ratio", Better: "lower"},
		{Name: "sweep.speedup_2w", Unit: "ratio", Better: "higher"},
		{Name: "sweep.expand_us_per_cell", Unit: "us", Better: "lower"},
		{Name: "sweep.export_us_per_cell", Unit: "us", Better: "lower"},
		{Name: "sweep.export_bytes_per_cell", Unit: "bytes", Better: "lower"},
		{Name: "sweep.fleet_overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "sweep.checkpoint_append_us_p50", Unit: "us", Better: "lower"},
		{Name: "sweep.checkpoint_bytes_per_cell", Unit: "bytes", Better: "lower"},
		{Name: "dgd.self_us_per_round", Unit: "us", Better: "lower"},
		{Name: "dgd.self_share", Unit: "ratio", Better: "lower"},
		{Name: "p2p.self_us_per_round", Unit: "us", Better: "lower"},
		{Name: "p2p.self_share", Unit: "ratio", Better: "lower"},
		{Name: "p2p.broadcast_us", Unit: "us", Better: "lower"},
		{Name: "p2p.broadcast_allocs", Unit: "count", Better: "lower"},
		{Name: "aggregate.filter_us_per_round", Unit: "us", Better: "lower"},
		{Name: "aggregate.filter_calls", Unit: "count", Better: "lower"},
		{Name: "aggregate.share", Unit: "ratio", Better: "lower"},
	}
	for _, f := range wideFilters {
		defs = append(defs, metricDef{Name: "aggregate.us_per_call." + f, Unit: "us", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "costfunc.grad_us_per_call", Unit: "us", Better: "lower"},
		metricDef{Name: "costfunc.grad_calls", Unit: "count", Better: "lower"},
		metricDef{Name: "costfunc.share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "byzantine.faulty_us_per_call", Unit: "us", Better: "lower"},
		metricDef{Name: "byzantine.faulty_calls", Unit: "count", Better: "lower"},
		metricDef{Name: "byzantine.share", Unit: "ratio", Better: "lower"},
	)
	for _, b := range directBehaviors {
		defs = append(defs, metricDef{Name: "byzantine.us_per_call." + b, Unit: "us", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "vecmath.dist_ns_per_elem", Unit: "ns", Better: "lower"},
		metricDef{Name: "matrix.mulvec_ns_per_elem", Unit: "ns", Better: "lower"},
		metricDef{Name: "cluster.round_us_p99", Unit: "us", Better: "lower"},
		metricDef{Name: "cluster.self_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "transport.request_us_p50", Unit: "us", Better: "lower"},
		metricDef{Name: "transport.request_us_p99", Unit: "us", Better: "lower"},
		metricDef{Name: "transport.producer_us_p50", Unit: "us", Better: "lower"},
		metricDef{Name: "transport.bytes_per_round", Unit: "bytes", Better: "lower"},
		metricDef{Name: "transport.writes_per_round", Unit: "count", Better: "lower"},
		metricDef{Name: "transport.bytes_per_cell", Unit: "bytes", Better: "lower"},
		metricDef{Name: "transport.writes_per_cell", Unit: "count", Better: "lower"},
		metricDef{Name: "transport.sweepframe_us", Unit: "us", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles_per_kcell", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	)
}()

// undisturbed is the quantile a timing is read at over the timed passes: the
// first quartile. Whatever else runs on a shared host only ever adds time to a
// pass, so the fast side of the passes repeats from run to run where their
// median follows how busy the host was; a quarter of the passes, not the one
// fastest, so that a single lucky pass decides nothing.
const undisturbed = 0.25

// endToEndOf computes the end-to-end metrics over the timed passes of the
// given visits, pooled. Timings are read at the undisturbed quantile of the
// passes, counts are totals, and of what a visit has once, set-up time is the
// median over the visits and peak memory the smallest: the collector now and
// then falls a cycle behind a fast allocator (one paper_grid visit in three
// peaks at 14 to 21 MB instead of 11), and that only ever adds.
//
// The wall time of a pass is read part by part where a pass is sequential: at
// one sweep worker a grid pass is its cells one after another and the sweep's
// own time around them, and the undisturbed pass is the sum of the undisturbed
// parts. A disturbance then costs the cells it hit, not the whole of a
// wide_grid pass, which takes two seconds and comes twelve times in a run.
//
// The per-cell quantiles are taken over the grid's cells, each cell at its
// undisturbed time over the passes: a grid is a few populations of like cells
// (paper_grid's random cells cost 20 times the others), and quantiles of the
// pooled samples would flip between populations on a handful of samples.
func endToEndOf(visits []*visitReport) map[string]float64 {
	var (
		walls, cpus, setups, rss []float64
		own                      []float64 // sequential grids: each pass's wall time outside its cells
		sequential               = true
		gapP50, gapP90           []float64   // tcp_cluster: each pass's gap quantiles
		samples                  [][]float64 // grids: each cell's WallMS, one sample a pass
		cellRounds               []int
		cells, rounds            float64
		mallocs, kb              float64
	)
	for _, v := range visits {
		setups, rss = append(setups, v.SetupS), append(rss, v.PeakRSSMB)
		cells, rounds = cells+float64(v.Cells), rounds+float64(v.Rounds)
		mallocs, kb = mallocs+float64(v.Mallocs), kb+float64(v.AllocBytes)/1024
		cellRounds, sequential = v.CellRounds, sequential && v.Sequential
		for _, p := range v.Passes {
			walls, cpus = append(walls, p.WallS), append(cpus, p.CPUMS)
			if p.CellMS == nil {
				gapP50, gapP90 = append(gapP50, p.GapUS[0]), append(gapP90, p.GapUS[1])
				continue
			}
			if samples == nil {
				samples = make([][]float64, len(p.CellMS))
			}
			outside := p.WallS
			for i, ms := range p.CellMS {
				if ms >= 0 {
					samples[i] = append(samples[i], ms)
					outside -= ms / 1e3
				}
			}
			own = append(own, outside)
		}
	}
	var cellMS, roundUS []float64
	for i, s := range samples {
		if len(s) > 0 { // not a skipped cell
			ms := quantile(s, undisturbed)
			cellMS = append(cellMS, ms)
			roundUS = append(roundUS, ms*1e3/float64(cellRounds[i]))
		}
	}
	m := map[string]float64{
		"cell_ms_p50":  quantile(cellMS, 0.5),
		"cell_ms_p90":  quantile(cellMS, 0.9),
		"round_us_p50": quantile(roundUS, 0.5),
	}
	if samples == nil {
		m["round_us_p50"] = quantile(gapP50, undisturbed)
		m["cell_ms_p50"] = m["round_us_p50"] / 1e3
		m["cell_ms_p90"] = quantile(gapP90, undisturbed) / 1e3
	}
	// Every pass of a workload attempts the same cells and rounds, so the
	// work per pass is the total over the pass count.
	passes, wall, cpu := float64(len(walls)), quantile(walls, undisturbed), quantile(cpus, undisturbed)
	if sequential {
		wall = quantile(own, undisturbed)
		for _, ms := range cellMS {
			wall += ms / 1e3
		}
	}
	m["setup_s"] = quantile(setups, 0.5)
	m["cells_per_s"] = cells / passes / wall
	m["rounds_per_s"] = rounds / passes / wall
	m["cpu_ms_per_cell"] = cpu / (cells / passes)
	m["cpu_ms_per_round"] = cpu / (rounds / passes)
	m["allocs_per_cell"] = mallocs / cells
	m["alloc_kb_per_cell"] = kb / cells
	m["allocs_per_round"] = mallocs / rounds
	m["alloc_kb_per_round"] = kb / rounds
	m["peak_rss_mb"] = quantile(rss, 0)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) gives them (the exclusive method),
// so a spread computed here is the one the driver computes.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return [3]float64{}
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
