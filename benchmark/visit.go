package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"byzopt"
)

// A visit is one fresh process running one workload on one processor: set-up,
// one untimed warm-up pass, then the timed passes. The parent pools the passes
// of three visits and reads set-up time and peak memory three times.
type visitOpts struct {
	Workload string
	Seed     int64
	Visit    int
	Seconds  float64   // how long the timed passes run
	Checks   bool      // also run the checks that cost a pass (2 and 3)
	Trace    bool      // a traced visit: per-layer metrics, not end-to-end ones
	Smoke    bool      // the tests' scale: one timed pass, at most 20 rounds
	Tmp      string    // scratch directory inside the checkout
	Started  time.Time // when the parent started this process
}

// visitReport is what a visit hands its parent, as one JSON line.
type visitReport struct {
	Workload string `json:"workload"`
	Visit    int    `json:"visit"`
	// Passes are the timed passes, from which the parent computes the
	// end-to-end metrics (endToEndOf); the rest is what they need besides.
	Passes     []passRecord `json:"passes"`
	SetupS     float64      `json:"setup_s"`               // process start to end of warm-up pass
	PeakRSSMB  float64      `json:"peak_rss_mb"`           // ru_maxrss after the timed passes
	Cells      int          `json:"cells"`                 // attempted by the timed passes (rounds on tcp_cluster)
	Rounds     int          `json:"rounds"`                // run by the timed passes
	Mallocs    uint64       `json:"mallocs"`               // MemStats.Mallocs over the timed passes
	AllocBytes uint64       `json:"alloc_bytes"`           // MemStats.TotalAlloc over the timed passes
	CellRounds []int        `json:"cell_rounds,omitempty"` // grids: rounds of each grid cell
	// Sequential says that a pass runs its cells one after another on the
	// clock that timed the pass, so its wall time is the sum of its parts.
	Sequential bool `json:"sequential"`
	// Attempted and Failed count cells (rounds on tcp_cluster) and those
	// whose outcome is not the expected one; an errored pass or a failed
	// check counts all the cells of a pass.
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	FailedChecks []string `json:"failed_checks,omitempty"`
	// Layers holds the per-layer metrics of a traced visit.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// passRecord is one timed pass.
type passRecord struct {
	WallS float64 `json:"wall_s"`
	CPUMS float64 `json:"cpu_ms"` // getrusage user+sys over the pass
	// CellMS is a grid pass's Result.WallMS by grid index, -1 for a skipped
	// cell. GapUS is the median and the 90th percentile of a tcp_cluster
	// pass's gaps between consecutive observer ticks.
	CellMS []float64  `json:"cell_ms,omitempty"`
	GapUS  [2]float64 `json:"gap_us"`
}

// usage is a reading of the counters a pass is charged against.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNS uint64
	heapSys uint64
	rssKB   int64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcs: ms.NumGC, pauseNS: ms.PauseTotalNs, heapSys: ms.HeapSys,
		rssKB: ru.Maxrss,
	}
}

// visit is the state of a running visit.
type visit struct {
	o    visitOpts
	w    *workload
	rep  *visitReport
	base passOpts  // the measured shape of a pass
	want int       // cells per pass (1 on tcp_cluster)
	refX []float64 // tcp_cluster: byzopt.Run's final estimate, check 4
}

// fail records a failed check or pass: it is named on stderr and counts every
// cell of a pass, so it shows in failed_share and never drops out silently.
func (v *visit) fail(check string, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: %s visit %d: %s FAILED: %s\n", v.w.name, v.o.Visit, check, fmt.Sprintf(format, args...))
	v.rep.FailedChecks = append(v.rep.FailedChecks, check)
	v.rep.Failed += v.unitsPerPass()
	v.rep.Attempted += v.unitsPerPass()
}

// unitsPerPass is what a pass attempts, the workload's cells: grid cells, or
// server rounds on tcp_cluster, which has no grid.
func (v *visit) unitsPerPass() int {
	if v.w.grid() {
		return v.want
	}
	return v.base.cluster.rounds
}

// runVisit runs one visit to the end and reports it. An error means the visit
// could not run at all; failed passes and checks are in the report.
func runVisit(o visitOpts) (*visitReport, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(visitProcs))
	w := findWorkload(workloads(o.Smoke), o.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if err := os.MkdirAll(o.Tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.Tmp, "visit-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(tmp) }()

	v := &visit{o: o, w: w, rep: &visitReport{Workload: w.name, Visit: o.Visit}, base: passOpts{tmp: tmp}, want: 1}
	if w.grid() {
		scns, err := byzopt.SweepScenarios(w.spec(0))
		if err != nil {
			return nil, err
		}
		v.want = len(scns)
		v.rep.CellRounds = make([]int, v.want)
		v.rep.Sequential = sweepWorkers == 1 && !w.fleet
	} else {
		v.base.cluster, err = newClusterJob(o.Seed, w.n, w.d, w.f, w.spec(0).Rounds)
		if err != nil {
			return nil, err
		}
	}
	warm, warmErr := w.runPass(passSeed(o.Seed, o.Visit, 0), v.base)
	v.rep.SetupS = time.Since(o.Started).Seconds()
	if warmErr != nil {
		v.fail("warm-up pass", "%v", warmErr)
	}
	if !w.grid() {
		cfg, err := v.base.cluster.config()
		if err != nil {
			return nil, err
		}
		ref, err := byzopt.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("in-process reference run: %w", err)
		}
		v.refX = ref.X
	}
	v.account(passSeed(o.Seed, o.Visit, 0), &warm, warmErr, nil)

	if o.Trace {
		err = v.traced(warm)
	} else {
		v.timed()
		v.rep.PeakRSSMB = float64(readUsage().rssKB) / 1024
		if o.Checks && warmErr == nil {
			v.costlyChecks(warm)
		}
	}
	return v.rep, err
}

// timed runs the timed passes: until the visit's seconds are used, rounded to
// the nearest whole pass, and at least one.
func (v *visit) timed() {
	start := time.Now()
	for i := 1; ; i++ {
		before := readUsage()
		seed := passSeed(v.o.Seed, v.o.Visit, i)
		res, err := v.w.runPass(seed, v.base)
		after := readUsage()
		rec := passRecord{WallS: res.wall.Seconds(), CPUMS: (after.cpu - before.cpu).Seconds() * 1e3}
		v.rep.Mallocs += after.mallocs - before.mallocs
		v.rep.AllocBytes += after.bytes - before.bytes
		v.account(seed, &res, err, &rec)
		v.rep.Passes = append(v.rep.Passes, rec)
		if v.budgetUsed(start, i) {
			return
		}
	}
}

// budgetUsed reports whether the visit's seconds are used after i turns of its
// loop, to the nearest whole turn. At smoke scale one turn is all.
func (v *visit) budgetUsed(start time.Time, i int) bool {
	elapsed := time.Since(start)
	return v.o.Smoke || elapsed+elapsed/time.Duration(2*i) >= time.Duration(v.o.Seconds*float64(time.Second))
}

// account checks a pass's outcomes (checks 1, 4 and 5, which cost nothing).
// A pass with a record is part of the load: its cells are attempted and its
// samples go into the record. The others count only when they fail.
func (v *visit) account(seed int64, res *passResult, err error, rec *passRecord) {
	rep := v.rep
	units := v.unitsPerPass()
	bad, first := 0, ""
	switch {
	case err != nil:
		bad, first = units, err.Error()
	case v.w.grid():
		bad, first = checkCells(res.cells, v.want, v.w.name == "paper_grid" && !v.o.Smoke)
	case !sameFloats(res.x, v.refX):
		bad, first = units, "final X differs from byzopt.Run on the same config"
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s visit %d: outcome of the pass with seed %d FAILED (%d of %d): %s\n", v.w.name, v.o.Visit, seed, bad, units, first)
		rep.FailedChecks = append(rep.FailedChecks, "pass outcome")
	}
	if rec == nil {
		if bad > 0 {
			rep.Attempted += units
			rep.Failed += bad
		}
		return
	}
	rep.Attempted += units
	rep.Failed += bad
	rep.Cells += units
	if !v.w.grid() {
		rep.Rounds += len(res.gaps)
		rec.GapUS = [2]float64{us(quantileDur(res.gaps, 0.5)), us(quantileDur(res.gaps, 0.9))}
		return
	}
	rec.CellMS = make([]float64, v.want)
	for i := range rec.CellMS {
		rec.CellMS[i] = -1
	}
	for i := range res.cells {
		c := &res.cells[i]
		if c.Skipped || c.GridIndex >= v.want {
			continue
		}
		rep.Rounds += c.Rounds
		rep.CellRounds[c.GridIndex] = c.Rounds
		rec.CellMS[c.GridIndex] = c.WallMS
	}
}

// costlyChecks runs the checks that cost a pass, against the warm-up pass.
// Check 2: the same spec at two workers exports the same bytes. Check 3
// (fleet_grid): byzopt.Sweep on the same spec exports the same bytes.
func (v *visit) costlyChecks(warm passResult) {
	if !v.w.grid() {
		return // check 4 ran on every pass
	}
	name, o := "check 2 (two-worker export)", v.base
	o.twoWorkers = true
	if v.w.fleet {
		name, o = "check 3 (fleet export equals in-process export)", v.base
		o.inProcess = true
	}
	again, err := v.w.runPass(passSeed(v.o.Seed, v.o.Visit, 0), o)
	if err != nil {
		v.fail(name, "%v", err)
		return
	}
	if err := sameExport(warm.cells, again.cells); err != nil {
		v.fail(name, "%v", err)
	}
}

func sameExport(a, b []byzopt.SweepResult) error {
	ea, err := export(a)
	if err != nil {
		return err
	}
	eb, err := export(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ea, eb) {
		return fmt.Errorf("exports differ (%d and %d bytes)", len(ea), len(eb))
	}
	return nil
}
