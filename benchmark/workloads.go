package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"byzopt"
	"byzopt/internal/cluster"
	"byzopt/internal/dgd"
	"byzopt/internal/transport"
)

// A workload is one set of inputs the benchmark runs. A pass is one complete
// call of the workload's entry point: a sweep for the five grids, one
// deployment from listen to close for tcp_cluster.
type workload struct {
	name string
	why  string
	// spec returns the grid of one pass under the given pass seed. For
	// tcp_cluster, which has no grid, it is the one-cell grid of the same
	// shape, used only by the direct sweep-layer measurements.
	spec func(seed int64) byzopt.SweepSpec
	// n, d, f are the shape the direct measurements and substrate probes run
	// at: the largest n and d the workload reaches, and an f every measured
	// filter admits there.
	n, d, f int
	// substrate names the engine that executes the workload's rounds: "dgd",
	// "p2p" or "cluster".
	substrate string
	fleet     bool // passes go through CoordinateSweep and two SweepWork workers
}

func (w *workload) grid() bool { return w.substrate != "cluster" }

// The fixed load: one process, one sweep worker, one processor (a visit runs at
// GOMAXPROCS 1). Neither follows the machine, so a run means the same thing on
// any of them, and on a shared two-core host the second core is left to
// whatever else runs there: with two workers on two processors a pass ends
// with the slower worker, and with two processors the garbage collector's own
// worker waits for the busy one (p2p_grid read 25 to 40 % apart between runs
// that way, 3 % on one processor).
const (
	sweepWorkers = 1
	visitProcs   = 1
	fleetWorkers = 2 // fleet_grid: workers beside the coordinator, one sweep worker each
)

// paperEpsilon is the (2f, ε)-redundancy of the Appendix-J instance, the
// resilience radius Theorems 4 to 6 promise CGE and CWTM at f = 1.
const paperEpsilon = 0.0890

var paperFilters = []string{"mean", "cge", "cge-avg", "cwtm", "cwmedian", "krum", "geomedian", "centeredclip"}

// rounds scales a workload's round count: the smoke scale the tests run keeps
// every grid shape and cuts only the rounds, to at most 20.
func rounds(full int, smoke bool) int {
	if smoke {
		return max(2, full/25)
	}
	return full
}

func workloads(smoke bool) []*workload {
	return []*workload{
		{
			name: "paper_grid",
			why:  "the paper's Table-1 grid on tiny cells: per-round overhead, byzantine and per-cell sweep cost dominate",
			n:    6, d: 2, f: 1, substrate: "dgd",
			spec: func(seed int64) byzopt.SweepSpec {
				return byzopt.SweepSpec{
					Problem:   "paper",
					Filters:   paperFilters,
					Behaviors: []string{"gradient-reverse", "random", "ipm", "alie"},
					FValues:   []int{1, 2},
					Rounds:    rounds(500, smoke),
					Seed:      seed,
				}
			},
		},
		{
			name: "wide_grid",
			why:  "n up to 200, d=50: filter kernels dominate and the random behavior is absent, so the RNG fix must not move it",
			n:    200, d: 50, f: 10, substrate: "dgd",
			spec: func(seed int64) byzopt.SweepSpec {
				return byzopt.SweepSpec{
					Problem:    "synthetic",
					Filters:    wideFilters,
					Behaviors:  []string{"gradient-reverse", "alie"},
					FValues:    []int{10},
					NValues:    []int{100, 200},
					Dims:       []int{50},
					SketchDims: []int{16},
					Rounds:     rounds(50, smoke),
					Seed:       seed,
				}
			},
		},
		{
			name: "p2p_grid",
			why:  "EIG Byzantine broadcast dominates: the only workload the EIG rewrite should move",
			n:    7, d: 2, f: 2, substrate: "p2p",
			spec: func(seed int64) byzopt.SweepSpec {
				return byzopt.SweepSpec{
					Problem:   "synthetic",
					Filters:   []string{"cge", "cwtm", "mean"},
					Behaviors: []string{"gradient-reverse", "equivocate"},
					FValues:   []int{1, 2},
					NValues:   []int{7},
					Dims:      []int{2},
					Rounds:    rounds(100, smoke),
					Seed:      seed,
					Backend:   byzopt.P2PBackend(),
				}
			},
		},
		{
			name: "overlay_grid",
			why:  "the dgd round loop under the virtual-time and chaos overlay: a cost free on the sync path shows only here",
			n:    20, d: 10, f: 2, substrate: "dgd",
			spec: func(seed int64) byzopt.SweepSpec {
				return byzopt.SweepSpec{
					Problem:   "synthetic",
					Filters:   []string{"cge", "cwtm", "cwmedian", "geomedian"},
					Behaviors: []string{"gradient-reverse", "random"},
					FValues:   []int{2},
					NValues:   []int{20},
					Dims:      []int{10},
					// The deadline lets 12 % of the reports arrive late. At the
					// issue's 2.5 (25 % late) a round 0 with four reports on
					// time, which cwtm, cwmedian and geomedian refuse at f=2,
					// turns up once in 14 000 passes: a failed cell the
					// driver would meet.
					Asyncs: []byzopt.AsyncSpec{
						{Latency: byzopt.LatencyPareto, Base: 1, Alpha: 1.5, StragglerRate: 0.2, StragglerFactor: 5,
							Policy: byzopt.CollectFirstK, K: 16, Stale: byzopt.StaleReuse, MaxStale: 3},
						{Latency: byzopt.LatencyUniform, Base: 1, Spread: 2,
							Policy: byzopt.CollectDeadline, Deadline: 2.75, Stale: byzopt.StaleWeighted},
					},
					Chaoses: []byzopt.ChaosSpec{
						{},
						{OmitRate: 0.2, Attempts: 2, RetryDelay: 0.1},
						{CrashRate: 0.1, DupRate: 0.1, DelayRate: 0.2, Delay: 0.5},
					},
					Rounds: rounds(200, smoke),
					Seed:   seed,
				}
			},
		},
		{
			name: "tcp_cluster",
			why:  "the Figure-1 deployment on loopback sockets: the only workload through gradframe, tcp and cluster.Server.Run",
			n:    6, d: 1000, f: 1, substrate: "cluster",
			spec: func(seed int64) byzopt.SweepSpec {
				return byzopt.SweepSpec{
					Problem:   "synthetic",
					Filters:   []string{"cwtm"},
					Behaviors: []string{"gradient-reverse"},
					FValues:   []int{1},
					NValues:   []int{6},
					Dims:      []int{1000},
					Rounds:    rounds(400, smoke),
					Seed:      seed,
				}
			},
		},
		{
			name: "fleet_grid",
			why:  "small cells through coordinator and two workers: sweepwire frames, lease round trips, fsynced checkpoint appends",
			n:    6, d: 2, f: 1, substrate: "dgd", fleet: true,
			spec: func(seed int64) byzopt.SweepSpec {
				return byzopt.SweepSpec{
					Problem:   "paper",
					Filters:   paperFilters,
					Behaviors: []string{"gradient-reverse", "random", "zero", "ipm", "alie"},
					FValues:   []int{1, 2},
					Steps: []byzopt.StepSchedule{
						byzopt.Diminishing{C: 1.5, P: 1}, byzopt.ConstantStep{Eta: 0.05},
						byzopt.ConstantStep{Eta: 0.1}, byzopt.Diminishing{C: 1, P: 0.75},
					},
					Rounds: rounds(200, smoke),
					Seed:   seed,
				}
			},
		},
	}
}

var wideFilters = []string{"cge", "cwtm", "cwmedian", "krum", "multikrum", "geomedian", "centeredclip",
	"krum-sketch", "krum-sampled", "sdmmfd", "rvo"}

func findWorkload(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}

// passSeed is the seed rule: pass i of visit v under run seed S.
func passSeed(runSeed int64, visit, pass int) int64 {
	return 1000*runSeed + 100*int64(visit) + int64(pass)
}

// passOpts selects how a pass runs. The zero value is the measured shape: one
// sweep worker, no tracing.
type passOpts struct {
	twoWorkers bool        // grids: two sweep workers, for check 2 and sweep.speedup_2w
	trace      *tracer     // grids: record spans through Spec.Backend
	wire       *wireCount  // fleet_grid and tcp_cluster: count the listener's traffic
	tcp        *tcpTrace   // tcp_cluster: record request, producer and filter spans
	inProcess  bool        // fleet_grid: run the same spec through byzopt.Sweep instead
	tmp        string      // fleet_grid: directory for the pass's checkpoint
	cluster    *clusterJob // tcp_cluster: the deployment to run
}

// passResult is what one pass produced.
type passResult struct {
	wall  time.Duration
	cells []byzopt.SweepResult // grids
	x     []float64            // tcp_cluster: the final estimate
	gaps  []time.Duration      // tcp_cluster: time between consecutive observer ticks
	run   time.Duration        // tcp_cluster: the cluster.Server.Run span
}

// runPass executes one pass of w under the pass seed.
func (w *workload) runPass(seed int64, o passOpts) (passResult, error) {
	if !w.grid() {
		return o.cluster.run(o)
	}
	spec := w.spec(seed)
	spec.Workers = sweepWorkers
	if o.twoWorkers {
		spec.Workers = 2
	}
	if o.trace != nil {
		spec.Backend = o.trace.backend(spec.Backend)
	}
	start := time.Now()
	var (
		cells []byzopt.SweepResult
		err   error
	)
	if w.fleet && !o.inProcess {
		cells, err = runFleet(spec, o)
	} else {
		cells, err = byzopt.Sweep(spec)
	}
	return passResult{wall: time.Since(start), cells: cells}, err
}

// runFleet serves spec to two single-threaded workers over loopback, with the
// checkpoint the deployment would use. The coordinator closes the listener.
func runFleet(spec byzopt.SweepSpec, o passOpts) ([]byzopt.SweepResult, error) {
	spec.Workers = 0 // workers size their own pools; the coordinator runs no cells
	var ln net.Listener
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if o.wire != nil {
		ln = countingListener{Listener: ln, n: o.wire}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	workErrs := make([]error, fleetWorkers)
	for i := range workErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workErrs[i] = byzopt.SweepWork(ctx, addr, byzopt.SweepWorkerOptions{Workers: 1})
		}()
	}
	cells, err := byzopt.CoordinateSweep(ctx, ln, byzopt.SweepCoordinatorSpec{
		Spec:           spec,
		CheckpointPath: filepath.Join(o.tmp, fmt.Sprintf("fleet-%d.ckpt", spec.Seed)),
	})
	if err != nil {
		cancel()
	}
	wg.Wait()
	return cells, errors.Join(append(workErrs, err)...)
}

// --- tcp_cluster ---

// clusterJob is one deployment: n agents with single-row least-squares costs
// of dimension d, the first f of them gradient-reversing, CWTM at the server.
type clusterJob struct {
	costs  []byzopt.Cost
	f      int
	d      int
	rounds int
	box    *byzopt.Box
}

// newClusterJob draws the unit-norm cost rows from rand.New(seed).
func newClusterJob(seed int64, n, d, f, rounds int) (*clusterJob, error) {
	r := rand.New(rand.NewSource(seed))
	costs := make([]byzopt.Cost, n)
	for i := range costs {
		row := make([]float64, d)
		var normSq float64
		for j := range row {
			row[j] = r.NormFloat64()
			normSq += row[j] * row[j]
		}
		var dot float64
		for j := range row {
			row[j] /= math.Sqrt(normSq)
			dot += row[j] // the generator is x* = (1, ..., 1)
		}
		c, err := byzopt.SingleObservationCost(row, dot+0.05*r.NormFloat64())
		if err != nil {
			return nil, err
		}
		costs[i] = c
	}
	box, err := byzopt.NewCube(d, 1000)
	if err != nil {
		return nil, err
	}
	return &clusterJob{costs: costs, f: f, d: d, rounds: rounds, box: box}, nil
}

// agents builds fresh agents: agents carry gradient scratch, so no two runs
// share them.
func (j *clusterJob) agents() ([]byzopt.Agent, error) {
	agents, err := byzopt.HonestAgents(j.costs)
	if err != nil {
		return nil, err
	}
	reverse, err := byzopt.NewBehavior("gradient-reverse", 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < j.f; i++ {
		if agents[i], err = byzopt.ByzantineAgent(agents[i], reverse); err != nil {
			return nil, err
		}
	}
	return agents, nil
}

// config is the run in dgd terms, for the in-process reference and the
// substrate probes.
func (j *clusterJob) config() (dgd.Config, error) {
	agents, err := j.agents()
	if err != nil {
		return dgd.Config{}, err
	}
	return dgd.Config{
		Agents: agents, F: j.f, Filter: byzopt.CWTM{}, Box: j.box,
		X0: make([]float64, j.d), Rounds: j.rounds,
	}, nil
}

// tcpTrace collects the spans of traced tcp_cluster passes.
type tcpTrace struct {
	request spanLog  // server side of a request
	honest  spanLog  // agent side, honest agents: the gradient alone
	faulty  spanLog  // agent side, Byzantine agents
	server  runShims // the filter spans inside Server.Run
}

// run executes the deployment once: listen, one ServeAgent per agent,
// AcceptAgents, Server.Run, close.
func (j *clusterJob) run(o passOpts) (passResult, error) {
	agents, err := j.agents()
	if err != nil {
		return passResult{}, err
	}
	start := time.Now()
	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passResult{}, err
	}
	addr := ln.Addr().String()
	if o.wire != nil {
		ln = countingListener{Listener: ln, n: o.wire}
	}
	defer func() { _ = ln.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	agentErrs := make([]error, len(agents))
	for id, a := range agents {
		var p transport.GradientProducer = a
		if o.tcp != nil {
			p = tracedProducer{inner: a, log: &o.tcp.honest}
			if id < j.f {
				p = tracedProducer{inner: a, log: &o.tcp.faulty}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			agentErrs[id] = transport.ServeAgent(ctx, addr, id, p)
		}()
	}
	stop := func() {
		cancel()
		wg.Wait()
	}
	conns, err := transport.AcceptAgents(ln, len(agents), 10*time.Second)
	if err != nil {
		stop()
		return passResult{}, errors.Join(append(agentErrs, err)...)
	}
	var filter byzopt.Filter = byzopt.CWTM{}
	for i, c := range conns {
		conns[i] = serverConn{AgentConn: c}
		if o.tcp != nil {
			conns[i] = serverConn{AgentConn: c, log: &o.tcp.request}
		}
	}
	if o.tcp != nil {
		filter = o.tcp.server.wrapFilter(filter)
	}
	res := passResult{gaps: make([]time.Duration, 0, j.rounds)}
	var last time.Time
	srv, err := cluster.NewServer(cluster.Config{
		Conns: conns, F: j.f, Filter: filter, Box: j.box,
		X0: make([]float64, j.d), Rounds: j.rounds,
		Observer: dgd.ObserverFunc(func(t int, _ []float64, _, _ float64) error {
			now := time.Now()
			if t > 0 {
				res.gaps = append(res.gaps, now.Sub(last))
			}
			last = now
			return nil
		}),
	})
	var out *cluster.Result
	if err == nil {
		runStart := time.Now()
		if o.tcp != nil {
			o.tcp.server.rt.last = runStart
		}
		out, err = srv.Run(ctx)
		res.run = time.Since(runStart)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	stop()
	res.wall = time.Since(start)
	if err != nil {
		return res, errors.Join(append(agentErrs, err)...)
	}
	if len(out.Eliminated) > 0 {
		return res, fmt.Errorf("agents %v eliminated", out.Eliminated)
	}
	res.x = out.X
	return res, errors.Join(agentErrs...)
}

// --- expected outcomes ---

// expectedStatus is correctness check 1: the status of a cell is a function
// of its axes. It is skipped iff the filter's (n, f) condition fails, degraded
// iff a chaos plan is attached, otherwise ok.
func expectedStatus(s byzopt.SweepScenario) string {
	minN := 2*s.F + 1
	switch {
	case strings.Contains(s.Filter, "krum"):
		minN = 2*s.F + 3
	case s.Filter == "sdmmfd":
		minN = 3*s.F + 1
	}
	switch {
	case s.N < minN:
		return "skipped"
	case s.Chaos != "":
		return "degraded"
	}
	return "ok"
}

// checkCells returns how many cells of a pass have an outcome other than the
// expected one, and the first such cell. With oracle set it also applies
// check 5, the paper's guarantee on the Appendix-J instance: every f = 1 cell
// of CGE and CWTM ends within ε of x_H, and CGE under gradient-reverse
// converges to it.
func checkCells(cells []byzopt.SweepResult, want int, oracle bool) (bad int, first string) {
	note := func(format string, args ...any) {
		bad++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	if len(cells) != want {
		return want, fmt.Sprintf("%d cells, want %d", len(cells), want)
	}
	for i := range cells {
		c := &cells[i]
		if got, exp := c.Status(), expectedStatus(c.Scenario); got != exp {
			note("%s: status %s, want %s (%s)", c.Key(), got, exp, c.Err)
			continue
		}
		if !oracle || c.F != 1 || (c.Filter != "cge" && c.Filter != "cwtm") {
			continue
		}
		if c.FinalDist >= paperEpsilon {
			note("%s: final_dist %g, want < %g", c.Key(), c.FinalDist, paperEpsilon)
		} else if c.Filter == "cge" && c.Behavior == "gradient-reverse" && c.FinalDist >= 1e-9 {
			note("%s: final_dist %g, want < 1e-9", c.Key(), c.FinalDist)
		}
	}
	return bad, first
}

// export is the deterministic export of a pass: WriteSweepJSON without timings.
func export(cells []byzopt.SweepResult) ([]byte, error) {
	var buf bytes.Buffer
	err := byzopt.WriteSweepJSON(&buf, cells, false)
	return buf.Bytes(), err
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
