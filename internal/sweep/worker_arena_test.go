package sweep

// A pool goroutine lends every cell it runs one dgd arena and one cell
// recorder. These tests hold that what one cell leaves in them never reaches
// the next, and that a pass allocates the same whatever the collector did in
// between.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"byzopt/internal/cluster"
	"byzopt/internal/dgd"
	"byzopt/internal/p2p"
	"byzopt/internal/simtime"
)

// TestNoStateCrossesCells runs grids whose consecutive cells change what a
// worker's arena holds between cells. The first changes n, d, the filter, the
// Byzantine coalition (gradient-reverse wrappers, then equivocating peers
// that p2p's liar table sees), the async/chaos overlay and the outcome
// (krum-sketch skips at n = 7, f = 3 after its run has set up, p2p refuses
// n <= 3f), with every behavior seeded alike (PinBehaviorSeed), so
// back-to-back sdmmfd cells key their auxiliary chains on one seed. The
// second is the case that carries an sdmmfd centre from one cell into the
// next: its n = 10 cell commits its centre at round 0 and fails at round 1
// (failsFromRound), and the n = 7 cell drawn next loses every report of
// round 0 and filters from round 1 on, where it looks the centre up under
// (seed, 0) — the key the cell before committed. Seed 88 is one whose
// omission draws lose round 0 whole and deliver at least four reports at
// round 1 (sdmmfd needs more than 3f). At one worker every cell follows the
// one before on the same arena; at three, in an order the scheduler picks.
// Each Result must be, byte for byte, the cell run alone through RunCells on
// a fresh worker.
func TestNoStateCrossesCells(t *testing.T) {
	synthetic, err := LookupProblem(ProblemSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	grids := []struct {
		name string
		spec Spec
	}{{"mixed", Spec{
		Problem:   ProblemSynthetic,
		Filters:   []string{"cwtm", "krum-sketch", "sdmmfd"},
		Behaviors: []string{"gradient-reverse", "equivocate"},
		FValues:   []int{1, 3},
		NValues:   []int{7, 10},
		Dims:      []int{2, 3},
		Asyncs: []AsyncSpec{{}, {Latency: simtime.LatencyUniform, Base: 0.5, Spread: 2,
			Policy: dgd.CollectFirstK, K: 5, Stale: dgd.StaleReuse, MaxStale: 2}},
		Chaoses:         []ChaosSpec{{}, {OmitRate: 0.2, CrashRate: 0.05, Attempts: 2, RetryDelay: 0.05}},
		Rounds:          12,
		Seed:            5,
		PinBehaviorSeed: true,
	}}, {"lost-round", Spec{
		ProblemDef: failsFromRound{Problem: synthetic, n: 10, round: 1},
		Filters:    []string{"sdmmfd"},
		Behaviors:  []string{"gradient-reverse"},
		FValues:    []int{1},
		NValues:    []int{10, 7},
		Dims:       []int{2},
		// A stale report stands in for a lost one, so after round 1 the
		// n = 7 cell keeps more than 3f inputs.
		Asyncs: []AsyncSpec{{Base: 1, Stale: dgd.StaleReuse}},
		// Cells are drawn longest first and equal costs in grid order: the
		// chaos-free n = 10 cell is followed by the lossy n = 7 one.
		Chaoses:         []ChaosSpec{{OmitRate: 0.6}, {}},
		Rounds:          10,
		Seed:            88,
		PinBehaviorSeed: true,
	}}}
	for _, grid := range grids {
		for _, backend := range []struct {
			name string
			b    dgd.Backend
		}{{"inprocess", nil}, {"cluster", &cluster.Backend{}}, {"p2p", p2p.Backend{}}} {
			t.Run(grid.name+"/"+backend.name, func(t *testing.T) {
				spec := grid.spec
				spec.Backend = backend.b
				statuses := checkCellsAlone(t, spec)
				if grid.name == "mixed" && (statuses["ok"]+statuses["degraded"] == 0 || statuses["skipped"] == 0) {
					t.Fatalf("statuses %v: the grid must finish some cells and skip others", statuses)
				}
				if grid.name == "lost-round" && (statuses["error"] != 1 || statuses["degraded"] != 1) {
					t.Fatalf("statuses %v: the grid must end one cell at round 1 and run one through lost rounds", statuses)
				}
			})
		}
	}
}

// checkCellsAlone runs every cell of spec alone on a fresh worker, then the
// grid at one and three workers, and fails on the first cell whose export
// differs. It returns how many cells alone ended in each status.
func checkCellsAlone(t *testing.T, spec Spec) map[string]int {
	t.Helper()
	scns, err := Scenarios(spec)
	if err != nil {
		t.Fatal(err)
	}
	alone := make([][]byte, len(scns))
	statuses := map[string]int{}
	for i := range scns {
		spec.Workers = 1
		err := RunCells(context.Background(), spec, []int{i}, func(r Result) error {
			alone[i] = exportBytes(t, []Result{r})
			statuses[r.Status()]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 3} {
		spec.Workers = workers
		results, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if got := exportBytes(t, []Result{r}); !bytes.Equal(got, alone[i]) {
				t.Fatalf("workers=%d: cell %d (%s) after others:\n%s\nalone:\n%s", workers, i, r.Key(), got, alone[i])
			}
		}
	}
	t.Logf("%d cells, statuses %v", len(scns), statuses)
	return statuses
}

// failsFromRound is a Problem whose n-agent instances fail from round on:
// every agent's report is an error, which ends the cell there.
type failsFromRound struct {
	Problem
	n, round int
}

func (p failsFromRound) Build(spec *Spec, scn Scenario) (*Workload, error) {
	wl, err := p.Problem.Build(spec, scn)
	if err != nil || scn.N != p.n {
		return wl, err
	}
	failing := *wl
	failing.NewAgents = func() ([]dgd.Agent, error) {
		agents, err := wl.NewAgents()
		for i, a := range agents {
			agents[i] = failingAgent{Agent: a, from: p.round}
		}
		return agents, err
	}
	return &failing, nil
}

// failingAgent reports an error from round from on.
type failingAgent struct {
	dgd.Agent
	from int
}

func (a failingAgent) Gradient(t int, x []float64) ([]float64, error) {
	if t >= a.from {
		return nil, fmt.Errorf("agent fails at round %d", t)
	}
	return a.Agent.Gradient(t, x)
}

// TestClusterRunJoinsLateAgentCalls: on cluster.Backend a Byzantine agent
// that misses the server's round deadline is eliminated while its call still
// runs on the transport's worker goroutine, reading the wrapper the worker's
// arena lent. The next cell on the worker rewrites that wrapper, so the run
// must not return before the call has ended: no call may be in flight when a
// cell's result is emitted (and under -race the detector sees the late read
// against the next cell's WrapFaulty).
func TestClusterRunJoinsLateAgentCalls(t *testing.T) {
	synthetic, err := LookupProblem(ProblemSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowAgentProblem{Problem: synthetic, round: 2, sleep: 200 * time.Millisecond}
	spec := Spec{
		ProblemDef: slow,
		Filters:    []string{"cwtm"},
		Behaviors:  []string{"gradient-reverse", "random"},
		FValues:    []int{1},
		NValues:    []int{7},
		Dims:       []int{2},
		Rounds:     6,
		Seed:       5,
		Workers:    1,
		Backend:    &cluster.Backend{RoundTimeout: 20 * time.Millisecond},
	}
	err = RunCells(context.Background(), spec, []int{0, 1}, func(r Result) error {
		if n := slow.inFlight.Load(); n != 0 {
			return fmt.Errorf("%s: %d agent calls still in flight after the run returned", r.Key(), n)
		}
		return nil
	})
	// A call the run left behind would still read its lent wrapper; let it
	// end before the test does, so that the race detector sees the read.
	for deadline := time.Now().Add(2 * time.Second); slow.inFlight.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if slow.done.Load() == 0 {
		t.Fatal("the slow agent was never asked for its late report")
	}
}

// slowAgentProblem is a Problem whose first cell's agent 0 — a Byzantine
// agent's inner agent at f >= 1 — sleeps through round round before it
// reports. Only the first cell's is slow: the counters are atomics, which the
// race detector takes for synchronisation, so a later slow cell would order
// its own writes before the first one's late read.
type slowAgentProblem struct {
	Problem
	round                 int
	sleep                 time.Duration
	built, inFlight, done atomic.Int64
}

func (p *slowAgentProblem) Build(spec *Spec, scn Scenario) (*Workload, error) {
	wl, err := p.Problem.Build(spec, scn)
	if err != nil {
		return nil, err
	}
	slow := *wl
	slow.NewAgents = func() ([]dgd.Agent, error) {
		agents, err := wl.NewAgents()
		if err == nil && p.built.Add(1) == 1 {
			agents[0] = slowAgent{Agent: agents[0], p: p}
		}
		return agents, err
	}
	return &slow, nil
}

type slowAgent struct {
	dgd.Agent
	p *slowAgentProblem
}

func (a slowAgent) Gradient(t int, x []float64) ([]float64, error) {
	if t == a.p.round {
		a.p.inFlight.Add(1)
		time.Sleep(a.p.sleep)
		a.p.inFlight.Add(-1)
		a.p.done.Add(1)
	}
	return a.Agent.Gradient(t, x)
}

// TestPassMallocsRepeat: the cell pool of a paper_grid-shaped sweep
// allocates the same count whether one garbage collection ran before it or
// two. A worker's arena is its own, neither pooled nor cached across passes,
// so a pass cannot reuse what the collector frees; an arena held in a
// sync.Pool would be reused after one collection and rebuilt after the
// second. What is counted is runPool — the workloads, the workers and their
// cells — and not the expansion before it, and the grid keeps f = 1, where no
// cell is skipped: naming a step schedule and formatting a skipped cell's
// error both go through fmt, whose printers sit in a sync.Pool of their own.
// The runtime updates its type-assertion caches at random (about one miss in
// a thousand allocates a new cache), so one pair of passes may differ by
// those; the test asks for one equal pair in five.
func TestPassMallocsRepeat(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not repeat under the race detector")
	}
	spec := Spec{
		Problem:   ProblemPaper,
		Filters:   []string{"mean", "cge", "cge-avg", "cwtm", "cwmedian", "krum", "geomedian", "centeredclip"},
		Behaviors: []string{"gradient-reverse", "random", "ipm", "alie"},
		FValues:   []int{1},
		Rounds:    100,
		Seed:      1,
		Workers:   1,
	}
	jobs, err := expand(&spec)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := resolveProblem(&spec)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass := func(collections int) uint64 {
		for range collections {
			runtime.GC()
		}
		// The runtime's own after-collection work (the unique-map cleanup,
		// the scavenger's timer) allocates on goroutines of its own; let it
		// end before counting.
		time.Sleep(10 * time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := runPool(context.Background(), &spec, prob, jobs, func(_ int, r Result) error {
			if r.Status() != "ok" {
				return fmt.Errorf("%s: %s %s", r.Key(), r.Status(), r.Err)
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	pass(1) // the registries' and formatters' first use
	var pairs [][2]uint64
	for range 5 {
		one, two := pass(1), pass(2)
		pairs = append(pairs, [2]uint64{one, two})
		if one == two {
			t.Logf("allocations a pass of 32 cells: %d after one collection and after two (pairs %v)", one, pairs)
			if per := float64(one) / 32; per > 8 {
				t.Errorf("%.2f allocations a cell, want at most 8", per)
			}
			return
		}
	}
	t.Fatalf("allocations a pass after one collection and after two: %v, want an equal pair", pairs)
}
