package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/chaos"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/vecmath"
)

// Result is one scenario's outcome. Exactly one of the success fields
// (FinalDist et al.) or the status flags (Skipped, Diverged, TimedOut, Err)
// is meaningful; Status summarizes which.
type Result struct {
	Scenario
	// GridIndex is the scenario's position in the full expanded grid and
	// GridTotal the full grid's size — both stable under sharding, which is
	// what lets MergeResults reassemble shard exports into the
	// byte-identical full export and detect missing shards.
	GridIndex int `json:"grid_index"`
	GridTotal int `json:"grid_total"`
	// Seed is the scenario seed derived from the key (recorded so a single
	// scenario can be replayed without the Spec).
	Seed int64 `json:"seed"`
	// FinalDist is ||x_T - x_H||, the paper's headline metric.
	FinalDist float64 `json:"final_dist"`
	// FinalX is the output estimate x_T.
	FinalX []float64 `json:"final_x,omitempty"`
	// LossStart, LossFinal, LossMin summarize the honest aggregate loss
	// trace Q_H(x_t) for t = 0..T.
	LossStart float64 `json:"loss_start"`
	LossFinal float64 `json:"loss_final"`
	LossMin   float64 `json:"loss_min"`
	// MetricName and MetricFinal report the problem's optional task metric
	// (e.g. "test_accuracy") at the final estimate.
	MetricName  string  `json:"metric,omitempty"`
	MetricFinal float64 `json:"metric_final,omitempty"`
	// TraceLoss and TraceDist are the full per-round series Q_H(x_t) and
	// ||x_t - x_H|| for t = 0..T, recorded only when Spec.RecordTrace is
	// set — the series the figure drivers plot. TraceMetric is the matching
	// task-metric series for problems that expose one.
	TraceLoss   []float64 `json:"trace_loss,omitempty"`
	TraceDist   []float64 `json:"trace_dist,omitempty"`
	TraceMetric []float64 `json:"trace_metric,omitempty"`
	// TraceMetrics holds the final value of every Spec.TraceMetrics entry
	// the cell could evaluate (metrics inapplicable to the cell's workload
	// are skipped, not errors); TraceMetricSeries holds the matching
	// per-round series, exported only when Spec.RecordTrace is set. Both
	// are absent on pre-metric sweeps, so their wire bytes are unchanged.
	TraceMetrics      map[string]float64   `json:"trace_metrics,omitempty"`
	TraceMetricSeries map[string][]float64 `json:"trace_metric_series,omitempty"`
	// AsyncMeanArrived, AsyncMaxStale, and AsyncVirtualTime summarize an
	// asynchronous cell's round stats: the mean per-round fresh-arrival
	// count, the worst staleness ever substituted into a filter input, and
	// the total virtual time the run consumed. All zero (and omitted from
	// exports) on synchronous cells.
	AsyncMeanArrived float64 `json:"async_mean_arrived,omitempty"`
	AsyncMaxStale    int     `json:"async_max_stale,omitempty"`
	AsyncVirtualTime float64 `json:"async_virtual_time,omitempty"`
	// TraceArrived and TraceMaxStale are the per-round fresh-arrival and
	// max-staleness series of an asynchronous cell, recorded only when
	// Spec.RecordTrace is set.
	TraceArrived  []int `json:"trace_arrived,omitempty"`
	TraceMaxStale []int `json:"trace_max_stale,omitempty"`
	// Degraded reports that the cell rode out injected system faults and
	// completed anyway — graceful degradation, distinct from every failure
	// status. Faults is the whole-run fault tally; both are absent on cells
	// without injected faults, so pre-chaos wire bytes are unchanged.
	Degraded bool            `json:"degraded,omitempty"`
	Faults   *chaos.Counters `json:"faults,omitempty"`
	// Diverged reports that the estimate (or a gradient) left the finite
	// floats — the engine's dgd.ErrDiverged.
	Diverged bool `json:"diverged,omitempty"`
	// Skipped reports an infeasible grid point: the filter's (n, f)
	// tolerance condition failed, or f >= n/2.
	Skipped bool `json:"skipped,omitempty"`
	// TimedOut reports that the scenario exceeded Spec.ScenarioTimeout;
	// like Diverged it is data, not a sweep failure.
	TimedOut bool `json:"timed_out,omitempty"`
	// Err is the error string for skipped/diverged/timeout/failed
	// scenarios.
	Err string `json:"error,omitempty"`
	// WallMS is the scenario's wall-clock milliseconds. It is the one
	// nondeterministic field, and WriteJSON strips it by default.
	WallMS float64 `json:"wall_ms,omitempty"`
}

// Status returns "ok", "skipped", "diverged", "timeout", "error", or
// "degraded" — the last for cells that completed while riding out injected
// system faults.
func (r *Result) Status() string {
	switch {
	case r.Skipped:
		return "skipped"
	case r.Diverged:
		return "diverged"
	case r.TimedOut:
		return "timeout"
	case r.Err != "":
		return "error"
	case r.Degraded:
		return "degraded"
	default:
		return "ok"
	}
}

// workloadEntry caches one materialized workload (or its build failure)
// under the problem's own cache key.
type workloadEntry struct {
	wl  *Workload
	err error
}

// buildWorkloads materializes every distinct workload of the grid once,
// before the worker pool starts, and returns each job's entry, position for
// position: a full-registry sweep reuses one instance across all filter ×
// behavior cells that map to the same problem cache key instead of
// regenerating data and re-solving x_H per scenario. The entries are
// read-only afterwards, so workers share them without synchronization. An
// infeasible job (2f >= n) is skipped before it needs a workload and gets
// the zero entry.
func buildWorkloads(spec *Spec, prob Problem, jobs []job) []workloadEntry {
	cache := make(map[string]workloadEntry)
	entries := make([]workloadEntry, len(jobs))
	for i, jb := range jobs {
		scn := jb.scn
		if 2*scn.F >= scn.N {
			continue
		}
		key := prob.Key(spec, scn)
		entry, ok := cache[key]
		if !ok {
			wl, err := prob.Build(spec, scn)
			entry = workloadEntry{wl: wl, err: err}
			cache[key] = entry
		}
		entries[i] = entry
	}
	return entries
}

// Run expands the spec and executes every scenario, as RunContext with a
// background context.
func Run(spec Spec) ([]Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext expands the spec and executes every scenario on a pool of
// spec.Workers goroutines, each through spec.Backend. Results come back in
// grid order regardless of completion order, and every value except WallMS
// is a pure function of the Spec — the same spec yields the same results at
// any worker count, on either backend.
//
// Cancelling the context stops the sweep within one scenario's duration:
// already-completed scenarios are returned as partial results, in grid
// order, together with an error wrapping ctx.Err(). Spec.ScenarioTimeout,
// by contrast, never fails the sweep — a scenario that exceeds it comes
// back as a Result with status "timeout".
func RunContext(ctx context.Context, spec Spec) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jobs, err := expand(&spec)
	if err != nil {
		return nil, err
	}
	prob, err := resolveProblem(&spec)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(jobs))
	done := make([]bool, len(jobs))
	completed := 0
	err = runPool(ctx, &spec, prob, jobs, func(pos int, res Result) error {
		results[pos], done[pos] = res, true
		completed++
		if spec.Progress != nil {
			spec.Progress(completed, len(jobs))
		}
		return nil
	})
	if err != nil {
		partial := results[:0]
		for i := range results {
			if done[i] {
				partial = append(partial, results[i])
			}
		}
		return partial, fmt.Errorf("sweep: cancelled after %d of %d scenarios: %w", completed, len(jobs), err)
	}
	return results, nil
}

// RunCells executes the named cells — full-grid indices, as recorded in
// Result.GridIndex — of the spec, streaming each completed Result through
// emit as soon as it is available. It is the worker half of the distributed
// sweep fabric: a coordinator leases index batches, the worker runs them
// here and streams the rows back. Cells run on a pool of spec.Workers
// goroutines (the usual <= 0 means GOMAXPROCS); emit calls are serialized
// but arrive in completion order, not index order — every Result carries
// its grid index, so callers reassemble. An emit error, a cancelled ctx, or
// an out-of-range index aborts the run; like RunContext, per-cell failures
// are classified into the Result instead.
func RunCells(ctx context.Context, spec Spec, indices []int, emit func(Result) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if emit == nil {
		return fmt.Errorf("nil emit callback: %w", ErrSpec)
	}
	if spec.Shard != nil {
		return fmt.Errorf("RunCells addresses the full grid; Spec.Shard must be nil: %w", ErrSpec)
	}
	jobs, err := expand(&spec)
	if err != nil {
		return err
	}
	prob, err := resolveProblem(&spec)
	if err != nil {
		return err
	}
	selected := make([]job, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= len(jobs) {
			return fmt.Errorf("cell index %d outside grid of %d: %w", idx, len(jobs), ErrSpec)
		}
		selected[i] = jobs[idx]
	}
	return runPool(ctx, &spec, prob, selected, func(_ int, res Result) error { return emit(res) })
}

// runPool is the one cell pool, behind RunContext and RunCells alike: it
// materializes the workloads of jobs, runs the cells on spec.Workers
// goroutines (<= 0 means GOMAXPROCS; a pool of one is the same code with one
// goroutine) and hands each finished cell to emit with its position in jobs.
// emit calls are serialized and arrive in completion order. The first emit
// error stops the pool — no further cell starts and the cells in flight are
// cancelled — and is the error returned; otherwise the pool returns
// ctx.Err(), nil when every cell was emitted.
//
// Cells are drawn longest-job-first: heterogeneous grids (cheap regression
// cells next to expensive learning cells) would otherwise tail-stall on one
// worker grinding the biggest scenario last. Every Result is a pure function
// of its cell, so the schedule never shows in the output.
func runPool(ctx context.Context, spec *Spec, prob Problem, jobs []job, emit func(pos int, res Result) error) error {
	backend := spec.Backend
	if backend == nil {
		backend = dgd.InProcess{}
	}
	workloads := buildWorkloads(spec, prob, jobs)
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	order := longestFirst(jobs)
	poolCtx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		next    atomic.Int64 // positions of order handed out so far
		emitMu  sync.Mutex
		emitErr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for poolCtx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				pos := order[k]
				res, err := runScenario(poolCtx, spec, backend, jobs[pos], workloads[pos])
				if err != nil {
					return // the cell was cancelled, and so is the pool
				}
				emitMu.Lock()
				if emitErr == nil {
					if emitErr = emit(pos, res); emitErr != nil {
						stop()
					}
				}
				emitMu.Unlock()
			}
		}()
	}
	wg.Wait()
	if emitErr != nil {
		return emitErr
	}
	return ctx.Err()
}

// longestFirst returns the positions of jobs in descending order of
// estimated cost steps·n·d (stable: equal-cost jobs keep grid order).
// Infeasible cells (2f >= n) return immediately at run time, so their
// position in the schedule is irrelevant.
func longestFirst(jobs []job) []int {
	order := make([]int, len(jobs))
	cost := make([]int64, len(jobs))
	for i, jb := range jobs {
		order[i] = i
		cost[i] = int64(jb.scn.Rounds) * int64(jb.scn.N) * int64(jb.scn.Dim)
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	return order
}

// metricRecorder observes a run and records the problem's task metric,
// evaluating it on the Metric's cadence and carrying the last value forward
// in between so the series aligns with the loss series round for round.
type metricRecorder struct {
	metric *Metric
	rounds int
	last   float64
	series []float64
}

func (m *metricRecorder) ObserveRound(t int, x []float64, loss, dist float64) error {
	every := m.metric.Every
	if every < 1 {
		every = 1
	}
	if t%every == 0 || t == m.rounds {
		v, err := m.metric.Eval(x)
		if err != nil {
			return fmt.Errorf("metric %s: %w", m.metric.Name, err)
		}
		m.last = v
	}
	m.series = append(m.series, m.last)
	return nil
}

// agreementRecorder scores every filter call of a run against the cell
// filter's exact twin and records the running agreeing share, one entry per
// estimate x_t, like the loss series.
type agreementRecorder struct {
	twin          aggregate.IntoFilter
	out           []float64
	scratch       aggregate.Scratch
	calls, agreed int
	series        []float64
}

// newAgreementRecorder returns the recorder of a cell over n agents in
// dimension d, or nil when the cell's filter has no exact twin. The twin is
// a fresh instance of the cell's own registered filter with its
// approximation switched off — a projection of k ≥ d, a sample of
// m ≥ n−1 — which TestSketchIdentityParity and TestSampledFullParity pin bit
// for bit to the exact filter.
func newAgreementRecorder(filter string, n, d, rounds int, seed int64) *agreementRecorder {
	fl, err := aggregate.New(filter)
	sc, configurable := fl.(aggregate.SketchConfigurable)
	twin, into := fl.(aggregate.IntoFilter)
	if err != nil || !configurable || !into {
		return nil
	}
	sc.ConfigureSketch(max(d, n-1), seed)
	return &agreementRecorder{twin: twin, out: make([]float64, d), series: make([]float64, 0, rounds+1)}
}

// ObserveRound implements dgd.RoundObserver: the share over the calls before
// round t, 1 before the first.
func (a *agreementRecorder) ObserveRound(int, []float64, float64, float64) error {
	share := 1.0
	if a.calls > 0 {
		share = float64(a.agreed) / float64(a.calls)
	}
	a.series = append(a.series, share)
	return nil
}

// ObserveFilter implements dgd.FilterObserver.
func (a *agreementRecorder) ObserveFilter(t, f int, input [][]float64, out []float64) error {
	if err := a.twin.AggregateInto(a.out, input, f, &a.scratch); err != nil {
		return fmt.Errorf("exact twin %s at round %d: %w", a.twin.Name(), t, err)
	}
	a.calls++
	for i, v := range out {
		if math.Float64bits(v) != math.Float64bits(a.out[i]) && !(v == 0 && a.out[i] == 0) {
			return nil
		}
	}
	a.agreed++
	return nil
}

// cellRecorder is every cell's first observer. At each estimate x_t it
// evaluates the honest loss Q_H(x_t) and the distance ||x_t - x_H|| — the
// calls dgd.Round.Record makes for Config.TrackLoss and Config.Reference,
// which the sweep leaves unset — and keeps what the export reads: the first,
// last and least loss and the last distance. The per-round series, Rounds+1
// long, are recorded only in trace, which is set when the spec exports them
// or a trace metric reads them.
type cellRecorder struct {
	loss  costfunc.Function // nil: the workload tracks no loss
	ref   []float64         // nil: the workload has no reference point
	trace *dgd.TraceRecorder

	lossStart, lossFinal, lossMin, dist float64
}

// ObserveRound implements dgd.RoundObserver; the kernel records from t = 0.
// Its loss and distance are NaN, since it tracks neither; the recorder hands
// its own to trace, NaN for what the workload does not track.
func (c *cellRecorder) ObserveRound(t int, x []float64, _, _ float64) error {
	loss, dist := math.NaN(), math.NaN()
	if c.loss != nil {
		v, err := c.loss.Eval(x)
		if err != nil {
			return fmt.Errorf("loss at round %d: %w", t, err)
		}
		loss, c.lossFinal = v, v
		if t == 0 {
			c.lossStart, c.lossMin = v, v
		}
		if v < c.lossMin {
			c.lossMin = v
		}
	}
	if c.ref != nil {
		d, err := vecmath.Dist(x, c.ref)
		if err != nil {
			return fmt.Errorf("distance at round %d: %w", t, err)
		}
		dist, c.dist = d, d
	}
	if c.trace != nil {
		return c.trace.ObserveRound(t, x, loss, dist)
	}
	return nil
}

// multiObserver fans one run's rounds out to several observers.
type multiObserver []dgd.RoundObserver

func (m multiObserver) ObserveRound(t int, x []float64, loss, dist float64) error {
	for _, o := range m {
		if err := o.ObserveRound(t, x, loss, dist); err != nil {
			return err
		}
	}
	return nil
}

// ObserveAsyncRound implements dgd.AsyncObserver, forwarding the async round
// stats to every member that consumes them.
func (m multiObserver) ObserveAsyncRound(stats dgd.AsyncRoundStats) error {
	for _, o := range m {
		if ao, ok := o.(dgd.AsyncObserver); ok {
			if err := ao.ObserveAsyncRound(stats); err != nil {
				return err
			}
		}
	}
	return nil
}

// ObserveChaosRound implements dgd.ChaosObserver, forwarding the fault-
// injection stats to every member that consumes them.
func (m multiObserver) ObserveChaosRound(stats dgd.ChaosRoundStats) error {
	for _, o := range m {
		if co, ok := o.(dgd.ChaosObserver); ok {
			if err := co.ObserveChaosRound(stats); err != nil {
				return err
			}
		}
	}
	return nil
}

// withFilterFace adds the dgd.FilterObserver face to a run's observers. Only
// a cell that requests agreement is given it, so no other cell's kernel
// calls out after its filter.
type withFilterFace struct {
	multiObserver
	dgd.FilterObserver
}

// runScenario executes one grid point end to end through the backend.
// Failures are data, not control flow: infeasible points come back Skipped,
// non-finite runs come back Diverged, scenarios exceeding
// spec.ScenarioTimeout come back TimedOut, and anything else lands in Err,
// so one bad cell never aborts a sweep. The single exception is
// cancellation of the sweep's own context, which is returned as an error so
// the pool can stop.
func runScenario(ctx context.Context, spec *Spec, backend dgd.Backend, jb job, entry workloadEntry) (Result, error) {
	scn := jb.scn
	res := Result{Scenario: scn, GridIndex: jb.idx, GridTotal: jb.total, Seed: scn.DeriveSeed(spec.Seed)}
	if spec.PinBehaviorSeed {
		res.Seed = spec.Seed
	}
	fail := func(err error) (Result, error) {
		switch {
		case errors.Is(err, aggregate.ErrTooManyFaults):
			res.Skipped = true
		case errors.Is(err, dgd.ErrInadmissible):
			// The substrate cannot admit the configuration at all (the p2p
			// backend's n > 3f broadcast bound): an infeasible grid point on
			// this backend, classified like the filter tolerance refusals so
			// mixed grids survive.
			res.Skipped = true
		case errors.Is(err, dgd.ErrDiverged):
			res.Diverged = true
		case errors.Is(err, ErrSpec):
			// Per-scenario spec errors are grid infeasibilities (an
			// underdetermined honest system, f consuming every agent):
			// data, like the filter tolerance refusals above.
			res.Skipped = true
		}
		res.Err = err.Error()
		return res, nil
	}
	if 2*scn.F >= scn.N {
		res.Skipped = true
		res.Err = fmt.Sprintf("infeasible: need f < n/2, got n=%d f=%d", scn.N, scn.F)
		return res, nil
	}
	if entry.err != nil {
		return fail(entry.err)
	}
	wl := entry.wl
	if wl == nil {
		return fail(fmt.Errorf("no cached workload for %s: %w", scn.Key(), ErrSpec))
	}
	agents, err := wl.NewAgents()
	if err != nil {
		return fail(err)
	}
	runF := scn.F
	switch {
	case scn.Baseline:
		// The papers' fault-free baseline: the would-be Byzantine agents
		// are omitted entirely and the honest remainder runs with f = 0.
		if scn.F >= len(agents) {
			return fail(fmt.Errorf("baseline omits all %d agents: %w", len(agents), ErrSpec))
		}
		agents = agents[scn.F:]
		runF = 0
	case scn.Behavior != BehaviorNone && !wl.FaultsApplied:
		behavior, err := byzantine.New(scn.Behavior, res.Seed)
		if err != nil {
			return fail(err)
		}
		for i := 0; i < scn.F; i++ {
			agents[i], err = dgd.NewFaulty(agents[i], behavior)
			if err != nil {
				return fail(err)
			}
		}
	}
	filter, err := aggregate.New(scn.Filter)
	if err != nil {
		return fail(err)
	}
	if sc, ok := filter.(aggregate.SketchConfigurable); ok {
		// Key the approximate filters on the per-scenario seed so grid cells
		// draw independent projections/samples; SketchDim 0 selects the
		// filter default dimension.
		sc.ConfigureSketch(scn.SketchDim, res.Seed)
	}
	if sk, ok := filter.(aggregate.SeedConfigurable); ok {
		// Key the stateful REDGRAF filters' auxiliary chain on the
		// per-scenario seed so pooled Scratches can never leak auxiliary
		// state between grid cells.
		sk.ConfigureSeed(res.Seed)
	}
	scnCtx := ctx
	if spec.ScenarioTimeout > 0 {
		var cancel context.CancelFunc
		scnCtx, cancel = context.WithTimeout(ctx, spec.ScenarioTimeout)
		defer cancel()
	}
	needEstimates := false
	for _, name := range spec.TraceMetrics {
		if m, ok := LookupTraceMetric(name); ok && m.NeedEstimates {
			needEstimates = true
			break
		}
	}
	cell := &cellRecorder{loss: wl.HonestLoss, ref: wl.XH}
	if spec.RecordTrace || len(spec.TraceMetrics) > 0 {
		// Estimate copies would dominate the recorder's memory at high
		// dimension, so they are kept only when a selected trace metric
		// reads the trajectory itself; the exported loss/distance series
		// never include them.
		cell.trace = &dgd.TraceRecorder{OmitEstimates: !needEstimates}
	}
	var others multiObserver // observers beside the cell recorder
	var metrics *metricRecorder
	if wl.Metric != nil {
		metrics = &metricRecorder{metric: wl.Metric, rounds: scn.Rounds}
		others = append(others, metrics)
	}
	asyncCfg := jb.async.Config(res.Seed)
	var asyncStats *asyncStatsRecorder
	if asyncCfg != nil {
		asyncStats = &asyncStatsRecorder{trace: spec.RecordTrace}
		others = append(others, asyncStats)
	}
	chaosPlan := jb.chaos.Config(res.Seed, scn.Rounds)
	var chaosStats *chaosStatsRecorder
	if chaosPlan != nil {
		chaosStats = &chaosStatsRecorder{}
		others = append(others, chaosStats)
	}
	var agree *agreementRecorder
	if slices.Contains(spec.TraceMetrics, TraceMetricAgreement) {
		if agree = newAgreementRecorder(scn.Filter, len(agents), len(wl.X0), scn.Rounds, res.Seed); agree != nil {
			others = append(others, agree)
		}
	}
	var observer dgd.RoundObserver = cell
	if len(others) > 0 {
		observers := append(multiObserver{cell}, others...)
		observer = observers
		if agree != nil {
			observer = withFilterFace{observers, agree}
		}
	}
	cfg := dgd.Config{
		Agents:   agents,
		F:        runF,
		Filter:   filter,
		Steps:    jb.steps,
		Box:      wl.Box,
		X0:       wl.X0,
		Rounds:   scn.Rounds,
		Observer: observer,
		Async:    asyncCfg,
		Chaos:    chaosPlan,
	}
	if wl.HonestLoss != nil && wl.HonestLoss.Dim() != len(wl.X0) || wl.XH != nil && len(wl.XH) != len(wl.X0) {
		// A loss or reference the cell recorder cannot evaluate goes to the
		// backend, whose validation refuses the run in its own words.
		cfg.TrackLoss, cfg.Reference = wl.HonestLoss, wl.XH
	}
	start := time.Now()
	out, err := backend.Run(scnCtx, cfg)
	res.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctx.Err() != nil {
				// The sweep's own context ended: this scenario was
				// interrupted, not too slow.
				return res, ctx.Err()
			}
			if spec.ScenarioTimeout > 0 && scnCtx.Err() != nil {
				// The per-scenario deadline expired. The error text is
				// normalized so timeout results stay deterministic (the
				// interrupted round varies run to run).
				res.TimedOut = true
				res.Err = fmt.Sprintf("scenario timed out after %s", spec.ScenarioTimeout)
				return res, nil
			}
			// A context error from inside the backend with both our
			// contexts healthy: ordinary failure data, not a timeout.
		}
		return fail(err)
	}
	res.FinalX = out.X
	res.FinalDist = cell.dist
	res.LossStart, res.LossFinal, res.LossMin = cell.lossStart, cell.lossFinal, cell.lossMin
	if metrics != nil {
		res.MetricName = wl.Metric.Name
		if len(metrics.series) > 0 {
			res.MetricFinal = metrics.series[len(metrics.series)-1]
		}
		if spec.RecordTrace {
			res.TraceMetric = metrics.series
		}
	}
	if cell.trace != nil && spec.RecordTrace {
		// Untracked series record as NaN, which JSON cannot carry; export
		// only the series the workload actually tracks.
		if wl.HonestLoss != nil {
			res.TraceLoss = cell.trace.Loss
		}
		if wl.XH != nil {
			res.TraceDist = cell.trace.Dist
		}
	}
	if cell.trace != nil && len(spec.TraceMetrics) > 0 {
		in := TraceInput{
			Loss:     cell.trace.Loss,
			Dist:     cell.trace.Dist,
			X:        cell.trace.X,
			Workload: wl,
			Rounds:   scn.Rounds,
		}
		if metrics != nil {
			in.task = metrics.series
		}
		if agree != nil && agree.calls > 0 {
			in.agreement = agree.series
		}
		for _, name := range spec.TraceMetrics {
			m, ok := LookupTraceMetric(name)
			if !ok {
				continue
			}
			final, series, err := m.Eval(in)
			// An erroring or non-finite metric is inapplicable to this
			// cell (no reference to measure against, no task metric, a
			// diverging trace JSON could not carry): skip it, keeping
			// mixed grids runnable with one metric selection.
			if err != nil || !finiteSeries(series) || math.IsNaN(final) || math.IsInf(final, 0) {
				continue
			}
			if res.TraceMetrics == nil {
				res.TraceMetrics = make(map[string]float64, len(spec.TraceMetrics))
			}
			res.TraceMetrics[name] = final
			if spec.RecordTrace {
				if res.TraceMetricSeries == nil {
					res.TraceMetricSeries = make(map[string][]float64, len(spec.TraceMetrics))
				}
				res.TraceMetricSeries[name] = series
			}
		}
	}
	if asyncStats != nil {
		res.AsyncMeanArrived = asyncStats.meanArrived()
		res.AsyncMaxStale = asyncStats.maxStale
		res.AsyncVirtualTime = asyncStats.virtualTime
		if spec.RecordTrace {
			res.TraceArrived = asyncStats.arrived
			res.TraceMaxStale = asyncStats.maxStales
		}
	}
	if chaosStats != nil && !chaosStats.total.IsZero() {
		tally := chaosStats.total
		res.Faults = &tally
		res.Degraded = true
	}
	return res, nil
}
