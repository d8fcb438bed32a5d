// Command abft-sweep runs a scenario-matrix sweep — a registered problem ×
// gradient filters × Byzantine behaviors × fault counts × system sizes —
// concurrently and prints one result row per scenario, optionally exporting
// JSON.
//
// Usage:
//
//	abft-sweep                                        # full registry grid, paper-sized synthetic instance
//	abft-sweep -problem paper -filters cge,cwtm       # the paper's Section-5 corner
//	abft-sweep -problem learning -n 10 -d 20 -f 3     # Appendix-K learning workload
//	abft-sweep -problem svm -n 10 -d 10 -f 3 -steps 0.1 -baseline  # Section-5 SVM remark, on any -backend
//	abft-sweep -f 1,2 -n 12,24 -d 2,10 -rounds 200    # a 4-axis grid
//	abft-sweep -baseline -f 1                         # add the fault-free omit-an-agent baseline axis
//	abft-sweep -workers 8 -json results.json          # 8-way pool + deterministic JSON export
//	abft-sweep -backend cluster -timeout 30s          # serve every scenario over the cluster stack
//	abft-sweep -backend p2p -behaviors equivocate     # decentralized Byzantine-broadcast substrate
//	abft-sweep -shard 0/4 -json shard0.json           # run one deterministic quarter of the grid
//	abft-sweep -merge -json full.json s0.json s1.json # recombine shard exports byte-identically
//	abft-sweep -progress                              # live done/total reporting on stderr
//	abft-sweep -coordinator :7600 -checkpoint g.ckpt -json full.json  # serve the grid to a worker fleet
//	abft-sweep -worker host:7600                      # one fleet worker (start any number)
//	abft-sweep -async-latency uniform:0.5:1.5 -async-policy first-k:4,deadline:2 \
//	    -straggler-rate 0,0.25 -async-stale reuse-last -async-with-sync   # asynchronous round models
//	abft-sweep -chaos omit:0.2+retry:2:0.1,crash:0.3 -chaos-with-none     # deterministic fault injection
//	abft-sweep -workers 1 -cpuprofile cpu.prof -memprofile heap.prof      # profiles for go tool pprof
//
// -problem accepts any name in the problem registry (see byzopt.Problem /
// RegisterProblem). Scenario seeds are derived by hashing each scenario's
// key, so the results (and the JSON, unless -timings is set) are
// byte-identical at any -workers value — and, for fault-free grids, on
// every -backend. -backend p2p executes each scenario over the
// Byzantine-broadcast peer-to-peer substrate (n > 3f; cells violating the
// bound come back "skipped"), where the "equivocate" behavior additionally
// lies while relaying other peers' broadcasts — the one adversary the
// server-based substrates cannot express. Sharding slices the expanded grid
// by index range;
// because every result records its grid index, -merge reassembles shard
// exports into exactly the bytes an unsharded run would have written.
// -timeout bounds each scenario; overruns are classified as "timeout"
// results in the table and JSON rather than failing the sweep. An
// interrupt (Ctrl-C) stops the sweep within one scenario and still prints
// and exports the scenarios that completed, in grid order.
//
// -async-latency enables the asynchronous round model as a grid axis: each
// scenario's agents take virtual-time delays from the given distribution
// (fixed:BASE, uniform:MIN:WIDTH, or pareto:SCALE:SHAPE), the server closes
// each round per -async-policy (wait-all; first-k:K, partial aggregation
// over the k earliest arrivals; deadline:BUDGET, a virtual-time budget), and
// late gradients are handled per -async-stale (drop, reuse-last, weighted;
// -async-max-stale bounds reuse age). -straggler-rate designates that
// fraction of agents persistent stragglers whose every delay is multiplied
// by -straggler-factor. The straggler-rate, policy, and staleness lists
// cross with the filter axes like every other grid dimension, and
// -async-with-sync adds the synchronous round model as a reference point.
// Everything stays virtual: delays are hash-derived from each scenario's
// seed, so async sweeps keep full byte-determinism at any -workers value
// and over a -coordinator fleet.
//
// -chaos enables deterministic system-fault injection as a grid axis: each
// comma-separated plan is a '+'-joined list of fault terms — crash:RATE
// (agents stop responding from a drawn round), omit:RATE (messages dropped),
// corrupt:RATE (payloads bit-flipped in transit, detected by CRC framing and
// reclassified as omission), dup:RATE (duplicate delivery), delay:RATE:EXTRA
// (extra virtual time) — with an optional retry:ATTEMPTS:BACKOFF delivery
// budget. Cells ride out injected faults through the partial-aggregation
// machinery instead of failing: they report the "degraded" status with
// per-run fault counters in the JSON. Every injection is hash-derived from
// the cell's seed, so chaos grids keep full byte-determinism at any -workers
// value and over a -coordinator fleet. -chaos-with-none prepends the
// fault-free reference point to the axis; the printed table then reads as a
// soak: a CHAOS column, COST_X (distance over the fault-free sibling's) and
// the per-run FAULTS tally.
//
// -coordinator serves the grid over TCP to any number of -worker processes
// instead of computing it locally: workers lease cell batches, stream
// results back, and a worker that crashes or wedges past -lease-ttl has its
// cells reassigned. With -checkpoint, completed cells persist across
// coordinator restarts and a rerun resumes the missing cells only. The
// fleet's export is byte-identical to a single-process run of the same
// flags, whatever the fleet size or failure history.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"byzopt/internal/aggregate"
	"byzopt/internal/cluster"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
	"byzopt/internal/p2p"
	"byzopt/internal/prof"
	"byzopt/internal/simtime"
	"byzopt/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abft-sweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out *os.File) (err error) {
	fs := flag.NewFlagSet("abft-sweep", flag.ContinueOnError)
	var (
		problem = fs.String("problem", sweep.ProblemSynthetic,
			"workload from the problem registry: "+strings.Join(sweep.ProblemNames(), ", "))
		filters    = fs.String("filters", "all", "comma-separated filter names (fixed registry names or parameterized ones like multikrum-7, gmom-5), or all")
		behaviors  = fs.String("behaviors", "all", "comma-separated behavior names, or all")
		fvals      = fs.String("f", "1", "comma-separated fault-tolerance values")
		nvals      = fs.String("n", "", "comma-separated system sizes (default 6)")
		dims       = fs.String("d", "", "comma-separated dimensions (default 2)")
		sketchDims = fs.String("sketch-dims", "", "comma-separated approximation dimensions swept for the sketch-configurable filters (0 = filter default); other filters collapse this axis")
		steps      = fs.String("steps", "", "comma-separated constant step sizes to sweep in addition to the paper's diminishing schedule (e.g. 0.05,0.01)")
		rounds     = fs.Int("rounds", 0, "iterations per scenario (0 = paper's 500)")
		seed       = fs.Int64("seed", 0, "base seed mixed into every scenario hash")
		noise      = fs.Float64("noise", 0, "synthetic observation noise (0 = default 0.05)")
		workers    = fs.Int("workers", 0, "scenario worker pool size (0 = GOMAXPROCS)")
		baseline   = fs.Bool("baseline", false, "add the fault-free omit-the-faulty-agents baseline as a grid axis")
		backend    = fs.String("backend", "inprocess", "execution substrate per scenario: inprocess, cluster, or p2p")
		timeout    = fs.Duration("timeout", 0, "per-scenario deadline; overruns become \"timeout\" results (0 = unbounded)")
		jsonPath   = fs.String("json", "", "write results JSON to this file")
		timings    = fs.Bool("timings", false, "include wall-clock times in the JSON (breaks byte-determinism)")
		quiet      = fs.Bool("quiet", false, "print only the summary line")
		progress   = fs.Bool("progress", false, "report per-scenario completion progress on stderr")
		shard      = fs.String("shard", "", "run only shard i/m of the grid, e.g. -shard 0/4")
		merge      = fs.Bool("merge", false, "merge shard JSON exports (positional args) instead of sweeping")
		coord      = fs.String("coordinator", "", "listen on this TCP address and serve the grid to -worker processes instead of sweeping locally")
		worker     = fs.String("worker", "", "lease cells from the coordinator at this address instead of sweeping locally")
		checkpoint = fs.String("checkpoint", "", "with -coordinator: record completed cells here (JSONL + atomic .snapshot) and resume an interrupted grid")
		leaseTTL   = fs.Duration("lease-ttl", 0, "with -coordinator: reassign a worker's cells if unfinished after this long (0 = 1m)")
		leaseCells = fs.Int("lease-cells", 0, "with -coordinator: cells handed out per lease (0 = 4)")
		addrFile   = fs.String("addr-file", "", "with -coordinator: write the bound listen address to this file (for :0 port discovery)")
		name       = fs.String("name", "", "with -worker: label reported to the coordinator (default: hostname)")

		asyncLatency = fs.String("async-latency", "", "enable the async round-model axis with this virtual-time latency model: fixed:BASE, uniform:MIN:WIDTH, or pareto:SCALE:SHAPE")
		asyncPolicy  = fs.String("async-policy", "wait-all", "comma-separated collection policies to sweep: wait-all, first-k:K, deadline:BUDGET")
		asyncStale   = fs.String("async-stale", "drop", "comma-separated staleness policies to sweep: drop, reuse-last, weighted")
		asyncMaxSt   = fs.Int("async-max-stale", 0, "oldest round age a stale gradient may be substituted at (0 = unbounded)")
		stragRates   = fs.String("straggler-rate", "0", "comma-separated fractions of agents designated persistent stragglers, swept as an axis")
		stragFactor  = fs.Float64("straggler-factor", 10, "delay multiplier applied to every straggler's latency")
		asyncSync    = fs.Bool("async-with-sync", false, "add the synchronous round model as a reference point on the async axis")

		chaosPlans = fs.String("chaos", "", "enable the fault-injection axis: comma-separated plans, each '+'-joined terms crash:RATE, omit:RATE, corrupt:RATE, dup:RATE, delay:RATE:EXTRA, retry:ATTEMPTS:BACKOFF (e.g. omit:0.2+retry:2:0.1)")
		chaosNone  = fs.Bool("chaos-with-none", false, "add the fault-free reference point to the chaos axis")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()
	if *merge {
		return runMerge(fs.Args(), *jsonPath, *timings, *quiet, out)
	}
	if *worker != "" {
		if *coord != "" {
			return errors.New("-worker and -coordinator are mutually exclusive")
		}
		if *shard != "" || *jsonPath != "" {
			return errors.New("-worker mode takes its grid from the coordinator; -shard and -json do not apply")
		}
		wname := *name
		if wname == "" {
			wname, _ = os.Hostname()
		}
		opts := sweep.WorkerOptions{Name: wname, Workers: *workers}
		if !*quiet {
			opts.Logf = logStderr
		}
		return sweep.Work(ctx, *worker, opts)
	}

	spec := sweep.Spec{
		Problem:         *problem,
		Rounds:          *rounds,
		Seed:            *seed,
		Noise:           *noise,
		Workers:         *workers,
		ScenarioTimeout: *timeout,
	}
	if *baseline {
		spec.Baselines = []bool{false, true}
	}
	if *progress {
		spec.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "abft-sweep: %d/%d scenarios done\n", done, total)
		}
	}
	if *shard != "" {
		sh, err := parseShard(*shard)
		if err != nil {
			return err
		}
		spec.Shard = sh
	}
	switch *backend {
	case "inprocess":
		// nil Backend selects dgd.InProcess.
	case "cluster":
		spec.Backend = &cluster.Backend{}
	case "p2p":
		spec.Backend = p2p.Backend{}
	default:
		return fmt.Errorf("unknown -backend %q (want inprocess, cluster, or p2p)", *backend)
	}
	if *filters != "all" {
		spec.Filters = splitList(*filters)
		// Resolve every name now, so a typo fails at the flag with the full
		// registry listing (including the parameterized families) instead of
		// surfacing later from spec validation.
		for _, fname := range spec.Filters {
			if _, err := aggregate.New(fname); err != nil {
				return fmt.Errorf("-filters: %w", err)
			}
		}
	}
	if *behaviors != "all" {
		spec.Behaviors = splitList(*behaviors)
	}
	if spec.FValues, err = parseInts(*fvals); err != nil {
		return fmt.Errorf("-f: %w", err)
	}
	if *nvals != "" {
		if spec.NValues, err = parseInts(*nvals); err != nil {
			return fmt.Errorf("-n: %w", err)
		}
	}
	if *dims != "" {
		if spec.Dims, err = parseInts(*dims); err != nil {
			return fmt.Errorf("-d: %w", err)
		}
	}
	if *sketchDims != "" {
		if spec.SketchDims, err = parseInts(*sketchDims); err != nil {
			return fmt.Errorf("-sketch-dims: %w", err)
		}
	}
	if *steps != "" {
		schedules := []dgd.StepSchedule{dgd.Diminishing{C: linreg.StepC, P: 1}}
		for _, tok := range splitList(*steps) {
			eta, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return fmt.Errorf("-steps %q: %w", tok, err)
			}
			schedules = append(schedules, dgd.Constant{Eta: eta})
		}
		spec.Steps = schedules
	}
	if *asyncLatency == "" {
		asyncTouched := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "async-policy", "async-stale", "async-max-stale", "straggler-rate", "straggler-factor", "async-with-sync":
				asyncTouched = f.Name
			}
		})
		if asyncTouched != "" {
			return fmt.Errorf("-%s needs -async-latency to enable the async axis", asyncTouched)
		}
	} else {
		if spec.Asyncs, err = buildAsyncAxis(*asyncLatency, *asyncPolicy, *asyncStale, *stragRates, *stragFactor, *asyncMaxSt, *asyncSync); err != nil {
			return err
		}
	}
	if *chaosPlans == "" {
		if *chaosNone {
			return errors.New("-chaos-with-none needs -chaos to enable the fault-injection axis")
		}
	} else {
		if spec.Chaoses, err = buildChaosAxis(*chaosPlans, *chaosNone); err != nil {
			return err
		}
	}

	var results []sweep.Result
	var runErr error
	if *coord != "" {
		if *timeout != 0 {
			return errors.New("-timeout is process-local and does not travel to -worker processes")
		}
		cs := sweep.CoordinatorSpec{
			Spec:           spec,
			LeaseTTL:       *leaseTTL,
			LeaseCells:     *leaseCells,
			CheckpointPath: *checkpoint,
		}
		if *progress {
			cs.Progress = spec.Progress
			cs.Spec.Progress = nil
		}
		if !*quiet {
			cs.Logf = logStderr
		}
		results, runErr = runCoordinator(ctx, *coord, *addrFile, cs)
	} else {
		results, runErr = sweep.RunContext(ctx, spec)
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return runErr
	}
	if !*quiet {
		fmt.Fprint(out, sweep.FormatTable(results))
	}
	fmt.Fprintln(out, sweep.Summarize(results))

	if *jsonPath != "" {
		if err := sweep.WriteJSONFile(*jsonPath, results, *timings); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}
	// A cancelled sweep still printed and exported its completed scenarios
	// above; surface the interruption in the exit status.
	return runErr
}

// logStderr is the default human-progress sink for fleet modes.
func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "abft-sweep: "+format+"\n", args...)
}

// runCoordinator binds the listen address, publishes it to addrFile when
// asked (so scripts can use ":0" and discover the port), and serves the grid.
func runCoordinator(ctx context.Context, addr, addrFile string, cs sweep.CoordinatorSpec) ([]sweep.Result, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-coordinator: %w", err)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			_ = ln.Close()
			return nil, fmt.Errorf("-addr-file: %w", err)
		}
	}
	return sweep.Coordinate(ctx, ln, cs)
}

// runMerge recombines shard JSON exports into the full-grid export: with
// -json it writes the merged file (byte-identical to an unsharded run of
// the same spec), otherwise it prints the merged table.
func runMerge(paths []string, jsonPath string, timings, quiet bool, out *os.File) error {
	if len(paths) == 0 {
		return errors.New("-merge needs shard JSON files as arguments")
	}
	results, err := sweep.MergeJSONFiles(paths...)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprint(out, sweep.FormatTable(results))
	}
	fmt.Fprintln(out, sweep.Summarize(results))
	if jsonPath != "" {
		if err := sweep.WriteJSONFile(jsonPath, results, timings); err != nil {
			return err
		}
		fmt.Fprintf(out, "merged %d shards into %s\n", len(paths), jsonPath)
	}
	return nil
}

// buildAsyncAxis crosses the straggler-rate, collection-policy, and
// staleness-policy lists under one latency model into the sweep's Asyncs
// axis, optionally prefixed by the synchronous reference point. Semantic
// validation (positive scales, K bounds) is the sweep's job — this only
// parses.
func buildAsyncAxis(latency, policies, stales, rates string, factor float64, maxStale int, withSync bool) ([]sweep.AsyncSpec, error) {
	base, err := parseAsyncLatency(latency)
	if err != nil {
		return nil, err
	}
	rateVals, err := parseFloats(rates)
	if err != nil {
		return nil, fmt.Errorf("-straggler-rate: %w", err)
	}
	var out []sweep.AsyncSpec
	if withSync {
		out = append(out, sweep.AsyncSpec{})
	}
	for _, rate := range rateVals {
		for _, ptok := range splitList(policies) {
			pol, k, deadline, err := parseAsyncPolicy(ptok)
			if err != nil {
				return nil, err
			}
			for _, stale := range splitList(stales) {
				a := base
				a.StragglerRate = rate
				if rate > 0 {
					a.StragglerFactor = factor
				}
				a.Policy, a.K, a.Deadline = pol, k, deadline
				a.Stale = stale
				a.MaxStale = maxStale
				out = append(out, a)
			}
		}
	}
	return out, nil
}

// buildChaosAxis parses the comma-separated chaos plan list into the
// sweep's Chaoses axis, optionally prefixed by the fault-free reference
// point. Semantic validation (rate ranges, budgets) is the sweep's job —
// this only parses.
func buildChaosAxis(plans string, withNone bool) ([]sweep.ChaosSpec, error) {
	var out []sweep.ChaosSpec
	if withNone {
		out = append(out, sweep.ChaosSpec{})
	}
	for _, tok := range splitList(plans) {
		cs, err := parseChaosSpec(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

// parseChaosSpec parses one '+'-joined chaos plan — the same canonical form
// ChaosSpec.String renders, e.g. "crash:0.1+omit:0.2+retry:2:0.1".
func parseChaosSpec(s string) (sweep.ChaosSpec, error) {
	var c sweep.ChaosSpec
	for _, term := range strings.Split(s, "+") {
		parts := strings.Split(term, ":")
		bad := func() (sweep.ChaosSpec, error) {
			return sweep.ChaosSpec{}, fmt.Errorf("-chaos %q: term %q: want crash:RATE, omit:RATE, corrupt:RATE, dup:RATE, delay:RATE:EXTRA, or retry:ATTEMPTS:BACKOFF", s, term)
		}
		vals := make([]float64, 0, 2)
		for _, p := range parts[1:] {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return bad()
			}
			vals = append(vals, v)
		}
		switch parts[0] {
		case "crash":
			if len(vals) != 1 {
				return bad()
			}
			c.CrashRate = vals[0]
		case "omit":
			if len(vals) != 1 {
				return bad()
			}
			c.OmitRate = vals[0]
		case "corrupt":
			if len(vals) != 1 {
				return bad()
			}
			c.CorruptRate = vals[0]
		case "dup":
			if len(vals) != 1 {
				return bad()
			}
			c.DupRate = vals[0]
		case "delay":
			if len(vals) != 2 {
				return bad()
			}
			c.DelayRate, c.Delay = vals[0], vals[1]
		case "retry":
			if len(vals) != 2 || vals[0] != float64(int(vals[0])) {
				return bad()
			}
			c.Attempts, c.RetryDelay = int(vals[0]), vals[1]
		default:
			return bad()
		}
	}
	return c, nil
}

// parseAsyncLatency parses fixed:BASE, uniform:MIN:WIDTH, or
// pareto:SCALE:SHAPE into the latency fields of an AsyncSpec.
func parseAsyncLatency(s string) (sweep.AsyncSpec, error) {
	parts := strings.Split(s, ":")
	bad := func() (sweep.AsyncSpec, error) {
		return sweep.AsyncSpec{}, fmt.Errorf("-async-latency %q: want fixed:BASE, uniform:MIN:WIDTH, or pareto:SCALE:SHAPE", s)
	}
	var vals []float64
	for _, p := range parts[1:] {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return bad()
		}
		vals = append(vals, v)
	}
	a := sweep.AsyncSpec{Latency: parts[0]}
	switch parts[0] {
	case simtime.LatencyFixed:
		if len(vals) != 1 {
			return bad()
		}
		a.Base = vals[0]
	case simtime.LatencyUniform:
		if len(vals) != 2 {
			return bad()
		}
		a.Base, a.Spread = vals[0], vals[1]
	case simtime.LatencyPareto:
		if len(vals) != 2 {
			return bad()
		}
		a.Base, a.Alpha = vals[0], vals[1]
	default:
		return bad()
	}
	return a, nil
}

// parseAsyncPolicy parses wait-all, first-k:K, or deadline:BUDGET.
func parseAsyncPolicy(s string) (policy string, k int, deadline float64, err error) {
	name, arg, hasArg := strings.Cut(s, ":")
	switch name {
	case dgd.CollectWaitAll:
		if hasArg {
			return "", 0, 0, fmt.Errorf("-async-policy %q: wait-all takes no argument", s)
		}
	case dgd.CollectFirstK:
		if !hasArg {
			return "", 0, 0, fmt.Errorf("-async-policy %q: want first-k:K", s)
		}
		if k, err = strconv.Atoi(arg); err != nil {
			return "", 0, 0, fmt.Errorf("-async-policy %q: %w", s, err)
		}
	case dgd.CollectDeadline:
		if !hasArg {
			return "", 0, 0, fmt.Errorf("-async-policy %q: want deadline:BUDGET", s)
		}
		if deadline, err = strconv.ParseFloat(arg, 64); err != nil {
			return "", 0, 0, fmt.Errorf("-async-policy %q: %w", s, err)
		}
	default:
		return "", 0, 0, fmt.Errorf("-async-policy %q: want wait-all, first-k:K, or deadline:BUDGET", s)
	}
	return name, k, deadline, nil
}

// parseShard parses "i/m" into a sweep.Shard.
func parseShard(s string) (*sweep.Shard, error) {
	idx := strings.IndexByte(s, '/')
	if idx < 0 {
		return nil, fmt.Errorf("-shard %q: want i/m, e.g. 0/4", s)
	}
	i, err := strconv.Atoi(s[:idx])
	if err != nil {
		return nil, fmt.Errorf("-shard %q: %w", s, err)
	}
	m, err := strconv.Atoi(s[idx+1:])
	if err != nil {
		return nil, fmt.Errorf("-shard %q: %w", s, err)
	}
	if m < 1 || i < 0 || i >= m {
		return nil, fmt.Errorf("-shard %q: need 0 <= i < m", s)
	}
	return &sweep.Shard{Index: i, Count: m}, nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range splitList(s) {
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range splitList(s) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
